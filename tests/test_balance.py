"""Class averages, deviations, and the imbalance-lowering swap loop."""

import random
import textwrap
from fractions import Fraction

import pytest

from jdmkit.balance import (
    balance,
    balance_step,
    class_averages,
    deviation,
    imbalance,
)
from jdmkit.core import (
    GraphError,
    LabeledGraph,
    NotRealizationError,
    apply_rso,
    extract_jdm,
)


class TestClassAverages:
    def test_pendant_values(self, pendant):
        avgs = class_averages(extract_jdm(pendant))
        assert avgs.get(3, 1) == Fraction(3, 5)
        assert avgs.get(3, 3) == Fraction(12, 5)
        assert avgs.get(1, 3) == 1
        assert avgs.get(1, 1) == 0

    def test_empty_class_rejected(self, pendant):
        avgs = class_averages(extract_jdm(pendant))
        with pytest.raises(GraphError, match="empty or out of range"):
            avgs.get(2, 1)
        with pytest.raises(GraphError):
            avgs.get(4, 1)

    def test_average_matches_observed_mean(self, six_cycle):
        avgs = class_averages(extract_jdm(six_cycle))
        assert avgs.get(2, 2) == 2
        assert avgs.get(2, 1) == 0


class TestDeviationAndImbalance:
    def test_pendant_imbalance(self, pendant):
        assert imbalance(pendant, 3) == 2
        assert imbalance(pendant, 1) == 0
        assert imbalance(pendant, 2) == 0  # empty class

    def test_deviation_zero_means_floor_or_ceiling(self, pendant):
        # vertex 3 holds 2 class-1 neighbors against an average of 3/5
        assert deviation(pendant, 3, 1) == 1
        # vertex 4 holds 1, the ceiling of 3/5
        assert deviation(pendant, 4, 1) == 0
        assert deviation(pendant, 5, 1) == 0

    def test_deviation_validates(self, pendant):
        with pytest.raises(GraphError, match="out of range"):
            deviation(pendant, 3, 4)
        broken = LabeledGraph(edges=[(0, 1)], classes={0: 1, 1: 2})
        with pytest.raises(NotRealizationError):
            deviation(broken, 0, 1)

    def test_balanced_graph_has_zero_imbalance(self, six_cycle):
        assert imbalance(six_cycle, 2) == 0


class TestBalanceStep:
    def test_step_lowers_only_the_active_class(self, pendant):
        before = {j: imbalance(pendant, j) for j in (1, 3)}
        out, rso = balance_step(pendant, 3)
        assert rso.pivot_class == 3
        assert imbalance(out, 3) < before[3]
        assert imbalance(out, 1) == before[1]
        assert extract_jdm(out) == extract_jdm(pendant)

    def test_step_refuses_balanced_class(self, pendant):
        with pytest.raises(GraphError, match="already balanced"):
            balance_step(pendant, 1)

    @pytest.mark.parametrize(
        "sabotage, message",
        [
            # A swap that moves nothing leaves the imbalance where it was.
            ("core._SwapState.swap = lambda self, r: None", "swap must strictly lower the imbalance"),
            # The top vertex never finds a neighbor to hand over.
            (
                "core._SwapState.movable = lambda self, v, i, u: None",
                "no movable witness-class neighbor at the top vertex",
            ),
        ],
    )
    def test_invariants_survive_optimized_mode(self, pendant, sabotage, message, optimized_stdout):
        script = textwrap.dedent(
            f"""
            import sys
            from jdmkit import core
            from jdmkit.balance import balance_step

            assert sys.flags.optimize
            {sabotage}
            g = core.LabeledGraph.from_edges({list(pendant.edges())})
            try:
                out, r = balance_step(g, 3)
            except core.GraphError as exc:
                print("GraphError:", exc)
            else:
                print("returned", r)
            """
        )
        assert optimized_stdout(script) == f"GraphError: {message}\n"


class TestBalance:
    def test_pendant_balances_within_budget(self, pendant):
        out, swaps = balance(pendant)
        assert extract_jdm(out) == extract_jdm(pendant)
        budget = sum(imbalance(pendant, j) for j in pendant.partition())
        assert len(swaps) <= budget
        for j in out.partition():
            assert imbalance(out, j) == 0
        for v in out.vertices:
            for i in range(1, out.delta + 1):
                assert deviation(out, v, i) == 0

    def test_balanced_input_is_untouched(self, six_cycle):
        out, swaps = balance(six_cycle)
        assert swaps == []
        assert out == six_cycle

    def test_random_graphs_balance_and_replay(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randrange(5, 10)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            if not edges:
                continue
            g = LabeledGraph.from_edges(edges)
            out, swaps = balance(g)
            budget = sum(imbalance(g, j) for j in g.partition())
            assert len(swaps) <= budget
            # replay the trace: each swap lowers its own class and no other
            cur = g
            for r in swaps:
                prev = {j: imbalance(cur, j) for j in cur.partition()}
                cur = apply_rso(cur, r)
                assert imbalance(cur, r.pivot_class) < prev[r.pivot_class]
                for j in prev:
                    if j != r.pivot_class:
                        assert imbalance(cur, j) == prev[j]
            assert cur == out
