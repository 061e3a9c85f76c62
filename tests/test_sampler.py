"""Stub-matching space, exchange chains, and the correlation diagnostic."""

import itertools
import math
import random
import textwrap
from fractions import Fraction

import pytest

from jdmkit.core import GraphError, Jdm, LabeledGraph, extract_jdm
from jdmkit.graphic import construct_realization
from jdmkit.sampler import (
    ChainRunner,
    Configuration,
    autocorrelation,
    build_model,
    chain_a_step,
    chain_b_step,
    embed_realization,
    simple_fiber_size,
    to_multigraph,
    uniform_configuration,
)


class ScriptedRng:
    """Plays back queued (bound, value) draws and verifies each bound."""

    def __init__(self, queue):
        self.queue = list(queue)

    def randrange(self, n):
        bound, val = self.queue.pop(0)
        assert bound == n, (bound, n)
        return val


class TestBuildModel:
    def test_three_loop_model_shape(self):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        assert model.component_classes == (2,)
        assert model.component_sizes() == (6,)
        assert model.partition() == {2: (0, 1, 2)}
        assert model.minis[2] == (
            (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2),
        )
        assert len(model.points[2]) == 6
        assert all(pair == (2, 2) for (pair, e, side) in model.points[2])

    def test_cross_edges_put_points_on_both_classes(self):
        model = build_model(Jdm([[0, 2], [2, 2]]))
        assert model.component_classes == (1, 2)
        assert model.component_sizes() == (2, 6)
        assert len(model.minis[1]) == 2
        assert sum(1 for (pair, e, s) in model.points[2] if pair == (1, 2)) == 2
        assert sum(1 for (pair, e, s) in model.points[2] if pair == (2, 2)) == 4

    def test_non_integral_counts_rejected(self):
        with pytest.raises(GraphError, match="would need"):
            build_model(Jdm([[0, 1], [1, 0]]))

    def test_labels_must_cover_the_count(self):
        j = Jdm([[0, 0], [0, 3]])
        model = build_model(j, labels=[7, 8, 9])
        assert model.partition() == {2: (7, 8, 9)}
        with pytest.raises(GraphError, match="distinct labels"):
            build_model(j, labels=[7, 8])
        with pytest.raises(GraphError, match="distinct labels"):
            build_model(j, labels=[7, 7, 8])


class TestConfigurationsAndMultigraphs:
    def test_identity_matching_gives_three_loops(self):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        c = Configuration(model=model, match=(tuple(range(6)),))
        mg = to_multigraph(c)
        assert mg.pair_counts == {(0, 0): 1, (1, 1): 1, (2, 2): 1}
        assert not mg.is_simple
        assert mg.degree(0) == 2
        assert mg.fiber_key() == (((0, 0), 1), ((1, 1), 1), ((2, 2), 1))
        with pytest.raises(GraphError, match="loops or parallel"):
            mg.as_labeled_graph()

    def test_key_round_trip(self):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        c = uniform_configuration(model, random.Random(1))
        assert c.key() == c.match
        assert Configuration(model=model, match=c.match) == c

    def test_simple_configuration_lifts_to_graph(self):
        j = Jdm([[0, 0], [0, 3]])
        model = build_model(j)
        for perm in itertools.permutations(range(6)):
            mg = to_multigraph(Configuration(model=model, match=(perm,)))
            if mg.is_simple:
                g = mg.as_labeled_graph()
                assert extract_jdm(g) == j
                break
        else:
            pytest.fail("no simple matching found")

    def test_uniform_configuration_is_seed_deterministic(self):
        model = build_model(Jdm([[0, 2], [2, 2]]))
        a = uniform_configuration(model, random.Random(9))
        b = uniform_configuration(model, random.Random(9))
        assert a == b

    @pytest.mark.parametrize(
        "sabotage, message",
        [
            # Class sizes of zero leave class 2's six mini-vertices unmatched.
            ("sampler._class_sizes = lambda j: [0] * j.k", "class 2 must hold 0 mini-vertices and edge-points"),
            # Each edge label keeps only its first point.
            (
                "ends = sampler._label_endpoints; "
                "sampler._label_endpoints = lambda m, match: {k: vs[:1] for k, vs in ends(m, match).items()}",
                "every edge label must receive exactly two points",
            ),
        ],
    )
    def test_invariants_survive_optimized_mode(self, sabotage, message, optimized_stdout):
        script = textwrap.dedent(
            f"""
            import random, sys
            from jdmkit import sampler
            from jdmkit.core import GraphError, Jdm

            assert sys.flags.optimize
            {sabotage}
            try:
                model = sampler.build_model(Jdm([[0, 0], [0, 3]]))
                mg = sampler.to_multigraph(sampler.uniform_configuration(model, random.Random(1)))
            except GraphError as exc:
                print("GraphError:", exc)
            else:
                print("returned", mg)
            """
        )
        assert optimized_stdout(script) == f"GraphError: {message}\n"


class TestEmbedRealization:
    def test_round_trip(self, six_cycle):
        j = extract_jdm(six_cycle)
        model = build_model(j, labels=[1, 2, 3, 4, 5, 6])
        c = embed_realization(six_cycle, model)
        mg = to_multigraph(c)
        assert mg.is_simple
        assert mg.as_labeled_graph() == six_cycle

    def test_rejects_foreign_matrix(self, six_cycle):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        with pytest.raises(GraphError, match="matrices differ"):
            embed_realization(six_cycle, model)

    def test_rejects_foreign_labels(self, six_cycle):
        model = build_model(extract_jdm(six_cycle))  # labels 0..5
        with pytest.raises(GraphError, match="partitions differ"):
            embed_realization(six_cycle, model)


class TestSimpleFiberSize:
    def test_frozen_values(self):
        assert simple_fiber_size(Jdm([[0, 0], [0, 3]])) == 384
        assert simple_fiber_size(Jdm([[0, 2], [2, 2]])) == 128
        assert simple_fiber_size(Jdm([[0, 0], [0, 6]])) == 2949120

    def test_formula_shape(self):
        # slot orders (i!)^{n_i}, loop-pair flips & relabelings 2^J_ii J_ii!,
        # cross relabelings J_il!
        j = Jdm([[0, 2], [2, 2]])
        expect = (
            math.factorial(1) ** 2
            * math.factorial(2) ** 3
            * (2 ** 2) * math.factorial(2)
            * math.factorial(2)
        )
        assert simple_fiber_size(j) == expect


class TestScriptedSteps:
    def test_hold_branch_keeps_the_matching(self):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        start = Configuration(model=model, match=(tuple(range(6)),))
        rng = ScriptedRng([(2, 0)])
        out = chain_a_step(start, rng)
        assert out.match == start.match
        assert not rng.queue

    def test_move_branch_changes_the_matching(self):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        start = Configuration(model=model, match=(tuple(range(6)),))
        seen = set()
        for g in range(6):
            for k2 in range(5):
                rng = ScriptedRng([(2, 1), (6, g), (5, k2)])
                out = chain_a_step(start, rng)
                assert not rng.queue
                assert out.match != start.match
                seen.add(out.match)
        # 30 draws, each exchanging one chosen point with one of the 5 others
        assert len(seen) == 15

    def test_single_point_component_always_holds(self):
        # class 1 has one vertex with one slot; picking its lone point can
        # exchange with nothing, so the step holds without a third draw
        model = build_model(Jdm([[0, 0, 1], [0, 0, 0], [1, 0, 7]]))
        assert model.component_sizes() == (1, 15)
        start = uniform_configuration(model, random.Random(0))
        rng = ScriptedRng([(2, 1), (16, 0)])
        out = chain_a_step(start, rng)
        assert out.match == start.match
        assert not rng.queue

    def test_chain_b_rejects_non_simple_input(self):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        loops = Configuration(model=model, match=(tuple(range(6)),))
        with pytest.raises(GraphError, match="^chain b needs a simple starting configuration$"):
            chain_b_step(loops, random.Random(0))

    def test_chain_b_never_leaves_simple_states(self):
        j = Jdm([[0, 0], [0, 3]])
        model = build_model(j)
        c = embed_realization(construct_realization(j), model)
        rng = random.Random(13)
        for _ in range(300):
            c = chain_b_step(c, rng)
            assert to_multigraph(c).is_simple


class TestChainRunner:
    def test_validates_inputs(self):
        j = Jdm([[0, 0], [0, 3]])
        model = build_model(j)
        other = build_model(j, labels=[5, 6, 7])
        start = Configuration(model=model, match=(tuple(range(6)),))
        with pytest.raises(GraphError, match="unknown chain kind"):
            ChainRunner(model, start, "c", random.Random(0))
        with pytest.raises(GraphError, match="different model"):
            ChainRunner(other, start, "a", random.Random(0))
        with pytest.raises(GraphError, match="simple starting"):
            ChainRunner(model, start, "b", random.Random(0))

    def test_bookkeeping_matches_recomputation(self):
        j = Jdm([[0, 2], [2, 2]])
        model = build_model(j)
        start = uniform_configuration(model, random.Random(2))
        runner = ChainRunner(model, start, "a", random.Random(3))
        for step in range(400):
            runner.step()
            if step % 20 == 0:
                fresh = to_multigraph(runner.configuration())
                assert runner.multigraph().pair_counts == fresh.pair_counts
                assert runner.is_simple() == fresh.is_simple
                assert runner.fiber_key() == fresh.fiber_key()
        assert runner.steps == 400
        assert runner.holds <= 400

    def test_chain_b_counts_rejections_and_stays_simple(self):
        j = Jdm([[0, 2], [2, 2]])
        model = build_model(j)
        start = embed_realization(construct_realization(j), model)
        runner = ChainRunner(model, start, "b", random.Random(5))
        for _ in range(500):
            runner.step()
            assert runner.nonsimple == 0
            assert runner.is_simple()
        fresh = to_multigraph(runner.configuration())
        assert fresh.is_simple
        assert runner.steps == 500

    def test_rejection_restores_the_previous_state(self):
        j = Jdm([[0, 2], [2, 2]])
        model = build_model(j)
        start = embed_realization(construct_realization(j), model)
        rng = random.Random(7)
        runner = ChainRunner(model, start, "b", rng)
        prev_key = runner.config_key()
        prev_rejects = runner.rejects
        for _ in range(500):
            runner.step()
            if runner.rejects > prev_rejects:
                assert runner.config_key() == prev_key
                fresh = to_multigraph(runner.configuration())
                assert runner.multigraph().pair_counts == fresh.pair_counts
                assert runner.pair_counts == fresh.pair_counts
            prev_key = runner.config_key()
            prev_rejects = runner.rejects
        assert runner.rejects > 0


    @pytest.mark.parametrize("kind", ["a", "b"])
    def test_incremental_bookkeeping_after_every_step(self, kind):
        # Classes 1 and 2 share cross pair (1, 2) and class 2 has a diagonal
        # pair, so proposals make loops and parallel edges and chain b rejects.
        j = Jdm([[0, 2], [2, 2]])
        model = build_model(j)
        start = embed_realization(construct_realization(j), model)
        runner = ChainRunner(model, start, kind, random.Random(11))
        nonsimple_seen = 0
        for _ in range(600):
            runner.step()
            fresh = to_multigraph(runner.configuration())
            assert runner.pair_counts == fresh.pair_counts
            assert runner.nonsimple == sum(
                mult if u == v else mult - 1
                for (u, v), mult in fresh.pair_counts.items()
            )
            nonsimple_seen += runner.nonsimple > 0
        # Chain a visits loops and parallel edges; chain b refuses them.
        assert (nonsimple_seen > 0) if kind == "a" else (runner.rejects > 0)


class TestAutocorrelation:
    def test_constant_series(self):
        out = autocorrelation([3.0] * 50, max_lag=5)
        assert out.rho == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert out.integrated_time == 1.0

    def test_alternating_series(self):
        out = autocorrelation([1.0, 0.0] * 40, max_lag=4)
        assert out.rho[0] == 1.0
        assert out.rho[1] < 0
        assert out.integrated_time == 1.0

    def test_blocky_series_has_long_memory(self):
        series = []
        for block in range(40):
            series.extend([float(block % 2)] * 25)
        out = autocorrelation(series, max_lag=100)
        assert 10 < out.integrated_time < 60

    def test_series_must_exceed_the_lag(self):
        with pytest.raises(GraphError, match="lag"):
            autocorrelation([1.0, 2.0], max_lag=2)

    def test_matches_exact_arithmetic(self):
        rng = random.Random(11)
        for n in (5, 12, 30):
            series = [rng.choice((0.0, 1.0, 0.5, 3.25)) for _ in range(n)]
            if len(set(series)) == 1:
                continue
            x = [Fraction(v) for v in series]
            mean = sum(x) / n
            d = [v - mean for v in x]
            c0 = sum(v * v for v in d)
            out = autocorrelation(series, max_lag=n - 1)
            for k, got in enumerate(out.rho):
                exact = sum(d[i] * d[i + k] for i in range(n - k)) / c0
                assert abs(got - float(exact)) <= 1e-12

    def test_runs_without_numpy(self, python_run):
        script = (
            "import sys, jdmkit\n"
            "from jdmkit.sampler import autocorrelation\n"
            "autocorrelation([0.0, 1.0, 1.0, 0.0, 1.0], max_lag=2)\n"
            "print('numpy' in sys.modules)\n"
        )
        out = python_run(["-c", script], check=True).stdout
        assert out == "False\n"
