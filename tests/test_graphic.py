"""Realizability checks and descent-based construction."""

import dataclasses
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import jdmkit
from jdmkit import graphic
from jdmkit.core import GraphError, Jdm, LabeledGraph, extract_jdm, vertex_counts
from jdmkit.graphic import (
    CandidateState,
    NotGraphicalError,
    check_graphical,
    construct_realization,
    initial_candidate,
    psi_descent_step,
)


class TestCheckGraphical:
    def test_graphical_examples(self):
        for rows in ([[0, 0], [0, 3]], [[0, 2], [2, 2]], [[0, 0], [0, 6]],
                     [[1, 2], [2, 0]], [[0, 0, 3], [0, 0, 0], [3, 0, 6]]):
            report = check_graphical(Jdm(rows))
            assert report.verdict, rows
            assert report.violations == ()
            assert report.first_violation is None

    def test_non_integral_counts(self):
        report = check_graphical(Jdm([[0, 1], [1, 0]]))
        assert not report.verdict
        assert report.counts == (1, Fraction(1, 2))
        assert report.integral_ok == (True, False)
        assert report.first_violation.condition == "integrality"
        assert 2 in report.first_violation.classes

    def test_within_class_capacity(self):
        # two class-2 vertices cannot carry two within-class edges
        report = check_graphical(Jdm([[0, 0], [0, 2]]))
        assert not report.verdict
        assert report.within_ok == (True, False)
        assert report.first_violation.condition == "within-class-capacity"

    def test_cross_class_capacity(self):
        rows = [[0] * 4 for _ in range(4)]
        rows[1][3] = rows[3][1] = 4
        report = check_graphical(Jdm(rows))
        assert not report.verdict
        assert not report.cross_ok[1][3]
        conditions = {v.condition for v in report.violations}
        assert "cross-class-capacity" in conditions
        assert any(set(v.classes) == {2, 4} for v in report.violations)

    def test_zero_matrix_is_graphical(self):
        assert check_graphical(Jdm([[0]])).verdict


class TestDescent:
    def test_initial_candidate_hits_pair_counts(self):
        j = Jdm([[0, 0, 3], [0, 0, 0], [3, 0, 6]])
        state = initial_candidate(j)
        assert state.pair_counts() == {(1, 3): 3, (3, 3): 6}
        assert state.psi % 2 == 0

    def test_descent_drops_psi_by_two(self):
        j = Jdm([[0, 0, 3], [0, 0, 0], [3, 0, 6]])
        state = initial_candidate(j)
        while state.psi:
            nxt = psi_descent_step(state)
            assert nxt.psi == state.psi - 2
            state = nxt
        assert state.graph.is_realization()
        assert extract_jdm(state.graph) == j

    def test_descent_refuses_finished_state(self):
        j = Jdm([[0, 0], [0, 3]])
        state = initial_candidate(j)
        while state.psi:
            state = psi_descent_step(state)
        with pytest.raises(Exception, match="psi"):
            psi_descent_step(state)


    def test_descent_refuses_inconsistent_state(self):
        # Matrix: one class-1 edge and two cross edges at the class-2 vertex 4.
        # The state holds two class-1 edges and one cross edge, so deficient
        # vertex 4 has no surplus vertex in its class.
        j = Jdm([[1, 2], [2, 0]])
        classes = {0: 1, 1: 1, 2: 1, 3: 1, 4: 2}
        state = CandidateState(j, LabeledGraph([(0, 1), (2, 3), (3, 4)], classes))
        with pytest.raises(GraphError, match="disagree with its matrix"):
            psi_descent_step(state)
        # A triangle matrix whose state lacks an edge: no surplus anywhere.
        j = Jdm([[0, 0], [0, 3]])
        state = CandidateState(j, LabeledGraph([(0, 1), (1, 2)], {0: 2, 1: 2, 2: 2}))
        with pytest.raises(GraphError, match="disagree with its matrix"):
            psi_descent_step(state)

    def test_descent_refuses_counts_of_another_matrix(self):
        # Every class's degree sum is right, so a descent would find its
        # witnesses, but the state holds one class-1 edge and four class-2
        # edges where the matrix asks for two cross edges and three class-2
        # ones; descending from it would realize [[1, 0], [0, 4]].
        j = Jdm([[0, 2], [2, 3]])
        classes = {0: 1, 1: 1, 2: 2, 3: 2, 4: 2, 5: 2}
        edges = [(0, 1), (2, 3), (3, 4), (4, 5), (2, 4)]
        state = CandidateState(j, LabeledGraph(edges, classes))
        with pytest.raises(GraphError, match="disagree with its matrix"):
            psi_descent_step(state)
        # A state copied from a trusted one with another graph is checked too.
        trusted = initial_candidate(j)
        with pytest.raises(GraphError, match="disagree with its matrix"):
            psi_descent_step(dataclasses.replace(trusted, graph=state.graph))

    def test_descent_accepts_a_consistent_hand_built_state(self):
        j = Jdm([[0, 2], [2, 3]])
        classes = {0: 1, 1: 1, 2: 2, 3: 2, 4: 2, 5: 2}
        edges = [(0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]
        state = CandidateState(j, LabeledGraph(edges, classes))
        while state.psi:
            state = psi_descent_step(state)
        assert extract_jdm(state.graph) == j


class TestConstruct:
    def test_construct_round_trips(self):
        for rows in ([[0, 0], [0, 3]], [[0, 2], [2, 2]], [[0, 0], [0, 6]],
                     [[1, 2], [2, 0]], [[0, 0, 3], [0, 0, 0], [3, 0, 6]]):
            j = Jdm(rows)
            g = construct_realization(j)
            assert g.is_realization()
            assert extract_jdm(g) == j

    def test_construct_honors_labels(self):
        j = Jdm([[0, 0], [0, 3]])
        g = construct_realization(j, labels=[10, 20, 30])
        assert g.vertices == (10, 20, 30)

    def test_construct_rejects_non_graphical(self):
        with pytest.raises(NotGraphicalError, match="not graphical"):
            construct_realization(Jdm([[0, 1], [1, 0]]))
        try:
            construct_realization(Jdm([[0, 0], [0, 2]]))
        except NotGraphicalError as e:
            assert not e.report.verdict
        else:
            pytest.fail("expected NotGraphicalError")

    def test_construct_random_extracted_matrices(self):
        # Any matrix observed on a real graph must rebuild into a realization
        # of itself.
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randrange(4, 9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.45
            ]
            if not edges:
                continue
            g = LabeledGraph.from_edges(edges)
            j = extract_jdm(g)
            assert check_graphical(j).verdict
            rebuilt = construct_realization(j)
            assert extract_jdm(rebuilt) == j
            counts = vertex_counts(j)
            assert sum(counts) == rebuilt.n


class TestDescentCost:
    def test_one_graph_build_and_one_step_per_psi_drop(self, monkeypatch):
        # Each step derives its graph from the previous one by rewire, so
        # construction builds a LabeledGraph from scratch once, for the
        # initial candidate, however many steps the descent takes.
        rng = random.Random(200)
        n = 200
        g = LabeledGraph.from_edges(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 8 / n
        )
        j = extract_jdm(g)
        initial_psi = initial_candidate(j).psi
        assert initial_psi >= 200
        calls = {"init": 0, "step": 0}
        init, step = LabeledGraph.__init__, graphic.psi_descent_step

        def counted_init(self, *args, **kwargs):
            calls["init"] += 1
            init(self, *args, **kwargs)

        def counted_step(s):
            calls["step"] += 1
            return step(s)

        monkeypatch.setattr(LabeledGraph, "__init__", counted_init)
        monkeypatch.setattr(graphic, "psi_descent_step", counted_step)
        out = construct_realization(j)
        assert calls == {"init": 1, "step": initial_psi // 2}
        assert extract_jdm(out) == j

    def test_psi_check_survives_optimized_mode(self):
        # A rewire that adds x-z but keeps y-z lowers psi by one, not two.
        # Under python -O the assert statements are gone, so only an
        # explicit check can refuse the step.
        script = textwrap.dedent(
            """
            import sys
            from jdmkit.core import GraphError, Jdm, LabeledGraph
            from jdmkit.graphic import construct_realization

            assert sys.flags.optimize
            rewire = LabeledGraph.rewire
            LabeledGraph.rewire = lambda self, remove, add: rewire(self, [], add)
            try:
                g = construct_realization(Jdm([[0, 0, 3], [0, 0, 0], [3, 0, 6]]))
            except GraphError as exc:
                print("GraphError:", exc)
            else:
                print("returned", g)
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(jdmkit.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "GraphError: descent step must drop psi by exactly 2\n"
