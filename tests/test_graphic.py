"""Realizability checks and descent-based construction."""

import dataclasses
import random
import textwrap
from collections import Counter
from fractions import Fraction

import pytest

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


def fraction_vertex_counts(j):
    """vertex_counts as first written: every entry read through Jdm.entry."""
    return tuple(
        Fraction(j.entry(i, i) + sum(j.entry(i, l) for l in range(1, j.k + 1)), i)
        for i in range(1, j.k + 1)
    )


def fraction_check(j):
    """check_graphical as first written: every count and capacity a Fraction."""
    counts = fraction_vertex_counts(j)
    k = j.k
    violations = []
    integral_ok = tuple(c.denominator == 1 for c in counts)
    for i in range(1, k + 1):
        if not integral_ok[i - 1]:
            violations.append(graphic.Violation(
                "integrality", (i,), f"class {i} would need {counts[i - 1]} vertices"))
    within_ok = []
    for i in range(1, k + 1):
        n_i = counts[i - 1]
        cap = n_i * (n_i - 1) / 2
        ok = j.entry(i, i) <= cap
        within_ok.append(ok)
        if not ok:
            violations.append(graphic.Violation(
                "within-class-capacity", (i,),
                f"class {i} holds at most {cap} edges, needs {j.entry(i, i)}"))
    cross_ok = [[True] * k for _ in range(k)]
    for i in range(1, k + 1):
        for l in range(i + 1, k + 1):
            ok = j.entry(i, l) <= counts[i - 1] * counts[l - 1]
            cross_ok[i - 1][l - 1] = cross_ok[l - 1][i - 1] = ok
            if not ok:
                violations.append(graphic.Violation(
                    "cross-class-capacity", (i, l),
                    f"classes {i},{l} span at most "
                    f"{counts[i - 1] * counts[l - 1]} edges, need {j.entry(i, l)}"))
    return graphic.GraphicalityReport(
        verdict=not violations,
        counts=counts,
        integral_ok=integral_ok,
        within_ok=tuple(within_ok),
        cross_ok=tuple(tuple(r) for r in cross_ok),
        violations=tuple(violations),
    )


class TestCheckGraphicalArithmetic:
    """check_graphical's int arithmetic against the all-Fraction original."""

    def test_non_integral_and_over_capacity_matrices(self, symmetric_matrices):
        rng = random.Random(31)
        matrices = [j for k in (1, 2, 3) for j in symmetric_matrices(k, 4)]
        for _ in range(300):
            k = rng.randrange(4, 21)
            rows = [[0] * k for _ in range(k)]
            for i in range(k):
                for l in range(i, k):
                    rows[i][l] = rows[l][i] = rng.choice((0, 0, 1, 2, 5, 40))
            matrices.append(Jdm(rows))
        kinds = Counter()
        for j in matrices:
            report = check_graphical(j)
            assert report == fraction_check(j), j
            assert vertex_counts(j) == fraction_vertex_counts(j)
            assert all(type(c) is Fraction for c in report.counts)
            kinds.update(v.condition for v in report.violations)
            if all(report.integral_ok):
                kinds.update(f"integral {v.condition}" for v in report.violations)
            kinds["graphical" if report.verdict else "not graphical"] += 1
        assert min(kinds[c] for c in (
            "integrality", "within-class-capacity", "cross-class-capacity",
            "integral within-class-capacity", "integral cross-class-capacity",
            "graphical", "not graphical")) > 0


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


def reference_step(g):
    """One descent step by the rule on immutable graphs: the lowest deficient
    x, the lowest surplus y in x's class, the lowest neighbor z of y that is
    neither x nor adjacent to x; the edge y-z becomes x-z."""
    classes = g.classes()
    x = min(v for v in g.vertices if g.degree(v) < classes[v])
    y = min(v for v in g.vertices if classes[v] == classes[x] and g.degree(v) > classes[v])
    z = min(w for w in g.neighbors(y) if w != x and not g.has_edge(x, w))
    return LabeledGraph((g.edge_set() - {tuple(sorted((y, z)))}) | {tuple(sorted((x, z)))}, classes)


def reference_psi(g):
    return sum(abs(g.degree(v) - g.class_of(v)) for v in g.vertices)


def random_realization(rng, n):
    p = rng.uniform(0.05, 0.6)
    return LabeledGraph.from_edges(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )


def scrambled(g, rng, moves):
    """g with edge ends moved between vertices of one class: every class-pair
    count stays, degrees drift off their classes."""
    part, classes = g.partition(), g.classes()
    edges = set(g.edge_set())
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    for _ in range(moves):
        u, w = rng.choice(sorted(edges))
        to = rng.choice(part[classes[u]])
        if to in (u, w) or to in adj[w]:
            continue
        edges.remove((min(u, w), max(u, w)))
        edges.add((min(to, w), max(to, w)))
        adj[u].discard(w)
        adj[w].discard(u)
        adj[w].add(to)
        adj[to].add(w)
    return LabeledGraph(edges, classes)


class TestBatchDescent:
    def check_against_singles_and_reference(self, state, k):
        batch = psi_descent_step(state, k)
        single = state
        ref = state.graph
        for _ in range(k):
            single = psi_descent_step(single)
            ref = reference_step(ref)
        assert batch.graph == single.graph == ref
        assert batch.psi == single.psi == reference_psi(ref) == state.psi - 2 * k

    def test_random_matrices(self):
        rng = random.Random(23)
        checked = 0
        while checked < 40:
            g = random_realization(rng, rng.randrange(2, 61))
            if not g.m:
                continue
            state = initial_candidate(extract_jdm(g))
            if not state.psi:
                continue
            for k in {1, rng.randrange(1, state.psi // 2 + 1), state.psi // 2}:
                self.check_against_singles_and_reference(state, k)
            checked += 1

    def test_consistent_hand_built_states(self):
        rng = random.Random(29)
        checked = 0
        while checked < 30:
            g = random_realization(rng, rng.randrange(4, 41))
            if not g.m:
                continue
            state = CandidateState(extract_jdm(g), scrambled(g, rng, g.m))
            if not state.psi:
                continue
            for k in {1, rng.randrange(1, state.psi // 2 + 1), state.psi // 2}:
                self.check_against_singles_and_reference(state, k)
            assert psi_descent_step(state, state.psi // 2).graph.is_realization()
            checked += 1

    @pytest.mark.parametrize("steps", [0, -1, "past", 1.5, True])
    def test_steps_out_of_range_are_refused(self, steps):
        state = initial_candidate(Jdm([[0, 0, 3], [0, 0, 0], [3, 0, 6]]))
        if steps == "past":
            steps = state.psi // 2 + 1
        with pytest.raises(GraphError, match="steps must be an integer from 1 to psi / 2"):
            psi_descent_step(state, steps)


def set_difference_descent(s, steps):
    """Reference workspace descent that takes z by set difference, as
    min(nbrs[y] - nbrs[x] - {x}).  Returns the graph, psi and the (x, y, z)
    positions of every step."""
    g = s.graph
    verts = g.vertices
    pos = {v: i for i, v in enumerate(verts)}
    classes = [g.class_of(v) for v in verts]
    nbrs = [{pos[w] for w in g.neighbors(v)} for v in verts]
    members = {}
    for i, c in enumerate(classes):
        members.setdefault(c, []).append(i)
    next_y = dict.fromkeys(members, 0)
    x, moves = 0, []
    for _ in range(steps):
        while len(nbrs[x]) >= classes[x]:
            x += 1
        ys, i = members[classes[x]], next_y[classes[x]]
        while len(nbrs[ys[i]]) <= classes[x]:
            i += 1
        next_y[classes[x]], y = i, ys[i]
        z = min(nbrs[y] - nbrs[x] - {x})
        nbrs[y].remove(z)
        nbrs[z].remove(y)
        nbrs[z].add(x)
        nbrs[x].add(z)
        moves.append((x, y, z))
    edges = [(verts[u], verts[w]) for u, ns in enumerate(nbrs) for w in ns if u < w]
    out = LabeledGraph(edges, g.classes())
    return out, reference_psi(out), moves


class TestSortedListDescent:
    """The sorted-neighbour-list z search against the set-difference rule."""

    def assert_same_descent(self, state, steps):
        out = psi_descent_step(state, steps)
        graph, psi, moves = set_difference_descent(state, steps)
        assert out.graph == graph
        assert out.psi == psi == state.psi - 2 * steps
        return moves

    @pytest.mark.parametrize("n", [200, 1000])
    def test_sparse_random_matrices(self, n, sparse_gnm):
        state = initial_candidate(extract_jdm(sparse_gnm(n, random.Random(n))))
        half = state.psi // 2
        for steps in (1, half // 3, half):
            self.assert_same_descent(state, steps)
        mid = psi_descent_step(state, half // 3)
        self.assert_same_descent(mid, half - half // 3)

    def test_lists_that_took_an_insertion_serve_as_y_again(self):
        # A position's sorted list is built when it first serves as y.  When
        # it then serves as another step's z, its list drops that step's y
        # and takes its x, and a later step may read the list as y again.
        # Hand-built states, whose labels do not follow class order, do so;
        # both rules must still pick the same witnesses there.
        rng = random.Random(37)
        hits = 0
        while hits < 10:
            g = random_realization(rng, rng.randrange(6, 41))
            if not g.m:
                continue
            state = CandidateState(extract_jdm(g), scrambled(g, rng, g.m))
            if not state.psi:
                continue
            moves = self.assert_same_descent(state, state.psi // 2)
            listed, changed = set(), set()
            for x, y, z in moves:
                if y in changed:
                    hits += 1
                    break
                if z in listed:
                    changed.add(z)
                listed.add(y)

    def test_list_read_after_a_drop_and_an_insertion(self):
        # Vertex 6 serves as y of two steps, then as z of a class-1 step,
        # where its list drops 3 and takes 4, then as y again: 4 is now the
        # lowest shift target, and 3, no longer its neighbour, is none.
        classes = {0: 3, 1: 2, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 8: 1, 10: 3}
        edges = [(0, 5), (0, 6), (0, 10), (2, 6), (3, 6), (3, 10), (6, 8), (6, 10)]
        j = Jdm([[0, 3, 1], [3, 0, 3], [1, 3, 1]])
        state = CandidateState(j, LabeledGraph(edges, classes))
        moves = self.assert_same_descent(state, state.psi // 2)
        assert moves == [(1, 6, 0), (1, 6, 2), (4, 3, 6), (5, 6, 4)]

    @pytest.mark.parametrize(
        "n,fingerprint", [(1000, "7d4afbc04128df43"), (2000, "4102b60ac4219d4b")]
    )
    def test_constructed_fingerprints(self, n, fingerprint, sparse_gnm):
        # Fingerprints of the graphs the set-difference z search builds.
        g = construct_realization(extract_jdm(sparse_gnm(n, random.Random(7))))
        assert g.fingerprint() == fingerprint


class TestDescentCost:
    @pytest.mark.parametrize("n", [12, 60, 200])
    def test_one_graph_build_one_step_call_and_one_rewire(self, n, monkeypatch):
        # The descent runs on a workspace of its own and rewires the
        # candidate once at the end, so construction builds two
        # LabeledGraphs, the initial candidate and the rewired result, and
        # makes one step call and one rewire, however many steps the descent
        # takes.
        rng = random.Random(200)
        g = LabeledGraph.from_edges(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 8 / n
        )
        j = extract_jdm(g)
        assert initial_candidate(j).psi > 0
        calls = Counter()
        init, step, rewire = LabeledGraph.__init__, graphic.psi_descent_step, LabeledGraph.rewire

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(LabeledGraph, "__init__", counted("init", init))
        monkeypatch.setattr(LabeledGraph, "rewire", counted("rewire", rewire))
        monkeypatch.setattr(graphic, "psi_descent_step", counted("step", step))
        out = construct_realization(j)
        assert calls == {"init": 2, "step": 1, "rewire": 1}
        assert extract_jdm(out) == j

    def test_psi_check_survives_optimized_mode(self, optimized_stdout):
        # An edge move that adds x-z but keeps y-z lowers psi by one, not
        # two.  Under python -O the assert statements are gone, so only an
        # explicit check can refuse the step.
        script = textwrap.dedent(
            """
            import sys
            from jdmkit import graphic
            from jdmkit.core import GraphError, Jdm

            def add_only(nbrs, x, y, z):
                nbrs[x].add(z)
                nbrs[z].add(x)

            assert sys.flags.optimize
            graphic._shift = add_only
            try:
                g = graphic.construct_realization(Jdm([[0, 0, 3], [0, 0, 0], [3, 0, 6]]))
            except GraphError as exc:
                print("GraphError:", exc)
            else:
                print("returned", g)
            """
        )
        out = optimized_stdout(script)
        assert out == "GraphError: descent step must drop psi by exactly 2\n"

    def test_psi_check_holds_mid_batch_in_optimized_mode(self, optimized_stdout):
        # The descent of this matrix takes 5 steps in one batch.  Only its
        # 3rd edge move adds x-z but keeps y-z, and the check must refuse
        # that step, not a later one or the batch's end.
        script = textwrap.dedent(
            """
            import sys
            from jdmkit import graphic
            from jdmkit.core import GraphError, Jdm

            shift, calls = graphic._shift, []

            def third_adds_only(nbrs, x, y, z):
                calls.append((x, y, z))
                if len(calls) == 3:
                    nbrs[x].add(z)
                    nbrs[z].add(x)
                else:
                    shift(nbrs, x, y, z)

            assert sys.flags.optimize
            j = Jdm([[0, 0, 3], [0, 0, 0], [3, 0, 6]])
            print("steps:", graphic.initial_candidate(j).psi // 2)
            graphic._shift = third_adds_only
            try:
                g = graphic.construct_realization(j)
            except GraphError as exc:
                print("GraphError:", exc)
            else:
                print("returned", g)
            print("shifts:", len(calls))
            """
        )
        out = optimized_stdout(script)
        assert out == (
            "steps: 5\nGraphError: descent step must drop psi by exactly 2\nshifts: 3\n"
        )

    def test_final_rewire_is_checked_in_optimized_mode(self, optimized_stdout):
        # A final rewire that adds the new edges but keeps the old ones
        # lands off a realization, which the landing check refuses.
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
        out = optimized_stdout(script)
        assert out == "GraphError: descent ended on a graph that is not a realization\n"
