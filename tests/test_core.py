"""Matrix and graph primitives: validation, swaps, extraction, deletion."""

import random
import re
from fractions import Fraction

import pytest

from jdmkit.core import (
    GraphError,
    Jdm,
    LabeledGraph,
    NotRealizationError,
    Rso,
    SwapError,
    all_spectra,
    apply_rso,
    degree_spectrum,
    delete_vertex,
    extract_jdm,
    vertex_counts,
)
from jdmkit.graphic import construct_realization, initial_candidate
from jdmkit.oracle import enumerate_realizations, metagraph_connected
from jdmkit.sampler import build_model


class TestJdm:
    def test_rows_and_k(self):
        j = Jdm([[0, 2], [2, 2]])
        assert j.k == 2
        assert j.rows == ((0, 2), (2, 2))

    def test_entry_is_one_based(self):
        j = Jdm([[0, 2], [2, 2]])
        assert j.entry(1, 2) == 2
        assert j.entry(2, 2) == 2
        with pytest.raises(GraphError):
            j.entry(0, 1)
        with pytest.raises(GraphError):
            j.entry(1, 3)

    def test_rejects_non_integer_entries(self):
        for rows in ([[0, 1.5], [1.5, 0]], [[None]], [["a"]]):
            with pytest.raises(GraphError, match="entry"):
                Jdm(rows)

    def test_rejects_non_square(self):
        with pytest.raises(GraphError, match="square"):
            Jdm([[0, 1], [1, 0], [0, 0]])
        with pytest.raises(GraphError, match="square"):
            Jdm([[0, 1, 0], [1, 0, 0]])

    def test_rejects_negative(self):
        with pytest.raises(GraphError, match="non-negative"):
            Jdm([[0, -1], [-1, 0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(GraphError, match="symmetric"):
            Jdm([[0, 1], [2, 0]])

    def test_trailing_zero_classes_do_not_matter(self):
        a = Jdm([[0, 2], [2, 2]])
        b = Jdm([[0, 2, 0], [2, 2, 0], [0, 0, 0]])
        assert a == b
        assert hash(a) == hash(b)
        assert a.canonical().k == 2

    def test_leading_zero_classes_do_matter(self):
        a = Jdm([[0, 0], [0, 3]])
        b = Jdm([[3]])
        assert a != b


class TestLabeledGraph:
    def test_from_edges_classes_are_degrees(self, six_cycle):
        assert six_cycle.vertices == (1, 2, 3, 4, 5, 6)
        assert all(six_cycle.class_of(v) == 2 for v in six_cycle.vertices)
        assert six_cycle.n == 6
        assert six_cycle.m == 6
        assert six_cycle.delta == 2
        assert six_cycle.is_realization()

    def test_explicit_classes_need_not_match_degrees(self):
        g = LabeledGraph(edges=[(0, 1)], classes={0: 1, 1: 2})
        assert g.class_of(1) == 2
        assert g.degree(1) == 1
        assert not g.is_realization()

    def test_rejects_loops(self):
        with pytest.raises(GraphError, match="loop"):
            LabeledGraph(edges=[(1, 1)], classes={1: 2})

    def test_rejects_duplicate_edges(self):
        with pytest.raises(GraphError, match="duplicate"):
            LabeledGraph(edges=[(0, 1), (1, 0)], classes={0: 1, 1: 1})

    def test_rejects_edges_to_unknown_vertices(self):
        with pytest.raises(GraphError, match="unknown"):
            LabeledGraph(edges=[(0, 2)], classes={0: 1, 1: 1})

    def test_rejects_bad_labels_and_classes(self):
        with pytest.raises(GraphError):
            LabeledGraph(edges=[], classes={-1: 1})
        with pytest.raises(GraphError, match="class"):
            LabeledGraph(edges=[], classes={0: 0})

    def test_edges_sorted_and_queryable(self, six_cycle):
        assert six_cycle.edges() == ((1, 2), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6))
        assert six_cycle.has_edge(6, 1)
        assert not six_cycle.has_edge(1, 4)
        assert six_cycle.neighbors(1) == (2, 6)
        assert six_cycle.degree(4) == 2

    def test_spectrum(self, six_cycle, pendant):
        assert six_cycle.spectrum(1) == (0, 2)
        assert pendant.spectrum(3) == (2, 0, 1)
        assert pendant.spectrum(0) == (0, 0, 1)
        with pytest.raises(GraphError, match="unknown"):
            six_cycle.spectrum(99)

    def test_partition(self, pendant):
        part = pendant.partition()
        assert part == {1: (0, 1, 2), 3: (3, 4, 5, 6, 7)}

    def test_fingerprint_tracks_content(self, six_cycle, two_triangles):
        fp = six_cycle.fingerprint()
        assert len(fp) == 16
        assert fp == six_cycle.fingerprint()
        assert fp != two_triangles.fingerprint()

    def test_rewire_validates(self, six_cycle):
        g = six_cycle.rewire(remove=[(1, 2)], add=[(1, 4)])
        assert not g.has_edge(1, 2)
        assert g.has_edge(1, 4)
        with pytest.raises(GraphError, match="missing"):
            six_cycle.rewire(remove=[(1, 4)], add=[])
        with pytest.raises(GraphError, match="existing"):
            six_cycle.rewire(remove=[], add=[(1, 2)])

    def test_equality_covers_classes_and_edges(self, six_cycle):
        same = LabeledGraph.from_edges(six_cycle.edges())
        assert same == six_cycle
        reclassed = LabeledGraph(
            edges=six_cycle.edges(),
            classes={v: 3 for v in six_cycle.vertices},
        )
        assert reclassed != six_cycle


class TestRso:
    def test_str_and_inverse(self):
        r = Rso(1, 4, 2, 5, pivot_class=2)
        assert str(r) == "1 4 2 5 2"
        assert r.inverse() == Rso(4, 1, 2, 5, pivot_class=2)
        assert r.inverse().inverse() == r

    def test_validate_accepts_legal_swap(self, six_cycle):
        Rso(1, 4, 2, 5, pivot_class=2).validate(six_cycle)

    def test_validate_diagnostics(self, six_cycle):
        with pytest.raises(SwapError, match="pairwise distinct"):
            Rso(1, 1, 2, 5, pivot_class=2).validate(six_cycle)
        with pytest.raises(SwapError, match="unknown vertex"):
            Rso(1, 4, 99, 5, pivot_class=2).validate(six_cycle)
        with pytest.raises(SwapError, match="class"):
            Rso(1, 4, 2, 5, pivot_class=1).validate(six_cycle)
        # 1-3 is not an edge of the cycle.
        with pytest.raises(SwapError, match="missing"):
            Rso(1, 4, 3, 5, pivot_class=2).validate(six_cycle)
        # both removals (1-2, 3-4) exist but the added edge 3-2 does too
        with pytest.raises(SwapError, match="already present"):
            Rso(1, 3, 2, 4, pivot_class=2).validate(six_cycle)

    def test_apply_rso_six_cycle_to_triangles(self, six_cycle, two_triangles):
        out = apply_rso(six_cycle, Rso(1, 4, 2, 5, pivot_class=2))
        assert set(out.edges()) == {
            (2, 3), (3, 4), (2, 4), (1, 5), (5, 6), (1, 6),
        }
        assert out.is_realization()
        inv = apply_rso(out, Rso(4, 1, 2, 5, pivot_class=2))
        assert inv == six_cycle

    def test_apply_rso_requires_realization(self):
        g = LabeledGraph(edges=[(0, 1)], classes={0: 1, 1: 2})
        with pytest.raises(NotRealizationError):
            apply_rso(g, Rso(0, 1, 0, 1, pivot_class=1))


class TestExtractAndCounts:
    def test_extract_six_cycle(self, six_cycle):
        assert extract_jdm(six_cycle) == Jdm([[0, 0], [0, 6]])

    def test_extract_pendant(self, pendant):
        assert extract_jdm(pendant) == Jdm([[0, 0, 3], [0, 0, 0], [3, 0, 6]])

    def test_extract_requires_realization(self):
        g = LabeledGraph(edges=[(0, 1)], classes={0: 1, 1: 2})
        with pytest.raises(NotRealizationError, match="degree"):
            extract_jdm(g)

    def test_vertex_counts(self):
        assert vertex_counts(Jdm([[0, 2], [2, 2]])) == (2, 3)
        assert vertex_counts(Jdm([[0, 1], [1, 0]])) == (1, Fraction(1, 2))

    def test_spectra_helpers(self, pendant):
        assert degree_spectrum(pendant, 4) == (1, 0, 2)
        spectra = all_spectra(pendant)
        assert spectra[3] == (2, 0, 1)
        assert len(spectra) == 8


class TestDeleteVertex:
    def test_six_cycle_drop(self, six_cycle):
        g = delete_vertex(six_cycle, 2)
        assert extract_jdm(g) == Jdm([[0, 2], [2, 2]])
        assert 2 not in g.vertices

    def test_two_triangles_drop(self, two_triangles):
        g = delete_vertex(two_triangles, 2)
        assert extract_jdm(g) == Jdm([[1, 0], [0, 3]])

    def test_isolated_leftovers_vanish(self):
        g = LabeledGraph.from_edges([(0, 1)])
        out = delete_vertex(g, 0)
        assert out.vertices == ()

    def test_unknown_vertex(self, six_cycle):
        with pytest.raises(GraphError, match="unknown"):
            delete_vertex(six_cycle, 7)


def test_random_rso_round_trips():
    # Applying a legal swap and then its inverse must restore the graph.
    rng = random.Random(7)
    base = LabeledGraph.from_edges(
        [(3, 0), (3, 1), (4, 2), (3, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]
    )
    cur = base
    for _ in range(200):
        part = cur.partition()
        pivot = rng.choice(sorted(part))
        members = part[pivot]
        if len(members) < 2:
            continue
        a, b = rng.sample(members, 2)
        cs = [c for c in cur.neighbors(a) if c != b and not cur.has_edge(b, c)]
        ds = [d for d in cur.neighbors(b) if d != a and not cur.has_edge(a, d)]
        found = None
        for c in cs:
            for d in ds:
                if c != d:
                    found = (c, d)
                    break
            if found:
                break
        if not found:
            continue
        r = Rso(a, b, found[0], found[1], pivot_class=pivot)
        nxt = apply_rso(cur, r)
        assert apply_rso(nxt, r.inverse()) == cur
        assert extract_jdm(nxt) == extract_jdm(cur)
        cur = nxt


class TestRewireDifferential:
    """A rewired or swapped graph must match, in every observable, a graph
    built from scratch on the same edges and classes, and leave its source
    unchanged."""

    @staticmethod
    def random_graph(n, rng):
        return LabeledGraph.from_edges(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 8 / n
        )

    @staticmethod
    def snapshot(g):
        return (g.vertices, g.classes(), g.edges(), {v: g.neighbors(v) for v in g.vertices},
                g.fingerprint(), hash(g), g.delta)

    def assert_same_as_rebuilt(self, derived, source):
        fresh = LabeledGraph(derived.edges(), source.classes())
        assert derived.vertices == fresh.vertices
        assert derived.classes() == fresh.classes()
        assert derived.edges() == fresh.edges()
        assert derived.edge_set() == fresh.edge_set()
        for v in fresh.vertices:
            assert derived.neighbors(v) == fresh.neighbors(v)
        assert derived == fresh and fresh == derived
        assert hash(derived) == hash(fresh)
        assert derived.fingerprint() == fresh.fingerprint()
        assert derived.delta == fresh.delta
        assert derived.is_realization() == fresh.is_realization()
        assert all_spectra(derived) == all_spectra(fresh)

    def test_random_rewires_match_a_rebuild(self):
        rng = random.Random(5)
        g = self.random_graph(60, rng)
        first = self.snapshot(g)
        pairs = [(u, v) for u in g.vertices for v in g.vertices if u < v]
        cur = g
        for _ in range(250):
            before = self.snapshot(cur)
            present = [e for e in pairs if cur.has_edge(*e)]
            absent = [e for e in pairs if not cur.has_edge(*e)]
            remove = rng.sample(present, rng.randint(0, 3))
            add = rng.sample(absent, rng.randint(0, 3))
            if remove and rng.random() < 0.2:
                add.append(remove[0])  # removed and put back in one call
            # Either orientation names the same edge.
            remove = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in remove]
            add = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in add]
            nxt = cur.rewire(remove=remove, add=add)
            self.assert_same_as_rebuilt(nxt, cur)
            assert self.snapshot(cur) == before
            cur = nxt
        assert self.snapshot(g) == first

    def test_random_swaps_match_a_rebuild(self):
        rng = random.Random(6)
        g = self.random_graph(60, rng)
        first = self.snapshot(g)
        cur, applied = g, 0
        while applied < 200:
            part = cur.partition()
            pivot = rng.choice([c for c, vs in part.items() if len(vs) > 1])
            a, b = rng.sample(part[pivot], 2)
            c, d = rng.choice(cur.neighbors(a)), rng.choice(cur.neighbors(b))
            if len({a, b, c, d}) < 4 or cur.has_edge(b, c) or cur.has_edge(a, d):
                continue
            before = self.snapshot(cur)
            nxt = apply_rso(cur, Rso(a, b, c, d, pivot_class=pivot))
            self.assert_same_as_rebuilt(nxt, cur)
            assert nxt.is_realization()
            assert self.snapshot(cur) == before
            cur, applied = nxt, applied + 1
        assert self.snapshot(g) == first

    @pytest.mark.parametrize(
        "remove, add, message",
        [
            ([(1, 4)], [], "cannot remove missing edge 1-4"),
            ([(1, 2), (2, 1)], [], "cannot remove missing edge 2-1"),
            ([], [(1, 2)], "cannot add existing edge 1-2"),
            ([], [(1, 4), (4, 1)], "cannot add existing edge 4-1"),
            ([], [(3, 3)], "loop at vertex 3 not allowed"),
            ([], [(1, 99)], "edge 1-99 uses an unknown vertex"),
            ([], [(99, 1)], "edge 1-99 uses an unknown vertex"),
            ([], [(99, 99)], "loop at vertex 99 not allowed"),
            # Every remove and add is checked before any loop or vertex check.
            ([], [(3, 3), (1, 2)], "cannot add existing edge 1-2"),
            ([(2, 3)], [(1, 99), (1, 4)], "edge 1-99 uses an unknown vertex"),
        ],
    )
    def test_rewire_errors(self, six_cycle, remove, add, message):
        before = self.snapshot(six_cycle)
        with pytest.raises(GraphError) as info:
            six_cycle.rewire(remove=remove, add=add)
        assert type(info.value) is GraphError
        assert str(info.value) == message
        assert self.snapshot(six_cycle) == before


class TestCallerLabels:
    # Labels a caller hands to a matrix-level call are checked where they are
    # assigned to classes, as LabeledGraph checks them and with its messages.
    @pytest.mark.parametrize(
        "call", [enumerate_realizations, metagraph_connected, initial_candidate, build_model]
    )
    @pytest.mark.parametrize(
        "labels, message",
        [
            (["a", 1], "vertex label must be an integer, got 'a'"),
            ([0.5, 1], "vertex label must be an integer, got 0.5"),
            ([-3, 1], "vertex label -3 must be non-negative"),
        ],
    )
    def test_bad_labels_raise_graph_error(self, call, labels, message):
        with pytest.raises(GraphError, match=re.escape(message)):
            call(Jdm([[1]]), labels=labels)

    @pytest.mark.parametrize("call", [construct_realization, build_model])
    def test_a_vertex_total_no_list_can_index_is_refused(self, call):
        # 10^30 class-1 edges need 2 * 10^30 vertices, past any list length.
        with pytest.raises(GraphError, match=f"matrix needs {2 * 10**30} vertices, too many to label"):
            call(Jdm([[10**30]]))

    def test_enumeration_refuses_a_negative_label(self):
        with pytest.raises(GraphError, match="vertex label -1 must be non-negative"):
            enumerate_realizations(Jdm([[1]]), labels=[-1, 5])

    def test_integral_labels_become_ints(self):
        (g,) = enumerate_realizations(Jdm([[1]]), labels=[5.0, 2])
        assert g.classes() == {2: 1, 5: 1}
        assert all(type(v) is int for v in g.vertices)
