"""Swap paths: plain graphs, side graphs, and full class-preserving routes."""

import importlib
import itertools
import os
import random
import re
import textwrap

import pytest

from jdmkit import transform
from jdmkit.core import (
    GraphError,
    Jdm,
    LabeledGraph,
    Rso,
    SwapError,
    _adjacency,
    _exchange,
    apply_rso,
    extract_jdm,
)
from jdmkit.balance import balance, imbalance
from jdmkit.fileio import dumps_trace
from jdmkit.oracle import enumerate_realizations
from jdmkit.transform import (
    Bipartite,
    aux_bipartite,
    bipartite_swap_path,
    SwapSequence,
    lift_aux_swap,
    rso_path,
    simple_swap_path,
    spectrum_align,
)

# An 8-cycle and two 4-cycles on the same eight vertices.  No single swap
# shrinks their difference, so rso_path's one class pair, (2, 2), goes
# through the canonical finish.
EIGHT_CYCLE = [(0, 3), (0, 4), (1, 6), (1, 7), (2, 3), (2, 6), (4, 5), (5, 7)]
TWO_SQUARES = [(0, 3), (0, 7), (1, 3), (1, 7), (2, 4), (2, 6), (4, 5), (5, 6)]


def replay_simple(edges, records):
    """Apply (p, q, r, s) records (remove p-q, r-s; add p-s, r-q) strictly."""
    cur = {frozenset(e) for e in edges}
    for p, q, r, s in records:
        rm = {frozenset((p, q)), frozenset((r, s))}
        ad = {frozenset((p, s)), frozenset((r, q))}
        assert len({p, q, r, s}) == 4
        assert rm <= cur and not (ad & cur)
        cur = (cur - rm) | ad
    return cur


def replay_bipartite(edges, records):
    cur = set(edges)
    for l1, r1, l2, r2 in records:
        rm = {(l1, r1), (l2, r2)}
        ad = {(l1, r2), (l2, r1)}
        assert l1 != l2 and r1 != r2
        assert rm <= cur and not (ad & cur)
        cur = (cur - rm) | ad
    return cur


class TestSimpleSwapPath:
    def test_identical_graphs_need_no_swaps(self, six_cycle):
        assert simple_swap_path(six_cycle, six_cycle) == []

    def test_vertex_set_mismatch(self, six_cycle):
        other = LabeledGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        with pytest.raises(GraphError, match="vertex sets differ"):
            simple_swap_path(six_cycle, other)

    def test_degree_mismatch(self):
        a = LabeledGraph.from_edges([(0, 1), (2, 3)])
        b = LabeledGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        b2 = LabeledGraph(edges=[(0, 2), (1, 3)], classes=b.classes())
        with pytest.raises(GraphError, match="degree mismatch"):
            simple_swap_path(b, b2)
        with pytest.raises(GraphError, match="vertex sets"):
            simple_swap_path(a, LabeledGraph.from_edges([(0, 1), (2, 4)]))

    def test_theta_pair(self):
        cur = [(0, 4), (1, 4), (2, 3)]
        tgt = [(0, 1), (2, 4), (3, 4)]
        g1 = LabeledGraph.from_edges(cur)
        g2 = LabeledGraph.from_edges(tgt)
        records = simple_swap_path(g1, g2)
        assert replay_simple(cur, records) == {frozenset(e) for e in tgt}

    def test_six_vertex_regression_pair(self):
        cur = [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 5)]
        tgt = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)]
        g1 = LabeledGraph.from_edges(cur)
        g2 = LabeledGraph.from_edges(tgt)
        records = simple_swap_path(g1, g2)
        assert replay_simple(cur, records) == {frozenset(e) for e in tgt}

    def test_random_pairs_from_one_degree_family(self):
        pool = enumerate_realizations(Jdm([[0, 0], [0, 6]]))
        assert len(pool) == 70
        rng = random.Random(5)
        for _ in range(30):
            g1, g2 = rng.sample(pool, 2)
            records = simple_swap_path(g1, g2)
            assert replay_simple(g1.edges(), records) == {
                frozenset(e) for e in g2.edges()
            }


class TestBipartiteSwapPath:
    def test_bipartite_fields(self):
        b = Bipartite(left=(0, 1), right=(5,), edges=frozenset([(0, 5)]))
        assert (b.left, b.right, b.edges) == ((0, 1), (5,), {(0, 5)})

    def test_identical_sides_need_no_swaps(self):
        b = Bipartite(left=(0, 1), right=(5, 6), edges=frozenset([(0, 5), (1, 6)]))
        assert bipartite_swap_path(b, b) == []

    def test_validation(self):
        b1 = Bipartite(left=(0, 1), right=(5,), edges=frozenset([(0, 5)]))
        b2 = Bipartite(left=(0, 2), right=(5,), edges=frozenset([(0, 5)]))
        with pytest.raises(GraphError, match="node sets differ"):
            bipartite_swap_path(b1, b2)
        b3 = Bipartite(left=(0, 1), right=(5,), edges=frozenset([(1, 5)]))
        # Left node 0 has degree 1 in b1 and 0 in b3.
        with pytest.raises(GraphError, match="degree mismatch at left node 0"):
            bipartite_swap_path(b1, b3)
        b4 = Bipartite(left=(0, 1), right=(5, 6), edges=frozenset([(0, 5)]))
        b5 = Bipartite(left=(0, 1), right=(5, 6), edges=frozenset([(0, 6)]))
        with pytest.raises(GraphError, match="degree mismatch at right node 5"):
            bipartite_swap_path(b4, b5)

    @pytest.mark.parametrize("edge", [(7, 6), (1, 9)])
    def test_edges_must_keep_to_their_sides(self, edge):
        # (7, 6) names a left node off the left side, (1, 9) a right node
        # off the right side.
        good = Bipartite(left=(0, 1), right=(5, 6), edges=frozenset([(0, 5), (1, 6)]))
        bad = Bipartite(left=(0, 1), right=(5, 6), edges=frozenset([(0, 5), edge]))
        for b1, b2 in ((bad, bad), (good, bad), (bad, good)):
            with pytest.raises(GraphError, match=re.escape(f"edge {edge!r} has a node off its side")):
                bipartite_swap_path(b1, b2)

    def test_five_by_four_regression_pair(self):
        f1c = [(0, 0), (0, 1), (1, 2), (1, 3), (2, 0),
               (2, 2), (3, 1), (3, 3), (4, 0), (4, 3)]
        f1t = [(0, 1), (0, 2), (1, 1), (1, 2), (2, 0),
               (2, 3), (3, 0), (3, 3), (4, 0), (4, 3)]
        b1 = Bipartite(tuple(range(5)), tuple(range(4)), frozenset(f1c))
        b2 = Bipartite(tuple(range(5)), tuple(range(4)), frozenset(f1t))
        records = bipartite_swap_path(b1, b2)
        assert replay_bipartite(b1.edges, records) == b2.edges

    def test_random_bipartite_pairs(self):
        rng = random.Random(17)
        for _ in range(25):
            nl, nr = rng.randrange(2, 6), rng.randrange(2, 6)
            cols = list(range(nr))
            rows = {l: rng.randrange(0, nr + 1) for l in range(nl)}
            # two independent samples with identical degrees on both sides:
            # shuffle each left row's columns, retrying until right degrees
            # of the two draws coincide.
            def draw():
                return frozenset(
                    (l, c) for l in rows for c in rng.sample(cols, rows[l])
                )

            e1 = draw()
            cols_of = lambda e: [sum(1 for (_, c) in e if c == r) for r in cols]
            for _ in range(200):
                e2 = draw()
                if cols_of(e1) == cols_of(e2):
                    break
            else:
                continue
            b1 = Bipartite(tuple(range(nl)), tuple(cols), e1)
            b2 = Bipartite(tuple(range(nl)), tuple(cols), e2)
            records = bipartite_swap_path(b1, b2)
            assert replay_bipartite(e1, records) == e2


def lowering_swaps(cur, tgt, pivots, nodes):
    """(drop, (a, c, b, d)) for every valid swap on edge set cur (2-sets) with
    pivots a, b that lowers |cur ^ tgt| by drop.  Brute force."""
    out, size = [], len(cur ^ tgt)
    for a, c in itertools.product(pivots, nodes):
        if frozenset((a, c)) not in cur:
            continue
        for d, b in itertools.product(nodes, pivots):
            rm, ad = {frozenset((a, c)), frozenset((b, d))}, {frozenset((a, d)), frozenset((b, c))}
            if len({a, b, c, d}) < 4 or not rm <= cur or ad & cur:
                continue
            drop = size - len(((cur - rm) | ad) ^ tgt)
            if drop > 0:
                out.append((drop, (a, c, b, d)))
    return out


def check_route(records, cur, tgt, pivots, nodes):
    """Replay records (a, c, b, d) on cur; each must be a valid swap, each one
    before the canonical finish must be the documented choice among the
    lowering swaps, and the route must land on tgt.  Returns whether the
    first state was stuck (no lowering swap) and whether the finish ran."""
    stuck, finished = not lowering_swaps(cur, tgt, pivots, nodes), False
    for a, c, b, d in records:
        rm, ad = {frozenset((a, c)), frozenset((b, d))}, {frozenset((a, d)), frozenset((b, c))}
        assert len({a, b, c, d}) == 4 and a in pivots and b in pivots
        assert rm <= cur and not ad & cur
        if not finished:
            options = lowering_swaps(cur, tgt, pivots, nodes)
            if options:
                # Smallest pivot a that drops an edge of cur - tgt and gains
                # one of tgt - cur, a drop of 4 before 2, then c, d and b.
                key, drop, swap = min(
                    ((p, -drop, q, s, r), drop, (p, q, r, s))
                    for drop, (p, q, r, s) in options
                    if frozenset((p, q)) in cur - tgt and frozenset((p, s)) in tgt - cur
                )
                assert (a, c, b, d) == swap and drop in (2, 4)
            else:
                finished = True
        cur = (cur - rm) | ad
    assert cur == tgt
    return stuck, finished


def simple_case(g_edges, h_edges):
    """Records of simple_swap_path, |E(g) ^ E(h)| and check_route's verdicts."""
    g, h = LabeledGraph.from_edges(g_edges), LabeledGraph.from_edges(h_edges)
    records = simple_swap_path(g, h)
    cur, tgt = (frozenset(frozenset(e) for e in es) for es in (g_edges, h_edges))
    return (records, len(cur ^ tgt), *check_route(records, cur, tgt, g.vertices, g.vertices))


def bipartite_case(lefts, rights, g_edges, h_edges):
    """As simple_case for bipartite_swap_path; nodes are tagged by side."""
    records = bipartite_swap_path(
        Bipartite(lefts, rights, frozenset(g_edges)), Bipartite(lefts, rights, frozenset(h_edges))
    )
    cur, tgt = (frozenset(frozenset((("l", l), ("r", r))) for l, r in es) for es in (g_edges, h_edges))
    tagged = [(("l", a), ("r", c), ("l", b), ("r", d)) for a, c, b, d in records]
    pivots = [("l", l) for l in lefts]
    verdicts = check_route(tagged, cur, tgt, pivots, pivots + [("r", r) for r in rights])
    return (records, len(cur ^ tgt), *verdicts)


class TestShrinkingRoute:
    """The router's swaps each shrink the difference to the target until none
    does; the canonical route finishes what is left."""

    STUCK_SIMPLE = (
        [(0, 2), (0, 3), (0, 4), (0, 5), (0, 7), (1, 4), (1, 5), (1, 6), (1, 7),
         (2, 4), (2, 5), (2, 6), (2, 7), (3, 6), (3, 7), (4, 6), (4, 7)],
        [(0, 2), (0, 3), (0, 4), (0, 6), (0, 7), (1, 2), (1, 5), (1, 6), (1, 7),
         (2, 4), (2, 5), (2, 7), (3, 4), (3, 6), (4, 6), (4, 7), (5, 7)],
    )
    # Left nodes 0..4, right nodes 0..6, edges as (l, r).
    STUCK_BIPARTITE = (
        [(0, 0), (0, 1), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1),
         (2, 5), (2, 6), (3, 0), (3, 2), (4, 1), (4, 3), (4, 4), (4, 5)],
        [(0, 0), (0, 4), (0, 5), (1, 0), (1, 3), (1, 4), (1, 5), (2, 1),
         (2, 5), (2, 6), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (4, 4)],
    )

    def test_stuck_simple_pair_takes_the_canonical_finish(self):
        g_edges, h_edges = self.STUCK_SIMPLE
        records, size, stuck, finished = simple_case(g_edges, h_edges)
        assert size == 8 and stuck and finished and len(records) == 11
        assert replay_simple(g_edges, records) == {frozenset(e) for e in h_edges}

    def test_stuck_bipartite_pair_takes_the_canonical_finish(self):
        g_edges, h_edges = self.STUCK_BIPARTITE
        records, size, stuck, finished = bipartite_case(tuple(range(5)), tuple(range(7)), g_edges, h_edges)
        assert size == 8 and stuck and finished and len(records) == 11
        assert replay_bipartite(g_edges, records) == frozenset(h_edges)

    def test_stuck_cycles_route_through_rso_path(self):
        _, _, stuck, finished = simple_case(EIGHT_CYCLE, TWO_SQUARES)
        assert stuck and finished
        g, h = LabeledGraph.from_edges(EIGHT_CYCLE), LabeledGraph.from_edges(TWO_SQUARES)
        assert rso_path(g, h).replay(g) == h

    def test_rso_path_copies_only_the_pair_taking_the_finish(self, pendant, monkeypatch):
        # The pendant pair beside the cycle pair on labels 8..15: several
        # class pairs differ, and only (2, 2), the cycles, is stuck.  Every
        # other pair shrinks its difference on the swap state itself, so only
        # (2, 2) gets adjacency copies, one per side.
        routed, copies = [], []
        pair_differences, pair_subgraph = transform._pair_differences, transform._pair_subgraph

        def differences(cur, tgt):
            pairs = pair_differences(cur, tgt)
            routed.extend(pair for pair, _ in pairs)
            return pairs

        def subgraph(state, i, j):
            copies.append((i, j))
            return pair_subgraph(state, i, j)

        monkeypatch.setattr(transform, "_pair_differences", differences)
        monkeypatch.setattr(transform, "_pair_subgraph", subgraph)
        shift = lambda edges: [(u + 8, v + 8) for u, v in edges]
        g = LabeledGraph.from_edges(list(pendant.edges()) + shift(EIGHT_CYCLE))
        h = LabeledGraph.from_edges(TestPinnedTraces.PENDANT_OTHER + shift(TWO_SQUARES))
        assert rso_path(g, h).replay(g) == h
        assert (routed, copies) == ([(1, 3), (2, 2), (3, 3)], [(2, 2), (2, 2)])
        routed.clear()
        h = LabeledGraph.from_edges(TestPinnedTraces.PENDANT_OTHER)
        assert rso_path(pendant, h).replay(pendant) == h
        assert (routed, copies) == ([(1, 3), (3, 3)], [(2, 2), (2, 2)])

    def test_finish_records_are_pinned(self):
        # The exact records of three routes that take the canonical finish,
        # so a change to the finish shows here even when its routes land.
        g_edges, h_edges = self.STUCK_SIMPLE
        assert simple_swap_path(LabeledGraph.from_edges(g_edges), LabeledGraph.from_edges(h_edges)) == [
            (0, 3, 4, 1), (0, 5, 3, 6), (2, 5, 6, 1), (2, 6, 7, 3), (4, 3, 1, 5), (1, 7, 3, 5),
            (6, 5, 7, 3), (1, 5, 6, 7), (4, 5, 1, 3), (2, 1, 6, 5), (0, 1, 2, 3),
        ]
        lefts, rights = tuple(range(5)), tuple(range(7))
        g_edges, h_edges = self.STUCK_BIPARTITE
        assert bipartite_swap_path(
            Bipartite(lefts, rights, frozenset(g_edges)), Bipartite(lefts, rights, frozenset(h_edges))
        ) == [
            (1, 2, 0, 0), (1, 3, 0, 1), (4, 5, 0, 2), (0, 3, 3, 0), (0, 4, 2, 1), (2, 5, 3, 2),
            (2, 6, 3, 3), (2, 4, 3, 6), (2, 2, 3, 5), (0, 1, 3, 4), (1, 1, 2, 3),
        ]
        g, h = LabeledGraph.from_edges(EIGHT_CYCLE), LabeledGraph.from_edges(TWO_SQUARES)
        assert dumps_trace(rso_path(g, h).swaps) == (
            "0 6 3 1 2\n0 3 4 2 2\n3 4 6 5 2\n6 7 2 1 2\n6 2 4 7 2\n2 7 4 5 2\n"
            "6 2 7 5 2\n6 7 1 2 2\n3 1 5 7 2\n3 5 4 1 2\n0 4 2 7 2\n0 7 1 3 2\n"
        )

    def test_random_pairs_shrink_until_the_finish(self):
        rng = random.Random(1802)

        def walk(edges, steps, simple):
            # Random valid swaps a-c, b-d -> a-d, b-c keep every degree.  In a
            # simple graph either end of an edge may pivot; in a bipartite
            # one the left end pivots, and the sides may reuse a number.
            key = (lambda u, v: (min(u, v), max(u, v))) if simple else (lambda l, r: (l, r))
            cur = set(edges)
            for _ in range(steps):
                (a, c), (b, d) = (
                    e[::-1] if simple and rng.random() < 0.5 else e for e in rng.sample(sorted(cur), 2)
                )
                distinct = len({a, b, c, d}) == 4 if simple else a != b and c != d
                if distinct and not {key(a, d), key(b, c)} & cur:
                    cur -= {key(a, c), key(b, d)}
                    cur |= {key(a, d), key(b, c)}
            return sorted(cur)

        for _ in range(150):
            n = rng.randrange(5, 10)
            p = rng.uniform(0.3, 0.7)
            g_edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            if len(g_edges) < 2:
                continue
            h_edges = walk(g_edges, 20 * len(g_edges), simple=True)
            simple_case(g_edges, h_edges)
        for _ in range(150):
            lefts, rights = tuple(range(rng.randrange(3, 8))), tuple(range(rng.randrange(3, 8)))
            p = rng.uniform(0.3, 0.7)
            g_edges = [e for e in itertools.product(lefts, rights) if rng.random() < p]
            if len(g_edges) < 2:
                continue
            h_edges = walk(g_edges, 20 * len(g_edges), simple=False)
            bipartite_case(lefts, rights, g_edges, h_edges)


def ref_forced_wiring(adj, schedule):
    """The canonical wiring as it stood with one schedule per graph kind,
    kept verbatim as the reference for the single-schedule wiring."""
    records = []
    active = set(adj)
    for w, targets in schedule(adj, active):
        while True:
            x = min((t for t in targets if t not in adj[w]), default=None)
            if x is None:
                break
            z = min((u for u in adj[w] if u in active and u not in targets), default=None)
            if z is None:
                raise GraphError("neighborhood and target set sizes must match")
            y = min((u for u in adj[x] if u in active and u != z and u not in adj[z]), default=None)
            if y is None:
                raise GraphError("missing witness for a forced swap")
            _exchange(adj, w, y, z, x)
            records.append((w, z, y, x))
        active.remove(w)
    return records


def ref_havel_hakimi(adj, active):
    while len(active) > 1:
        dact = {v: sum(1 for u in adj[v] if u in active) for v in active}
        w = max(active, key=lambda v: (dact[v], -v))
        if dact[w] == 0:
            return
        rest = sorted((v for v in active if v != w), key=lambda v: (-dact[v], v))
        yield w, set(rest[: dact[w]])


def ref_gale_ryser(lefts, rights):
    def schedule(adj, active):
        live = {r: len(adj[r]) for r in rights}
        for w in sorted(lefts, key=lambda l: (-len(adj[l]), l)):
            rank = sorted(live, key=lambda r: (-live[r], r))
            yield w, set(rank[: len(adj[w])])
            for r in adj[w]:
                live[r] -= 1

    return schedule


class TestForcedWiring:
    """The one canonical wiring against the two schedules it replaced."""

    def test_matches_the_two_schedule_reference(self):
        rng = random.Random(2001)
        for _ in range(150):
            nodes = tuple(range(rng.randrange(4, 11)))
            p = rng.uniform(0.2, 0.8)
            edges = [e for e in itertools.combinations(nodes, 2) if rng.random() < p]
            ref, new = _adjacency(nodes, edges), _adjacency(nodes, edges)
            assert transform._forced_wiring(new, nodes) == ref_forced_wiring(ref, ref_havel_hakimi)
            assert new == ref
        for _ in range(150):
            lefts = tuple(range(rng.randrange(2, 7)))
            # Half the cases reuse the left labels on the right; keys keep
            # the sides apart as _route keys them.
            first = 0 if rng.random() < 0.5 else len(lefts)
            rights = tuple(range(first, first + rng.randrange(2, 7)))
            keys = [(r,) for r in rights]
            p = rng.uniform(0.2, 0.8)
            edges = [(l, k) for l in lefts for k in keys if rng.random() < p]
            nodes = [*lefts, *keys]
            ref, new = _adjacency(nodes, edges), _adjacency(nodes, edges)
            assert transform._forced_wiring(new, lefts, keys) == ref_forced_wiring(
                ref, ref_gale_ryser(lefts, keys)
            )
            assert new == ref

    def test_labels_need_only_an_order(self):
        # The stuck bipartite pair with letters for labels takes the same
        # route, relabelled, as with the integers test_finish_records_are_pinned pins.
        g_edges, h_edges = TestShrinkingRoute.STUCK_BIPARTITE
        lefts, rights = "abcde", "pqrstuv"

        def path(left, right):
            b1, b2 = (
                Bipartite(tuple(left), tuple(right), frozenset((left[l], right[r]) for l, r in es))
                for es in (g_edges, h_edges)
            )
            return bipartite_swap_path(b1, b2)

        numbered = path(range(5), range(7))
        assert path(lefts, rights) == [
            (lefts[a], rights[c], lefts[b], rights[d]) for a, c, b, d in numbered
        ]


class TestAuxBipartite:
    def test_pendant_side_graph(self, pendant):
        bal, _ = balance(pendant)
        aux = aux_bipartite(bal, 3)
        assert aux.left == (3, 4, 5, 6, 7)
        assert aux.right == (1, 3)
        assert sum(1 for (v, i) in aux.edges if i == 1) == 3
        assert sum(1 for (v, i) in aux.edges if i == 3) == 2

    def test_requires_balanced_class(self, pendant):
        with pytest.raises(GraphError, match="not balanced"):
            aux_bipartite(pendant, 3)
        with pytest.raises(GraphError, match="empty"):
            aux_bipartite(pendant, 2)

    def test_lift_preserves_matrix_and_moves_marks(self, pendant):
        bal, _ = balance(pendant)
        aux = aux_bipartite(bal, 3)
        highs_1 = sorted(v for (v, i) in aux.edges if i == 1)
        lows_1 = [v for v in aux.left if (v, 1) not in aux.edges]
        v = next(v for v in highs_1 if (v, 3) not in aux.edges)
        w = next(w for w in lows_1 if (w, 3) in aux.edges)
        out, rso = lift_aux_swap(bal, 3, (v, 1, w, 3))
        assert rso.pivot_class == 3
        assert extract_jdm(out) == extract_jdm(bal)
        assert imbalance(out, 3) == 0
        moved = aux_bipartite(out, 3)
        assert (v, 1) not in moved.edges and (w, 1) in moved.edges
        assert (w, 3) not in moved.edges and (v, 3) in moved.edges


    def test_lift_error_messages(self, pendant):
        bal, _ = balance(pendant)
        assert sorted(aux_bipartite(bal, 3).edges) == [(3, 1), (4, 1), (5, 1), (6, 3), (7, 3)]
        cases = [
            ((3, 1, 3, 3), "swap nodes must be distinct"),
            ((3, 1, 4, 1), "swap nodes must be distinct"),
            ((3, 1, 4, 3), r"marks \(v,i\) and \(w,k\) to be present"),
            ((6, 1, 5, 3), r"marks \(v,i\) and \(w,k\) to be present"),
            ((4, 3, 3, 1), r"marks \(v,i\) and \(w,k\) to be present"),
            # Class 0, classes past delta, negative classes and vertices
            # outside class j (vertex 0 is class 1) are never marks.
            ((3, 0, 4, 9), r"marks \(v,i\) and \(w,k\) to be present"),
            ((3, 1, 6, 9), r"marks \(v,i\) and \(w,k\) to be present"),
            ((3, -1, 6, 3), r"marks \(v,i\) and \(w,k\) to be present"),
            ((0, 1, 4, 3), r"marks \(v,i\) and \(w,k\) to be present"),
        ]
        for aux_swap, message in cases:
            with pytest.raises(GraphError, match=message):
                lift_aux_swap(bal, 3, aux_swap)
        with pytest.raises(GraphError, match="class 3 is not balanced"):
            lift_aux_swap(pendant, 3, (5, 1, 6, 3))
        with pytest.raises(GraphError, match="class 2 is empty"):
            lift_aux_swap(bal, 2, (5, 1, 6, 3))
        # Class 4 of this balanced graph has vertices 0 and 1 both high for
        # class 5, so moving (0, 4) and (1, 5) would stack two marks.
        g = LabeledGraph.from_edges([
            (0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 5), (1, 6), (2, 3), (2, 5),
            (2, 7), (2, 8), (3, 6), (3, 8), (4, 7), (4, 8), (5, 6), (5, 8),
        ])
        assert imbalance(g, 4) == 0
        marks = aux_bipartite(g, 4).edges
        assert {(0, 4), (0, 5), (1, 5)} <= marks
        with pytest.raises(GraphError, match=r"marks \(v,k\) and \(w,i\) to be absent"):
            lift_aux_swap(g, 4, (0, 4, 1, 5))


class TestSpectrumAlign:
    def test_aligns_all_spectra(self, pendant):
        pool = enumerate_realizations(extract_jdm(pendant), max_vertices=8)
        rng = random.Random(3)
        for _ in range(6):
            g, h = rng.sample(pool, 2)
            gb, _ = balance(g)
            hb, _ = balance(h)
            out, swaps = spectrum_align(gb, hb)
            for v in out.vertices:
                assert out.spectrum(v) == hb.spectrum(v)
            cur = gb
            for r in swaps:
                cur = apply_rso(cur, r)
            assert cur == out

    def test_rejects_unbalanced_input(self, pendant):
        bal, _ = balance(pendant)
        with pytest.raises(GraphError, match="not balanced"):
            spectrum_align(pendant, bal)


class TestRsoPath:
    def test_same_graph_gives_empty_sequence(self, six_cycle):
        seq = rso_path(six_cycle, six_cycle)
        assert len(seq) == 0
        assert seq.replay(six_cycle) == six_cycle

    def test_different_matrices_rejected(self, six_cycle, two_triangles):
        with pytest.raises(GraphError, match="matrices differ"):
            rso_path(six_cycle, LabeledGraph.from_edges([(1, 2), (2, 3), (1, 3)]))
        # same matrix but a different labeling of classes is fine; a graph
        # over other labels is not
        with pytest.raises(GraphError):
            rso_path(
                six_cycle,
                LabeledGraph.from_edges(
                    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
                ),
            )

    def test_six_cycle_to_triangles(self, six_cycle, two_triangles):
        seq = rso_path(six_cycle, two_triangles)
        assert seq.source_fingerprint == six_cycle.fingerprint()
        assert seq.target_fingerprint == two_triangles.fingerprint()
        cur = six_cycle
        for r in seq.swaps:
            r.validate(cur)
            cur = apply_rso(cur, r)
        assert cur == two_triangles
        assert seq.replay(six_cycle) == two_triangles

    def test_replay_rejects_wrong_start(self, six_cycle, two_triangles):
        seq = rso_path(six_cycle, two_triangles)
        with pytest.raises(GraphError, match="source"):
            seq.replay(two_triangles)

    def test_random_pairs(self, pendant):
        pool = enumerate_realizations(extract_jdm(pendant), max_vertices=8)
        assert len(pool) == 605
        rng = random.Random(41)
        for _ in range(25):
            g, h = rng.sample(pool, 2)
            seq = rso_path(g, h)
            cur = g
            for r in seq.swaps:
                r.validate(cur)
                cur = apply_rso(cur, r)
            assert cur == h

    def test_swaps_never_leave_the_matrix(self, six_cycle, two_triangles):
        seq = rso_path(six_cycle, two_triangles)
        cur = six_cycle
        j = extract_jdm(six_cycle)
        for r in seq.swaps:
            cur = apply_rso(cur, r)
            assert extract_jdm(cur) == j


    def test_replay_rejects_each_corrupted_swap(self, pendant, six_cycle, two_triangles):
        h = LabeledGraph.from_edges(TestPinnedTraces.PENDANT_OTHER)
        seq = rso_path(pendant, h)
        s = seq.swaps[2]
        assert str(s) == "0 2 7 4 1"
        cases = [
            (Rso(0, 0, 7, 4, 1), r"swap vertices \(0, 0, 7, 4\) are not pairwise distinct"),
            (Rso(0, 2, 7, 9, 1), "unknown vertex 9"),
            (Rso(0, 2, 7, 4, 3), "vertices 0, 2 must both be in class 3"),
            (Rso(2, 0, 7, 4, 1), "required edge 2-7 is missing"),
            (seq.swaps[4], "required edge 4-0 is missing"),
            (Rso(3, 4, 1, 6, 3), "target edge 3-6 is already present"),
        ]
        for bad, message in cases:
            swaps = seq.swaps[:2] + (bad,) + seq.swaps[3:]
            corrupt = SwapSequence(swaps, seq.source_fingerprint, seq.target_fingerprint)
            with pytest.raises(SwapError, match=f"^{message}$"):
                corrupt.replay(pendant)
        present = SwapSequence(
            (Rso(2, 6, 1, 5, 2),), six_cycle.fingerprint(), two_triangles.fingerprint()
        )
        with pytest.raises(SwapError, match="^target edge 6-1 is already present$"):
            present.replay(six_cycle)
        short = SwapSequence(seq.swaps[:-1], seq.source_fingerprint, seq.target_fingerprint)
        with pytest.raises(GraphError, match="did not land on the recorded target"):
            short.replay(pendant)

    def test_landing_check_survives_optimized_mode(self, six_cycle, two_triangles, optimized_stdout):
        # With the last class pair's difference dropped, routing leaves that
        # pair as it is and the path misses its target.  Under python -O the
        # assert statements are gone, so only an explicit check can refuse
        # the sequence.
        script = textwrap.dedent(
            f"""
            import sys
            from jdmkit import transform
            from jdmkit.core import GraphError, LabeledGraph

            assert sys.flags.optimize
            differences = transform._pair_differences
            transform._pair_differences = lambda cur, tgt: differences(cur, tgt)[:-1]
            g = LabeledGraph.from_edges({list(six_cycle.edges())})
            h = LabeledGraph.from_edges({list(two_triangles.edges())})
            try:
                seq = transform.rso_path(g, h)
            except GraphError as exc:
                print("GraphError:", exc)
            else:
                print("returned", len(seq), "swaps")
            """
        )
        out = optimized_stdout(script)
        assert out == "GraphError: path must land exactly on the target\n"

    @pytest.mark.parametrize(
        "sabotage, message",
        [
            # A canonical wiring that wires nothing leaves the two graphs of
            # class pair (2, 2), the cycles, apart, and only the finish's
            # own check refuses that.
            (
                "transform._forced_wiring = lambda adj, lefts, rights=None: []",
                "both routes must reach one canonical form",
            ),
            # Side graphs without marks route nothing, which leaves class
            # 3's spectra apart.
            (
                "transform._aux = lambda state, j: transform.Bipartite(state.part[j], (), frozenset())",
                "alignment must pin every spectrum",
            ),
        ],
    )
    def test_invariants_survive_optimized_mode(self, pendant, sabotage, message, optimized_stdout):
        # The pendant pair beside the cycle pair on labels 8..15: class 3
        # needs aligning and class pair (2, 2) the canonical finish.
        shift = lambda edges: [(u + 8, v + 8) for u, v in edges]
        g_edges = list(pendant.edges()) + shift(EIGHT_CYCLE)
        h_edges = TestPinnedTraces.PENDANT_OTHER + shift(TWO_SQUARES)
        script = textwrap.dedent(
            f"""
            import sys
            from jdmkit import transform
            from jdmkit.core import GraphError, LabeledGraph

            assert sys.flags.optimize
            {sabotage}
            g = LabeledGraph.from_edges({g_edges})
            h = LabeledGraph.from_edges({h_edges})
            try:
                seq = transform.rso_path(g, h)
            except GraphError as exc:
                print("GraphError:", exc)
            else:
                print("returned", len(seq), "swaps")
            """
        )
        out = optimized_stdout(script)
        assert out == f"GraphError: {message}\n"


class TestPinnedTraces:
    """Exact swap lists, so a refactor that changes which path is produced
    fails here even when its paths still replay."""

    # A realization of the pendant matrix.  Aligning class 3 runs on a side
    # graph whose left node 3 (a vertex) and right node 3 (a class) share a
    # number, and routing then uses cross pair (1, 3) and diagonal pair (3, 3).
    PENDANT_OTHER = [
        (0, 3), (1, 3), (2, 7), (3, 4), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
    ]

    def test_pendant_balance_trace(self, pendant):
        assert dumps_trace(balance(pendant)[1]) == "3 5 0 6 3\n"

    def test_pendant_path_trace(self, pendant):
        h = LabeledGraph.from_edges(self.PENDANT_OTHER)
        assert dumps_trace(rso_path(pendant, h).swaps) == (
            "3 5 0 6 3\n5 7 0 4 3\n0 2 7 4 1\n3 5 6 4 3\n4 3 0 5 3\n"
        )
        assert dumps_trace(rso_path(h, pendant).swaps) == (
            "3 4 0 5 3\n5 7 3 2 3\n0 2 4 5 1\n3 7 4 5 3\n3 5 7 6 3\n5 3 0 6 3\n"
        )

    def test_labels_out_of_class_order(self, pendant):
        # Relabelling v -> 7 - v puts the class-1 leaves above the class-3
        # core, so every cross edge u < v runs from class 3 to class 1 and
        # the class-pair grouping has to turn it round.
        def flip(edges):
            return LabeledGraph.from_edges((7 - u, 7 - v) for u, v in edges)

        g, h = flip(pendant.edges()), flip(self.PENDANT_OTHER)
        assert g.partition() == {1: (5, 6, 7), 3: (0, 1, 2, 3, 4)}
        j = extract_jdm(g)
        for graph, trace in ((g, "4 0 6 1 3\n"), (h, "4 1 6 0 3\n")):
            balanced, swaps = balance(graph)
            assert dumps_trace(swaps) == trace
            assert extract_jdm(balanced) == j
        forward, backward = rso_path(g, h), rso_path(h, g)
        assert dumps_trace(forward.swaps) == (
            "4 0 6 1 3\n1 3 2 5 3\n5 6 1 0 1\n1 0 4 2 3\n0 4 3 2 3\n1 4 6 0 3\n"
        )
        assert dumps_trace(backward.swaps) == (
            "4 1 6 0 3\n1 3 6 4 3\n5 6 0 3 1\n0 2 4 3 3\n0 4 6 1 3\n"
        )
        assert forward.replay(g) == h and backward.replay(h) == g
        cur = g
        for r in forward.swaps:
            cur = apply_rso(cur, r)
            assert extract_jdm(cur) == j

    def test_cross_class_routing_trace(self):
        g = LabeledGraph.from_edges([(0, 4), (1, 4), (2, 3), (2, 5), (3, 5), (4, 5)])
        h = LabeledGraph.from_edges([(0, 4), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)])
        assert dumps_trace(rso_path(g, h).swaps) == "4 5 0 2 3\n0 1 5 4 1\n"


def test_path_scaling_tool_reports_each_size(monkeypatch, capsys):
    # tools/path_scaling.py imports its siblings as a script would.
    tools = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
    monkeypatch.syspath_prepend(tools)
    path_scaling = importlib.import_module("path_scaling")
    path_scaling.main((60, 120))
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["n=60", "n=120"]
    for line in lines:
        fields = dict(item.split("=") for item in line.split()[1:])
        assert set(fields) == {"best_of_3_s", "swaps", "bound", "stretch", "finishes", "trace"}
        assert int(fields["finishes"]) >= 0
        swaps, bound = int(fields["swaps"]), float(fields["bound"])
        # Each swap changes four edges, so no path is shorter than the bound.
        assert 0 < bound <= swaps
        assert fields["stretch"] == f"{swaps / bound:.2f}"
        assert float(fields["best_of_3_s"]) > 0
        assert len(fields["trace"]) == 16 and int(fields["trace"], 16) >= 0
