"""Explicit swap sequences carrying one realization onto another."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .core import (
    GraphError,
    LabeledGraph,
    Rso,
    _edges_by_class_pair,
    _movable_neighbor,
    apply_rso,
    extract_jdm,
)
from .balance import balance, class_averages, imbalance

__all__ = [
    "Bipartite",
    "SwapSequence",
    "aux_bipartite",
    "bipartite_swap_path",
    "simple_swap_path",
    "lift_aux_swap",
    "spectrum_align",
    "rso_path",
]

@dataclass(frozen=True)
class Bipartite:
    """Bipartite graph as ordered (left, right) edge pairs over fixed sides."""

    left: Tuple
    right: Tuple
    edges: frozenset  # of (l, r) tuples

    def degree_left(self, l) -> int:
        return sum(1 for (a, _) in self.edges if a == l)

    def degree_right(self, r) -> int:
        return sum(1 for (_, b) in self.edges if b == r)


def _forced_wiring(adj, schedule) -> List[Tuple]:
    """Rewire adj (node -> neighbor set) in place by forced swaps; return them.

    schedule(active) yields (w, targets) pairs, and w leaves the active set
    once wired.  Each swap gains w's smallest missing target x and drops its
    smallest active non-target z via the smallest active witness y adjacent
    to x but not to z, trading the w-z, y-x edges for w-x, y-z; it is
    recorded as (w, z, y, x).
    """
    records: List[Tuple] = []
    active = set(adj)
    for w, targets in schedule(active):
        while True:
            wanted = sorted(x for x in targets if x not in adj[w])
            if not wanted:
                break
            x = wanted[0]
            spare = [u for u in sorted(adj[w]) if u in active and u not in targets]
            assert spare, "neighborhood and target set sizes must match"
            z = spare[0]
            picks = [
                u
                for u in sorted(adj[x])
                if u in active and u != z and u not in adj[z]
            ]
            assert picks, "missing witness for a forced swap"
            y = picks[0]
            adj[w].remove(z)
            adj[z].remove(w)
            adj[x].remove(y)
            adj[y].remove(x)
            adj[w].add(x)
            adj[x].add(w)
            adj[y].add(z)
            adj[z].add(y)
            records.append((w, z, y, x))
        active.remove(w)
    return records


def _canonize_simple(edges, vertices) -> Tuple[List[Tuple], frozenset]:
    """Swap records routing an edge set to its degree function's canonical graph.

    The canonical graph is built one vertex at a time, Havel-Hakimi style: the
    active vertex w of highest remaining degree (ties to the smallest label)
    gets wired to the active vertices of next-highest remaining degrees by
    forced swaps (_forced_wiring).  The witness always exists: x's remaining
    degree is at least z's, while z alone is adjacent to w, so x's active
    neighborhood cannot fit inside z's.  Every swap strictly grows the overlap
    between w's neighborhood and its target set, so the routing terminates.

    Records follow the (p, q, r, s) convention: remove p-q, r-s; add p-s, r-q.
    Returns (records, canonical edge set as sorted pairs).
    """
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def havel_hakimi(active):
        while len(active) > 1:
            dact = {v: sum(1 for u in adj[v] if u in active) for v in active}
            w = max(active, key=lambda v: (dact[v], -v))
            if dact[w] == 0:
                return
            rest = sorted((v for v in active if v != w), key=lambda v: (-dact[v], v))
            yield w, set(rest[: dact[w]])

    records = _forced_wiring(adj, havel_hakimi)
    canon = frozenset((u, v) for u in adj for v in adj[u] if u < v)
    return records, canon


def _canonize_bipartite(edges, lefts, rights) -> Tuple[List[Tuple], frozenset]:
    """Swap records routing a bipartite edge set to its margins' canonical form.

    Left nodes are processed once each, largest degree first (ties to the
    smallest label), and wired to the right nodes holding the most edges
    toward still-pending left nodes, Gale-Ryser style.  As in
    _canonize_simple, each wiring is one forced swap: the target x holds at
    least as many pending edges as the dropped z, while z alone sees w, so a
    pending witness adjacent to x but not z always exists.

    A right node r is keyed (r,) in the shared adjacency, so a left label
    never equals a right key even when the two sides reuse a number; 1-tuples
    sort as their labels do.

    Records are (l1, r1, l2, r2): remove l1-r1, l2-r2; add l1-r2, l2-r1.
    Returns (records, canonical edge set as (l, r) pairs).
    """
    adj = {l: set() for l in lefts}
    adj.update({(r,): set() for r in rights})
    for l, r in edges:
        adj[l].add((r,))
        adj[(r,)].add(l)

    def gale_ryser(active):
        live = {(r,): len(adj[(r,)]) for r in rights}  # edges toward pending lefts
        for w in sorted(lefts, key=lambda l: (-len(adj[l]), l)):
            rank = sorted(live, key=lambda r: (-live[r], r))
            yield w, set(rank[: len(adj[w])])
            for r in adj[w]:
                live[r] -= 1

    records = [(w, z, y, x) for w, (z,), y, (x,) in _forced_wiring(adj, gale_ryser)]
    canon = frozenset((l, r) for l in lefts for (r,) in adj[l])
    return records, canon


def _route_records(fwd_pack, bwd_pack) -> List[Tuple]:
    """Join two canonization routes into one path: forward, then backward."""
    fwd, canon_f = fwd_pack
    bwd, canon_b = bwd_pack
    assert canon_f == canon_b, "both routes must reach one canonical form"
    # The record undoing (p, q, r, s) is (p, s, r, q), with p and r in place.
    return fwd + [(p, s, r, q) for p, q, r, s in reversed(bwd)]


def simple_swap_path(g1: LabeledGraph, g2: LabeledGraph) -> List[Tuple[int, int, int, int]]:
    """Ordinary 2-swaps carrying g1's edge set onto g2's.

    Requires the same vertices with the same degrees.  Both edge sets are
    routed to the canonical graph of the shared degree function and the
    second route is replayed backwards.  Each returned record (p, q, r, s)
    removes p-q, r-s and adds p-s, r-q.
    """
    if g1.vertices != g2.vertices:
        raise GraphError("vertex sets differ")
    for v in g1.vertices:
        if g1.degree(v) != g2.degree(v):
            raise GraphError(f"degree mismatch at vertex {v}")
    if g1.edge_set() == g2.edge_set():
        return []
    return _route_records(
        _canonize_simple(g1.edges(), g1.vertices),
        _canonize_simple(g2.edges(), g2.vertices),
    )


def bipartite_swap_path(b1: Bipartite, b2: Bipartite) -> List[Tuple]:
    """Side-respecting swaps carrying b1's edges onto b2's.

    Each record (l1, r1, l2, r2) removes l1-r1, l2-r2 and adds l1-r2, l2-r1;
    the moved pair l1, l2 always sits on the left side.
    """
    if set(b1.left) != set(b2.left) or set(b1.right) != set(b2.right):
        raise GraphError("bipartition node sets differ")
    for l in b1.left:
        if b1.degree_left(l) != b2.degree_left(l):
            raise GraphError(f"degree mismatch at left node {l!r}")
    for r in b1.right:
        if b1.degree_right(r) != b2.degree_right(r):
            raise GraphError(f"degree mismatch at right node {r!r}")
    if b1.edges == b2.edges:
        return []
    lefts = sorted(set(b1.left))
    rights = sorted(set(b1.right))
    return _route_records(
        _canonize_bipartite(b1.edges, lefts, rights),
        _canonize_bipartite(b2.edges, lefts, rights),
    )


def aux_bipartite(g: LabeledGraph, j: int) -> Bipartite:
    """Which class-j vertices sit on the high side of each split class.

    For every class i whose forced average A_j(i) is not an integer, class j's
    vertices split into low (floor) and high (floor + 1) counts of class-i
    neighbors; the edge (v, i) marks v as high for i.  Defined only when class
    j is balanced.
    """
    part = g.partition()
    if j not in part:
        raise GraphError(f"class {j} is empty")
    if imbalance(g, j) != 0:
        raise GraphError(f"class {j} is not balanced")
    avgs = class_averages(extract_jdm(g))
    mixed = []
    for i in range(1, g.delta + 1):
        if avgs.get(j, i).denominator != 1:
            mixed.append(i)
    edges = []
    for v in part[j]:
        spec = g.spectrum(v)
        for i in mixed:
            if spec[i - 1] == math.floor(avgs.get(j, i)) + 1:
                edges.append((v, i))
    return Bipartite(left=tuple(part[j]), right=tuple(mixed), edges=frozenset(edges))


def lift_aux_swap(
    g: LabeledGraph, j: int, aux_swap: Tuple[int, int, int, int]
) -> Tuple[LabeledGraph, Rso]:
    """Realize one swap of the class-j side graph as a swap on g itself.

    aux_swap = (v, i, w, k) removes marks (v, i), (w, k) and adds (v, k),
    (w, i): v trades a class-i neighbor for a class-k one and w the reverse.
    The witnesses exist by counting: v holds one more class-i neighbor than w,
    and w one more class-k neighbor than v.
    """
    v, i, w, k = aux_swap
    aux = aux_bipartite(g, j)
    if v == w or i == k:
        raise GraphError("swap nodes must be distinct")
    if (v, i) not in aux.edges or (w, k) not in aux.edges:
        raise GraphError("swap requires marks (v,i) and (w,k) to be present")
    if (v, k) in aux.edges or (w, i) in aux.edges:
        raise GraphError("swap requires marks (v,k) and (w,i) to be absent")
    x = _movable_neighbor(g, v, i, w)
    assert x is not None, "high vertex must own a movable class-i neighbor"
    y = _movable_neighbor(g, w, k, v)
    assert y is not None, "high vertex must own a movable class-k neighbor"
    r = Rso(v, w, x, y, pivot_class=j)
    return apply_rso(g, r), r


def spectrum_align(
    g: LabeledGraph, h: LabeledGraph
) -> Tuple[LabeledGraph, List[Rso]]:
    """Swap g, class by class, until every vertex's spectrum matches h's.

    Both inputs must be balanced realizations of one matrix on one partition.
    Aligning class j moves only class-j spectra, so earlier classes stay put.
    """
    _check_same_problem(g, h)
    for side in (g, h):
        for j in side.partition():
            if imbalance(side, j) != 0:
                raise GraphError(f"class {j} is not balanced")
    cur = g
    swaps: List[Rso] = []
    for j in sorted(g.partition()):
        target = aux_bipartite(h, j)
        for l1, r1, l2, r2 in bipartite_swap_path(aux_bipartite(cur, j), target):
            cur, r = lift_aux_swap(cur, j, (l1, r1, l2, r2))
            swaps.append(r)
    for v in cur.vertices:
        assert cur.spectrum(v) == h.spectrum(v), "alignment must pin every spectrum"
    return cur, swaps


@dataclass(frozen=True)
class SwapSequence:
    """An ordered swap list with endpoint fingerprints for exact replay."""

    swaps: Tuple[Rso, ...]
    source_fingerprint: str
    target_fingerprint: str

    def __len__(self) -> int:
        return len(self.swaps)

    def replay(self, g: LabeledGraph) -> LabeledGraph:
        """Apply every swap in order, checking both endpoint fingerprints."""
        if g.fingerprint() != self.source_fingerprint:
            raise GraphError("graph does not match the sequence's source")
        cur = g
        for r in self.swaps:
            cur = apply_rso(cur, r)
        if cur.fingerprint() != self.target_fingerprint:
            raise GraphError("replay did not land on the recorded target")
        return cur


def _check_same_problem(g: LabeledGraph, h: LabeledGraph) -> None:
    if extract_jdm(g) != extract_jdm(h):
        raise GraphError("matrices differ")
    if g.classes() != h.classes():
        raise GraphError("vertex partitions differ")


def rso_path(g: LabeledGraph, h: LabeledGraph) -> SwapSequence:
    """A swap sequence carrying g exactly onto h.

    Route: balance both sides, align every spectrum, then equalize each
    class-pair subgraph with ordinary or side-respecting swaps (all of which
    keep their moved pair inside one class), and finally undo h's balancing
    swaps in reverse.  The replay is verified before returning.
    """
    _check_same_problem(g, h)
    source_fp, target_fp = g.fingerprint(), h.fingerprint()
    if g == h:
        return SwapSequence((), source_fp, target_fp)
    cur, swaps = balance(g)
    h1, h_swaps = balance(h)
    cur, align_swaps = spectrum_align(cur, h1)
    swaps.extend(align_swaps)
    # Routing class pair (i, j) moves only that pair's edges, so both edge
    # sets can be split by pair once, up front.
    part = cur.partition()
    tgt_pairs = _edges_by_class_pair(h1)
    for (i, j), cur_sub in _edges_by_class_pair(cur).items():
        tgt_sub = tgt_pairs[(i, j)]
        if cur_sub == tgt_sub:
            continue
        if i == j:
            records = _route_records(
                _canonize_simple(cur_sub, part[i]),
                _canonize_simple(tgt_sub, part[i]),
            )
        else:
            records = bipartite_swap_path(
                Bipartite(part[i], part[j], frozenset(cur_sub)),
                Bipartite(part[i], part[j], frozenset(tgt_sub)),
            )
        # Both record kinds remove x1-y1, x2-y2 and add x1-y2, x2-y1, with
        # x1, x2 in class i.
        for x1, y1, x2, y2 in records:
            rso = Rso(x1, x2, y1, y2, pivot_class=i)
            cur = apply_rso(cur, rso)
            swaps.append(rso)
    for r in reversed(h_swaps):
        inv = r.inverse()
        cur = apply_rso(cur, inv)
        swaps.append(inv)
    assert cur == h, "path must land exactly on the target"
    return SwapSequence(tuple(swaps), source_fp, target_fp)
