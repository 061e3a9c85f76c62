"""Explicit swap sequences carrying one realization onto another."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import List, Optional, Tuple

from .core import (
    GraphError,
    LabeledGraph,
    Rso,
    _SwapState,
    _adjacency,
    _edges_by_class_pair,
    _exchange,
)
from .balance import _balance

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


def _canonize_simple(edges, vertices) -> Tuple[List[Tuple], frozenset]:
    """Swap records carrying an edge set to its degree function's canonical graph.

    The canonical graph is built one vertex at a time, Havel-Hakimi style: the
    active vertex w of highest remaining degree (ties to the smallest label)
    gets wired to the active vertices of next-highest remaining degrees by
    forced swaps (_forced_wiring).  The witness always exists: x's remaining
    degree is at least z's, while z alone is adjacent to w, so x's active
    neighborhood cannot fit inside z's.  Every swap strictly grows the overlap
    between w's neighborhood and its target set, so the routing terminates.
    _route's finish runs this on whatever difference its shrinking swaps leave.

    Records follow the (p, q, r, s) convention: remove p-q, r-s; add p-s, r-q.
    Returns (records, canonical edge set as sorted pairs).
    """
    adj = _adjacency(vertices, edges)

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
    """Swap records carrying a bipartite edge set to its margins' canonical form.

    Left nodes are processed once each, largest degree first (ties to the
    smallest label), and wired to the right nodes holding the most edges
    toward still-pending left nodes, Gale-Ryser style.  As in
    _canonize_simple, each wiring is one forced swap: the target x holds at
    least as many pending edges as the dropped z, while z alone sees w, so a
    pending witness adjacent to x but not z always exists.  _route's finish
    runs this as it runs _canonize_simple.

    A right node r is keyed (r,) in the shared adjacency, so a left label
    never equals a right key even when the two sides reuse a number; 1-tuples
    sort as their labels do.

    Records are (l1, r1, l2, r2): remove l1-r1, l2-r2; add l1-r2, l2-r1.
    Returns (records, canonical edge set as (l, r) pairs).
    """
    adj = _adjacency([*lefts, *((r,) for r in rights)], ((l, (r,)) for l, r in edges))

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
    if canon_f != canon_b:
        raise GraphError("both routes must reach one canonical form")
    # The record undoing (p, q, r, s) is (p, s, r, q), with p and r in place.
    return fwd + [(p, s, r, q) for p, q, r, s in reversed(bwd)]


def _shrink(adj, target, pivots) -> List[Tuple]:
    """Rewire adj (node -> neighbor set) toward target by swaps that shrink
    their difference; return them as (a, c, b, d): remove a-c, b-d; add a-d, b-c.

    Call the current edges G and the target's H.  A swap lowers |G Δ H| by
    2 or 4 only if one pivot a drops an edge a-c of G minus H and gains an
    edge a-d of H minus G, while the other pivot b either drops b-d of
    G minus H with b-c not in G, or gains b-c of H minus G with b-d in G.
    Each step takes the smallest pivot a with such a swap, a swap lowering
    the difference by 4 before one lowering it by 2, then the smallest c,
    d and b in that order.  Pivots come from a worklist: after a swap only
    its four nodes and their difference neighbors can gain a swap, so only
    those pivots are queued again.  Stops when no pivot has such a swap,
    which may leave a difference behind.
    """
    minus = {v: ns - target[v] for v, ns in adj.items()}
    plus = {v: target[v] - ns for v, ns in adj.items()}
    queue = sorted(v for v in pivots if minus[v])
    queued = set(queue)
    records: List[Tuple] = []
    while queue:
        a = heappop(queue)
        queued.remove(a)
        swap = _shrinking_swap(a, adj, minus, plus)
        if swap is None:
            continue
        a, c, b, d = swap
        _exchange(adj, a, b, c, d)
        for (u, v), out, back in (((a, c), minus, plus), ((b, d), minus, plus),
                                  ((a, d), plus, minus), ((b, c), plus, minus)):
            # A dropped edge leaves G minus H or enters H minus G; an added
            # one leaves H minus G or enters G minus H.
            if v in out[u]:
                out[u].remove(v)
                out[v].remove(u)
            else:
                back[u].add(v)
                back[v].add(u)
        records.append(swap)
        for v in (a, b, c, d):
            for u in (v, *minus[v], *plus[v]):
                if u in pivots and u not in queued and minus[u]:
                    heappush(queue, u)
                    queued.add(u)
    return records


def _shrinking_swap(a, adj, minus, plus) -> Optional[Tuple]:
    """_shrink's choice of swap (a, c, b, d) for pivot a, or None."""
    drops, gains = sorted(minus[a]), sorted(plus[a])
    for c in drops:
        for d in gains:
            both = minus[d] & plus[c]
            if both:
                return a, c, min(both), d
    for c in drops:
        near_c = adj[c]
        for d in gains:
            near_d = adj[d]
            b = min(
                itertools.chain(
                    (b for b in minus[d] if b != c and b not in near_c),
                    (b for b in plus[c] if b in near_d),
                ),
                default=None,
            )
            if b is not None:
                return a, c, b, d
    return None


def _route(canonize, src, dst, *sides) -> List[Tuple]:
    """Records carrying edge set src onto dst: difference-shrinking swaps
    (_shrink), then, for whatever difference they leave, the route through
    canonize(edges, *sides)'s canonical graph.

    With one side the edges are a simple graph on it and every node may
    pivot; with two they are (left, right) pairs and only left nodes pivot.
    """
    if src == dst:
        return []
    if len(sides) == 1:
        (nodes,) = sides
        adj, target = _adjacency(nodes, src), _adjacency(nodes, dst)
        records = _shrink(adj, target, frozenset(nodes))
        rest = [(u, v) for u in nodes for v in adj[u] if u < v]
    else:
        lefts, rights = sides
        # Right node r is keyed (r,), as in _canonize_bipartite.
        nodes = [*lefts, *((r,) for r in rights)]
        adj = _adjacency(nodes, ((l, (r,)) for l, r in src))
        target = _adjacency(nodes, ((l, (r,)) for l, r in dst))
        records = [(a, c, b, d) for a, (c,), b, (d,) in _shrink(adj, target, frozenset(lefts))]
        rest = [(l, r) for l in lefts for (r,) in adj[l]]
    if adj != target:
        records += _route_records(canonize(rest, *sides), canonize(dst, *sides))
    return records


def simple_swap_path(g1: LabeledGraph, g2: LabeledGraph) -> List[Tuple[int, int, int, int]]:
    """Ordinary 2-swaps carrying g1's edge set onto g2's.

    Requires the same vertices with the same degrees.  Every swap shrinks
    the difference between the two edge sets until none can (_route); only
    what is left then goes through the shared degree function's canonical
    graph.  Each returned record (p, q, r, s) removes p-q, r-s and adds
    p-s, r-q.
    """
    if g1.vertices != g2.vertices:
        raise GraphError("vertex sets differ")
    for v in g1.vertices:
        if g1.degree(v) != g2.degree(v):
            raise GraphError(f"degree mismatch at vertex {v}")
    return _route(_canonize_simple, g1.edge_set(), g2.edge_set(), g1.vertices)


def bipartite_swap_path(b1: Bipartite, b2: Bipartite) -> List[Tuple]:
    """Side-respecting swaps carrying b1's edges onto b2's.

    Routed as simple_swap_path routes, by swaps that shrink the difference
    and then, if some is left, through the margins' canonical form.  Each
    record (l1, r1, l2, r2) removes l1-r1, l2-r2 and adds l1-r2, l2-r1; the
    moved pair l1, l2 always sits on the left side.
    """
    if set(b1.left) != set(b2.left) or set(b1.right) != set(b2.right):
        raise GraphError("bipartition node sets differ")
    left1, left2 = Counter(l for l, _ in b1.edges), Counter(l for l, _ in b2.edges)
    for l in b1.left:
        if left1[l] != left2[l]:
            raise GraphError(f"degree mismatch at left node {l!r}")
    right1, right2 = Counter(r for _, r in b1.edges), Counter(r for _, r in b2.edges)
    for r in b1.right:
        if right1[r] != right2[r]:
            raise GraphError(f"degree mismatch at right node {r!r}")
    sides = sorted(set(b1.left)), sorted(set(b1.right))
    return _route(_canonize_bipartite, b1.edges, b2.edges, *sides)


def _class_state(g: LabeledGraph, j: int) -> _SwapState:
    if j not in g.partition():
        raise GraphError(f"class {j} is empty")
    return _SwapState(g)


def _is_mark(state: _SwapState, j: int, v: int, i: int) -> bool:
    """Whether class-j vertex v sits on the high side of split class i."""
    num, den = state.avg.get((j, i), (0, 1))
    return (
        state.classes.get(v) == j
        and num % den != 0
        and state.spec[v][i - 1] == num // den + 1
    )


def _aux(state: _SwapState, j: int) -> Bipartite:
    if state.imbalance(j) != 0:
        raise GraphError(f"class {j} is not balanced")
    members, avg = state.part[j], state.avg
    mixed = tuple(i for i in range(1, state.delta + 1) if avg[(j, i)][0] % avg[(j, i)][1])
    edges = frozenset((v, i) for v in members for i in mixed if _is_mark(state, j, v, i))
    return Bipartite(left=members, right=mixed, edges=edges)


def aux_bipartite(g: LabeledGraph, j: int) -> Bipartite:
    """Which class-j vertices sit on the high side of each split class.

    For every class i whose forced average A_j(i) is not an integer, class j's
    vertices split into low (floor) and high (floor + 1) counts of class-i
    neighbors; the edge (v, i) marks v as high for i.  Defined only when class
    j is balanced.
    """
    return _aux(_class_state(g, j), j)


def _lift(state: _SwapState, j: int, aux_swap: Tuple[int, int, int, int]) -> Rso:
    """Apply lift_aux_swap's swap to the state in place; marks come from its counters."""
    v, i, w, k = aux_swap
    if state.imbalance(j) != 0:
        raise GraphError(f"class {j} is not balanced")
    if v == w or i == k:
        raise GraphError("swap nodes must be distinct")
    if not (_is_mark(state, j, v, i) and _is_mark(state, j, w, k)):
        raise GraphError("swap requires marks (v,i) and (w,k) to be present")
    if _is_mark(state, j, v, k) or _is_mark(state, j, w, i):
        raise GraphError("swap requires marks (v,k) and (w,i) to be absent")
    x = state.movable(v, i, w)
    if x is None:
        raise GraphError("high vertex must own a movable class-i neighbor")
    y = state.movable(w, k, v)
    if y is None:
        raise GraphError("high vertex must own a movable class-k neighbor")
    r = Rso(v, w, x, y, pivot_class=j)
    state.swap(r)
    return r


def lift_aux_swap(
    g: LabeledGraph, j: int, aux_swap: Tuple[int, int, int, int]
) -> Tuple[LabeledGraph, Rso]:
    """Realize one swap of the class-j side graph as a swap on g itself.

    aux_swap = (v, i, w, k) removes marks (v, i), (w, k) and adds (v, k),
    (w, i): v trades a class-i neighbor for a class-k one and w the reverse.
    The witnesses exist by counting: v holds one more class-i neighbor than w,
    and w one more class-k neighbor than v.
    """
    state = _class_state(g, j)
    r = _lift(state, j, aux_swap)
    return state.graph(), r


def spectrum_align(
    g: LabeledGraph, h: LabeledGraph
) -> Tuple[LabeledGraph, List[Rso]]:
    """Swap g, class by class, until every vertex's spectrum matches h's.

    Both inputs must be balanced realizations of one matrix on one partition.
    Aligning class j moves only class-j spectra, so earlier classes stay put.
    """
    cur, tgt = _problem_states(g, h)
    swaps = _align(cur, tgt)
    return (cur.graph() if swaps else g), swaps


def _align(cur: _SwapState, tgt: _SwapState) -> List[Rso]:
    """Swap cur in place until its spectra equal tgt's; return the swaps."""
    for side in (cur, tgt):
        for j in side.part:
            if side.imbalance(j) != 0:
                raise GraphError(f"class {j} is not balanced")
    swaps: List[Rso] = []
    for j in cur.part:
        for aux_swap in bipartite_swap_path(_aux(cur, j), _aux(tgt, j)):
            swaps.append(_lift(cur, j, aux_swap))
    if cur.spec != tgt.spec:
        raise GraphError("alignment must pin every spectrum")
    return swaps


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
        if self.swaps:
            state = _SwapState(g)
            for r in self.swaps:
                state.swap(r)
            cur = state.graph()
        if cur.fingerprint() != self.target_fingerprint:
            raise GraphError("replay did not land on the recorded target")
        return cur


def _problem_states(g: LabeledGraph, h: LabeledGraph) -> Tuple[_SwapState, _SwapState]:
    cur, tgt = _SwapState(g), _SwapState(h)
    if cur.jdm != tgt.jdm:
        raise GraphError("matrices differ")
    if cur.classes != tgt.classes:
        raise GraphError("vertex partitions differ")
    return cur, tgt


def rso_path(g: LabeledGraph, h: LabeledGraph) -> SwapSequence:
    """A swap sequence carrying g exactly onto h.

    Route: balance both sides, align every spectrum, then equalize each
    class-pair subgraph with ordinary or side-respecting swaps (all of which
    keep their moved pair inside one class), and finally undo h's balancing
    swaps in reverse.  Aligning and equalizing both route by swaps that
    shrink the difference to h's side graph or subgraph (_route), so the
    path's length follows how far g is from h.  All four phases run on one
    swap state per side, which validates every swap; landing anywhere but h
    raises GraphError.
    """
    cur, tgt = _problem_states(g, h)
    source_fp, target_fp = g.fingerprint(), h.fingerprint()
    if g == h:
        return SwapSequence((), source_fp, target_fp)
    swaps = _balance(cur)
    h_swaps = _balance(tgt)
    swaps.extend(_align(cur, tgt))
    # Routing class pair (i, j) moves only that pair's edges, so both edge
    # sets can be split by pair once, up front.
    part = cur.part
    tgt_pairs = _edges_by_class_pair(tgt.classes, tgt.edges())
    for (i, j), cur_sub in _edges_by_class_pair(cur.classes, cur.edges()).items():
        if i == j:
            canonize, sides = _canonize_simple, (part[i],)
        else:
            canonize, sides = _canonize_bipartite, (part[i], part[j])
        # Both record kinds remove x1-y1, x2-y2 and add x1-y2, x2-y1, with
        # x1, x2 in class i.
        for x1, y1, x2, y2 in _route(canonize, cur_sub, tgt_pairs[(i, j)], *sides):
            rso = Rso(x1, x2, y1, y2, pivot_class=i)
            cur.swap(rso)
            swaps.append(rso)
    for r in reversed(h_swaps):
        inv = r.inverse()
        cur.swap(inv)
        swaps.append(inv)
    # _problem_states compared the class maps, so the edges decide.
    if set(cur.edges()) != h.edge_set():
        raise GraphError("path must land exactly on the target")
    return SwapSequence(tuple(swaps), source_fp, target_fp)
