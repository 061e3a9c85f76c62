"""Stub-matching model of a degree-class matrix and swap chains over it.

A configuration pairs, within each degree class, the class's vertex slots
(mini-vertices) with the class's edge endpoints (edge-points); reading off the
pairs yields a multigraph with the prescribed class-pair edge counts.  Uniform
configurations are NOT uniform over multigraphs: each multigraph owns a fiber
of configurations whose size varies (loops and parallel edges shrink it), so
direct sampling and chain "a" are biased toward graphs with larger fibers.
Over simple graphs all fibers have one constant size, which is what chain "b"
(reject non-simple proposals) relies on.
"""

from __future__ import annotations

from bisect import bisect_right
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core import (
    GraphError,
    Jdm,
    LabeledGraph,
    _assign_labels,
    _class_sizes,
    _edges_by_class_pair,
    _partition,
    extract_jdm,
)

__all__ = [
    "ConfigModel",
    "Configuration",
    "MultiGraphRealization",
    "AutocorrelationResult",
    "build_model",
    "uniform_configuration",
    "to_multigraph",
    "chain_a_step",
    "embed_realization",
    "ChainRunner",
    "autocorrelation",
    "simple_fiber_size",
]


@dataclass(frozen=True)
class ConfigModel:
    """Fixed pairing universe for a matrix: one component per degree class.

    Component for class c matches the c*n_c mini-vertices (v, slot) against
    the c*n_c edge-points (pair, index, side) of class c.  Deterministic
    orderings make configurations comparable across runs.
    """

    jdm: Jdm
    classes: Dict[int, int]  # vertex -> class
    component_classes: Tuple[int, ...]
    minis: Dict[int, Tuple[Tuple[int, int], ...]]  # class -> ((v, slot), ...)
    points: Dict[int, Tuple[Tuple[Tuple[int, int], int, int], ...]]

    def component_sizes(self) -> Tuple[int, ...]:
        return tuple(len(self.minis[c]) for c in self.component_classes)

    def partition(self) -> Dict[int, Tuple[int, ...]]:
        return _partition(self.classes)


@dataclass(frozen=True)
class Configuration:
    """One perfect matching per component: match[comp][mini_idx] = point_idx."""

    model: ConfigModel
    match: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class MultiGraphRealization:
    """Multigraph read off a configuration; loops count twice toward degree."""

    classes: Dict[int, int]
    pair_counts: Dict[Tuple[int, int], int]  # (u, v) with u <= v; (v, v) = loop
    is_simple: bool

    def fiber_key(self) -> Tuple:
        return tuple(sorted(self.pair_counts.items()))

    def as_labeled_graph(self) -> LabeledGraph:
        if _excess(self.pair_counts):
            raise GraphError("multigraph has loops or parallel edges")
        return LabeledGraph(list(self.pair_counts), self.classes)


def build_model(j: Jdm, labels: Optional[List[int]] = None) -> ConfigModel:
    """Lay out mini-vertices and edge-points; needs integral class counts."""
    return _build_model(j, _assign_labels(j, labels))


def _build_model(j: Jdm, classes: Dict[int, int]) -> ConfigModel:
    """build_model over a vertex -> class map holding the matrix's class sizes."""
    sizes = _class_sizes(j)
    minis: Dict[int, List[Tuple[int, int]]] = {c: [] for c in range(1, j.k + 1)}
    for c, members in _partition(classes).items():
        for v in members:
            for slot in range(1, c + 1):
                minis[c].append((v, slot))
    points: Dict[int, List[Tuple[Tuple[int, int], int, int]]] = {
        c: [] for c in range(1, j.k + 1)
    }
    for i in range(1, j.k + 1):
        for l in range(i, j.k + 1):
            pair = (i, l)
            for e in range(j.entry(i, l)):
                points[i].append((pair, e, 0))
                points[l].append((pair, e, 1))
    for c in range(1, j.k + 1):
        points[c].sort()
        if not len(points[c]) == len(minis[c]) == c * sizes[c - 1]:
            raise GraphError(f"class {c} must hold {c * sizes[c - 1]} mini-vertices and edge-points")
    component_classes = tuple(c for c in range(1, j.k + 1) if minis[c])
    return ConfigModel(
        jdm=j,
        classes=classes,
        component_classes=component_classes,
        minis={c: tuple(minis[c]) for c in component_classes},
        points={c: tuple(points[c]) for c in component_classes},
    )


def uniform_configuration(m: ConfigModel, rng) -> Configuration:
    """Independent uniform matching per component (one shuffle each)."""
    match = []
    for c in m.component_classes:
        perm = list(range(len(m.minis[c])))
        rng.shuffle(perm)
        match.append(tuple(perm))
    return Configuration(model=m, match=tuple(match))


def _label_endpoints(m: ConfigModel, match) -> Dict[Tuple, List[int]]:
    """Map each edge label (pair, index) to the two vertices it lands on."""
    ends: Dict[Tuple, List[int]] = {}
    for ci, c in enumerate(m.component_classes):
        minis = m.minis[c]
        points = m.points[c]
        for mini_idx, point_idx in enumerate(match[ci]):
            pair, e, _side = points[point_idx]
            ends.setdefault((pair, e), []).append(minis[mini_idx][0])
    return ends


def to_multigraph(c: Configuration) -> MultiGraphRealization:
    """Pair up each edge label's two points; collect loops and multiplicities."""
    m = c.model
    counts: Dict[Tuple[int, int], int] = {}
    for (_pair, _e), vs in _label_endpoints(m, c.match).items():
        if len(vs) != 2:
            raise GraphError("every edge label must receive exactly two points")
        u, v = sorted(vs)
        key = (u, v)
        counts[key] = counts.get(key, 0) + 1
    return MultiGraphRealization(
        classes=dict(m.classes), pair_counts=counts, is_simple=not _excess(counts)
    )


def _excess(counts: Dict[Tuple[int, int], int]) -> int:
    """Edges beyond a simple graph: a loop counts its multiplicity, any other
    pair its multiplicity - 1.  Zero exactly when the multigraph is simple."""
    return sum(mult if u == v else mult - 1 for (u, v), mult in counts.items())


class ChainRunner:
    """Mutable swap-chain state with the multigraph kept where it is read.

    One step: with probability 1/2 hold; otherwise draw a matched pair
    uniformly over all components, then a second matched pair uniformly over
    the *other* pairs of the same component, and exchange their points.  A
    single-pair component therefore never moves.  Kind "b" additionally
    rejects any exchange whose multigraph would gain a loop or parallel edge,
    so it walks the simple states only.

    Randomness contract per step: one randrange(2) draw; if it says move, one
    randrange(#pairs) draw, and one randrange(component size - 1) draw when
    that component has more than one pair.  The values, and the words they
    take from the generator, are randrange's.  How a draw below n is made
    depends on the generator's type:
    - random.Random, or a subclass that keeps its randrange and whose
      _randbelow is still _randbelow_with_getrandbits (it overrides neither
      _randbelow nor random() alone): getrandbits(n.bit_length()), retried
      while the value is n or more, which is that _randbelow written out in
      the loop;
    - any other (one overriding randrange or _randbelow, a duck-typed one,
      or any generator on an interpreter without
      _randbelow_with_getrandbits): its randrange.

    advance(k) runs k steps in one loop and step() is advance(1).  A batch
    makes the same draws in the same order as k single steps, and leaves
    perms, inv, pair_counts, nonsimple, steps, holds and rejects exactly as
    they would be after them, as every read of them sees.  Chain b updates
    pair_counts and nonsimple on every move, since it reads them on every
    proposal.  Chain a does so only in a batch shorter than the matrix's edge
    count m; a batch of m steps or more just exchanges points and leaves the
    multigraph stale (also when a draw raises).  The first read of
    pair_counts or nonsimple after that, or a shorter batch, recounts it in
    one pass over the edge labels.  is_simple() on a stale multigraph walks
    the labels only up to the first loop or repeated pair, and
    same_multigraph(counts) stops at the first key of counts whose
    multiplicity differs, each costing O(degree) to count.
    """

    def __init__(self, model: ConfigModel, start: Configuration, kind: str, rng):
        if kind not in ("a", "b"):
            raise GraphError(f"unknown chain kind {kind!r}")
        if start.model is not model and start.model != model:
            raise GraphError("configuration belongs to a different model")
        self.model = model
        self.kind = kind
        self.rng = rng
        self.perms = [list(p) for p in start.match]
        sizes = model.component_sizes()
        if [sorted(p) for p in self.perms] != [list(range(n)) for n in sizes]:
            raise GraphError("every edge label must receive exactly two points")
        self.inv = [
            [0] * len(p) for p in self.perms
        ]  # point_idx -> mini_idx per component
        for ci, p in enumerate(self.perms):
            for mi, pi in enumerate(p):
                self.inv[ci][pi] = mi
        # starts[ci]: index of component ci's first pair among all pairs.
        starts = [0, *itertools.accumulate(sizes)]
        where: Dict[Tuple, Tuple[int, int]] = {}
        for ci, c in enumerate(model.component_classes):
            for idx, point in enumerate(model.points[c]):
                where[point] = (ci, idx)
        # mates[ci][p]: the other point of point p's edge label, as (cj, q).
        mates = [
            [where[(pair, e, 1 - side)] for pair, e, side in model.points[c]]
            for c in model.component_classes
        ]
        # verts[ci][mi]: the vertex that owns mini-vertex mi of component ci.
        verts = [[v for v, _slot in model.minis[c]] for c in model.component_classes]
        # One entry per edge label, its two points (ci, p) < (cj, q) each as
        # the owner table and the live inverse matching of its component plus
        # its index: the label lands on verts[ci][inv[ci][p]] and
        # verts[cj][inv[cj][q]].
        self._labels = [
            (verts[ci], self.inv[ci], p, verts[cj], self.inv[cj], q)
            for ci, mate in enumerate(mates)
            for p, (cj, q) in enumerate(mate)
            if (ci, p) < (cj, q)
        ]
        # slots[v]: v's component and the indices of its mini-vertices there.
        self._slots: Dict[int, Tuple[int, List[int]]] = {}
        for ci, vs in enumerate(verts):
            for mi, v in enumerate(vs):
                self._slots.setdefault(v, (ci, []))[1].append(mi)
        # The bounds of a step's draws after the first: the first pair among
        # all pairs, the second among the other pairs of its component.  A
        # draw through getrandbits takes each bound's bit length instead.
        total, others = starts[-1], [size - 1 for size in sizes]
        bounds = (total, others)
        words = (total.bit_length(), [n.bit_length() for n in others])
        # The fixed tables advance() reads, in one attribute so that binding
        # them costs a single load per call.
        self._tables = (kind == "b", starts, len(self._labels), mates, verts, bounds, words)
        self._recount()
        if kind == "b" and self._nonsimple:
            raise GraphError("chain b needs a simple starting configuration")
        self.steps = 0
        self.holds = 0
        self.rejects = 0

    def step(self) -> None:
        self.advance(1)

    def advance(self, k: int) -> None:
        """Run k steps of the chain in one loop."""
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise GraphError(f"cannot advance by {k!r} steps")
        reject_nonsimple, starts, edges, mates, verts, bounds, words = self._tables
        total, others = bounds
        # Chain b reads the multigraph on every proposal.  Chain a never reads
        # it while stepping, and a recount is one pass over the edge labels:
        # a batch with at least one step per label only swaps points and
        # leaves the multigraph stale, to be recounted on its next read.
        track = reject_nonsimple or k < edges
        if track and self._counts is None:
            self._recount()
        rng = self.rng
        # A draw below n is draw(K), retried while the value is n or more.
        # Random.randrange(n) returns self._randbelow(n) for every int n >= 1,
        # and _randbelow_with_getrandbits(n) is exactly that loop with
        # draw = getrandbits and K = n.bit_length(); with draw = randrange and
        # K = n the retry never fires.  K = 2 for the first draw either way.
        rng_type = type(rng)
        if rng_type.randrange is random.Random.randrange and rng_type._randbelow is getattr(
            random.Random, "_randbelow_with_getrandbits", None
        ):
            draw, (wide, narrow) = rng.getrandbits, words
        else:
            draw, (wide, narrow) = rng.randrange, bounds
        # The stored fields, not the properties: a stale multigraph stays so.
        perms, invs, counts = self.perms, self.inv, self._counts
        nonsimple = self._nonsimple
        done = holds = rejects = 0
        # The counters and the multigraph are written back even if a draw
        # raises, so that they always describe the steps taken.
        try:
            while done < k:
                done += 1
                r = draw(2)
                while r >= 2:
                    r = draw(2)
                if r == 0 or not total:
                    holds += 1
                    continue
                g = draw(wide)
                while g >= total:
                    g = draw(wide)
                ci = bisect_right(starts, g) - 1
                mi1 = g - starts[ci]
                other = others[ci]
                if not other:
                    holds += 1
                    continue
                mi2 = draw(narrow[ci])
                while mi2 >= other:
                    mi2 = draw(narrow[ci])
                if mi2 >= mi1:
                    mi2 += 1
                perm, inv = perms[ci], invs[ci]
                p1, p2 = perm[mi1], perm[mi2]
                if track:
                    # When p1 and p2 carry one edge label, the label keeps the
                    # same two clouds and the multigraph cannot change.
                    # Otherwise each label moves to the other mini-vertex while
                    # its mate point stays put.
                    mate = mates[ci]
                    c1, q1 = mate[p1]
                    if c1 != ci or q1 != p2:
                        c2, q2 = mate[p2]
                        u1, u2 = verts[ci][mi1], verts[ci][mi2]
                        w1, w2 = verts[c1][invs[c1][q1]], verts[c2][invs[c2][q2]]
                        old1 = (u1, w1) if u1 <= w1 else (w1, u1)
                        old2 = (u2, w2) if u2 <= w2 else (w2, u2)
                        new1 = (u2, w1) if u2 <= w1 else (w1, u2)
                        new2 = (u1, w2) if u1 <= w2 else (w2, u1)
                        if reject_nonsimple and (
                            u2 == w1
                            or u1 == w2
                            or new1 == new2
                            or (new1 in counts and new1 != old1 and new1 != old2)
                            or (new2 in counts and new2 != old1 and new2 != old2)
                        ):
                            rejects += 1
                            continue
                        for old in (old1, old2):
                            left = counts[old] - 1
                            if left:
                                counts[old] = left
                                nonsimple -= 1
                            else:
                                del counts[old]
                                if old[0] == old[1]:
                                    nonsimple -= 1
                        for new in (new1, new2):
                            had = counts.get(new, 0)
                            if had or new[0] == new[1]:
                                nonsimple += 1
                            counts[new] = had + 1
                perm[mi1], perm[mi2] = p2, p1
                inv[p1], inv[p2] = mi2, mi1
        finally:
            self.steps += done
            self.holds += holds
            self.rejects += rejects
            if track:
                self._nonsimple = nonsimple
            else:
                self._counts = None

    @property
    def pair_counts(self) -> Dict[Tuple[int, int], int]:
        """Multiplicity of each vertex pair (u, w), u <= w, of the multigraph."""
        if self._counts is None:
            self._recount()
        return self._counts

    @property
    def nonsimple(self) -> int:
        """Edges beyond a simple graph, as _excess counts them."""
        if self._counts is None:
            self._recount()
        return self._nonsimple

    def _recount(self) -> None:
        """Set pair_counts and nonsimple from the matching, one pass over the
        edge labels."""
        counts: Dict[Tuple[int, int], int] = {}
        for vs1, inv1, p1, vs2, inv2, p2 in self._labels:
            u, w = vs1[inv1[p1]], vs2[inv2[p2]]
            key = (u, w) if u <= w else (w, u)
            counts[key] = counts.get(key, 0) + 1
        self._counts = counts
        self._nonsimple = _excess(counts)

    def is_simple(self) -> bool:
        if self._counts is not None:
            return self._nonsimple == 0
        # Stale: walk the edge labels up to the first loop or repeated pair.
        # With neither, every pair holds one label, so the walk has counted
        # the multigraph.
        seen: Dict[Tuple[int, int], int] = {}
        for vs1, inv1, p1, vs2, inv2, p2 in self._labels:
            u, w = vs1[inv1[p1]], vs2[inv2[p2]]
            if u == w:
                return False
            key = (u, w) if u < w else (w, u)
            if key in seen:
                return False
            seen[key] = 1
        self._counts, self._nonsimple = seen, 0
        return True

    def same_multigraph(self, counts: Dict[Tuple[int, int], int]) -> bool:
        """Whether counts equals pair_counts, without a recount when stale.

        On a stale multigraph each key (u, w) of counts is checked in turn by
        counting the labels on u's slots whose other end lies on w, a loop
        once, and the first key that differs ends the check.  pair_counts
        totals the edge count m, so keys that all match make the maps equal
        exactly when counts totals m as well.
        """
        if self._counts is not None:
            return counts == self._counts
        perms, invs, slots = self.perms, self.inv, self._slots
        _, _, _, mates, verts, _, _ = self._tables
        for (u, w), want in counts.items():
            where = slots.get(u)
            if where is None or u > w:
                return False
            ci, mis = where
            perm, mate = perms[ci], mates[ci]
            have = 0
            for mi in mis:
                cj, q = mate[perm[mi]]
                if verts[cj][invs[cj][q]] == w:
                    have += 1
            if u == w:
                have //= 2
            if have != want or not have:
                return False
        return sum(counts.values()) == len(self._labels)

    def configuration(self) -> Configuration:
        return Configuration(
            model=self.model, match=tuple(tuple(p) for p in self.perms)
        )

    def fiber_key(self) -> Tuple:
        return tuple(sorted(self.pair_counts.items()))

    def multigraph(self) -> MultiGraphRealization:
        return to_multigraph(self.configuration())


def chain_a_step(c: Configuration, rng) -> Configuration:
    """One lazy matching-exchange step; the result is always a configuration."""
    runner = ChainRunner(c.model, c, "a", rng)
    runner.step()
    return runner.configuration()


def embed_realization(g: LabeledGraph, m: ConfigModel) -> Configuration:
    """Deterministic configuration whose multigraph is exactly g."""
    if extract_jdm(g) != m.jdm:
        raise GraphError("graph and model matrices differ")
    if g.classes() != m.classes:
        raise GraphError("graph and model partitions differ")
    edges_by_pair = _edges_by_class_pair(g._classes, g.edge_set())
    match = []
    for c in m.component_classes:
        next_slot: Dict[int, int] = {}
        mini_index = {mv: idx for idx, mv in enumerate(m.minis[c])}
        perm = [0] * len(m.minis[c])
        for point_idx, (pair, e, side) in enumerate(m.points[c]):
            v = edges_by_pair[pair][e][side]
            slot = next_slot.get(v, 0) + 1
            next_slot[v] = slot
            perm[mini_index[(v, slot)]] = point_idx
        match.append(tuple(perm))
    return Configuration(model=m, match=tuple(match))


def simple_fiber_size(j: Jdm) -> int:
    """Configurations per simple realization: slot orders times edge relabelings.

    Every simple graph on the same matrix owns k!^{n_k} slot permutations per
    class, J_il! label orders per cross pair, and (2^J_ii) J_ii! per diagonal
    (labels times the two point sides).  This constant size is why rejecting
    non-simple states yields the uniform distribution over simple realizations.
    """
    sizes = _class_sizes(j)
    size = 1
    for i in range(1, j.k + 1):
        size *= math.factorial(i) ** sizes[i - 1]
        size *= 2 ** j.entry(i, i) * math.factorial(j.entry(i, i))
        for l in range(i + 1, j.k + 1):
            size *= math.factorial(j.entry(i, l))
    return size


@dataclass(frozen=True)
class AutocorrelationResult:
    rho: Tuple[float, ...]  # lags 0..max_lag
    integrated_time: float


def autocorrelation(series, max_lag: int) -> AutocorrelationResult:
    """Normalized autocovariance estimates and the integrated time.

    The integrated time sums estimates over the leading run of positive lags
    (initial-positive-sequence truncation).  A constant series is defined to
    have zero correlation beyond lag zero.  Sums are correctly rounded (fsum).
    """
    if not isinstance(max_lag, int) or isinstance(max_lag, bool) or max_lag < 0:
        raise GraphError(f"max_lag must be a non-negative integer, got {max_lag!r}")
    x = [float(v) for v in series]
    n = len(x)
    if n <= max_lag:
        raise GraphError(f"series of length {n} cannot support lag {max_lag}")
    mean = math.fsum(x) / n
    d = [v - mean for v in x]
    c0 = math.fsum(v * v for v in d) / n
    if c0 == 0.0:
        rho = (1.0,) + (0.0,) * max_lag
        return AutocorrelationResult(rho=rho, integrated_time=1.0)
    rho = [1.0]
    for k in range(1, max_lag + 1):
        rho.append(math.fsum(map(operator.mul, d, d[k:])) / n / c0)
    tau = 1.0
    for k in range(1, max_lag + 1):
        if rho[k] <= 0.0:
            break
        tau += 2.0 * rho[k]
    return AutocorrelationResult(rho=tuple(rho), integrated_time=tau)
