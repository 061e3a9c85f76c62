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

import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

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
    "chain_b_step",
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

    def key(self) -> Tuple[Tuple[int, ...], ...]:
        return self.match


@dataclass(frozen=True)
class MultiGraphRealization:
    """Multigraph read off a configuration; loops count twice toward degree."""

    classes: Dict[int, int]
    pair_counts: Dict[Tuple[int, int], int]  # (u, v) with u <= v; (v, v) = loop
    is_simple: bool

    def degree(self, v: int) -> int:
        total = 0
        for (a, b), mult in self.pair_counts.items():
            if a == v:
                total += mult
            if b == v:
                total += mult
        return total

    def fiber_key(self) -> Tuple:
        return tuple(sorted(self.pair_counts.items()))

    def as_labeled_graph(self) -> LabeledGraph:
        if not self.is_simple:
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
    simple = True
    for (_pair, _e), vs in _label_endpoints(m, c.match).items():
        if len(vs) != 2:
            raise GraphError("every edge label must receive exactly two points")
        u, v = sorted(vs)
        key = (u, v)
        counts[key] = counts.get(key, 0) + 1
        if u == v or counts[key] > 1:
            simple = False
    return MultiGraphRealization(
        classes=dict(m.classes), pair_counts=counts, is_simple=simple
    )


class ChainRunner:
    """Mutable swap-chain state with incremental bookkeeping.

    One step: with probability 1/2 hold; otherwise draw a matched pair
    uniformly over all components, then a second matched pair uniformly over
    the *other* pairs of the same component, and exchange their points.  A
    single-pair component therefore never moves.  Kind "b" additionally
    rejects any exchange whose multigraph would gain a loop or parallel edge,
    so it walks the simple states only.

    Randomness contract per step: one randrange(2) draw; if it says move, one
    randrange(#pairs) draw, and one randrange(component size - 1) draw when
    that component has more than one pair.
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
        self.inv = [
            [0] * len(p) for p in self.perms
        ]  # point_idx -> mini_idx per component
        for ci, p in enumerate(self.perms):
            for mi, pi in enumerate(p):
                self.inv[ci][pi] = mi
        self._sizes = model.component_sizes()
        self._total = sum(self._sizes)
        self._cum = []
        acc = 0
        for s in self._sizes:
            self._cum.append(acc)
            acc += s
        where: Dict[Tuple, Tuple[int, int]] = {}
        for ci, c in enumerate(model.component_classes):
            for idx, point in enumerate(model.points[c]):
                where[point] = (ci, idx)
        # mate[ci][p]: the other point of point p's edge label, as (cj, q).
        self._mate = [
            [where[(pair, e, 1 - side)] for pair, e, side in model.points[c]]
            for c in model.component_classes
        ]
        mg = to_multigraph(start)
        if kind == "b" and not mg.is_simple:
            raise GraphError("chain b needs a simple starting configuration")
        self.pair_counts: Dict[Tuple[int, int], int] = dict(mg.pair_counts)
        self.nonsimple = sum(
            mult - 1 for mult in self.pair_counts.values()
        ) + sum(1 for (u, v) in self.pair_counts if u == v)
        self.steps = 0
        self.holds = 0
        self.rejects = 0

    def step(self) -> None:
        self.steps += 1
        if self.rng.randrange(2) == 0 or not self._total:
            self.holds += 1
            return
        g = self.rng.randrange(self._total)
        ci = 0
        while ci + 1 < len(self._sizes) and g >= self._cum[ci + 1]:
            ci += 1
        mi1 = g - self._cum[ci]
        size = self._sizes[ci]
        if size == 1:
            self.holds += 1
            return
        k2 = self.rng.randrange(size - 1)
        mi2 = k2 + 1 if k2 >= mi1 else k2
        self._exchange(ci, mi1, mi2)

    def _exchange(self, ci: int, mi1: int, mi2: int) -> None:
        perm, inv = self.perms[ci], self.inv[ci]
        p1, p2 = perm[mi1], perm[mi2]
        # When p1 and p2 carry one edge label, the label keeps the same two
        # clouds and the multigraph cannot change.  Otherwise each label moves
        # to the other mini-vertex while its mate point stays put.
        if self._mate[ci][p1] != (ci, p2):
            minis, classes = self.model.minis, self.model.component_classes
            u1, u2 = minis[classes[ci]][mi1][0], minis[classes[ci]][mi2][0]
            (c1, q1), (c2, q2) = self._mate[ci][p1], self._mate[ci][p2]
            w1 = minis[classes[c1]][self.inv[c1][q1]][0]
            w2 = minis[classes[c2]][self.inv[c2][q2]][0]
            old1, old2, new1, new2 = (
                (a, b) if a <= b else (b, a)
                for a, b in ((u1, w1), (u2, w2), (u2, w1), (u1, w2))
            )
            if self.kind == "b" and not self._stays_simple(old1, old2, new1, new2):
                self.rejects += 1
                return
            for old in (old1, old2):
                left = self.pair_counts[old] - 1
                if old[0] == old[1] or left >= 1:
                    self.nonsimple -= 1
                if left:
                    self.pair_counts[old] = left
                else:
                    del self.pair_counts[old]
            for new in (new1, new2):
                had = self.pair_counts.get(new, 0)
                if new[0] == new[1] or had >= 1:
                    self.nonsimple += 1
                self.pair_counts[new] = had + 1
        perm[mi1], perm[mi2] = p2, p1
        inv[p1], inv[p2] = mi2, mi1

    def _stays_simple(self, old1, old2, new1, new2) -> bool:
        if new1[0] == new1[1] or new2[0] == new2[1] or new1 == new2:
            return False
        removed = {old1, old2}
        for new in (new1, new2):
            if new in self.pair_counts and new not in removed:
                return False
        return True

    def is_simple(self) -> bool:
        return self.nonsimple == 0

    def configuration(self) -> Configuration:
        return Configuration(
            model=self.model, match=tuple(tuple(p) for p in self.perms)
        )

    def config_key(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(tuple(p) for p in self.perms)

    def fiber_key(self) -> Tuple:
        return tuple(sorted(self.pair_counts.items()))

    def multigraph(self) -> MultiGraphRealization:
        return to_multigraph(self.configuration())


def chain_a_step(c: Configuration, rng) -> Configuration:
    """One lazy matching-exchange step; the result is always a configuration."""
    return _chain_step(c, rng, "a")


def chain_b_step(c: Configuration, rng) -> Configuration:
    """Chain-a proposal, rejected unless the multigraph stays simple."""
    return _chain_step(c, rng, "b")


def _chain_step(c: Configuration, rng, kind: str) -> Configuration:
    runner = ChainRunner(c.model, c, kind, rng)
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
