"""Brute-force enumeration over small matrices, for cross-checking fast code.

Everything here is exponential and deliberately simple: exhaustive search for
realizations, depth-first search over the swap adjacency of the full
realization set, and a full sweep of the stub-matching configurations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .core import GraphError, Jdm, LabeledGraph, vertex_counts
from .core import _adjacency, _assign_labels, _class_sizes, _partition
from .sampler import Configuration, _build_model, to_multigraph

__all__ = [
    "enumerate_realizations",
    "MetagraphReport",
    "metagraph_connected",
    "ConfigCensus",
    "enumerate_configurations",
]


def enumerate_realizations(
    j: Jdm,
    labels: Optional[Sequence[int]] = None,
    first_only: bool = False,
    max_vertices: Optional[int] = 12,
) -> List[LabeledGraph]:
    """Every labeled graph realizing the matrix, by exhaustive edge placement.

    Class pairs are filled one at a time (cross pairs first, then diagonals,
    so the scarcest within-class choices are made against settled budgets),
    with feasibility pruning between pairs.  A matrix whose forced vertex
    counts are not integers has no realizations and yields the empty list.
    With first_only the search stops at the first realization found.
    """
    counts = vertex_counts(j)
    if any(c.denominator != 1 for c in counts):
        return []
    sizes = [int(c) for c in counts]
    total = sum(sizes)
    if max_vertices is not None and total > max_vertices:
        raise GraphError(f"{total} vertices exceeds the limit of {max_vertices}")
    classes = _assign_labels(j, labels)
    part = _partition(classes)
    # Per pair, planned once: its quota, its cells (labels ascend with the
    # class, so each cell is u < w) and, from each pair on, the most edges
    # the pairs left could still give each vertex.
    plan = [(i, l, j.entry(i, l), [(u, w) for u in part[i] for w in part[l]])
            for i in range(1, j.k + 1) for l in range(i + 1, j.k + 1) if j.entry(i, l) > 0]
    plan += [(i, i, j.entry(i, i), list(itertools.combinations(part[i], 2)))
             for i in range(1, j.k + 1) if j.entry(i, i) > 0]
    reach = [dict.fromkeys(classes, 0)]
    for i, l, quota, _ in reversed(plan):
        reach.insert(0, dict(reach[0]))
        for a, b in {(i, l), (l, i)}:
            for v in part[a]:
                reach[0][v] += min(quota, len(part[b]) - (a == b))
    caps = dict(classes)
    edges: List[Tuple[int, int]] = []
    results: List[LabeledGraph] = []

    def feasible(start: int) -> bool:
        alive = {c: sum(1 for v in part[c] if caps[v] > 0) for c in part}
        for i, l, quota, _ in plan[start:]:
            if quota > (alive[i] * (alive[i] - 1) // 2 if i == l else alive[i] * alive[l]):
                return False
        return all(caps[v] <= reach[start][v] for v in caps)

    def place(start: int) -> bool:
        if start == len(plan):
            # proof: cells are distinct u < w pairs of _assign_labels's checked labels.
            results.append(LabeledGraph._proved(frozenset(edges), classes))
            return first_only
        if not feasible(start):
            return False
        quota, cells = plan[start][2:]
        # Each quota-subset of the cells in lexicographic order, depth first on
        # an explicit stack of placed cells, so a pair may hold any number of edges.
        chosen, at = [], 0  # the cells placed, and the next one to try
        while True:
            remaining = quota - len(chosen)
            if remaining and at <= len(cells) - remaining:
                u, w = cells[at]
                if caps[u] > 0 and caps[w] > 0:
                    caps[u], caps[w] = caps[u] - 1, caps[w] - 1
                    edges.append((u, w))
                    chosen.append(at)
                at += 1
                continue
            if not remaining and place(start + 1):
                return True
            if not chosen:
                return False
            at = chosen.pop()
            u, w = cells[at]
            edges.pop()
            caps[u], caps[w] = caps[u] + 1, caps[w] + 1
            at += 1

    place(0)
    return results


@dataclass(frozen=True)
class MetagraphReport:
    """Connectivity of the swap adjacency over all realizations."""

    node_count: int
    component_count: int
    connected: bool


def metagraph_connected(
    j: Jdm,
    labels: Optional[Sequence[int]] = None,
    max_vertices: Optional[int] = 12,
) -> MetagraphReport:
    """Depth-first search over realizations joined by single swaps.

    Two realizations are adjacent when one swap (remove ac, bd; add bc, ad
    with a and b sharing a class) turns one into the other.  The search
    visits edge sets only, since every realization shares the class map.  An
    empty realization set reports zero nodes and counts as connected.
    """
    space = enumerate_realizations(j, labels=labels, max_vertices=max_vertices)
    part = space[0].partition() if space else {}
    unseen = {g.edge_set() for g in space}
    components = 0
    while unseen:
        components += 1
        frontier = [unseen.pop()]
        while frontier:
            for key in _swap_neighbors(frontier.pop(), part):
                if key in unseen:
                    unseen.remove(key)
                    frontier.append(key)
    return MetagraphReport(
        node_count=len(space),
        component_count=components,
        connected=components <= 1,
    )


def _swap_neighbors(edges: FrozenSet[Tuple[int, int]], part: Dict[int, Tuple[int, ...]]):
    """Edge sets one swap away from a realization's, part mapping class -> vertices."""
    adj = _adjacency((v for vs in part.values() for v in vs), edges)
    key = lambda u, v: (u, v) if u < v else (v, u)
    for vs in part.values():
        for a, b in itertools.combinations(vs, 2):
            na, nb = adj[a], adj[b]
            for c in na - nb - {b}:
                for d in nb - na - {a}:
                    yield edges - {key(a, c), key(b, d)} | {key(b, c), key(a, d)}


@dataclass(frozen=True)
class ConfigCensus:
    """Full sweep of the stub-matching space of a matrix."""

    total: int
    fibers: Dict[Tuple, int]  # multigraph fingerprint -> configuration count
    simple_keys: Tuple[Tuple, ...]

    def fiber_sizes(self) -> Tuple[int, ...]:
        return tuple(sorted(self.fibers.values()))


def enumerate_configurations(
    j: Jdm,
    labels: Optional[Sequence[int]] = None,
    max_configurations: int = 10_000_000,
) -> ConfigCensus:
    """Count every configuration, grouped by the multigraph it induces.

    The space is the product of (c * n_c)! over the classes c.  One larger
    than max_configurations is refused before the model is built, from a
    running product that stops once it passes the limit.
    """
    classes = _assign_labels(j, labels)
    space = 1
    for c, size in enumerate(_class_sizes(j), start=1):
        for factor in range(2, c * size + 1):
            if space > max_configurations:
                break
            space *= factor
    if space > max_configurations:
        raise GraphError(f"the configuration count exceeds the limit of {max_configurations}")
    model = _build_model(j, classes)
    fibers: Dict[Tuple, int] = {}
    simple: Dict[Tuple, bool] = {}
    total = 0
    for match in itertools.product(
        *(itertools.permutations(range(n)) for n in model.component_sizes())
    ):
        mg = to_multigraph(Configuration(model=model, match=match))
        key = mg.fiber_key()
        fibers[key] = fibers.get(key, 0) + 1
        simple[key] = mg.is_simple
        total += 1
    simple_keys = tuple(sorted(k for k, ok in simple.items() if ok))
    return ConfigCensus(total=total, fibers=fibers, simple_keys=simple_keys)
