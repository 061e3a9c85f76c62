"""Even out degree spectra inside each class using restricted swaps."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .core import (
    GraphError,
    Jdm,
    LabeledGraph,
    Rso,
    _SwapState,
    _average_table,
    _floor_dev,
    _require_realization,
    _tallies,
    extract_jdm,
)

__all__ = [
    "ClassAverages",
    "class_averages",
    "deviation",
    "imbalance",
    "balance",
]


class ClassAverages:
    """Exact per-class spectrum averages forced by a matrix.

    Over the vertices of class j, the average count of class-i neighbors is
    J(i,j)/n_j for i != j and 2*J(j,j)/n_j on the diagonal (each within-class
    edge contributes two endpoints).
    """

    def __init__(self, j: Jdm):
        self._table = _average_table(j)

    def get(self, j_class: int, i: int) -> Fraction:
        """Average count of class-i neighbors over class-j vertices."""
        if (j_class, i) not in self._table:
            raise GraphError(f"class {j_class} is empty or out of range")
        return Fraction(*self._table[(j_class, i)])


def class_averages(j: Jdm) -> ClassAverages:
    return ClassAverages(j)


def deviation(g: LabeledGraph, v: int, i: int) -> int:
    """Whole-number part of how far v's class-i neighbor count sits from average.

    Zero exactly when the count is the floor or ceiling of the average.
    """
    jdm = extract_jdm(g)
    if not 1 <= i <= g.delta:
        raise GraphError(f"class {i} out of range")
    num, den = _average_table(jdm)[(g.class_of(v), i)]
    return _floor_dev(num, den, g.spectrum(v)[i - 1])


def imbalance(g: LabeledGraph, j: int) -> int:
    """Total deviation over class j's vertices and all spectrum components,
    recounted from class j's spectra with the swap state's tally routine."""
    _require_realization(g)
    return sum(_tallies([g.spectrum(v) for v, c in g._classes.items() if c == j]))


def _balance_step(state: _SwapState, j: int) -> Rso:
    """Swap in place inside class j, strictly lowering its imbalance.

    The witness class i is the first component with a positive deviation
    tally; the top vertex v (most class-i neighbors) hands one of them, w,
    to the bottom vertex u, which returns a neighbor z of a class where it
    holds more than v.  Ties go to the smallest label.
    """
    before = state.imbalance(j)
    if before == 0:
        raise GraphError(f"class {j} is already balanced")
    members, spec, dev = state.part[j], state.spec, state.dev
    i = next((i for i in range(1, state.delta + 1) if dev[(j, i)] > 0), None)
    if i is None:
        raise GraphError("positive imbalance must expose a witness class")
    col = [spec[x][i - 1] for x in members]
    lo, hi = min(col), max(col)
    # members ascend, so index() finds the smallest label among the ties.
    u, v = members[col.index(lo)], members[col.index(hi)]
    # The extreme spread is at least 2 whenever any deviation is positive, so
    # a neighbor of v in the witness class avoiding u and its neighborhood exists.
    w = state.movable(v, i, u)
    if w is None:
        raise GraphError("no movable witness-class neighbor at the top vertex")
    # z: u's neighbor that v can take, of the smallest class k != i where u holds
    # more than v, then the smallest label (movable(u, k, v) by ascending k).
    classes, su, sv, near_v = state.classes, spec[u], spec[v], state.adj[v]
    _, z = min(((k, c) for c in state.adj[u] if c != v and c not in near_v
                for k in (classes[c],) if k != i and su[k - 1] > sv[k - 1]), default=(0, None))
    if z is None:
        raise GraphError("no return-class neighbor at the bottom vertex")
    # Runtime check that the ordering chain holds with two strict inequalities.
    num, den = state.avg[(j, i)]
    floor, ceil = num // den, -(-num // den)
    strict = (lo < floor) + (floor < ceil) + (ceil < hi)
    if not (lo <= floor <= ceil <= hi and strict >= 2):
        raise GraphError("witness-class counts must straddle the average at least 2 apart")
    r = Rso(v, u, w, z, pivot_class=j)
    state.swap(r)
    if state.imbalance(j) >= before:
        raise GraphError("swap must strictly lower the imbalance")
    return r


def _balance(state: _SwapState) -> List[Rso]:
    """Balance every class of the state in place, class by class; return the swaps."""
    swaps: List[Rso] = []
    for j in state.part:
        while state.imbalance(j) > 0:
            swaps.append(_balance_step(state, j))
    return swaps


def balance(g: LabeledGraph) -> Tuple[LabeledGraph, List[Rso]]:
    """Drive every class's imbalance to zero; at most sum-of-imbalances swaps.
    With no swap made, the graph returned equals g but is a new object."""
    state = _SwapState(g)
    swaps = _balance(state)
    return state.graph(), swaps
