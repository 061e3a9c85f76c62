"""Even out degree spectra inside each class using restricted swaps."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Tuple

from .core import (
    GraphError,
    Jdm,
    LabeledGraph,
    Rso,
    _movable_neighbor,
    _require_realization,
    apply_rso,
    extract_jdm,
    vertex_counts,
)

__all__ = [
    "ClassAverages",
    "class_averages",
    "deviation",
    "imbalance",
    "balance_step",
    "balance",
]


class ClassAverages:
    """Exact per-class spectrum averages forced by a matrix.

    Over the vertices of class j, the average count of class-i neighbors is
    J(i,j)/n_j for i != j and 2*J(j,j)/n_j on the diagonal (each within-class
    edge contributes two endpoints).
    """

    def __init__(self, j: Jdm):
        counts = vertex_counts(j)
        self._k = j.k
        self._table: Dict[Tuple[int, int], Fraction] = {}
        for cls in range(1, j.k + 1):
            n = counts[cls - 1]
            if n == 0:
                continue
            for i in range(1, j.k + 1):
                total = 2 * j.entry(cls, cls) if i == cls else j.entry(i, cls)
                self._table[(cls, i)] = Fraction(total) / n

    @property
    def k(self) -> int:
        return self._k

    def get(self, j_class: int, i: int) -> Fraction:
        """Average count of class-i neighbors over class-j vertices."""
        if (j_class, i) not in self._table:
            raise GraphError(f"class {j_class} is empty or out of range")
        return self._table[(j_class, i)]


def class_averages(j: Jdm) -> ClassAverages:
    return ClassAverages(j)


def _floor_dev(avg: Fraction, s: int) -> int:
    return math.floor(abs(avg - s))


def deviation(g: LabeledGraph, v: int, i: int) -> int:
    """Whole-number part of how far v's class-i neighbor count sits from average.

    Zero exactly when the count is the floor or ceiling of the average.
    """
    _require_realization(g)
    if not 1 <= i <= g.delta:
        raise GraphError(f"class {i} out of range")
    avgs = class_averages(extract_jdm(g))
    return _floor_dev(avgs.get(g.class_of(v), i), g.spectrum(v)[i - 1])


def imbalance(g: LabeledGraph, j: int) -> int:
    """Total deviation over class j's vertices and all spectrum components."""
    _require_realization(g)
    part = g.partition()
    if j not in part:
        return 0
    avgs = class_averages(extract_jdm(g))
    total = 0
    for v in part[j]:
        spec = g.spectrum(v)
        for i in range(1, g.delta + 1):
            total += _floor_dev(avgs.get(j, i), spec[i - 1])
    return total


def _step_witnesses(
    g: LabeledGraph, j: int, avgs: ClassAverages
) -> Tuple[int, int, int, int]:
    """Find (v, u, w, z): move one witness-class edge from v to u via an RSO."""
    part = g.partition()
    members = part[j]
    spectra = {v: g.spectrum(v) for v in members}
    witness = None
    for i in range(1, g.delta + 1):
        avg = avgs.get(j, i)
        if any(_floor_dev(avg, spectra[v][i - 1]) > 0 for v in members):
            witness = i
            break
    assert witness is not None, "positive imbalance must expose a witness class"
    i = witness
    u = min(members, key=lambda v: (spectra[v][i - 1], v))
    v = min(members, key=lambda x: (-spectra[x][i - 1], x))
    # The extreme spread is at least 2 whenever any deviation is positive, so
    # a neighbor of v in the witness class avoiding u and its neighborhood exists.
    w = _movable_neighbor(g, v, i, u)
    assert w is not None, "no movable witness-class neighbor at the top vertex"
    z = None
    for k in range(1, g.delta + 1):
        if k == i or spectra[u][k - 1] <= spectra[v][k - 1]:
            continue
        z = _movable_neighbor(g, u, k, v)
        if z is not None:
            break
    assert z is not None, "no return-class neighbor at the bottom vertex"
    # Runtime check that the ordering chain holds with two strict inequalities.
    avg = avgs.get(j, i)
    lo, hi = spectra[u][i - 1], spectra[v][i - 1]
    strict = (lo < math.floor(avg)) + (math.floor(avg) < math.ceil(avg)) + (
        math.ceil(avg) < hi
    )
    assert lo <= math.floor(avg) <= math.ceil(avg) <= hi and strict >= 2
    return v, u, w, z


def balance_step(g: LabeledGraph, j: int) -> Tuple[LabeledGraph, Rso]:
    """One swap inside class j that strictly lowers its imbalance.

    The top and bottom vertices for the witness class trade one neighbor,
    which cannot disturb any other class's imbalance: only the spectra of the
    two class-j pivots change.
    """
    before = imbalance(g, j)
    if before == 0:
        raise GraphError(f"class {j} is already balanced")
    avgs = class_averages(extract_jdm(g))
    v, u, w, z = _step_witnesses(g, j, avgs)
    r = Rso(v, u, w, z, pivot_class=j)
    out = apply_rso(g, r)
    assert imbalance(out, j) < before, "swap must strictly lower the imbalance"
    return out, r


def balance(g: LabeledGraph) -> Tuple[LabeledGraph, List[Rso]]:
    """Drive every class's imbalance to zero; at most sum-of-imbalances swaps."""
    _require_realization(g)
    swaps: List[Rso] = []
    cur = g
    for j in sorted(cur.partition()):
        while imbalance(cur, j) > 0:
            cur, r = balance_step(cur, j)
            swaps.append(r)
    return cur, swaps
