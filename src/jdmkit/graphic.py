"""Decide whether a matrix is realizable and build a realization by descent."""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    GraphError,
    Jdm,
    LabeledGraph,
    _assign_labels,
    _class_sizes,
    _pair_matrix,
    _partition,
    vertex_counts,
)

__all__ = [
    "Violation",
    "GraphicalityReport",
    "NotGraphicalError",
    "CandidateState",
    "check_graphical",
    "initial_candidate",
    "psi_descent_step",
    "construct_realization",
]


@dataclass(frozen=True)
class Violation:
    condition: str  # "integrality" | "within-class-capacity" | "cross-class-capacity"
    classes: Tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class GraphicalityReport:
    """Outcome of the three realizability conditions.

    verdict holds iff every class count is an integer, every diagonal entry
    fits under C(n_i, 2), and every off-diagonal entry fits under n_i * n_j.
    """

    verdict: bool
    counts: Tuple[Fraction, ...]
    integral_ok: Tuple[bool, ...]
    within_ok: Tuple[bool, ...]
    cross_ok: Tuple[Tuple[bool, ...], ...]
    violations: Tuple[Violation, ...]

    @property
    def first_violation(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None


class NotGraphicalError(GraphError):
    """Raised when construction is asked for an unrealizable matrix."""

    def __init__(self, report: GraphicalityReport):
        self.report = report
        v = report.first_violation
        detail = v.detail if v else "unknown"
        super().__init__(f"matrix is not graphical: {detail}")


def check_graphical(j: Jdm) -> GraphicalityReport:
    """Evaluate the three realizability conditions exactly."""
    counts = vertex_counts(j)
    rows, k = j.rows, j.k
    # Integral counts compare as ints: the same values, printed the same.
    sizes = [c.numerator if c.denominator == 1 else c for c in counts]
    integral_ok = tuple(c.denominator == 1 for c in counts)
    violations = [
        Violation("integrality", (i,), f"class {i} would need {c} vertices")
        for i, (c, ok) in enumerate(zip(counts, integral_ok), start=1)
        if not ok
    ]
    within_ok = []
    for i, n_i in enumerate(sizes, start=1):
        need = rows[i - 1][i - 1]
        ok = 2 * need <= n_i * (n_i - 1)
        within_ok.append(ok)
        if not ok:
            violations.append(
                Violation(
                    "within-class-capacity",
                    (i,),
                    f"class {i} holds at most {Fraction(n_i * (n_i - 1), 2)} edges, "
                    f"needs {need}",
                )
            )
    cross_ok = [[True] * k for _ in range(k)]
    for i in range(1, k + 1):
        n_i, row = sizes[i - 1], rows[i - 1]
        for l in range(i + 1, k + 1):
            cap = n_i * sizes[l - 1]
            ok = row[l - 1] <= cap
            cross_ok[i - 1][l - 1] = cross_ok[l - 1][i - 1] = ok
            if not ok:
                violations.append(
                    Violation(
                        "cross-class-capacity",
                        (i, l),
                        f"classes {i},{l} span at most {cap} edges, need {row[l - 1]}",
                    )
                )
    return GraphicalityReport(
        verdict=not violations,
        counts=counts,
        integral_ok=integral_ok,
        within_ok=tuple(within_ok),
        cross_ok=tuple(tuple(r) for r in cross_ok),
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class CandidateState:
    """A graph with the exact per-class-pair edge counts of jdm.

    Vertex degrees may still disagree with their classes; psi totals that
    disagreement and reaches zero exactly at realizations.  States made by
    initial_candidate or psi_descent_step hold the counts by construction;
    _verified marks them so that descent skips the check of class sizes and
    pair counts, which costs as much as a descent's own setup, and runs it
    only on other states.  _verified is not an init field, so
    dataclasses.replace makes an unverified state.
    """

    jdm: Jdm
    graph: LabeledGraph
    _verified: bool = field(default=False, init=False, repr=False, compare=False)

    @classmethod
    def _of(cls, jdm: Jdm, graph: LabeledGraph) -> "CandidateState":
        """A state whose class sizes and pair counts are known to be jdm's."""
        s = cls(jdm, graph)
        object.__setattr__(s, "_verified", True)
        return s

    @property
    def psi(self) -> int:
        adj = self.graph._adj
        return sum(abs(len(adj[v]) - c) for v, c in self.graph._classes.items())


def initial_candidate(j: Jdm, labels: Optional[Sequence[int]] = None) -> CandidateState:
    """Deterministic seed graph with the exact per-pair edge counts.

    Cross-class pairs take the first J_il cells of the row-major label grid;
    within-class pairs take the first J_ii label pairs in lexicographic order.
    The capacity conditions guarantee room.
    """
    report = check_graphical(j)
    if not report.verdict:
        raise NotGraphicalError(report)
    classes = _assign_labels(j, labels)
    part = _partition(classes)
    edges = []
    for i in range(1, j.k + 1):
        left = part.get(i, ())
        quota = j.entry(i, i)
        for u, v in itertools.islice(itertools.combinations(left, 2), quota):
            edges.append((u, v))
        for l in range(i + 1, j.k + 1):
            right = part.get(l, ())
            quota = j.entry(i, l)
            grid = ((u, w) for u in left for w in right)
            for u, w in itertools.islice(grid, quota):
                edges.append((u, w))
    return CandidateState._of(j, LabeledGraph(edges, classes))


def _fits_matrix(s: CandidateState) -> bool:
    """Whether the state's class sizes and class-pair edge counts are its matrix's."""
    sizes = {c: n for c, n in enumerate(_class_sizes(s.jdm), start=1) if n}
    part = s.graph.partition()
    return {c: len(vs) for c, vs in part.items()} == sizes and _pair_matrix(s.graph) == s.jdm


def _shift(nbrs: List[set], x: int, y: int, z: int) -> None:
    """Move the workspace edge y-z to x-z."""
    nbrs[y].remove(z)
    nbrs[z].remove(y)
    nbrs[z].add(x)
    nbrs[x].add(z)


def _recount(degs: List[int], classes: List[int]) -> int:
    """psi of a workspace, summed over all positions."""
    return sum(map(abs, map(sub, degs, classes)))


def psi_descent_step(s: CandidateState, steps: int = 1) -> CandidateState:
    """Take `steps` descent steps, each shifting one edge from a surplus
    vertex to a deficient one so that psi drops by exactly 2.

    Witnesses are the lowest-labeled deficient vertex x, the lowest-labeled
    surplus vertex y in x's class, and the lowest-labeled neighbor z of y that
    is neither x nor adjacent to x.  The matrix's class sizes and exact
    class-pair edge counts fix each class's degree sum at c * n_c, so y
    exists.  A step keeps both, so only a hand-built state has them checked,
    once, and one that disagrees with its matrix raises GraphError.  `steps`
    runs from 1 to psi / 2, which ends on a realization.

    The steps run on one mutable workspace: per vertex position (positions
    follow label order) its class, degree and neighbor set.  No step makes a
    vertex newly deficient or newly surplus (x gains one up to at most its
    class, y loses one down to at least its class, z keeps its degree), so
    the scan for x and each class's scan for y only move forward.

    z is read from an ascending list of y's neighbors, built the first time
    a position serves as y and kept exact on every later move: y drops z,
    and z, if it has a list, drops y and takes x in order.  x never has one,
    as only surplus positions get lists and none of them falls below its
    class.  z is the list's first entry that is neither x nor adjacent to x,
    so a step skips at most deg(x) + 1 entries, not the walk of all of y's
    neighbors that a set difference takes.  A descent so costs its list
    sorts plus O(log deg + deg(x)) per step, besides the memory moves of two
    list deletions and one insertion.

    Every step is checked to drop psi by exactly 2.  psi is the sum of
    |degree - class| over all positions, and a step writes degrees only at
    x, y and z, three distinct positions (x is deficient and y in surplus,
    z is not x by choice and not y as graphs have no loops).  So after each
    step the three touched degrees are read back from their neighbor sets,
    and psi after the step is psi before it, less the three terms before
    the move, plus the three terms after it: the full recount's value, in
    O(1).  psi is recounted in full over all degrees twice per batch, on
    the fresh workspace against the state's psi and after the last step
    against the running psi.  The result is one graph, rewired from the
    state's by the net edge change.
    """
    g = s.graph
    psi = s.psi
    if psi == 0:
        raise GraphError("descent requires psi > 0")
    if not isinstance(steps, int) or isinstance(steps, bool) or not 1 <= steps <= psi // 2:
        raise GraphError(
            f"steps must be an integer from 1 to psi / 2 = {psi // 2}, got {steps!r}"
        )
    if not s._verified and not _fits_matrix(s):
        raise GraphError(
            "the state's class sizes or class-pair edge counts disagree with its matrix"
        )
    verts = g._vertices
    pos = {v: i for i, v in enumerate(verts)}
    classes = [g._classes[v] for v in verts]
    nbrs = [{pos[w] for w in g._adj[v]} for v in verts]
    degs = [len(ns) for ns in nbrs]
    members: Dict[int, List[int]] = {}  # class -> its positions, ascending
    for i, c in enumerate(classes):
        members.setdefault(c, []).append(i)
    next_y = dict.fromkeys(members, 0)  # class -> index of its scan in members
    sorted_nbrs: List[Optional[List[int]]] = [None] * len(verts)  # set at first use as y
    if _recount(degs, classes) != psi:
        raise GraphError("the descent workspace's psi disagrees with the state's")
    n, x = len(verts), 0
    for _ in range(steps):
        while x < n and degs[x] >= classes[x]:
            x += 1
        if x == n:
            raise GraphError("psi > 0 but no vertex is below its class")
        cx = classes[x]
        ys, i = members[cx], next_y[cx]
        while i < len(ys) and degs[ys[i]] <= cx:
            i += 1
        next_y[cx] = i
        if i == len(ys):
            raise GraphError(
                f"class {cx} has a deficient vertex but no surplus one: "
                "the state's class-pair edge counts disagree with its matrix"
            )
        y = ys[i]
        ly = sorted_nbrs[y]
        if ly is None:
            ly = sorted_nbrs[y] = sorted(nbrs[y])
        nx = nbrs[x]
        for at, z in enumerate(ly):
            if z != x and z not in nx:
                break
        else:
            raise GraphError("no shift target next to the surplus vertex")
        cz = classes[z]
        before = abs(degs[x] - cx) + abs(degs[y] - cx) + abs(degs[z] - cz)
        _shift(nbrs, x, y, z)
        del ly[at]
        lz = sorted_nbrs[z]
        if lz is not None:
            del lz[bisect_left(lz, y)]
            insort(lz, x)
        dx = degs[x] = len(nbrs[x])
        dy = degs[y] = len(nbrs[y])
        dz = degs[z] = len(nbrs[z])
        after = psi - before + abs(dx - cx) + abs(dy - cx) + abs(dz - cz)
        if after != psi - 2:
            raise GraphError("descent step must drop psi by exactly 2")
        psi = after
    if _recount(degs, classes) != psi:
        raise GraphError("psi recounted after the descent disagrees with its running value")
    edges = g._edges
    now = {(verts[u], verts[w]) for u, ns in enumerate(nbrs) for w in ns if u < w}
    return CandidateState._of(s.jdm, g.rewire(edges - now, now - edges))


def construct_realization(
    j: Jdm, labels: Optional[Sequence[int]] = None
) -> LabeledGraph:
    """Build a realization of j, or raise NotGraphicalError with the report."""
    return _descend(initial_candidate(j, labels))


def _descend(state: CandidateState) -> LabeledGraph:
    """Run psi descent from state down to a realization, in one batch of
    psi / 2 steps, and check that it landed on one."""
    if state.psi:
        state = psi_descent_step(state, state.psi // 2)
    if not state.graph.is_realization():
        raise GraphError("descent ended on a graph that is not a realization")
    return state.graph
