"""Core data types: degree-class matrices, labeled graphs, spectra, swaps."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

__all__ = [
    "GraphError",
    "NotRealizationError",
    "SwapError",
    "Jdm",
    "LabeledGraph",
    "Rso",
    "extract_jdm",
    "vertex_counts",
    "degree_spectrum",
    "all_spectra",
    "apply_rso",
    "delete_vertex",
]


class GraphError(ValueError):
    """Invalid graph, matrix, or operation input."""


class NotRealizationError(GraphError):
    """The graph does not satisfy degree(v) == class(v) everywhere."""


class SwapError(GraphError):
    """The swap is not applicable to the given graph."""


def _as_int(value, what: str) -> int:
    try:
        result = int(value)
    except (TypeError, ValueError):
        raise GraphError(f"{what} must be an integer, got {value!r}") from None
    if result != value:
        raise GraphError(f"{what} must be an integer, got {value!r}")
    return result


class Jdm:
    """Symmetric matrix whose (i, j) entry counts edges between degree classes i and j."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        mat = tuple(tuple(_as_int(x, "matrix entry") for x in row) for row in rows)
        k = len(mat)
        for row in mat:
            if len(row) != k:
                raise GraphError("matrix must be square")
        for i in range(k):
            for j in range(i, k):
                if mat[i][j] < 0:
                    raise GraphError("matrix entries must be non-negative")
                if mat[i][j] != mat[j][i]:
                    raise GraphError(
                        f"matrix must be symmetric, entries ({i + 1},{j + 1}) differ"
                    )
        self._rows = mat

    @property
    def k(self) -> int:
        """Number of degree classes (matrix dimension)."""
        return len(self._rows)

    @property
    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        return self._rows

    def entry(self, i: int, j: int) -> int:
        """Entry for classes i and j, 1-based."""
        if not (1 <= i <= self.k and 1 <= j <= self.k):
            raise GraphError(f"class pair ({i},{j}) out of range for k={self.k}")
        return self._rows[i - 1][j - 1]

    def canonical(self) -> "Jdm":
        """Drop trailing all-zero classes; the result names the same edge counts."""
        k = self.k
        while k > 0 and all(self._rows[k - 1][c] == 0 for c in range(self.k)):
            k -= 1
        if k == self.k:
            return self
        return Jdm(tuple(row[:k] for row in self._rows[:k]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Jdm):
            return NotImplemented
        return self.canonical()._rows == other.canonical()._rows

    def __hash__(self) -> int:
        return hash(self.canonical()._rows)

    def __repr__(self) -> str:
        return f"Jdm({[list(r) for r in self._rows]})"


class LabeledGraph:
    """Simple graph over labeled vertices with an explicit degree-class partition.

    The partition is stored rather than recomputed so that intermediate
    construction states, where degree(v) may differ from class(v), are
    representable.  ``is_realization`` reports whether they agree everywhere.
    """

    __slots__ = ("_edges", "_adj", "_classes", "_vertices", "_hash")

    def __init__(self, edges: Iterable[Tuple[int, int]], classes: Mapping[int, int]):
        cls: Dict[int, int] = {}
        for v, c in dict(classes).items():
            vi = _as_int(v, "vertex label")
            if vi < 0:
                raise GraphError(f"vertex label {v!r} must be non-negative")
            ci = _as_int(c, f"class of vertex {v}")
            if ci < 1:
                raise GraphError(f"class of vertex {v} must be at least 1")
            cls[vi] = ci
        edge_set = set()
        for e in edges:
            u, v = e
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed")
            if u not in cls or v not in cls:
                raise GraphError(f"edge {u}-{v} uses an unknown vertex")
            key = (u, v) if u < v else (v, u)
            if key in edge_set:
                raise GraphError(f"duplicate edge {key[0]}-{key[1]}")
            edge_set.add(key)
        self._classes = cls
        self._edges = frozenset(edge_set)
        adj: Dict[int, set] = {v: set() for v in cls}
        for u, v in edge_set:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self._vertices = tuple(sorted(cls))
        self._hash = None

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[int, int]]) -> "LabeledGraph":
        """Build a realization from edges alone: each vertex's class is its degree."""
        edge_list = [tuple(e) for e in edges]
        degs: Dict[int, int] = {}
        for u, v in edge_list:
            degs[u] = degs.get(u, 0) + 1
            degs[v] = degs.get(v, 0) + 1
        return cls(edge_list, degs)

    @property
    def vertices(self) -> Tuple[int, ...]:
        return self._vertices

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def delta(self) -> int:
        """Largest degree class present (0 for the empty graph)."""
        return max(self._classes.values(), default=0)

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(self._edges))

    def edge_set(self) -> frozenset:
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._edges

    def neighbors(self, v: int) -> Tuple[int, ...]:
        self._require(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._require(v)
        return len(self._adj[v])

    def class_of(self, v: int) -> int:
        self._require(v)
        return self._classes[v]

    def classes(self) -> Dict[int, int]:
        return dict(self._classes)

    def partition(self) -> Dict[int, Tuple[int, ...]]:
        """Map class -> sorted vertices, nonempty classes only."""
        part: Dict[int, list] = {}
        for v in self._vertices:
            part.setdefault(self._classes[v], []).append(v)
        return {c: tuple(vs) for c, vs in sorted(part.items())}

    def spectrum(self, v: int) -> Tuple[int, ...]:
        """Component i counts v's neighbors of class i, for i = 1..delta."""
        self._require(v)
        counts = [0] * self.delta
        for w in self._adj[v]:
            counts[self._classes[w] - 1] += 1
        return tuple(counts)

    def is_realization(self) -> bool:
        return all(len(self._adj[v]) == c for v, c in self._classes.items())

    def fingerprint(self) -> str:
        """Stable short hash of the labeled classes and edge set."""
        text = ";".join(f"{v}:{self._classes[v]}" for v in self._vertices)
        text += "|" + ";".join(f"{u}-{v}" for u, v in sorted(self._edges))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def rewire(self, remove: Iterable[Tuple[int, int]], add: Iterable[Tuple[int, int]]) -> "LabeledGraph":
        """New graph with the same classes, some edges removed and others added."""
        edges = set(self._edges)
        for u, v in remove:
            key = (u, v) if u < v else (v, u)
            if key not in edges:
                raise GraphError(f"cannot remove missing edge {u}-{v}")
            edges.remove(key)
        for u, v in add:
            key = (u, v) if u < v else (v, u)
            if key in edges:
                raise GraphError(f"cannot add existing edge {u}-{v}")
            edges.add(key)
        return LabeledGraph(edges, self._classes)

    def _require(self, v: int) -> None:
        if v not in self._classes:
            raise GraphError(f"unknown vertex {v}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._classes == other._classes and self._edges == other._edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((tuple(sorted(self._classes.items())), self._edges))
        return self._hash

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n}, m={self.m}, delta={self.delta})"


@dataclass(frozen=True)
class Rso:
    """Swap removing edges a-c, b-d and adding b-c, a-d, with a, b in one class.

    Keeping the moved pair a, b inside a single degree class is what preserves
    the whole class-pair edge-count matrix, not just the degree sequence.
    """

    a: int
    b: int
    c: int
    d: int
    pivot_class: int

    def validate(self, g: LabeledGraph) -> None:
        verts = (self.a, self.b, self.c, self.d)
        if len(set(verts)) != 4:
            raise SwapError(f"swap vertices {verts} are not pairwise distinct")
        for v in verts:
            if v not in g.classes():
                raise SwapError(f"unknown vertex {v}")
        if g.class_of(self.a) != self.pivot_class or g.class_of(self.b) != self.pivot_class:
            raise SwapError(
                f"vertices {self.a}, {self.b} must both be in class {self.pivot_class}"
            )
        for u, v in ((self.a, self.c), (self.b, self.d)):
            if not g.has_edge(u, v):
                raise SwapError(f"required edge {u}-{v} is missing")
        for u, v in ((self.b, self.c), (self.a, self.d)):
            if g.has_edge(u, v):
                raise SwapError(f"target edge {u}-{v} is already present")

    def inverse(self) -> "Rso":
        """The swap undoing this one; note it is again a valid swap record."""
        return Rso(self.b, self.a, self.c, self.d, self.pivot_class)

    def __str__(self) -> str:
        return f"{self.a} {self.b} {self.c} {self.d} {self.pivot_class}"


def _require_realization(g: LabeledGraph) -> None:
    for v in g.vertices:
        if g.degree(v) != g.class_of(v):
            raise NotRealizationError(
                f"vertex {v} has degree {g.degree(v)} but class {g.class_of(v)}"
            )


def _movable_neighbor(g: LabeledGraph, v: int, i: int, u: int) -> Optional[int]:
    """First neighbor of v in class i that is neither u nor adjacent to u.

    This is the witness an RSO pivoting on v and u needs: v hands it to u
    without creating a duplicate edge.  None when v has no such neighbor.
    """
    for cand in g.neighbors(v):
        if g.class_of(cand) == i and cand != u and not g.has_edge(u, cand):
            return cand
    return None


def extract_jdm(g: LabeledGraph) -> Jdm:
    """Count edges per class pair; within-class edges are counted once."""
    _require_realization(g)
    k = g.delta
    rows = [[0] * k for _ in range(k)]
    for u, v in g.edges():
        i = g.class_of(u) - 1
        j = g.class_of(v) - 1
        rows[i][j] += 1
        if i != j:
            rows[j][i] += 1
    return Jdm(rows)


def vertex_counts(j: Jdm) -> Tuple[Fraction, ...]:
    """Vertex count per class forced by the matrix, as exact rationals.

    Degree-i vertices carry i edge endpoints each, and class i's endpoints
    total J_ii (twice, once per endpoint) plus the off-diagonal row, so
    n_i = (J_ii + sum_l J_il) / i.  Non-integers are data for the caller.
    """
    counts = []
    for i in range(1, j.k + 1):
        total = j.entry(i, i) + sum(j.entry(i, l) for l in range(1, j.k + 1))
        counts.append(Fraction(total, i))
    return tuple(counts)


def _assign_labels(j: Jdm, labels: Optional[Sequence[int]]) -> Dict[int, int]:
    """Map sorted labels (default 0..n-1) to classes, smallest class first."""
    counts = vertex_counts(j)
    for i, c in enumerate(counts, start=1):
        if c.denominator != 1:
            raise GraphError(f"class {i} would need {c} vertices")
    sizes = [int(c) for c in counts]
    total = sum(sizes)
    labels = sorted(range(total) if labels is None else labels)
    if len(labels) != total or len(set(labels)) != total:
        raise GraphError(f"need exactly {total} distinct labels")
    classes: Dict[int, int] = {}
    pos = 0
    for i, size in enumerate(sizes, start=1):
        for v in labels[pos : pos + size]:
            classes[v] = i
        pos += size
    return classes


def degree_spectrum(g: LabeledGraph, v: int) -> Tuple[int, ...]:
    """Per-class neighbor counts of v."""
    return g.spectrum(v)


def all_spectra(g: LabeledGraph) -> Dict[int, Tuple[int, ...]]:
    return {v: g.spectrum(v) for v in g.vertices}


def apply_rso(g: LabeledGraph, r: Rso) -> LabeledGraph:
    """Apply a validated swap to a realization; the result is again a realization."""
    _require_realization(g)
    r.validate(g)
    return g.rewire(
        remove=((r.a, r.c), (r.b, r.d)),
        add=((r.b, r.c), (r.a, r.d)),
    )


def delete_vertex(g: LabeledGraph, v: int) -> LabeledGraph:
    """Remove v and its edges; re-class remaining vertices by their new degree.

    Vertices left with degree zero are dropped, so the result is a realization.
    """
    if v not in g.classes():
        raise GraphError(f"unknown vertex {v}")
    edges = [(a, b) for a, b in g.edges() if v not in (a, b)]
    return LabeledGraph.from_edges(edges)
