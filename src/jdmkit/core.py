"""Core data types: degree-class matrices, labeled graphs, spectra, swaps."""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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

    @classmethod
    def _counted(cls, rows: Iterable[Iterable[int]]) -> "Jdm":
        """A matrix of counts, non-negative ints symmetric by construction; no check."""
        j = cls.__new__(cls)
        j._rows = tuple(map(tuple, rows))
        return j

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
    The constructor checks every label, class and edge; internal rebuilds
    from parts already proved valid use ``_proved``, which checks nothing.
    """

    __slots__ = ("_edges", "_adj", "_classes", "_vertices", "_delta", "_fp")

    def __init__(self, edges: Iterable[Tuple[int, int]], classes: Mapping[int, int]):
        cls: Dict[int, int] = {}
        for v, c in dict(classes).items():
            vi = _label(v)
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
        self._derive(frozenset(edge_set), cls)

    @classmethod
    def _proved(cls, edges: frozenset, classes: Dict[int, int]) -> "LabeledGraph":
        """The graph over u < v edges and a label -> class map already proved
        valid (as the constructor checks them), built without checking again."""
        g = cls.__new__(cls)
        g._derive(edges, classes)
        return g

    def _derive(self, edges: frozenset, classes: Dict[int, int]) -> None:
        self._classes, self._edges, self._fp = classes, edges, None
        self._adj = {v: tuple(sorted(ns)) for v, ns in _adjacency(classes, edges).items()}
        self._vertices = tuple(sorted(classes))
        self._delta = max(classes.values(), default=0)

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
        return self._delta

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
        return _partition(self._classes)

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
        """Stable short hash of the labeled classes and edge set, computed once."""
        if self._fp is None:
            text = ";".join(f"{v}:{self._classes[v]}" for v in self._vertices)
            text += "|" + ";".join(f"{u}-{v}" for u, v in sorted(self._edges))
            self._fp = hashlib.sha256(text.encode()).hexdigest()[:16]
        return self._fp

    def rewire(self, remove: Iterable[Tuple[int, int]], add: Iterable[Tuple[int, int]]) -> "LabeledGraph":
        """New graph with the same classes, some edges removed and others added.

        Removed edges must be present and added ones absent, checked in call
        order; building the result then refuses loops and unknown vertices.
        """
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
        return hash((tuple(sorted(self._classes.items())), self._edges))

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
        self._check(g._classes, g.has_edge)

    def _check(self, classes: Mapping[int, int], has_edge) -> None:
        """The validation itself, over a class map and an edge test."""
        verts = (self.a, self.b, self.c, self.d)
        if len(set(verts)) != 4:
            raise SwapError(f"swap vertices {verts} are not pairwise distinct")
        for v in verts:
            if v not in classes:
                raise SwapError(f"unknown vertex {v}")
        if classes[self.a] != self.pivot_class or classes[self.b] != self.pivot_class:
            raise SwapError(
                f"vertices {self.a}, {self.b} must both be in class {self.pivot_class}"
            )
        for u, v in ((self.a, self.c), (self.b, self.d)):
            if not has_edge(u, v):
                raise SwapError(f"required edge {u}-{v} is missing")
        for u, v in ((self.b, self.c), (self.a, self.d)):
            if has_edge(u, v):
                raise SwapError(f"target edge {u}-{v} is already present")

    def inverse(self) -> "Rso":
        """The swap undoing this one; note it is again a valid swap record."""
        return Rso(self.b, self.a, self.c, self.d, self.pivot_class)

    def __str__(self) -> str:
        return f"{self.a} {self.b} {self.c} {self.d} {self.pivot_class}"


def _adjacency(nodes: Iterable, edges: Iterable[Tuple]) -> Dict:
    """Map each node to the set of its neighbors over an edge list."""
    adj: Dict = {v: set() for v in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _partition(classes: Mapping[int, int]) -> Dict[int, Tuple[int, ...]]:
    """Map class -> sorted vertices of a vertex -> class map, classes ascending."""
    part: Dict[int, list] = {}
    for v in sorted(classes):
        part.setdefault(classes[v], []).append(v)
    return {c: tuple(vs) for c, vs in sorted(part.items())}


def _edges_by_class_pair(
    classes: Mapping[int, int], edges: Iterable[Tuple[int, int]]
) -> Dict[Tuple[int, int], List[Tuple[int, int]]]:
    """Sorted edges per class pair (i, j), i <= j, each oriented class i first.

    Edges come in with u < v, which within-class edges keep; pairs ascend.
    """
    pairs: Dict[Tuple[int, int], list] = {}
    for u, v in edges:
        i, j = classes[u], classes[v]
        if i > j:
            i, j, u, v = j, i, v, u
        pairs.setdefault((i, j), []).append((u, v))
    return {pair: sorted(es) for pair, es in sorted(pairs.items())}


def _require_realization(g: LabeledGraph) -> None:
    adj, classes = g._adj, g._classes
    for v in g._vertices:
        if len(adj[v]) != classes[v]:
            raise NotRealizationError(
                f"vertex {v} has degree {len(adj[v])} but class {classes[v]}"
            )


def extract_jdm(g: LabeledGraph) -> Jdm:
    """Count edges per class pair; within-class edges are counted once."""
    _require_realization(g)
    return _pair_matrix(g)


def _pair_matrix(g: LabeledGraph) -> Jdm:
    """extract_jdm's count over g's class map, realization or not."""
    k = g.delta
    rows = [[0] * k for _ in range(k)]
    classes = g._classes
    for u, v in g._edges:
        i, j = classes[u] - 1, classes[v] - 1
        rows[i][j] += 1
        if i != j:
            rows[j][i] += 1
    # proof: each entry counts edges, and an off-diagonal edge counts on both sides.
    return Jdm._counted(rows)


def vertex_counts(j: Jdm) -> Tuple[Fraction, ...]:
    """Vertex count per class forced by the matrix, as exact rationals.

    Degree-i vertices carry i edge endpoints each, and class i's endpoints
    total J_ii (twice, once per endpoint) plus the off-diagonal row, so
    n_i = (J_ii + sum_l J_il) / i.  Non-integers are data for the caller.
    """
    return tuple(Fraction(row[i] + sum(row), i + 1) for i, row in enumerate(j.rows))


def _average_table(j: Jdm) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """Per nonempty class c and component i, the class-c mean count of
    class-i neighbors as an integer pair (num, den), den > 0, not reduced.

    The mean is J(i,c)/n_c off the diagonal and 2*J(c,c)/n_c on it (each
    within-class edge has two endpoints in c), where n_c = ends_c / c and
    ends_c is class c's endpoint total (vertex_counts).
    """
    table: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for c, row in enumerate(j.rows, start=1):
        ends = row[c - 1] + sum(row)
        if ends == 0:
            continue
        for i, entry in enumerate(row, start=1):
            table[(c, i)] = ((2 * entry if i == c else entry) * c, ends)
    return table


def _floor_dev(num: int, den: int, s: int) -> int:
    """floor(|num/den - s|) in integer arithmetic."""
    return abs(num - s * den) // den


def _tallies(rows: Sequence[Sequence[int]]) -> List[int]:
    """Per component, sum of floor(|mean - s|) over the rows s, in integers; over one
    class of a realization the mean is the matrix's average (_average_table)."""
    n, out = len(rows), []
    for col in zip(*rows):
        t, dev = sum(col), 0
        for s in col:
            dev += abs(t - s * n) // n
        out.append(dev)
    return out


def _class_sizes(j: Jdm) -> List[int]:
    """Vertex count per class; GraphError when the matrix forces a fraction."""
    sizes = []
    for i, c in enumerate(vertex_counts(j), start=1):
        if c.denominator != 1:
            raise GraphError(f"class {i} would need {c} vertices")
        sizes.append(int(c))
    return sizes


def _label(v) -> int:
    """v as a vertex label: a non-negative integer, or GraphError."""
    vi = _as_int(v, "vertex label")
    if vi < 0:
        raise GraphError(f"vertex label {v!r} must be non-negative")
    return vi


def _assign_labels(j: Jdm, labels: Optional[Sequence[int]]) -> Dict[int, int]:
    """Map sorted labels (default 0..n-1), each checked as LabeledGraph checks
    it, to classes, smallest class first; a total no list can index is refused."""
    sizes = _class_sizes(j)
    total = sum(sizes)
    if total > sys.maxsize:
        raise GraphError(f"matrix needs {total} vertices, too many to label")
    labels = sorted(range(total) if labels is None else map(_label, labels))
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


def _exchange(adj, a, b, c, d) -> None:
    """Trade edges a-c, b-d for b-c, a-d in adj (node -> neighbor set)."""
    adj[a].remove(c)
    adj[c].remove(a)
    adj[b].remove(d)
    adj[d].remove(b)
    adj[b].add(c)
    adj[c].add(b)
    adj[a].add(d)
    adj[d].add(a)


class _SwapState:
    """A realization under restricted swaps, updated in place.

    Holds the matrix and its class averages (fixed, since a swap never
    changes the matrix), adjacency sets, each vertex's spectrum and, per
    class j and component i, the tally of floor(|A_j(i) - s_i(v)|) over
    class j, with its sum over i per class.  A swap touches the spectra of
    its two pivots only, so it updates all of this in O(1).  It checks only
    that g is a realization; every swap passes Rso's check, so graph()
    rebuilds without checking again, into a graph equal to g when no swap ran.
    """

    __slots__ = ("jdm", "classes", "adj", "part", "delta", "spec", "avg", "dev", "imb")

    def __init__(self, g: LabeledGraph):
        self.jdm = extract_jdm(g)
        self.avg = _average_table(self.jdm)
        self.classes = classes = g._classes
        self.adj = {v: set(ns) for v, ns in g._adj.items()}
        self.part = g.partition()
        self.delta = delta = g.delta
        self.spec = spec = {}
        for v, ns in g._adj.items():
            counts = [0] * delta
            for w in ns:
                counts[classes[w] - 1] += 1
            spec[v] = counts
        tallies = {j: _tallies([spec[v] for v in vs]) for j, vs in self.part.items()}
        self.dev = {(j, i): t for j, ts in tallies.items() for i, t in enumerate(ts, start=1)}
        self.imb = {j: sum(ts) for j, ts in tallies.items()}

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def imbalance(self, j: int) -> int:
        """Total deviation over class j's vertices and spectrum components."""
        return self.imb.get(j, 0)

    def movable(self, v: int, i: int, u: int) -> Optional[int]:
        """Smallest neighbor of v in class i that is neither u nor adjacent to u.

        This is the witness a swap pivoting on v and u needs: v hands it to u
        without creating a duplicate edge.  None when v has no such neighbor.
        """
        classes, near_u = self.classes, self.adj[u]
        return min(
            (c for c in self.adj[v] if classes[c] == i and c != u and c not in near_u),
            default=None,
        )

    def swap(self, r: Rso) -> None:
        """Validate r exactly as Rso.validate does, then apply it."""
        r._check(self.classes, self.has_edge)
        a, b, c, d = r.a, r.b, r.c, r.d
        _exchange(self.adj, a, b, c, d)
        # c and d keep their spectra, since a and b share a class; a trades a
        # class(c) neighbor for a class(d) one and b the reverse.
        ic, id_ = self.classes[c], self.classes[d]
        if ic != id_:
            for v, lose, gain in ((a, ic, id_), (b, id_, ic)):
                self._bump(v, r.pivot_class, lose, -1)
                self._bump(v, r.pivot_class, gain, 1)

    def _bump(self, v: int, j: int, i: int, step: int) -> None:
        spec = self.spec[v]
        num, den = self.avg[(j, i)]
        s = spec[i - 1]
        change = _floor_dev(num, den, s + step) - _floor_dev(num, den, s)
        self.dev[(j, i)] += change
        self.imb[j] += change
        spec[i - 1] = s + step

    def edges(self) -> List[Tuple[int, int]]:
        """Current edges as (u, v) pairs with u < v."""
        return [(u, v) for u, ns in self.adj.items() for v in ns if u < v]

    def graph(self) -> LabeledGraph:
        # proof: the state began as a checked graph and each swap passed Rso._check.
        return LabeledGraph._proved(frozenset(self.edges()), self.classes)


def delete_vertex(g: LabeledGraph, v: int) -> LabeledGraph:
    """Remove v and its edges; re-class remaining vertices by their new degree.

    Vertices left with degree zero are dropped, so the result is a realization.
    """
    g._require(v)
    edges = [(a, b) for a, b in g.edges() if v not in (a, b)]
    return LabeledGraph.from_edges(edges)
