"""Plain-text formats for graphs, matrices, swap traces, and sampled multigraphs."""

from __future__ import annotations

from typing import List, Sequence

from .core import GraphError, Jdm, LabeledGraph, NotRealizationError, Rso

__all__ = [
    "FileFormatError",
    "dumps_graph",
    "loads_graph",
    "save_graph",
    "load_graph",
    "dumps_jdm",
    "loads_jdm",
    "save_jdm",
    "load_jdm",
    "dumps_trace",
    "loads_trace",
    "save_trace",
    "load_trace",
    "dumps_multigraph",
]


class FileFormatError(ValueError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _ints(text: str, count: int, line: int) -> List[int]:
    parts = text.split()
    if len(parts) != count:
        raise FileFormatError(f"expected {count} integers, got {text!r}", line)
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise FileFormatError(f"expected integers, got {text!r}", line) from None


def _read_text(path: str) -> str:
    """The file's text; a byte outside ASCII is a format error, not a crash."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(
            f"non-ASCII byte {data[exc.start]:#04x} in {path}", line
        ) from None


def dumps_graph(g: LabeledGraph) -> str:
    """Canonical text: `n m` then sorted `u v` lines; classes are the degrees."""
    if not g.is_realization():
        raise NotRealizationError(
            "only graphs whose classes equal their degrees round-trip this format"
        )
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def loads_graph(text: str) -> LabeledGraph:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FileFormatError("missing `n m` header", 1)
    n, m = _ints(lines[0], 2, 1)
    if n < 0 or m < 0:
        raise FileFormatError("vertex and edge counts must be non-negative", 1)
    # One split per line skips blank lines, counts edge lines and parses them.
    body = [(idx, p) for idx, ln in enumerate(lines[1:], start=2) if (p := ln.split())]
    if len(body) != m:
        raise FileFormatError(f"expected {m} edge lines", len(lines))
    edges, degrees = set(), {}
    for idx, parts in body:
        try:
            u, v = map(int, parts)
        except ValueError:
            u, v = _ints(lines[idx - 1], 2, idx)  # raises, naming what the line lacks
        if u == v:
            raise FileFormatError(f"loop {u} {v} not allowed", idx)
        if u < 0 or v < 0:
            raise FileFormatError("vertex labels must be non-negative", idx)
        key = (u, v) if u < v else (v, u)
        if key in edges:
            raise FileFormatError(f"duplicate edge {u} {v}", idx)
        edges.add(key)
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    if len(degrees) != n:
        raise FileFormatError(f"header says {n} vertices but edges name {len(degrees)}", 1)
    # proof: each edge line was checked above: two distinct non-negative ints, no repeat.
    return LabeledGraph._proved(frozenset(edges), degrees)


def save_graph(g: LabeledGraph, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_graph(g))


def load_graph(path: str) -> LabeledGraph:
    return loads_graph(_read_text(path))


def dumps_jdm(j: Jdm) -> str:
    out = [str(j.k)]
    out.extend(" ".join(str(x) for x in row) for row in j.rows)
    return "\n".join(out) + "\n"


def loads_jdm(text: str) -> Jdm:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FileFormatError("missing matrix size header", 1)
    (k,) = _ints(lines[0], 1, 1)
    if k < 0:
        raise FileFormatError("matrix size must be non-negative", 1)
    body = [(idx, ln) for idx, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != k:
        raise FileFormatError(f"expected {k} matrix rows", len(lines))
    try:
        return Jdm([_ints(ln, k, idx) for idx, ln in body])
    except GraphError as exc:
        raise FileFormatError(str(exc)) from exc


def save_jdm(j: Jdm, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_jdm(j))


def load_jdm(path: str) -> Jdm:
    return loads_jdm(_read_text(path))


def dumps_trace(swaps: Sequence[Rso]) -> str:
    """One swap per line: `a b c d pivot_class`."""
    return "".join(str(s) + "\n" for s in swaps)


def loads_trace(text: str) -> List[Rso]:
    swaps = []
    for idx, ln in enumerate(text.splitlines(), start=1):
        if not ln.strip():
            continue
        a, b, c, d, pivot = _ints(ln, 5, idx)
        swaps.append(Rso(a, b, c, d, pivot))
    return swaps


def save_trace(swaps: Sequence[Rso], path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_trace(swaps))


def load_trace(path: str) -> List[Rso]:
    return loads_trace(_read_text(path))


def dumps_multigraph(mg) -> str:
    """Sampled-output extension of the graph format: `u u` marks a loop and a
    repeated `u v` line marks each extra parallel edge; not round-trippable."""
    lines = []
    total = 0
    for (u, v), mult in sorted(mg.pair_counts.items()):
        for _ in range(mult):
            lines.append(f"{u} {v}")
            total += 1
    return "\n".join([f"{len(mg.classes)} {total}"] + lines) + "\n"
