"""Output checks done with the benchmark's own code, never with jdmkit.

Each check returns an error string, or None when the output is right, so a
wrong answer is counted as a failed request and the run goes on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from gen import Adj, jdm_rows, partition

Swap = Tuple[int, int, int, int, int]


def parse_graph(text: str) -> Adj:
    """Graph file to adjacency; raises ValueError on any format breach."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n, m = map(int, lines[0])
    adj: Adj = {}
    for parts in lines[1:]:
        u, v = map(int, parts)
        if u == v or v in adj.get(u, ()):
            raise ValueError(f"loop or parallel edge {u} {v}")
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    if len(lines) - 1 != m or len(adj) != n:
        raise ValueError("header disagrees with the edge lines")
    return adj


def parse_matrix(text: str) -> List[List[int]]:
    lines = [list(map(int, ln.split())) for ln in text.splitlines() if ln.strip()]
    return lines[1:]


def parse_trace(text: str) -> List[Swap]:
    return [tuple(map(int, ln.split())) for ln in text.splitlines() if ln.strip()]


def canonical_rows(rows: List[List[int]]) -> List[List[int]]:
    """Drop trailing all-zero classes, as jdmkit's matrix equality does."""
    k = len(rows)
    while k and not any(rows[k - 1]):
        k -= 1
    return [list(r[:k]) for r in rows[:k]]


def replay(adj: Adj, swaps: List[Swap]) -> Tuple[Optional[Adj], Optional[str]]:
    """Apply restricted swaps to a copy of adj, checking each one.

    A swap ``a b c d p`` needs a, b in class p (class = degree), the four
    vertices distinct, edges a-c and b-d present and b-c and a-d absent; it
    removes a-c, b-d and adds b-c, a-d.
    """
    cur = {v: set(ns) for v, ns in adj.items()}
    for step, swap in enumerate(swaps, start=1):
        if len(swap) != 5:
            return None, f"swap {step}: expected 5 fields"
        a, b, c, d, p = swap
        if len({a, b, c, d}) != 4 or not all(v in cur for v in (a, b, c, d)):
            return None, f"swap {step}: vertices not distinct or unknown"
        if len(cur[a]) != p or len(cur[b]) != p:
            return None, f"swap {step}: pivots {a}, {b} not both in class {p}"
        if c not in cur[a] or d not in cur[b]:
            return None, f"swap {step}: edge to remove is missing"
        if c in cur[b] or d in cur[a]:
            return None, f"swap {step}: edge to add is present"
        cur[a].remove(c)
        cur[c].remove(a)
        cur[b].remove(d)
        cur[d].remove(b)
        cur[b].add(c)
        cur[c].add(b)
        cur[a].add(d)
        cur[d].add(a)
    return cur, None


def check_trace(source: Adj, target: Adj, trace_text: str) -> Optional[str]:
    """The trace, replayed swap by swap from source, lands exactly on target."""
    try:
        swaps = parse_trace(trace_text)
    except ValueError as exc:
        return f"unreadable trace: {exc}"
    end, err = replay(source, swaps)
    if err:
        return err
    if end != target:
        return "replay does not land on the target"
    return None


def check_realizes(adj: Adj, rows: List[List[int]]) -> Optional[str]:
    """adj is a simple graph whose class-pair counts (class = degree) are rows."""
    if canonical_rows(jdm_rows(adj)) != canonical_rows(rows):
        return "graph does not realize the matrix"
    return None


def check_balanced(adj: Adj) -> Optional[str]:
    """Every within-class spectrum component is the floor or ceiling of its mean.

    Averages are the exact ones the matrix forces: over class j, the mean
    count of class-i neighbours is J(i,j)/n_j off the diagonal and 2 J(j,j)/n_j
    on it, which equals the observed mean.
    """
    part = partition(adj)
    k = max(part)
    for j, members in part.items():
        spectra = []
        for v in members:
            spec = [0] * k
            for w in adj[v]:
                spec[len(adj[w]) - 1] += 1
            spectra.append(spec)
        for i in range(k):
            mean = Fraction(sum(s[i] for s in spectra), len(members))
            lo, hi = mean.numerator // mean.denominator, -(-mean.numerator // mean.denominator)
            if any(not lo <= s[i] <= hi for s in spectra):
                return f"class {j} spectrum component {i + 1} is not floor/ceil of its mean"
    return None
