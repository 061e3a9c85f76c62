"""Seeded inputs for the benchmark, built without jdmkit.

Graphs are plain adjacency dicts ``{vertex: set(neighbours)}`` over the
labels ``0..n-1``; every vertex has degree at least one, and a vertex's class
is its degree, which is the graph file format's contract.  The second
realization of a graph comes from a random walk of restricted swaps (RSOs)
done here, not by ``jdmkit.transform``, so the program under test never
produces its own inputs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

Adj = Dict[int, Set[int]]


def gnm(n: int, rng: random.Random) -> Adj:
    """G(n, 8/n) conditioned on its mean edge count: 4(n-1) uniform edges.

    Path, balance and construct time grow with m squared; fixing m removes
    that part of the seed-to-seed spread and states the input size exactly.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return by_degree(n, rng.sample(pairs, 4 * (n - 1)))


def by_degree(n: int, edge_list) -> Adj:
    """Graph on 0..n-1 without its isolated vertices, relabelled ``0..n'-1``
    in order of degree: the layout that ``jdm construct``, ``jdm enumerate``
    and ``jdm sample`` give each class, so the graph can start a chain and
    appears among the enumerated realizations."""
    adj: Adj = {v: set() for v in range(n)}
    for u, v in edge_list:
        adj[u].add(v)
        adj[v].add(u)
    keep = sorted((v for v in range(n) if adj[v]), key=lambda v: (len(adj[v]), v))
    relabel = {v: i for i, v in enumerate(keep)}
    return {relabel[v]: {relabel[w] for w in adj[v]} for v in keep}


def edges(adj: Adj) -> List[Tuple[int, int]]:
    return sorted((u, v) for u in adj for v in adj[u] if u < v)


def jdm_rows(adj: Adj) -> List[List[int]]:
    """Class-pair edge counts with class = degree; within-class edges once."""
    k = max(len(ns) for ns in adj.values())
    rows = [[0] * k for _ in range(k)]
    for u, v in edges(adj):
        i, j = len(adj[u]) - 1, len(adj[v]) - 1
        rows[i][j] += 1
        if i != j:
            rows[j][i] += 1
    return rows


def partition(adj: Adj) -> Dict[int, Tuple[int, ...]]:
    part: Dict[int, List[int]] = {}
    for v in sorted(adj):
        part.setdefault(len(adj[v]), []).append(v)
    return {c: tuple(vs) for c, vs in sorted(part.items())}


def rso_walk(adj: Adj, steps: int, rng: random.Random) -> Adj:
    """A copy of ``adj`` after ``steps`` proposed restricted swaps.

    A proposal picks a vertex a with probability proportional to its degree,
    a second vertex b of the same class, a neighbour c of a and a neighbour d
    of b; it removes a-c, b-d and adds b-c, a-d when the four are distinct and
    both new edges are absent.  Degrees, and with them the partition and the
    joint degree matrix, never change.
    """
    cur = {v: set(ns) for v, ns in adj.items()}
    stubs = [v for v in sorted(cur) for _ in range(len(cur[v]))]
    part = partition(cur)
    for _ in range(steps):
        a = stubs[rng.randrange(len(stubs))]
        peers = part[len(cur[a])]
        b = peers[rng.randrange(len(peers))]
        c = sorted(cur[a])[rng.randrange(len(cur[a]))]
        d = sorted(cur[b])[rng.randrange(len(cur[b]))]
        if len({a, b, c, d}) != 4 or c in cur[b] or d in cur[a]:
            continue
        cur[a].remove(c)
        cur[c].remove(a)
        cur[b].remove(d)
        cur[d].remove(b)
        cur[b].add(c)
        cur[c].add(b)
        cur[a].add(d)
        cur[d].add(a)
    return cur


def graph_text(adj: Adj) -> str:
    es = edges(adj)
    return "".join([f"{len(adj)} {len(es)}\n"] + [f"{u} {v}\n" for u, v in es])


def matrix_text(rows: List[List[int]]) -> str:
    return f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def same_problem(g: Adj, h: Adj) -> bool:
    """Both realizations share one matrix and one partition."""
    return jdm_rows(g) == jdm_rows(h) and partition(g) == partition(h)
