"""Digest of jdmkit's deterministic outputs, for checking that a change keeps them.

Run it once per tree, with that tree's package first on the path, and compare
the printed lines; a refactor that claims byte-identical output must print the
same digests:

    PYTHONPATH=src python3 tools/trace_digest.py

Sections, each printed as ``name items sha256-prefix``:

- ``pool-paths``: ``rso_path`` traces for random pairs drawn from the full
  realization pool of every matrix on at most 7 vertices (the pool of
  acceptance criterion 5), two pairs per matrix with a pool of two or more;
- ``pool-balance``: ``balance`` traces of the first and last pool member;
- ``ladder-paths``: ``rso_path`` traces of three pairs per rung of a G(n, 8/n)
  ladder (n = 20, 32, 45), the second graph of a pair coming from a random
  restricted-swap walk of 20 m steps done here with plain sets;
- ``ladder-balance`` and ``ladder-construct``: ``balance`` traces and
  ``construct_realization`` output on the ladder graphs and their matrices;
- ``cli``: stdout JSON and written files of ``check``, ``construct``,
  ``extract``, ``balance``, ``path`` and both ``sample`` chains, run in-process;
- ``large-construct``: ``construct_realization`` output for the matrices of
  fixed-seed G(n, 8/n) graphs at n = 200 and 400 (the benchmark's construct
  workload runs at n = 400), where each construction takes hundreds of
  descent steps;
- ``sample-grid``: stdout of ``jdm sample`` for both chains over steps, burnin
  and thin at the edges of the retention schedule (no steps, burnin at, past
  and one short of the steps, thin past the steps, steps not a multiple of
  thin, burnin with thin > 1) on two small matrices, with seeds of its own.

Takes about a minute on one core, most of it enumerating the small matrices.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random
import sys
import tempfile

from jdmkit.balance import balance
from jdmkit.cli import run
from jdmkit.core import Jdm, LabeledGraph, extract_jdm
from jdmkit.fileio import dumps_graph, dumps_jdm, dumps_trace
from jdmkit.graphic import construct_realization
from jdmkit.oracle import enumerate_realizations
from jdmkit.transform import rso_path


class Section:
    def __init__(self, name):
        self.name = name
        self.items = 0
        self.hash = hashlib.sha256()

    def add(self, text: str) -> None:
        self.items += 1
        self.hash.update(text.encode() + b"\x00")

    def line(self) -> str:
        return f"{self.name} {self.items} {self.hash.hexdigest()[:16]}"


def small_matrices():
    """Every matrix realized by some graph on at most 7 vertices, sorted."""
    pairs = list(itertools.combinations(range(7), 2))
    seen = set()
    for mask in range(1, 1 << len(pairs)):
        edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
        deg = [0] * 7
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        k = max(deg)
        rows = [[0] * k for _ in range(k)]
        for u, v in edges:
            a, b = sorted((deg[u], deg[v]))
            rows[a - 1][b - 1] += 1
            if a != b:
                rows[b - 1][a - 1] += 1
        seen.add(tuple(map(tuple, rows)))
    return [Jdm(rows) for rows in sorted(seen)]


def ladder_graph(n: int, rng: random.Random):
    """G(n, 8/n) with 4(n-1) edges as adjacency sets, isolated vertices dropped
    and the rest relabelled 0, 1, ... by degree, so that trees whose
    ``jdm sample --start`` assumed class-ordered labels run the same digest."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    adj = {v: set() for v in range(n)}
    for u, v in rng.sample(pairs, 4 * (n - 1)):
        adj[u].add(v)
        adj[v].add(u)
    keep = sorted((v for v in adj if adj[v]), key=lambda v: (len(adj[v]), v))
    label = {v: i for i, v in enumerate(keep)}
    return {label[v]: {label[w] for w in adj[v]} for v in keep}


def walk(adj, steps: int, rng: random.Random):
    """Copy of adj after ``steps`` proposed restricted swaps."""
    cur = {v: set(ns) for v, ns in adj.items()}
    stubs = [v for v in sorted(cur) for _ in cur[v]]
    peers = {}
    for v in sorted(cur):
        peers.setdefault(len(cur[v]), []).append(v)
    for _ in range(steps):
        a = rng.choice(stubs)
        b = rng.choice(peers[len(cur[a])])
        c = rng.choice(sorted(cur[a]))
        d = rng.choice(sorted(cur[b]))
        if len({a, b, c, d}) != 4 or c in cur[b] or d in cur[a]:
            continue
        for x, y in ((a, c), (b, d)):
            cur[x].remove(y)
            cur[y].remove(x)
        for x, y in ((b, c), (a, d)):
            cur[x].add(y)
            cur[y].add(x)
    return cur


def as_graph(adj) -> LabeledGraph:
    return LabeledGraph.from_edges((u, v) for u in adj for v in adj[u] if u < v)


def run_in_scratch(section: Section, files, commands) -> None:
    """Write files into a scratch directory, run each command there in-process
    and digest its stdout, then every file the directory holds."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in files:
                with open(name, "w", encoding="ascii") as fh:
                    fh.write(text)
            for argv in commands:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = run(argv)
                section.add(f"{argv} -> {code}\n{out.getvalue()}")
            for name in sorted(os.listdir(".")):
                with open(name, encoding="ascii") as fh:
                    section.add(f"{name}\n{fh.read()}")
        finally:
            os.chdir(home)


def cli_outputs(section: Section, g: LabeledGraph, h: LabeledGraph) -> None:
    """Run each command in a scratch directory; digest stdout and every file."""
    commands = [
        ["check", "m.txt"],
        ["construct", "m.txt", "--out", "c.txt"],
        ["extract", "g.txt"],
        ["balance", "g.txt", "--out", "b.txt", "--trace", "bt.txt"],
        ["path", "g.txt", "h.txt", "--out", "p.txt", "--verify"],
        ["sample", "m.txt", "--chain", "a", "--steps", "3000", "--thin", "7",
         "--seed", "11", "--max-lag", "20"],
        ["sample", "m.txt", "--chain", "b", "--steps", "3000", "--seed", "12",
         "--start", "h.txt", "--max-lag", "20", "--save-last", "s.txt"],
    ]
    files = (("m.txt", dumps_jdm(extract_jdm(g))), ("g.txt", dumps_graph(g)),
             ("h.txt", dumps_graph(h)))
    run_in_scratch(section, files, commands)


# (steps, burnin, thin, max-lag) at the edges of the retention schedule: no
# steps, burnin at or past the steps, burnin one short of them, thin past the
# steps, steps not a multiple of thin, burnin together with thin > 1.
SAMPLE_GRID = (
    (0, 0, 1, 100), (1, 0, 1, 100), (7, 0, 1, 0), (50, 50, 1, 100), (50, 80, 3, 5),
    (50, 49, 1, 5), (50, 49, 7, 5), (7, 0, 1000, 5), (101, 0, 7, 5), (999, 3, 7, 20),
    (2000, 49, 2, 100), (2000, 0, 1000, 5),
)


def sample_grid(section: Section) -> None:
    """The matrix and the stdout of both ``jdm sample`` chains over SAMPLE_GRID on two matrices:
    one with loops, parallel edges and chain-b rejections, one of a G(20, 8/20)
    graph with its own seed."""
    g = as_graph(ladder_graph(20, random.Random(9)))
    for j in (Jdm([[0, 2], [2, 2]]), extract_jdm(g)):
        commands = [
            ["sample", "m.txt", "--chain", chain, "--steps", str(steps), "--burnin", str(burnin),
             "--thin", str(thin), "--max-lag", str(max_lag), "--seed", str(seed)]
            for chain in ("a", "b")
            for seed, (steps, burnin, thin, max_lag) in enumerate(SAMPLE_GRID, start=900)
        ]
        run_in_scratch(section, [("m.txt", dumps_jdm(j))], commands)


def main() -> int:
    rng = random.Random(1302)
    pool_paths = Section("pool-paths")
    pool_balance = Section("pool-balance")
    for j in small_matrices():
        pool = enumerate_realizations(j, max_vertices=7)
        for g in pool[:1] + pool[-1:]:
            pool_balance.add(dumps_trace(balance(g)[1]))
        if len(pool) < 2:
            continue
        for _ in range(2):
            g, h = rng.sample(pool, 2)
            pool_paths.add(dumps_graph(g) + dumps_trace(rso_path(g, h).swaps))
    ladder_paths = Section("ladder-paths")
    ladder_balance = Section("ladder-balance")
    ladder_construct = Section("ladder-construct")
    cli = Section("cli")
    for n in (20, 32, 45):
        for rep in range(3):
            adj = ladder_graph(n, rng)
            m = sum(len(ns) for ns in adj.values()) // 2
            g, h = as_graph(adj), as_graph(walk(adj, 20 * m, rng))
            ladder_paths.add(dumps_graph(g) + dumps_trace(rso_path(g, h).swaps))
            ladder_balance.add(dumps_trace(balance(g)[1]))
            ladder_construct.add(dumps_graph(construct_realization(extract_jdm(g))))
            if rep == 0:
                cli_outputs(cli, g, h)
    large_construct = Section("large-construct")
    large_rng = random.Random(400)
    for n in (200, 400):
        g = as_graph(ladder_graph(n, large_rng))
        large_construct.add(dumps_graph(construct_realization(extract_jdm(g))))
    grid = Section("sample-grid")
    sample_grid(grid)
    sections = (pool_paths, pool_balance, ladder_paths, ladder_balance, ladder_construct, cli,
                large_construct, grid)
    total = hashlib.sha256()
    for s in sections:
        print(s.line())
        total.update(s.line().encode())
    print(f"all {total.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
