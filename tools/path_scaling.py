"""Time ``rso_path`` on sparse random graphs of growing size and report its length.

For each n in 500, 1000 and 2000, draws a G(n, 8/n) graph g with
``tools/construct_scaling.py``'s ``sparse_gnm`` under ``random.Random(7)``,
takes h from a restricted-swap walk of 4·m proposed steps on g
(``tools/trace_digest.py``'s ``walk``, under ``random.Random(8)``), and prints
the best-of-3 wall time of ``rso_path(g, h)``, its swap count, the lower bound
|E(g) Δ E(h)| / 4, the stretch (swaps over the bound), how many routes of a
class pair or side graph took the canonical finish, and a digest of the
trace:

    PYTHONPATH=src python3 tools/path_scaling.py

Run it once per tree to compare two trees: equal digests mean the same paths
were built.  Takes under 15 s on one core, most of it the largest n.
"""

from __future__ import annotations

import hashlib
import random
import time
from unittest import mock

# Run as a script, this file's directory leads sys.path.
from construct_scaling import sparse_gnm
from trace_digest import as_graph, walk

from jdmkit import transform
from jdmkit.fileio import dumps_trace
from jdmkit.transform import rso_path

SIZES = (500, 1000, 2000)
REPEATS = 3


def main(sizes=SIZES) -> None:
    wirings = 0
    forced_wiring = transform._forced_wiring

    def counted(*args):
        nonlocal wirings
        wirings += 1
        return forced_wiring(*args)

    with mock.patch.object(transform, "_forced_wiring", counted):
        for n in sizes:
            g = sparse_gnm(n, random.Random(7))
            adj = {v: set(g.neighbors(v)) for v in g.vertices}
            h = as_graph(walk(adj, 4 * g.m, random.Random(8)))
            bound = len(g.edge_set() ^ h.edge_set()) / 4
            best, traces, wirings = float("inf"), set(), 0
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                seq = rso_path(g, h)
                best = min(best, time.perf_counter() - t0)
                traces.add(dumps_trace(seq.swaps))
            (trace,) = traces
            digest = hashlib.sha256(trace.encode()).hexdigest()[:16]
            stretch = len(seq) / bound if bound else 0.0
            # Each finish wires two graphs, the route's and the target's.
            finishes = wirings // (2 * REPEATS)
            print(f"n={n} best_of_{REPEATS}_s={best:.3f} swaps={len(seq)} bound={bound:g} "
                  f"stretch={stretch:.2f} finishes={finishes} trace={digest}")


if __name__ == "__main__":
    main()
