"""Time ``construct_realization`` on sparse random matrices of growing size.

For each n in 1000, 2000, 4000 and 10 000, draws a G(n, 8/n) graph as
4(n - 1) distinct uniform vertex pairs by rejection under ``random.Random(7)``
(no list of all n²/2 pairs), takes its joint degree matrix, and prints the
best-of-3 wall time of ``construct_realization`` on it and the fingerprint of
the graph it builds:

    PYTHONPATH=src python3 tools/construct_scaling.py

Run it once per tree to compare two trees: equal fingerprints mean the same
graphs were built.  Takes up to ~20 s on one core, most of it the largest n.
"""

from __future__ import annotations

import random
import time

from jdmkit.core import LabeledGraph, extract_jdm
from jdmkit.graphic import construct_realization

SIZES = (1000, 2000, 4000, 10_000)
REPEATS = 3


def sparse_gnm(n: int, rng: random.Random) -> LabeledGraph:
    """4(n - 1) distinct uniform pairs of 0..n-1, drawn by rejection."""
    pairs = set()
    while len(pairs) < 4 * (n - 1):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return LabeledGraph.from_edges(sorted(pairs))


def main() -> None:
    for n in SIZES:
        j = extract_jdm(sparse_gnm(n, random.Random(7)))
        best, fingerprints = float("inf"), set()
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            g = construct_realization(j)
            best = min(best, time.perf_counter() - t0)
            fingerprints.add(g.fingerprint())
        (fp,) = fingerprints
        print(f"n={n} best_of_{REPEATS}_s={best:.3f} fingerprint={fp}")


if __name__ == "__main__":
    main()
