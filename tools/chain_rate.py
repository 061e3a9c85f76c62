"""Time both sampling chains the way ``jdm sample`` runs them.

For each n in 200 and 500, takes the joint degree matrix of a G(n, 8/n) graph
drawn with ``tools/construct_scaling.py``'s ``sparse_gnm`` under
``random.Random(7)`` (m = 4(n - 1) edges).  For chain a, from the identity
configuration, and chain b, from the realization ``construct_realization``
builds, and for a thin of m - 1 and of m (chain a tracks its multigraph in
batches shorter than m and leaves it stale in longer ones), it runs samples
as ``jdm sample`` does: ``advance(thin)``, then ``is_simple()`` and the check
against the start's multigraph.  It prints the best-of-3 steps per second,
the number of ``ChainRunner._recount`` calls in one run (the constructor's
included), and a digest of the stdout of the matching ``jdm sample`` run
(same steps, thin and seed ``--seed 1``):

    PYTHONPATH=src python3 tools/chain_rate.py

Run it once per tree to compare two trees: equal digests mean the same
samples were drawn.  Takes about 5 s on one core.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import tempfile
import time
from unittest import mock

# Run as a script, this file's directory leads sys.path.
from construct_scaling import sparse_gnm

from jdmkit import cli, sampler
from jdmkit.core import extract_jdm
from jdmkit.fileio import save_jdm
from jdmkit.graphic import construct_realization

SIZES = (200, 500)
SAMPLES = 100
REPEATS = 3


def run_chain(model, start, kind, thin, seed):
    """SAMPLES samples of thin steps each, checked as jdm sample checks them."""
    runner = sampler.ChainRunner(model, start, kind, random.Random(seed))
    start_counts = dict(runner.fiber_key())
    # A jdmkit without same_multigraph compares the maps, as its jdm sample did.
    same = getattr(runner, "same_multigraph", lambda counts: counts == runner.pair_counts)
    for _ in range(SAMPLES):
        runner.advance(thin)
        runner.is_simple()
        same(start_counts)


def main() -> None:
    recounts = 0
    recount = sampler.ChainRunner._recount

    def counted(runner):
        nonlocal recounts
        recounts += 1
        recount(runner)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(sampler.ChainRunner, "_recount", counted):
        for n in SIZES:
            j = extract_jdm(sparse_gnm(n, random.Random(7)))
            matrix = os.path.join(tmp, f"m{n}.txt")
            save_jdm(j, matrix)
            model = sampler.build_model(j)
            starts = {
                "a": sampler.Configuration(model, tuple(tuple(range(k)) for k in model.component_sizes())),
                "b": sampler.embed_realization(construct_realization(j), model),
            }
            # Each edge label has two points, each a pair of its component.
            m = sum(model.component_sizes()) // 2
            for kind, start in starts.items():
                for thin in (m - 1, m):
                    best = float("inf")
                    for _ in range(REPEATS):
                        recounts = 0
                        t0 = time.perf_counter()
                        run_chain(model, start, kind, thin, 1)
                        best = min(best, time.perf_counter() - t0)
                    run_recounts = recounts
                    out = io.StringIO()
                    argv = ["sample", matrix, "--chain", kind, "--steps", str(SAMPLES * thin),
                            "--thin", str(thin), "--seed", "1"]
                    with contextlib.redirect_stdout(out):
                        cli.run(argv)
                    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
                    print(f"n={n} m={m} chain={kind} thin={thin} "
                          f"steps_per_s={SAMPLES * thin / best:.0f} recounts={run_recounts} stdout={digest}")


if __name__ == "__main__":
    main()
