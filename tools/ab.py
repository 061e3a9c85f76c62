"""Compare two revisions of this repository on one perfbench workload.

    python3 tools/ab.py BASE HEAD --workload path-large --pairs 10 --seconds 8

BASE and HEAD are git revisions of the repository the command runs in.  Each
is exported with ``git archive`` into its own directory, the two side by side
in one temporary directory, so both trees are built the same way (a tree
copied another way has read differently).  Pair k, for k = 1..N, runs the
unchanged ``perfbench/run.py --workload W --seed k --seconds S --trace 0``
once in each tree, base first in odd pairs and head first in even ones.

For each end-to-end metric it prints each side's median and quartiles, how
many pairs head read lower (a tie counts for neither side) and the exact
two-sided sign-test p-value over the pairs that are not tied; then each
side's failed and attempted requests over all pairs.  The first line says
whether bytecode writing is off: with ``PYTHONDONTWRITEBYTECODE`` set, every
``setup_s`` spawn compiles jdmkit from source.  With BASE equal to HEAD the
spread it prints is the noise floor of the machine it runs on.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("base", "head")


def git(*args) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def export(rev: str, dest: str) -> None:
    """Write the tree of rev into dest, as git archive holds it."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_side(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one perfbench run in tree, as a dict."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: perfbench in {tree} (seed {seed}) exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def sign_test(lower: int, higher: int) -> float:
    """Exact two-sided sign-test p-value for lower against higher untied pairs."""
    n = lower + higher
    tail = sum(math.comb(n, i) for i in range(min(lower, higher) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def spread(values) -> str:
    """'median [q1 q3]' of the values."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return f"{med:.6g} [{q1:.6g} {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)
    revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
            for side, rev in zip(SIDES, (args.base, args.head))}
    bytecode = "off" if sys.dont_write_bytecode or os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"base={revs['base'][:12]} head={revs['head'][:12]} workload={args.workload} "
          f"pairs={args.pairs} seconds={args.seconds:g} bytecode_writing={bytecode}", flush=True)
    root = tempfile.mkdtemp(prefix="ab-")
    try:
        trees = {side: os.path.join(root, side) for side in SIDES}
        for side in SIDES:
            export(revs[side], trees[side])
        rows = {side: [] for side in SIDES}
        for seed in range(1, args.pairs + 1):
            for side in SIDES if seed % 2 else SIDES[::-1]:
                rows[side].append(run_side(trees[side], args.workload, seed, args.seconds))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for name in rows["base"][0]["metrics"]:
        values = {side: [row["metrics"][name]["value"] for row in rows[side]] for side in SIDES}
        pairs = list(zip(values["base"], values["head"]))
        lower = sum(h < b for b, h in pairs)
        higher = sum(h > b for b, h in pairs)
        print(f"{name} base={spread(values['base'])} head={spread(values['head'])} "
              f"head_lower={lower}/{len(pairs)} ties={len(pairs) - lower - higher} "
              f"p={sign_test(lower, higher):.6g}")
    print(" ".join(f"{side}_failed={sum(r['failed'] for r in rows[side])}/"
                   f"{sum(r['attempted'] for r in rows[side])}" for side in SIDES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
