"""jdmkit benchmark: one closed-loop workload per run, one client.

    python3 perfbench/run.py --workload path-large --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` runs the same rounds untraced and then traced
and reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn and prints their lines.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (name, unit, better)
END_TO_END = [
    ("round_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Units of the detail line's headline numbers.
DETAIL_UNITS = {
    "path_s": "s", "balance_s": "s", "path_swaps": "count", "audit_pairs_per_s": "1/s",
    "sample_steps_per_s": "1/s", "construct_s": "s", "descent_steps": "count",
    "fail_rate": "ratio", "peak_rss_mb": "MB", "rounds": "count",
}

SETUP_REPEATS = 11
SETUP_CODE = """
import sys
import jdmkit.cli
from jdmkit import fileio
for kind, path in zip(sys.argv[1::2], sys.argv[2::2]):
    (fileio.load_graph if kind == "graph" else fileio.load_jdm)(path)
"""


def setup_seconds(files) -> tuple:
    """Median wall time of a fresh interpreter importing jdmkit.cli and
    parsing the files; the first spawn, which may compile bytecode, is not
    counted.  Returns (seconds, number of spawns that failed)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", SETUP_CODE] + [x for kf in files for x in kf]
    times, failed = [], 0
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        dt = time.perf_counter() - t0
        failed += proc.returncode != 0
        if i:
            times.append(dt)
    return statistics.median(times), failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(wl, seconds: float):
    from workloads import Tally

    wl.run_round(wl.warm_inputs(), Tally())
    first = wl.inputs(0)
    setup, setup_failed = setup_seconds(wl.setup_files(first))
    tally = Tally()
    tally.attempted += SETUP_REPEATS + 1
    tally.failed += setup_failed
    rounds, t0 = 0, time.perf_counter()
    rnd = first
    while True:
        wl.run_round(rnd, tally)
        rounds += 1
        if rounds >= wl.min_rounds and time.perf_counter() - t0 >= seconds:
            break
        rnd = wl.inputs(rounds)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"round_s": wl.round_seconds(tally, rounds), "setup_s": setup, "peak_rss_mb": rss}
    detail = dict(wl.detail(tally, rounds), rounds=rounds,
                  fail_rate=tally.failed / tally.attempted, peak_rss_mb=rss)
    return (tally, {n: metric(values[n], u) for n, u, _ in END_TO_END},
            {n: metric(v, DETAIL_UNITS[n]) for n, v in detail.items()})


def traced(wl, seconds: float):
    """The workload's traced rounds untraced, then the same rounds traced."""
    from layers import HOOKS, PER_LAYER, per_layer
    from tracer import Tracer
    from workloads import Tally

    wl.run_round(wl.warm_inputs(), Tally())
    rounds = [wl.inputs(i) for i in range(wl.traced_rounds(seconds))]
    plain_tally, tally = Tally(), Tally()
    t0 = time.perf_counter()
    for rnd in rounds:
        wl.run_round(rnd, plain_tally)
    plain = time.perf_counter() - t0
    tracer = Tracer(HOOKS)
    with tracer:
        t0 = time.perf_counter()
        for rnd in rounds:
            wl.run_round(rnd, tally)
        with_trace = time.perf_counter() - t0
    extra = {"trace.overhead_ratio": with_trace / plain}
    extra.update(wl.layer_extra(rounds[0], tally))
    values = per_layer(tracer, extra)
    tally.attempted += plain_tally.attempted
    tally.failed += plain_tally.failed
    tally.errors += plain_tally.errors
    return tally, {n: metric(values[n], u) for n, u, _ in PER_LAYER}


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        for line in proc.stdout.splitlines():
            print(f"{name}: {line}")
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jdmkit" / "cli.py").is_file():
        print(f"error: no jdmkit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            tally, metrics = traced(wl, args.seconds)
        else:
            tally, metrics, detail = untraced(wl, args.seconds)
            print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}, sort_keys=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still has its directory here
    for err in tally.errors:
        print(f"failure: {err}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
