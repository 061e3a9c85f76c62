"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402


def _input_bytes(tmp_path, name, seed, sub):
    wl = WORKLOADS[name](seed, str(tmp_path / sub))
    os.makedirs(wl.workdir)
    wl.inputs(0)
    return {p: (tmp_path / sub / p).read_bytes() for p in sorted(os.listdir(wl.workdir))}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_gives_the_same_inputs(tmp_path, name):
    first = _input_bytes(tmp_path, name, 7, "a")
    assert first
    assert _input_bytes(tmp_path, name, 7, "b") == first
    assert _input_bytes(tmp_path, name, 8, "c") != first


def test_walk_keeps_matrix_and_partition():
    rng = random.Random(3)
    g = gen.gnm(40, rng)
    h = gen.rso_walk(g, 20 * len(gen.edges(g)), rng)
    assert gen.same_problem(g, h)
    assert gen.edges(g) != gen.edges(h)


def _bindings():
    """Every attribute of every jdmkit module plus the wrapped methods."""
    names = ["jdmkit"] + [f"jdmkit.{m}" for m in tracer.LAYERS]
    snap = {}
    for name in names:
        mod = importlib.import_module(name)
        for attr, obj in vars(mod).items():
            snap[(name, attr)] = obj
    for layer, cls_name, meth in tracer.METHODS:
        cls = getattr(importlib.import_module(f"jdmkit.{layer}"), cls_name)
        snap[(cls_name, meth)] = cls.__dict__[meth]
    return snap


def test_traced_round_restores_every_wrapper(tmp_path):
    before = _bindings()
    tr = tracer.Tracer(layers.HOOKS)
    with tr:
        assert _bindings() != before
        for name in sorted(WORKLOADS):
            wl = WORKLOADS[name](1, str(tmp_path))
            tally = Tally()
            wl.run_round(wl.warm_inputs(), tally)
            assert tally.failed == 0, tally.errors
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    summary = tr.summary()
    for span in ("cli.run", "core.rewire", "transform.rso_path", "transform.replay",
                 "sampler.fiber_key", "graphic.psi_descent_step", "oracle.enumerate_realizations"):
        assert summary[span]["calls"] > 0, span
    assert tr.via("cli", "imbalance") > 0
    assert layers.per_layer(tr, {}).keys() >= {n for n, _, _ in layers.PER_LAYER} - {"trace.overhead_ratio"}


def test_wrappers_restored_when_a_call_raises():
    before = _bindings()
    core = importlib.import_module("jdmkit.core")
    with pytest.raises(core.GraphError):
        with tracer.Tracer():
            core.LabeledGraph([(0, 0)], {0: 1})
            core.Jdm([[1, 2], [3, 4]])
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_self_time_on_a_synthetic_span_tree():
    # root [0,10] has children [1,4] and [5,8]; [1,4] has child [2,3].
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 8.0]
    parent = [-1, 0, 1, 0]
    assert tracer.self_times(start, end, parent) == [4.0, 2.0, 1.0, 3.0]
    # Overlapping children are merged, and a child is clipped to its parent.
    assert tracer.self_times([0.0, 1.0, 2.0], [4.0, 3.0, 6.0], [-1, 0, 0]) == [1.0, 2.0, 4.0]


def test_slope_recovers_a_power_law():
    xs = [1.0, 2.0, 3.0]
    assert layers.slope(xs, [2 * x + 1 for x in xs]) == pytest.approx(2.0)
    assert layers.slope([1.0, 1.0], [0.0, 1.0]) == 0.0


def _path_trace():
    transform = importlib.import_module("jdmkit.transform")
    core = importlib.import_module("jdmkit.core")
    rng = random.Random(5)
    g = gen.gnm(16, rng)
    h = gen.rso_walk(g, 20 * len(gen.edges(g)), rng)
    seq = transform.rso_path(core.LabeledGraph.from_edges(gen.edges(g)),
                             core.LabeledGraph.from_edges(gen.edges(h)))
    return g, h, "".join(f"{s}\n" for s in seq.swaps)


def test_trace_check_rejects_one_corrupted_swap():
    g, h, text = _path_trace()
    assert checks.check_trace(g, h, text) is None
    lines = text.splitlines()
    for k in range(len(lines)):
        a, b, c, d, p = lines[k].split()
        bad = lines[:k] + [f"{a} {b} {d} {c} {p}"] + lines[k + 1:]
        assert checks.check_trace(g, h, "\n".join(bad)) is not None


def test_corrupted_path_trace_counts_as_one_failed_request(tmp_path, monkeypatch):
    real = workloads.jdm

    def corrupting(argv):
        res = real(argv)
        if argv[0] == "path":
            out = argv[argv.index("--out") + 1]
            lines = Path(out).read_text().splitlines()
            a, b, c, d, p = lines[0].split()
            lines[0] = f"{a} {b} {c} {d} {int(p) + 1}"
            Path(out).write_text("\n".join(lines) + "\n")
        return res

    monkeypatch.setattr(workloads, "jdm", corrupting)
    wl = WORKLOADS["path-large"](1, str(tmp_path))
    tally = Tally()
    wl.run_round(wl.warm_inputs(), tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "path" in tally.errors[0]


def test_balance_check_rejects_an_unbalanced_graph():
    path = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
    assert checks.check_balanced(path) is None
    # Class 2 is {2, 3, 4, 5}: vertex 2 holds both leaves, the triangle none,
    # so 2 class-1 neighbours sits above the ceiling of the mean 1/2.
    cherry_and_triangle = {0: {2}, 1: {2}, 2: {0, 1}, 3: {4, 5}, 4: {3, 5}, 5: {3, 4}}
    assert checks.check_balanced(cherry_and_triangle) is not None


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "path-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
