"""tools/ab.py on a throwaway repository whose perfbench/run.py is a fake
that prints fixed readings."""

import os
import subprocess
import sys

import pytest

AB = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "ab.py")

# Reads its tree's reading.txt and logs which tree ran which seed.
FAKE_RUN = """
import argparse, json, os, pathlib
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
args = p.parse_args()
root = pathlib.Path(__file__).resolve().parent.parent
side, round_s = (root / "reading.txt").read_text().split()
with open(os.environ["AB_LOG"], "a") as log:
    log.write(f"{side} {args.seed} {args.workload} {args.seconds} {args.trace}\\n")
seed = int(args.seed)
metrics = {"round_s": float(round_s) + seed / 100, "setup_s": 0.05, "peak_rss_mb": 20.0 + seed}
print(json.dumps({"detail": {}}))
print(json.dumps({"correct": True, "attempted": 3, "failed": int(side == "head"),
                  "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}))
"""


def commit(repo, reading):
    (repo / "reading.txt").write_text(reading)
    git = ["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@example.com"]
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", reading], check=True)
    return subprocess.run([*git, "rev-parse", "HEAD"], check=True, capture_output=True, text=True).stdout.strip()


def test_head_lower_in_every_pair(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(FAKE_RUN)
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    base, head = commit(repo, "base 1.0"), commit(repo, "head 0.9")
    log = tmp_path / "log.txt"
    env = dict(os.environ, AB_LOG=str(log))
    out = subprocess.run(
        [sys.executable, AB, base, head, "--workload", "w", "--pairs", "10", "--seconds", "0.5"],
        cwd=repo, env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[0].startswith(f"base={base[:12]} head={head[:12]} workload=w pairs=10 seconds=0.5 bytecode_writing=")
    rows = {line.split()[0]: dict(f.split("=", 1) for f in line.split()[1:] if "=" in f) for line in out[1:4]}
    # 10 of 10 lower: p = 2 * (1/2)^10.
    assert rows["round_s"]["head_lower"] == "10/10" and rows["round_s"]["ties"] == "0"
    assert float(rows["round_s"]["p"]) == pytest.approx(2 / 1024, rel=1e-5)
    assert out[1].startswith("round_s base=1.055 [1.0325 1.0775] head=0.955 [0.9325 0.9775] ")
    # Every pair tied: no pair is lower, and the test cannot reject.
    assert (rows["setup_s"]["head_lower"], rows["setup_s"]["ties"], rows["setup_s"]["p"]) == ("0/10", "10", "1")
    assert (rows["peak_rss_mb"]["head_lower"], rows["peak_rss_mb"]["ties"]) == ("0/10", "10")
    assert out[4:] == ["base_failed=0/30 head_failed=10/30"]
    # One seed per pair, base first in odd pairs; each tree is its revision.
    runs = [line.split() for line in log.read_text().splitlines()]
    expected = [[side, str(seed), "w", "0.5", "0"]
                for seed in range(1, 11) for side in (("base", "head") if seed % 2 else ("head", "base"))]
    assert runs == expected


@pytest.mark.parametrize("lower, higher, p", [(10, 0, 2 / 1024), (9, 1, 22 / 1024), (5, 5, 1.0), (0, 0, 1.0)])
def test_sign_test(lower, higher, p):
    import importlib.util

    spec = importlib.util.spec_from_file_location("ab", AB)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    assert ab.sign_test(lower, higher) == pytest.approx(p)
