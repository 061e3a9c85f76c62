"""The four closed-loop workloads: one client, each request waits for the last.

A workload is a sequence of rounds.  Round i's inputs depend only on the
workload name, the run seed and i, and are generated, written and checked
before the round's requests are timed.  ``jdm`` commands run in-process
through ``jdmkit.cli.run``; the audit loop calls the library.  Every request
is timed on its own, its outputs are checked by ``checks`` afterwards, and a
wrong or raising request is counted as failed without stopping the run.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import time
from typing import Callable, Dict, List, Optional, Tuple

import checks
import gen

# Input sizes.  Each workload's round_cost_s is its untraced seconds per
# round at the seed commit on a 2-core x86-64 VM under CPython 3.11; it only
# decides how many rounds a traced run does.
PATH_LADDER = (32, 45, 64)
AUDIT_SIZES = (5, 6, 7)
AUDIT_PAIRS = 20
SAMPLE_N = 200
SAMPLE_B_STEPS = 3000
SAMPLE_A_STEPS = 300_000
SAMPLE_A_THIN = 1000
CONSTRUCT_N = 400


class Tally:
    """Requests attempted and failed, timed seconds and named counters."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}

    def add_time(self, key: str, dt: float) -> None:
        self.seconds[key] = self.seconds.get(key, 0.0) + dt

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def request(self, kind: str, call: Callable[[], object], check: Callable[[object], Optional[str]]):
        """Time call(), then check its result; a raise or a bad result fails."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a crashing request is a failed request
            self.add_time(kind, time.perf_counter() - t0)
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.add_time(kind, time.perf_counter() - t0)
        try:
            err = check(result)
        except Exception as exc:  # unreadable output is a wrong output
            err = f"unreadable output: {type(exc).__name__}: {exc}"
        if err:
            self.fail(f"{kind}: {err}")
        return result

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)


def jdm(argv: List[str]) -> Tuple[int, str, str]:
    """Run one ``jdm`` command in-process; returns (exit code, stdout, stderr).

    The CLI is looked up on its module at each call so that a traced run's
    wrapper is the one called.
    """
    cli = importlib.import_module("jdmkit.cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _report(result) -> dict:
    rc, out, err = result
    if rc != 0:
        raise ValueError(f"exit code {rc}: {err.strip()}")
    return json.loads(out)


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path


def _round_rng(name: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{i}")


class Workload:
    name = ""
    why = ""
    round_cost_s = 1.0
    min_rounds = 1  # an untraced run does at least this many rounds

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def path(self, *parts) -> str:
        return os.path.join(self.workdir, *map(str, parts))

    def inputs(self, i: int) -> dict:
        raise NotImplementedError

    def warm_inputs(self) -> dict:
        """A round run untimed before measuring, through the same code."""
        raise NotImplementedError

    def setup_files(self, rnd: dict) -> List[Tuple[str, str]]:
        """(kind, path) of the input files a user's first command parses."""
        raise NotImplementedError

    def run_round(self, rnd: dict, tally: Tally) -> None:
        raise NotImplementedError

    def detail(self, tally: Tally, rounds: int) -> Dict[str, float]:
        """The workload's headline numbers by the names the notes use."""
        raise NotImplementedError

    def round_seconds(self, tally: Tally, rounds: int) -> float:
        """Mean request time per round; the end-to-end metric round_s."""
        return sum(tally.seconds.values()) / rounds

    def traced_rounds(self, seconds: float) -> int:
        """Rounds a traced run does twice, untraced then traced, in --seconds.

        Fixed by the seed commit's round cost, never by the clock, so every
        count in the trace repeats exactly from run to run.
        """
        return max(1, int(seconds / (2.2 * self.round_cost_s)))

    def layer_extra(self, rnd: dict, tally: Tally) -> Dict[str, float]:
        """Per-layer metrics a trace cannot give, measured after round rnd."""
        return {}


class PathLarge(Workload):
    """Round i is one rung, n = PATH_LADDER[i % len(PATH_LADDER)].

    A run may stop part way through the ladder, so round_s is the sum over
    rungs of each rung's mean time: the cost of one pass up the ladder.
    """

    name = "path-large"
    why = "few big balance and path calls on a ladder of G(n,8/n) graphs, where per-swap recomputation does the work"
    round_cost_s = 1.45
    min_rounds = len(PATH_LADDER)

    def _rung(self, rng: random.Random, n: int, tag: str) -> dict:
        g = gen.gnm(n, rng)
        h = gen.rso_walk(g, 20 * len(gen.edges(g)), rng)
        if not gen.same_problem(g, h):
            raise RuntimeError("generator broke the matrix or partition")
        return {
            "n": n, "g": g, "h": h,
            "gf": _write(self.path(f"g{tag}.txt"), gen.graph_text(g)),
            "hf": _write(self.path(f"h{tag}.txt"), gen.graph_text(h)),
        }

    def inputs(self, i):
        return self._rung(_round_rng(self.name, self.seed, i), PATH_LADDER[i % len(PATH_LADDER)], str(i))

    def warm_inputs(self):
        return self._rung(random.Random(0), 14, "warm")

    def setup_files(self, rnd):
        return [("graph", rnd["gf"]), ("graph", rnd["hf"])]

    def traced_rounds(self, seconds):
        passes = max(1, int(seconds / (2.2 * self.round_cost_s * len(PATH_LADDER))))
        return passes * len(PATH_LADDER)

    def run_round(self, r, tally):
        g, h, n = r["g"], r["h"], r["n"]
        bal, btr, trace = self.path("bal.txt"), self.path("bal-trace.txt"), self.path("path.txt")

        def check_balance(res):
            rep = _report(res)
            got = checks.parse_graph(_read(bal))
            if len(checks.parse_trace(_read(btr))) != rep["swaps"]:
                return "reported swaps differ from the trace"
            if gen.partition(got) != gen.partition(g) or gen.jdm_rows(got) != gen.jdm_rows(g):
                return "balanced graph changed the matrix or partition"
            tally.add("balance_swaps", rep["swaps"])
            tally.add("imbalance_before", sum(v for _, v in rep["imbalance_before"]))
            return checks.check_balanced(got) or checks.check_trace(g, got, _read(btr))

        tally.request(f"balance{n}", lambda: jdm(["balance", r["gf"], "--out", bal, "--trace", btr]), check_balance)

        def check_path(res):
            rep = _report(res)
            if rep["verified"] is not True:
                return "path not verified"
            text = _read(trace)
            if len(checks.parse_trace(text)) != rep["swap_count"]:
                return "reported swap count differs from the trace"
            tally.add(f"path_swaps{n}", rep["swap_count"])
            return checks.check_trace(g, h, text)

        tally.request(f"path{n}", lambda: jdm(["path", r["gf"], r["hf"], "--out", trace, "--verify"]), check_path)
        tally.add(f"rungs{n}", 1)

    def _per_pass(self, tally, kind: str, table: Dict[str, float]) -> float:
        return sum(table.get(f"{kind}{n}", 0) / tally.counts[f"rungs{n}"]
                   for n in PATH_LADDER if tally.counts.get(f"rungs{n}"))

    def round_seconds(self, tally, rounds):
        return self._per_pass(tally, "path", tally.seconds) + self._per_pass(tally, "balance", tally.seconds)

    def layer_extra(self, rnd, tally):
        before = tally.counts.get("imbalance_before", 0)
        return {"balance.budget_ratio": tally.counts.get("balance_swaps", 0) / before if before else 0.0}

    def detail(self, tally, rounds):
        return {
            "path_s": self._per_pass(tally, "path", tally.seconds),
            "balance_s": self._per_pass(tally, "balance", tally.seconds),
            "path_swaps": self._per_pass(tally, "path_swaps", tally.counts),
        }


class AuditSmall(Workload):
    name = "audit-small"
    why = "thousands of tiny enumerate and rso_path calls on 5-7 vertex matrices, where fixed per-call cost dominates"
    round_cost_s = 0.1

    def _matrix(self, rng: random.Random, adj: gen.Adj, tag: str) -> dict:
        rows = gen.jdm_rows(adj)
        return {"adj": adj, "rows": rows, "rng": rng,
                "mf": _write(self.path(f"matrix{tag}.txt"), gen.matrix_text(rows))}

    def inputs(self, i):
        rng = _round_rng(self.name, self.seed, i)
        while True:
            n = rng.choice(AUDIT_SIZES)
            adj = gen.by_degree(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
            if adj:
                return self._matrix(rng, adj, str(i))

    def warm_inputs(self):
        """The matrix with the most realizations on 7 vertices (810), so the
        process reaches its worst-case memory before measuring and peak RSS
        does not hinge on whether a run happens to draw it."""
        worst = {0: {1, 2}, 1: {0, 3, 4}, 2: {0, 5, 6}, 3: {1, 5, 6},
                 4: {1, 5, 6}, 5: {2, 3, 4}, 6: {2, 3, 4}}
        return self._matrix(random.Random(0), worst, "warm")

    def setup_files(self, rnd):
        return [("matrix", rnd["mf"])]

    def run_round(self, rnd, tally):
        core = importlib.import_module("jdmkit.core")
        oracle = importlib.import_module("jdmkit.oracle")
        transform = importlib.import_module("jdmkit.transform")
        j = core.Jdm(rnd["rows"])
        # Pairs are drawn from a copy of the round's generator, so a rerun of
        # the same round (traced after untraced) audits the same pairs.
        rng = random.Random()
        rng.setstate(rnd["rng"].getstate())
        tally.request(
            "metagraph",
            lambda: oracle.metagraph_connected(j, max_vertices=7),
            lambda rep: None if rep.connected else "metagraph is disconnected",
        )
        as_adj = lambda g: {v: set(g.neighbors(v)) for v in g.vertices}
        key = lambda g: tuple(sorted(g.edge_set()))

        def check_pool(pool):
            if not any(as_adj(g) == rnd["adj"] for g in pool):
                return "the generating graph is not among the realizations"
            if len({key(g) for g in pool}) != len(pool):
                return "duplicate realizations"
            return next(filter(None, (checks.check_realizes(as_adj(g), rnd["rows"]) for g in pool)), None)

        pool = tally.request("enumerate", lambda: oracle.enumerate_realizations(j, max_vertices=7), check_pool)
        if not pool or len(pool) < 2:
            return
        pool = sorted(pool, key=key)
        for _ in range(AUDIT_PAIRS):
            g, h = rng.sample(pool, 2)

            def pair():
                seq = transform.rso_path(g, h)
                return seq, seq.replay(g)

            def check_pair(res):
                seq, end = res
                if end != h:
                    return "replay did not land on the target"
                swaps = [(s.a, s.b, s.c, s.d, s.pivot_class) for s in seq.swaps]
                got, err = checks.replay(as_adj(g), swaps)
                return err or (None if got == as_adj(h) else "own replay missed the target")

            if tally.request("pair", pair, check_pair) is not None:
                tally.add("pairs", 1)

    def round_seconds(self, tally, rounds):
        """Seconds per AUDIT_PAIRS verified pairs, enumeration included.

        Per matrix would swing with the share of matrices that have a single
        realization (no pairs) or hundreds (slow enumeration)."""
        busy, pairs = sum(tally.seconds.values()), tally.counts.get("pairs", 0)
        return busy * AUDIT_PAIRS / pairs if pairs else busy

    def detail(self, tally, rounds):
        busy = sum(tally.seconds.values())
        return {"audit_pairs_per_s": tally.counts.get("pairs", 0) / busy if busy else 0.0}


class SampleChain(Workload):
    name = "sample-chain"
    why = "two jdm sample requests at n=200: chain b retaining every sample, chain a stepping with a large thin"
    round_cost_s = 3.0
    _problem_inputs: Optional[dict] = None  # one matrix and start graph per run

    def _problem(self, rng: random.Random, n: int) -> dict:
        g = gen.gnm(n, rng)
        rows = gen.jdm_rows(g)
        return {"g": g, "rows": rows,
                "gf": _write(self.path(f"start{n}.txt"), gen.graph_text(g)),
                "mf": _write(self.path(f"matrix{n}.txt"), gen.matrix_text(rows))}

    def _round(self, prob: dict, rng: random.Random, b_steps: int, a_steps: int) -> dict:
        return dict(prob, chain_seed=rng.randrange(2**31), b_steps=b_steps, a_steps=a_steps)

    def inputs(self, i):
        if self._problem_inputs is None:
            self._problem_inputs = self._problem(random.Random(f"{self.name}:{self.seed}"), SAMPLE_N)
        return self._round(self._problem_inputs, _round_rng(self.name, self.seed, i), SAMPLE_B_STEPS, SAMPLE_A_STEPS)

    def warm_inputs(self):
        return self._round(self._problem(random.Random(0), 20), random.Random(0), 200, 2000)

    def setup_files(self, rnd):
        return [("matrix", rnd["mf"]), ("graph", rnd["gf"])]

    def b_argv(self, rnd) -> List[str]:
        return ["sample", rnd["mf"], "--chain", "b", "--steps", str(rnd["b_steps"]), "--thin", "1",
                "--start", rnd["gf"], "--seed", str(rnd["chain_seed"]), "--save-last", self.path("last.txt")]

    def a_argv(self, rnd) -> List[str]:
        return ["sample", rnd["mf"], "--chain", "a", "--steps", str(rnd["a_steps"]),
                "--thin", str(SAMPLE_A_THIN), "--seed", str(rnd["chain_seed"])]

    def run_round(self, rnd, tally):
        g = rnd["g"]

        def check_b(res):
            rep = _report(res)
            if rep["retained_samples"] != rnd["b_steps"] or rep["simple_rate"] != 1.0:
                return "chain b retained the wrong count or left the simple states"
            last = checks.parse_graph(_read(self.path("last.txt")))
            if gen.partition(last) != gen.partition(g):
                return "last state has another partition"
            tally.add("steps", rnd["b_steps"])
            rnd["b_report"] = rep
            return checks.check_realizes(last, rnd["rows"])

        tally.request("sample_b", lambda: jdm(self.b_argv(rnd)), check_b)

        def check_a(res):
            rep = _report(res)
            if rep["retained_samples"] != rnd["a_steps"] // SAMPLE_A_THIN or rep["rejects"] != 0:
                return "chain a retained the wrong count or rejected a move"
            tally.add("steps", rnd["a_steps"])
            rnd["a_report"] = rep
            return None

        tally.request("sample_a", lambda: jdm(self.a_argv(rnd)), check_a)

    def layer_extra(self, rnd, tally):
        """Time ChainRunner.step with a direct loop on round rnd's model and seeds.

        The step is never wrapped: at ~200k calls a second a wrapper would
        cost more than the step.  The loops replay the two requests' chains
        exactly, so their hold and reject counters must match the reports.
        """
        core = importlib.import_module("jdmkit.core")
        sampler = importlib.import_module("jdmkit.sampler")
        g = core.LabeledGraph.from_edges(gen.edges(rnd["g"]))
        model = sampler.build_model(core.Jdm(rnd["rows"]), labels=sorted(g.vertices))
        identity = tuple(tuple(range(n)) for n in model.component_sizes())
        chain_a = sampler.ChainRunner(model, sampler.Configuration(model, identity), "a",
                                      random.Random(rnd["chain_seed"]))
        t0 = time.perf_counter()
        for _ in range(rnd["a_steps"]):
            chain_a.step()
        rate = rnd["a_steps"] / (time.perf_counter() - t0)
        chain_b = sampler.ChainRunner(model, sampler.embed_realization(g, model), "b",
                                      random.Random(rnd["chain_seed"]))
        for _ in range(rnd["b_steps"]):
            chain_b.step()
        for runner, key in ((chain_a, "a_report"), (chain_b, "b_report")):
            rep = rnd.get(key, {})
            if (runner.holds, runner.rejects) != (rep.get("holds"), rep.get("rejects")):
                tally.fail(f"direct chain {runner.kind} loop disagrees with its request's counters")
        proposed = chain_b.steps - chain_b.holds
        return {
            "sampler.step.rate": rate,
            "sampler.step.holds": chain_a.holds + chain_b.holds,
            "sampler.step.rejects": chain_b.rejects,
            "sampler.accept_ratio": (proposed - chain_b.rejects) / proposed if proposed else 0.0,
        }

    def detail(self, tally, rounds):
        busy = sum(tally.seconds.values())
        return {"sample_steps_per_s": tally.counts.get("steps", 0) / busy if busy else 0.0}


class ConstructLarge(Workload):
    name = "construct-large"
    why = "check, construct and extract of G(n,8/n) matrices at n=400, where psi descent does the work"
    round_cost_s = 4.0

    def _matrix(self, rng: random.Random, n: int, tag: str) -> dict:
        rows = gen.jdm_rows(gen.gnm(n, rng))
        return {"rows": rows, "mf": _write(self.path(f"matrix{tag}.txt"), gen.matrix_text(rows))}

    def inputs(self, i):
        return self._matrix(_round_rng(self.name, self.seed, i), CONSTRUCT_N, str(i))

    def warm_inputs(self):
        return self._matrix(random.Random(0), 20, "warm")

    def setup_files(self, rnd):
        return [("matrix", rnd["mf"])]

    def run_round(self, rnd, tally):
        out, ext = self.path("built.txt"), self.path("extracted.txt")

        def check_check(res):
            return None if _report(res)["graphical"] is True else "matrix reported not graphical"

        tally.request("check", lambda: jdm(["check", rnd["mf"]]), check_check)

        def check_construct(res):
            rep = _report(res)
            tally.add("descent_steps", rep["descent_steps"])
            return checks.check_realizes(checks.parse_graph(_read(out)), rnd["rows"])

        tally.request("construct", lambda: jdm(["construct", rnd["mf"], "--out", out]), check_construct)

        def check_extract(res):
            if res[0] != 0:
                return f"exit code {res[0]}: {res[2].strip()}"
            got = checks.parse_matrix(_read(ext))
            return None if checks.canonical_rows(got) == checks.canonical_rows(rnd["rows"]) else "extracted matrix differs"

        tally.request("extract", lambda: jdm(["extract", out, "--out", ext]), check_extract)

    def detail(self, tally, rounds):
        return {"construct_s": sum(tally.seconds.values()) / rounds,
                "descent_steps": tally.counts.get("descent_steps", 0) / rounds}


WORKLOADS = {w.name: w for w in (PathLarge, AuditSmall, SampleChain, ConstructLarge)}
