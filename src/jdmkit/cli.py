"""Command-line interface.

Exit codes: 0 on success, 1 on a domain failure (matrix not graphical, no
realization, invalid swap, mismatched endpoints), 2 on I/O or parse errors.
All JSON output is deterministic: sorted keys, two-space indent, trailing
newline, and a schema_version field.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Optional, Sequence

from .balance import balance, imbalance
from .core import GraphError, extract_jdm
from .fileio import (
    FileFormatError,
    dumps_jdm,
    load_graph,
    load_jdm,
    save_graph,
    save_jdm,
    save_trace,
)
from . import graphic, oracle, sampler, transform

SCHEMA_VERSION = 1


def _emit(payload: dict, out: Optional[str]) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _fiber_str(key) -> str:
    return ";".join(f"{u}-{v}x{mult}" for (u, v), mult in key)


def _cmd_check(args) -> int:
    report = graphic.check_graphical(load_jdm(args.matrix))
    payload = {
        "graphical": report.verdict,
        "class_count": len(report.counts),
        "vertex_counts": [str(c) for c in report.counts],
        "violations": [
            {"condition": v.condition, "classes": list(v.classes), "detail": v.detail}
            for v in report.violations
        ],
    }
    _emit(payload, args.out)
    return 0 if report.verdict else 1


def _cmd_construct(args) -> int:
    state = graphic.initial_candidate(load_jdm(args.matrix))
    initial_psi = state.psi
    g = graphic._descend(state)
    save_graph(g, args.out)
    payload = {
        "vertices": g.n,
        "edges": g.m,
        "initial_psi": initial_psi,
        # Every descent step drops psi by exactly 2.
        "descent_steps": initial_psi // 2,
        "out": args.out,
    }
    _emit(payload, None)
    return 0


def _cmd_extract(args) -> int:
    j = extract_jdm(load_graph(args.graph))
    if args.out:
        save_jdm(j, args.out)
    else:
        sys.stdout.write(dumps_jdm(j))
    return 0


def _cmd_balance(args) -> int:
    g = load_graph(args.graph)
    before = [[j, imbalance(g, j)] for j in range(1, g.delta + 1)]
    h, swaps = balance(g)
    after = [[j, imbalance(h, j)] for j in range(1, h.delta + 1)]
    save_graph(h, args.out)
    if args.trace:
        save_trace(swaps, args.trace)
    payload = {
        "swaps": len(swaps),
        "imbalance_before": before,
        "imbalance_after": after,
        "out": args.out,
    }
    _emit(payload, None)
    return 0


def _cmd_path(args) -> int:
    g = load_graph(args.source)
    h = load_graph(args.target)
    seq = transform.rso_path(g, h)
    verified = False
    if args.verify:
        final = seq.replay(g)
        if final != h:
            raise GraphError("replay did not reproduce the target")
        verified = True
    save_trace(seq.swaps, args.out)
    payload = {
        "swap_count": len(seq),
        "source_fingerprint": seq.source_fingerprint,
        "target_fingerprint": seq.target_fingerprint,
        "verified": verified,
        "out": args.out,
    }
    _emit(payload, None)
    return 0


def _cmd_enumerate(args) -> int:
    j = load_jdm(args.matrix)
    space = oracle.enumerate_realizations(
        j, first_only=args.first_only, max_vertices=args.max_vertices
    )
    if args.witness and space:
        save_graph(space[0], args.witness)
    payload = {
        "count": len(space),
        "first_only": args.first_only,
    }
    _emit(payload, args.out)
    return 0 if space else 1


def _cmd_census(args) -> int:
    census = oracle.enumerate_configurations(
        load_jdm(args.matrix), max_configurations=args.max_configurations
    )
    fibers = [
        {
            "multigraph": _fiber_str(key),
            "count": count,
            "simple": key in census.simple_keys,
        }
        for key, count in sorted(census.fibers.items())
    ]
    payload = {
        "total": census.total,
        "fiber_sizes": list(census.fiber_sizes()),
        "simple_fibers": len(census.simple_keys),
        "fibers": fibers,
    }
    _emit(payload, args.out)
    return 0


def _cmd_sample(args) -> int:
    if args.seed is None and not args.entropy:
        raise GraphError("randomized command: pass --seed N or opt in with --entropy")
    if args.steps < 0 or args.burnin < 0 or args.thin < 1 or args.max_lag < 0:
        raise GraphError("need steps >= 0, burnin >= 0, thin >= 1, max-lag >= 0")
    rng = random.Random(args.seed) if args.seed is not None else random.Random()
    j = load_jdm(args.matrix)
    if args.start and args.chain == "direct":
        raise GraphError("--start only applies to chain a or b")
    if args.save_last and args.chain == "direct":
        raise GraphError("--save-last only applies to chain a or b")
    if (args.burnin, args.thin) != (0, 1) and args.chain == "direct":
        raise GraphError("--burnin and --thin only apply to chain a or b")
    if args.start:
        # The model takes the start graph's own classes, whatever its labels.
        start_graph = load_graph(args.start)
        if extract_jdm(start_graph) != j:
            raise GraphError("graph and model matrices differ")
        model = sampler._build_model(j, start_graph.classes())
    else:
        model = sampler.build_model(j)
    payload: dict = {
        "chain": args.chain,
        "steps": args.steps,
        "burnin": args.burnin,
        "thin": args.thin,
        "seed": args.seed,
    }
    if args.chain == "direct":
        fibers: dict = {}
        simple = 0
        for _ in range(args.steps):
            mg = sampler.to_multigraph(sampler.uniform_configuration(model, rng))
            simple += mg.is_simple
            key = mg.fiber_key()
            fibers[key] = fibers.get(key, 0) + 1
        top = sorted(fibers.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
        payload.update(
            {
                "draws": args.steps,
                "simple_rate": simple / args.steps if args.steps else None,
                "distinct_multigraphs": len(fibers),
                "top_multigraphs": [
                    {"multigraph": _fiber_str(k), "count": n} for k, n in top
                ],
            }
        )
        _emit(payload, args.out)
        return 0
    if args.start:
        start = sampler.embed_realization(start_graph, model)
    elif args.chain == "b":
        start = sampler.embed_realization(graphic.construct_realization(j), model)
    else:
        start = sampler.Configuration(model, tuple(tuple(range(n)) for n in model.component_sizes()))
    runner = sampler.ChainRunner(model, start, args.chain, rng)
    # pair_counts never holds a zero, so map equality is fiber-key equality.
    start_counts = dict(runner.fiber_key())
    series = []
    simple_samples = 0
    # Samples are retained after steps burnin + 1, burnin + 1 + thin, ...
    for taken in range(args.burnin + 1, args.steps + 1, args.thin):
        runner.advance(taken - runner.steps)
        simple_samples += runner.is_simple()
        series.append(1.0 if runner.same_multigraph(start_counts) else 0.0)
    runner.advance(args.steps - runner.steps)
    retained = len(series)
    payload.update(
        {
            "holds": runner.holds,
            "rejects": runner.rejects,
            "retained_samples": retained,
            "simple_rate": simple_samples / retained if retained else None,
        }
    )
    max_lag = min(args.max_lag, retained - 1)
    if max_lag >= 1:
        ac = sampler.autocorrelation(series, max_lag)
        payload["autocorrelation"] = {
            "max_lag": max_lag,
            "integrated_time": ac.integrated_time,
            "rho": list(ac.rho),
        }
    if args.save_last:
        mg = runner.multigraph()
        if not mg.is_simple:
            raise GraphError("final state is not simple; nothing to save")
        save_graph(mg.as_labeled_graph(), args.save_last)
        payload["saved_last"] = args.save_last
    _emit(payload, args.out)
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser unchanged, and
    # argparse looks sys.stderr up when it prints.
    parser = argparse.ArgumentParser(
        prog="jdm",
        description="Joint degree matrix toolkit: test, build, and sample realizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test a matrix for realizability")
    p.add_argument("matrix")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct", help="build one realization of a matrix")
    p.add_argument("matrix")
    p.add_argument("--out", required=True, help="graph file to write")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("extract", help="read the matrix off a graph")
    p.add_argument("graph")
    p.add_argument("--out", help="matrix file to write (default: stdout)")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("balance", help="equalize spectra within every class")
    p.add_argument("graph")
    p.add_argument("--out", required=True, help="graph file to write")
    p.add_argument("--trace", help="swap trace file to write")
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("path", help="swap sequence from one realization to another")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--out", required=True, help="trace file to write")
    p.add_argument(
        "--verify", action="store_true", help="replay the trace before writing"
    )
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("enumerate", help="count all realizations of a small matrix")
    p.add_argument("matrix")
    p.add_argument("--first-only", action="store_true", help="stop at the first")
    p.add_argument("--max-vertices", type=int, default=12)
    p.add_argument("--witness", help="save the first realization here")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("census", help="sweep every configuration of a small matrix")
    p.add_argument("matrix")
    p.add_argument("--max-configurations", type=int, default=10_000_000)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("sample", help="draw configurations or run a swap chain")
    p.add_argument("matrix")
    p.add_argument("--chain", choices=["a", "b", "direct"], required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--burnin", type=int, default=0)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--entropy",
        action="store_true",
        help="allow an OS-entropy run without --seed (not reproducible)",
    )
    p.add_argument("--start", help="start the chain from this realization")
    p.add_argument("--max-lag", type=int, default=100)
    p.add_argument("--save-last", help="save the final state as a graph file")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_sample)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input too large: recursion limit reached", file=sys.stderr)
        return 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
