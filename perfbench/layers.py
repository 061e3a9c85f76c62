"""Per-layer metrics read off a traced run.

Every metric is reported on every workload; a layer a workload never calls
reads 0 there, which is the guard reading the notes predict.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Tuple

from tracer import LAYERS, Tracer

# (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = [
    ("core.extract_jdm.calls", "count", "lower"),
    ("core.extract_jdm.self_s", "s", "lower"),
    ("core.apply_rso.calls", "count", "lower"),
    ("core.apply_rso.self_s", "s", "lower"),
    ("core.rewire.calls", "count", "lower"),
    ("core.rewire.self_s", "s", "lower"),
    ("core.fingerprint.self_s", "s", "lower"),
    ("graphic.check_graphical.self_s", "s", "lower"),
    ("graphic.initial_candidate.self_s", "s", "lower"),
    ("graphic.psi_descent_step.calls", "count", "lower"),
    ("graphic.psi_descent_step.self_s", "s", "lower"),
    ("balance.balance.self_s", "s", "lower"),
    ("balance.balance.swaps", "count", "lower"),
    ("balance.imbalance.calls", "count", "lower"),
    ("balance.imbalance.self_s", "s", "lower"),
    ("balance.class_averages.calls", "count", "lower"),
    ("balance.budget_ratio", "ratio", "lower"),
    ("transform.rso_path.calls", "count", "lower"),
    ("transform.rso_path.self_s", "s", "lower"),
    ("transform.rso_path.scaling_exp", "exponent", "lower"),
    ("transform.spectrum_align.self_s", "s", "lower"),
    ("transform.aux_bipartite.calls", "count", "lower"),
    ("transform.aux_bipartite.self_s", "s", "lower"),
    ("transform.lift_aux_swap.calls", "count", "lower"),
    ("transform.bipartite_swap_path.self_s", "s", "lower"),
    ("transform.replay.self_s", "s", "lower"),
    ("transform.swaps.balance", "count", "lower"),
    ("transform.swaps.align", "count", "lower"),
    ("transform.swaps.route", "count", "lower"),
    ("transform.swaps.unbalance", "count", "lower"),
    ("transform.path_stretch", "ratio", "lower"),
    ("sampler.step.rate", "1/s", "higher"),
    ("sampler.step.holds", "count", "lower"),
    ("sampler.step.rejects", "count", "lower"),
    ("sampler.accept_ratio", "ratio", "higher"),
    ("sampler.fiber_key.calls", "count", "lower"),
    ("sampler.fiber_key.self_s", "s", "lower"),
    ("sampler.build_model.self_s", "s", "lower"),
    ("sampler.embed_realization.self_s", "s", "lower"),
    ("sampler.autocorrelation.self_s", "s", "lower"),
    ("oracle.enumerate_realizations.self_s", "s", "lower"),
    ("oracle.enumerate_realizations.graphs", "count", "lower"),
    ("oracle.metagraph_connected.self_s", "s", "lower"),
    ("fileio.load_graph.self_s", "s", "lower"),
    ("fileio.save_graph.self_s", "s", "lower"),
    ("fileio.save_trace.self_s", "s", "lower"),
    ("fileio.bytes_written", "B", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.imbalance.calls", "count", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _size_of(args, result):
    return os.path.getsize(args[1])


# Values kept with spans: swap counts of the swap-producing calls, the
# realizations found, the bytes a save wrote, and for rso_path the swaps, the
# edge symmetric difference and m, which stretch and scaling need.
HOOKS = {
    "balance.balance": lambda args, res: len(res[1]),
    "transform.spectrum_align": lambda args, res: len(res[1]),
    "transform.rso_path": lambda args, res: (len(res), len(args[0].edge_set() ^ args[1].edge_set()), args[0].m),
    "oracle.enumerate_realizations": lambda args, res: len(res),
    "fileio.save_graph": _size_of,
    "fileio.save_trace": _size_of,
    "fileio.save_jdm": _size_of,
}


def slope(xs: List[float], ys: List[float]) -> float:
    """Least-squares slope of ys against xs; 0 without two distinct xs."""
    n = len(xs)
    if n < 2 or len(set(xs)) < 2:
        return 0.0
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def path_phases(tr: Tracer) -> Dict[str, float]:
    """Swaps per rso_path phase, stretch and scaling exponent, over all calls.

    Inside one rso_path span the first balance child balances the source,
    the second balances the target (its swaps are undone at the end), and the
    spectrum_align child aligns; the rest of the returned swaps are routing.
    """
    kids = tr.children()
    phases = {"balance": 0, "align": 0, "route": 0, "unbalance": 0}
    swaps = diff = 0
    xs, ys = [], []
    for i in range(tr.span_count()):
        if tr.span_name(i) != "transform.rso_path":
            continue
        total, sym, m = tr.values[i]
        bal = [c for c in kids[i] if tr.span_name(c) == "balance.balance"]
        align = sum(tr.values[c] for c in kids[i] if tr.span_name(c) == "transform.spectrum_align")
        first = tr.values[bal[0]] if bal else 0
        last = tr.values[bal[1]] if len(bal) > 1 else 0
        phases["balance"] += first
        phases["align"] += align
        phases["unbalance"] += last
        phases["route"] += total - first - align - last
        swaps += total
        diff += sym
        if m > 0:
            xs.append(math.log(m))
            ys.append(math.log(tr.end[i] - tr.start[i]))
    return {
        **{f"transform.swaps.{k}": v for k, v in phases.items()},
        "transform.path_stretch": swaps / (diff / 4) if diff else 0.0,
        "transform.rso_path.scaling_exp": slope(xs, ys),
    }


def per_layer(tr: Tracer, extra: Dict[str, float]) -> Dict[str, float]:
    """Every PER_LAYER metric; ``extra`` supplies those the trace cannot."""
    summary = tr.summary()
    out: Dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s") and span in summary:
            out[name] = summary[span][field]
        else:
            out[name] = 0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(row["self_s"] for span, row in summary.items() if span.split(".")[0] == layer)
    values = {}
    for i, v in tr.values.items():
        values.setdefault(tr.span_name(i), []).append(v)
    out["balance.balance.swaps"] = sum(values.get("balance.balance", []))
    out["oracle.enumerate_realizations.graphs"] = sum(values.get("oracle.enumerate_realizations", []))
    out["fileio.bytes_written"] = sum(sum(values.get(f"fileio.{f}", [])) for f in ("save_graph", "save_trace", "save_jdm"))
    out["cli.imbalance.calls"] = tr.via("cli", "imbalance")
    out.update(path_phases(tr))
    out.update(extra)
    return out
