"""Span and count wrappers installed around jdmkit's public functions.

The benchmark never edits jdmkit.  A traced run replaces, for its duration,
every binding of a public jdmkit function in every jdmkit module namespace
(``jdmkit.core.apply_rso``, ``jdmkit.balance.apply_rso``,
``jdmkit.transform.apply_rso``, ...) and four methods on their classes with
wrappers that record a span per call.  Spans are kept in memory with the
index of their parent span; a layer's self time is its span minus the part
covered by its children.  ``ChainRunner.step`` is deliberately left alone:
it runs about 200k times a second, so the benchmark times it with a direct
loop instead.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAYERS = ("core", "graphic", "balance", "transform", "sampler", "oracle", "fileio", "cli")

# (layer, class, method) wrapped on the class itself; the span is layer.method.
METHODS = (
    ("core", "LabeledGraph", "rewire"),
    ("core", "LabeledGraph", "fingerprint"),
    ("transform", "SwapSequence", "replay"),
    ("sampler", "ChainRunner", "fiber_key"),
)


class Tracer:
    """In-memory span store plus the wrappers that feed it.

    Each span stores its name index, start, end and parent index (-1 at the
    top).  ``calls_via`` counts calls per (namespace, name) binding, so a call
    made through ``jdmkit.cli.imbalance`` can be told from one made through
    ``jdmkit.transform.imbalance``.  ``hooks`` maps a span name to a function
    ``(args, result) -> value`` whose value is kept with the span.
    """

    def __init__(self, hooks: Optional[Dict[str, Callable]] = None):
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.values: Dict[int, object] = {}
        self.calls_via: Dict[Tuple[str, str], int] = {}
        self.hooks = hooks or {}
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, span: str, fn: Callable, via: Tuple[str, str]) -> Callable:
        idx = self._name_index.setdefault(span, len(self.names))
        if idx == len(self.names):
            self.names.append(span)
        hook = self.hooks.get(span)
        stack = self._stack
        clock = time.perf_counter
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        calls_via = self.calls_via
        calls_via.setdefault(via, 0)

        def wrapper(*args, **kwargs):
            calls_via[via] += 1
            me = len(start)
            name_of.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(me)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[me] = clock()
                stack.pop()
            if hook is not None:
                self.values[me] = hook(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every public function and the listed methods.

        A module's public functions are those in its ``__all__`` that it
        defines itself; ``jdmkit.cli`` has no ``__all__`` and its entry point
        is ``run``.
        """
        modules = {name: importlib.import_module(f"jdmkit.{name}") for name in LAYERS}
        spans = {}  # id(function) -> (span name, function)
        for layer, mod in modules.items():
            for name in getattr(mod, "__all__", ("run",)):
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    spans[id(obj)] = (f"{layer}.{name}", obj)
        namespaces = dict(modules, jdmkit=importlib.import_module("jdmkit"))
        try:
            for ns_name, ns in namespaces.items():
                for attr, obj in list(vars(ns).items()):
                    span, fn = spans.get(id(obj), ("", None))
                    if fn is not None and fn is obj:
                        self._saved.append((ns, attr, obj))
                        setattr(ns, attr, self._wrap(span, obj, (ns_name, attr)))
            for layer, cls_name, meth in METHODS:
                cls = getattr(modules[layer], cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"{layer}.{meth}", orig, (cls_name, meth)))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original binding back, newest first."""
        while self._saved:
            ns, attr, obj = self._saved.pop()
            setattr(ns, attr, obj)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis --------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def span_name(self, i: int) -> str:
        return self.names[self.name_of[i]]

    def children(self) -> List[List[int]]:
        return children(self.parent)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        selfs = self_times(self.start, self.end, self.parent)
        out: Dict[str, Dict[str, float]] = {}
        for i in range(len(self.start)):
            row = out.setdefault(self.span_name(i), {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += selfs[i]
        return out

    def via(self, namespace: str, name: str) -> int:
        return self.calls_via.get((namespace, name), 0)


def children(parent: Sequence[int]) -> List[List[int]]:
    """Child span indices of every span, in index order."""
    kids: List[List[int]] = [[] for _ in range(len(parent))]
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    return kids


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children of one parent may in principle overlap, so their intervals are
    merged, and clipped to the parent, before being subtracted.
    """
    kids = children(parent)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(kids[i], key=lambda c: start[c]):
            a, b = max(start[c], lo), min(end[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out
