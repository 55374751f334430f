"""Spans around the calls into each dynachrome module, recorded from outside.

``Tracer.install`` rebinds every function named in a module's ``__all__``
(plus ``cli.main``) to a wrapper, in every ``dynachrome.*`` namespace that
holds it, because ``cli`` and ``constructions`` import some functions by
name.  Each wrapper appends one span: name, module, start, end, parent
span, instance id, whether it is the outermost span of its module on the
stack, and the work counts read off the call's arguments, result or
exception.  Spans stay in memory; ``write_spans`` dumps them as JSON lines.

``layer_metrics`` folds a list of spans into ``<module>.<metric>`` values.
A span's self time is its duration minus the durations of its direct
children.  Work counted by a callee as well as its caller (nodes, edges
built, violations, bytes, trials) is taken from outermost spans only;
``*_per_s`` rates divide a count by the module's busy time, the summed
duration of its outermost spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

LAYERS = ("graphs", "verify", "exact", "lll", "constructions", "experiments", "formats", "cli")

# Items each verify checker walks itself: edges, vertices or hyperedges.
_VERIFY_ITEMS = {
    "check_proper": lambda a: a[0].edge_count,
    "check_dynamic": lambda a: a[0].n,
    "check_domination": lambda a: a[0].n,
    "check_list_respecting": lambda a: a[0].n,
    "check_hypergraph_2coloring": lambda a: a[0].edge_count,
}


@dataclass
class Span:
    name: str
    module: str
    start: float
    end: float
    parent: int                 # index into the span list, -1 at the top
    instance: Optional[int]
    outer: bool                 # no enclosing span of the same module
    counts: dict


def _counts(module: str, name: str, args, result, exc) -> dict:
    """Work done by one call, read off its arguments, result or exception."""
    if module == "graphs":
        built = result[0] if isinstance(result, tuple) else result
        return {"edges_built": getattr(built, "edge_count", 0)}
    if module == "verify":
        items = _VERIFY_ITEMS.get(name)
        return {
            "items_checked": items(args) if items else 0,
            "violations": len(result) if items and isinstance(result, list) else 0,
        }
    if module == "exact":
        if name == "greedy_coloring":
            return {}
        if exc is not None:
            nodes = getattr(exc, "nodes_explored", None)
            return {"nodes": nodes or 0, "exhausted": int(nodes is not None)}
        exhausted = bool(getattr(result, "exhausted", False))
        return {
            "nodes": getattr(result, "nodes_explored", 0),
            "exhausted": int(exhausted),
            "decided": int(not exhausted),
        }
    if module == "lll":
        log = result[1] if isinstance(result, tuple) and len(result) == 2 else None
        if log is None or not hasattr(log, "resample_count"):
            return {}
        return {"resamples": log.resample_count, "exhausted": int(not log.success)}
    if module == "experiments":
        return {"trials": len(getattr(result, "trials", ()))}
    if module == "formats" and name.startswith("read_") and args and isinstance(args[0], str):
        return {"bytes_parsed": len(args[0].encode())}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.instance: Optional[int] = None
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, module: str, name: str, fn):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(f"{module}.{name}", module, clock(), 0.0,
                        stack[-1] if stack else -1, self.instance,
                        depth.get(module, 0) == 0, {})
            stack.append(len(spans))
            spans.append(span)
            depth[module] = depth.get(module, 0) + 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.counts = _counts(module, name, args, None, exc)
                raise
            finally:
                span.end = clock()
                stack.pop()
                depth[module] -= 1
            span.counts = _counts(module, name, args, result, None)
            return result

        return traced

    def install(self) -> None:
        """Rebind the public functions of every layer module, everywhere."""
        namespaces = [m for k, m in sys.modules.items()
                      if m is not None and (k == "dynachrome" or k.startswith("dynachrome."))]
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"dynachrome.{layer}"]
            names = list(getattr(mod, "__all__", ())) + (["main"] if layer == "cli" else [])
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn):
                    originals[id(fn)] = (fn, self.wrap(layer, name, fn))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, originals[id(value)][1])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def write_spans(path: Path, passes: list[list[Span]]) -> None:
    """One JSON line per span, tagged with the traced pass it came from."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for i, spans in enumerate(passes):
            for s in spans:
                fh.write(json.dumps({"pass": i, **s.__dict__}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


_OUTER_COUNTS = {
    "graphs": ("edges_built",),
    "verify": ("violations",),
    "exact": ("nodes", "exhausted", "decided"),
    "experiments": ("trials",),
    "formats": ("bytes_parsed",),
}
_RATES = {
    "graphs": ("edges_built", "edges_per_s"),
    "verify": ("items_checked", "items_per_s"),
    "exact": ("nodes", "nodes_per_s"),
    "lll": ("resamples", "resamples_per_s"),
    "experiments": ("trials", "trials_per_s"),
    "formats": ("bytes_parsed", "bytes_per_s"),
}
COUNTERS = {
    "graphs": ("edges_built",),
    "verify": ("items_checked", "violations"),
    "exact": ("nodes", "exhausted"),
    "lll": ("resamples", "exhausted"),
    "constructions": (),
    "experiments": ("trials",),
    "formats": ("bytes_parsed",),
    "cli": (),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """``<module>.self_s``, ``.calls``, the counters and the rates."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        own = [(s, t) for s, t in zip(spans, selfs) if s.module == layer]
        out[f"{layer}.self_s"] = sum(t for _, t in own)
        out[f"{layer}.calls"] = len(own)
        busy = sum(s.end - s.start for s, _ in own if s.outer)
        totals: dict[str, int] = {}
        for s, _ in own:
            for key, value in s.counts.items():
                if s.outer or key not in _OUTER_COUNTS.get(layer, ()):
                    totals[key] = totals.get(key, 0) + value
        for key in COUNTERS[layer]:
            out[f"{layer}.{key}"] = totals.get(key, 0)
        if layer in _RATES:
            count, rate = _RATES[layer]
            out[f"{layer}.{rate}"] = totals.get(count, 0) / busy if busy > 0 else 0.0
        if layer == "exact":
            solves = totals.get("decided", 0) + totals.get("exhausted", 0)
            out["exact.decided_ratio"] = totals.get("decided", 0) / solves if solves else 0.0
    return out
