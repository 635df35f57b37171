"""Spans around the program's layer boundaries, recorded from outside.

:class:`Tracer` wraps public calls of each layer at runtime (module
functions, class methods, and the algorithm registry's callables) and
keeps one span per call in memory: name, request id, start, end, the
enclosing span, and a few counts taken where the work happens.  A
layer's *self* time is its span minus the spans directly inside it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import statistics
from time import perf_counter


def _size(args, result):
    return {"n": len(result)}


def _instance_size(args, result):
    return {"requests": len(result[1])}


def _moves(args, result):
    return {"moves": result.stats.forwards + result.stats.stores}


def _admit_rows(args, result):
    return {"rows": len(args[0])}


def _cache_hit(args, result):
    return {"hit": int(result is not None)}


def _bound_lookups(args, result):
    stats = result.cache_stats
    return {"bound_lookups":
            stats.bound_hits + stats.bound_misses if stats else 0}


#: (module, class or None, attribute, span name, counter)
TARGETS = (
    ("repro.api.run", None, "run_batch", "run.batch", _bound_lookups),
    ("repro.api.spec", "Scenario", "build_instance", "spec.build_instance",
     _instance_size),
    ("repro.network.simulator", None, "execute_plan", "network.execute_plan",
     None),
    ("repro.network.fast_engine", "FastEngine", "run", "network.fast", _moves),
    ("repro.network.fast_batch_engine", "FastBatchEngine", "run_many",
     "network.batch", _size),
    ("repro.network.kernel", None, "admit", "kernel.admit", _admit_rows),
    ("repro.network.kernel", None, "grouped_rank", "kernel.grouped_rank",
     None),
    ("repro.network.kernel", None, "injection_order",
     "kernel.injection_order", None),
    ("repro.baselines.offline", None, "offline_bound", "packing.bound", None),
    ("repro.api.cache", "ResultCache", "load", "cache.load", _cache_hit),
    ("repro.api.cache", "ResultCache", "store", "cache.store", None),
    ("repro.api.cache", "ResultCache", "load_bound", "cache.load_bound",
     _cache_hit),
    ("repro.api.cache", "ResultCache", "store_bound", "cache.store_bound",
     None),
    ("repro.api.queue", "WorkQueue", "create", "queue.create", None),
    ("repro.api.queue", "WorkQueue", "claim", "queue.claim", None),
    ("repro.api.queue", "WorkQueue", "complete", "queue.complete", None),
    ("repro.api.queue", "WorkQueue", "collect", "queue.collect", None),
    ("repro.api.queue", "WorkQueue", "requeue_expired", "queue.requeue",
     _size),
    ("repro.api.dispatch", None, "merge", "dispatch.merge", None),
)

#: layers reported as ``<layer>.calls``, ``.busy_s`` and ``.self_s``
LAYERS = ("spec.build_instance", "core.route", "network.fast",
          "network.batch", "kernel.admit", "kernel.grouped_rank",
          "kernel.injection_order", "run.batch", "packing.bound",
          "cache.load", "cache.store", "cache.load_bound", "cache.store_bound",
          "queue.create", "queue.claim", "queue.complete", "queue.collect",
          "dispatch.merge")

#: the derived per-layer metrics and their units
DERIVED = {
    "spec.requests_built": "count",
    "network.moves_per_s": "1/s",
    "kernel.admit.rows": "count",
    "network.batch.stacked_frac": "frac",
    "packing.bound.memo_hit_frac": "frac",
    "cache.load_p50_ms": "ms",
    "cache.load_p99_ms": "ms",
    "cache.hit_rate": "frac",
    "queue.requeued": "count",
    "trace.untraced_scenarios_per_s": "1/s",
    "trace.traced_scenarios_per_s": "1/s",
    "trace.slowdown": "x",
}


def unit(name: str) -> str:
    """The unit of a per-layer metric."""
    return DERIVED.get(name) or ("count" if name.endswith(".calls") else "s")


class Tracer:
    """Installs the span wrappers; records spans while installed."""

    def __init__(self):
        self.spans: list = []  # [name, request, start, end, parent, counts]
        self.request = None
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            span = [name, tracer.request, perf_counter(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1, None]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span[5] = counter(args, result)
                return result
            finally:
                span[3] = perf_counter()
                tracer._stack.pop()

        return traced

    def install(self) -> None:
        for module_name, class_name, attr, name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__, counter))
            else:
                patched = self.wrap(name, raw, counter)
            setattr(owner, attr, patched)
            self._undo.append(functools.partial(setattr, owner, attr, raw))
        self._wrap_algorithms()

    def _wrap_algorithms(self) -> None:
        """Span every registered algorithm callable as ``core.route``:
        entries are frozen, so the registry hands out wrapped copies."""
        registry = importlib.import_module("repro.api.registry").ALGORITHMS
        get = registry.get
        wrapped: dict = {}

        def traced_get(name):
            entry = get(name)
            if entry.name not in wrapped:
                wrapped[entry.name] = dataclasses.replace(
                    entry, fn=self.wrap("core.route", entry.fn))
            return wrapped[entry.name]

        registry.get = traced_get
        self._undo.append(functools.partial(delattr, registry, "get"))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    def count(self, name: str, since: int = 0) -> int:
        """Spans named ``name`` recorded from span number ``since`` on."""
        return sum(1 for span in self.spans[since:] if span[0] == name)

    def write(self, path) -> None:
        """One JSON line per span; the parent is a line number (-1: none)."""
        with open(path, "w") as out:
            for name, request, start, end, parent, counts in self.spans:
                out.write(json.dumps({
                    "name": name, "request": request, "start": start,
                    "end": end, "parent": parent, "counts": counts}) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, _r, start, end, parent, _c in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, busy, own, durations = {}, {}, {}, {}
        counts: dict = {}
        for i, (name, _r, start, end, _p, extra) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child[i])
            durations.setdefault(name, []).append(end - start)
            for key, value in (extra or {}).items():
                counts[name, key] = counts.get((name, key), 0) + value
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls.get(layer, 0)
            out[f"{layer}.busy_s"] = busy.get(layer, 0.0)
            out[f"{layer}.self_s"] = own.get(layer, 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        loads = sorted(durations.get("cache.load", []))
        lookups = counts.get(("run.batch", "bound_lookups"), 0)
        out.update({
            "spec.requests_built": counts.get(
                ("spec.build_instance", "requests"), 0),
            "network.moves_per_s": ratio(
                counts.get(("network.fast", "moves"), 0),
                busy.get("network.fast", 0.0)),
            "kernel.admit.rows": counts.get(("kernel.admit", "rows"), 0),
            "network.batch.stacked_frac": ratio(
                counts.get(("network.batch", "n"), 0),
                counts.get(("network.batch", "n"), 0)
                + calls.get("network.fast", 0)),
            "packing.bound.memo_hit_frac": ratio(
                lookups - calls.get("packing.bound", 0), lookups),
            "cache.load_p50_ms": 1e3 * statistics.median(loads)
            if loads else 0.0,
            "cache.load_p99_ms": 1e3 * loads[min(len(loads) - 1,
                                                 int(0.99 * len(loads)))]
            if loads else 0.0,
            "cache.hit_rate": ratio(counts.get(("cache.load", "hit"), 0),
                                    calls.get("cache.load", 0)),
            "queue.requeued": counts.get(("queue.requeue", "n"), 0),
        })
        return out
