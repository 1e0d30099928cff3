"""Spans and counts at the lab's layer boundaries, installed from outside.

The package binds its functions by name (``from .spaces import distance``,
``space_distance`` in the harness), so a wrapper only takes effect once it
replaces every module-level binding of the original function object.
``Tracer.install`` walks every loaded ``metric_action_lab`` module for those
bindings and ``Tracer.uninstall`` puts the originals back.

Spans record ``(id, name, start, end, parent, extra)`` in memory.  Leaf
functions called more than 1e5 times per iteration (``distance``,
``geodesic_point``, ``evaluate`` and closed-form slopes) only bump a
counter, so their time shows up as self time of the span that called them.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

PKG = "metric_action_lab"

SOLVERS = ("closed_form", "golden_section", "per_edge_golden", "proximal_gradient")
RECOVERY_MODES = ("resolvent", "flow", "vanishing")

# name -> unit; every traced run reports all of them, zero where unused.
LAYER_METRICS = {
    "spaces.distance.calls": "count",
    "spaces.geodesic_point.calls": "count",
    "functionals.descending_slope.closed_form.calls": "count",
    "functionals.descending_slope.sup_formula.calls": "count",
    "functionals.descending_slope.sup_formula.self_s": "s",
    "functionals.evaluate.calls": "count",
    **{f"proximal.resolvent.{v}.{stat}": unit for v in SOLVERS for stat, unit in (
        ("calls", "count"), ("iterations", "count"), ("max_probe_gap", "value"),
        ("failed", "count"), ("self_s", "s"))},
    "flow.flow_times.calls": "count",
    "flow.flow_times.steps": "count",
    "flow.flow_times.self_s": "s",
    "curves.minimize_action.calls": "count",
    "curves.minimize_action.sweeps": "count",
    "curves.minimize_action.self_s": "s",
    "curves.action.calls": "count",
    "curves.action.self_s": "s",
    **{f"recovery.build_recovery.{m}.{stat}": unit for m in RECOVERY_MODES
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "harness.run_positive.calls": "count",
    "harness.run_positive.self_s": "s",
    "harness.run_example2.calls": "count",
    "harness.run_example2.self_s": "s",
    "harness.parallel_map.calls": "count",
    "harness.parallel_map.self_s": "s",
    "harness.emit_report.calls": "count",
    "harness.emit_report.bytes": "bytes",
    "harness.emit_report.self_s": "s",
    "trace.overhead_frac": "frac",
}


def _module(name: str):
    # ``metric_action_lab.flow`` is the re-exported function, not the module
    return importlib.import_module(f"{PKG}.{name}")


def _union_length(intervals, lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._counters = {}
        self._local = threading.local()
        self._patched = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self, name: str):
        # itertools.count advances atomically under the GIL, so worker
        # threads cannot lose increments
        return self._counters.setdefault(name, itertools.count()).__next__

    def _counted(self, name: str, fn):
        bump = self._counter(name)

        def wrapper(*args, **kwargs):
            bump()
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, fn, describe):
        """Wrap ``fn`` in a span; ``describe(args, kwargs, result, exc)``
        returns the span name and a dict of extra stats."""
        spans, ids, clock, stack_of = self.spans, self._ids, time.perf_counter, self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result, exc = None, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                name, extra = describe(args, kwargs, result, exc)
                spans.append((sid, name, start, end, parent, extra))

        return wrapper

    def _slope(self, fn, closed_form_cls):
        bump = self._counter("functionals.descending_slope.closed_form.calls")
        sup = self._spanned(fn, lambda a, k, r, e: ("functionals.descending_slope.sup_formula", None))

        def descending_slope(f, space, x, method=None):
            if (f.closed_form_slope is not None) if method is None else isinstance(method, closed_form_cls):
                bump()
                return fn(f, space, x, method)
            return sup(f, space, x, method)

        return descending_slope

    def _parallel_map(self, fn):
        spans, ids, clock, local = self.spans, self._ids, time.perf_counter, self._local

        def parallel_map(work, items):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            owner = threading.get_ident()

            def item(x):
                # worker threads start with an empty stack; hang their
                # spans under this parallel_map span
                if threading.get_ident() == owner:
                    return work(x)
                local.stack = [sid]
                try:
                    return work(x)
                finally:
                    local.stack = []

            start = clock()
            try:
                return fn(item, items)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, "harness.parallel_map", start, end, parent, None))

        return parallel_map

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------

    def install(self) -> "Tracer":
        spaces, functionals, proximal = _module("spaces"), _module("functionals"), _module("proximal")
        flow, curves, recovery, harness = (
            _module("flow"), _module("curves"), _module("recovery"), _module("harness"))
        convergence_error = _module("errors").ConvergenceError

        def fixed(name):
            return lambda a, k, r, e: (name, None)

        def resolvent(a, k, r, e):
            res = e.best if isinstance(e, convergence_error) else r
            if res is None:
                return "proximal.resolvent.unknown", {"failed": 1}
            return f"proximal.resolvent.{res.method}", {
                "iterations": res.iterations,
                "max_probe_gap": res.residual,
                "failed": 1 if e is not None else 0,
            }

        def emitted(a, k, r, e):
            size = 0 if r is None else sum(Path(p).stat().st_size for p in r)
            return "harness.emit_report", {"bytes": size}

        wrappers = {
            spaces.distance: self._counted("spaces.distance.calls", spaces.distance),
            spaces.geodesic_point: self._counted("spaces.geodesic_point.calls", spaces.geodesic_point),
            functionals.evaluate: self._counted("functionals.evaluate.calls", functionals.evaluate),
            functionals.descending_slope: self._slope(functionals.descending_slope, functionals.ClosedForm),
            proximal.resolvent: self._spanned(proximal.resolvent, resolvent),
            flow.flow_times: self._spanned(flow.flow_times, lambda a, k, r, e: (
                "flow.flow_times", {"steps": 0 if r is None else len(r.points) - 1})),
            curves.minimize_action: self._spanned(curves.minimize_action, lambda a, k, r, e: (
                "curves.minimize_action", {"sweeps": 0 if r is None else r[2]["sweeps"]})),
            curves.action: self._spanned(curves.action, fixed("curves.action")),
            recovery.build_recovery: self._spanned(recovery.build_recovery, lambda a, k, r, e: (
                f"recovery.build_recovery.{a[1].mode.value}", None)),
            harness.run_positive: self._spanned(harness.run_positive, fixed("harness.run_positive")),
            harness.run_example2: self._spanned(harness.run_example2, fixed("harness.run_example2")),
            harness.emit_report: self._spanned(harness.emit_report, emitted),
            harness.parallel_map: self._parallel_map(harness.parallel_map),
        }
        by_id = {id(orig): (orig, w) for orig, w in wrappers.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PKG or mod_name.startswith(PKG + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        return self

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def layer_stats(self) -> dict:
        """Per-layer counts and self times, every ``LAYER_METRICS`` name
        except ``trace.overhead_frac``."""
        stats = {name: 0 for name in LAYER_METRICS if name != "trace.overhead_frac"}
        for name, counter in self._counters.items():
            stats[name] = next(counter)
        children = defaultdict(list)
        for sid, name, start, end, parent, extra in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        for sid, name, start, end, parent, extra in self.spans:
            own = (end - start) - _union_length(children.get(sid, ()), start, end)
            stats[f"{name}.calls"] = stats.get(f"{name}.calls", 0) + 1
            stats[f"{name}.self_s"] = stats.get(f"{name}.self_s", 0.0) + own
            for key, value in (extra or {}).items():
                full = f"{name}.{key}"
                if key.startswith("max_"):
                    stats[full] = max(stats.get(full, 0.0), value)
                else:
                    stats[full] = stats.get(full, 0) + value
        return stats

    def span_records(self, origin: float) -> list:
        """Spans as JSON-ready lists with times relative to ``origin``."""
        return [
            [sid, name, round(start - origin, 7), round(end - origin, 7), parent]
            for sid, name, start, end, parent, _ in sorted(self.spans)
        ]
