"""Spans recorded from outside the library, around each layer's functions.

The benchmark replaces every name through which a caller looks up a
layer's function (the defining module, each ``from ... import`` copy in
the other ``chernoff`` modules, and the package namespace) with a
wrapper that records a span: id, name, start, end, parent id, pass id,
thread, and a few counts taken from the call's arguments or result.
Spans stay in memory and are written out when the run ends.

A span's parent is the innermost open span of its own thread.  A span
opened in a worker thread with nothing open in that thread takes the
innermost open span of the main thread as its parent, which is the
call that handed the work to the pool (``measure_errors``).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict

perf_counter = time.perf_counter


def _steps(t, h):
    # the iteration takes floor(t/h) whole steps (iterate.partition)
    return max(int(math.floor(t / h + 1e-9)), 0)


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _taps_attrs(args, kwargs, result):
    values, offsets = args[0], args[1]
    taps = len(offsets)
    # per tap: gather-read, accumulator-read, accumulator-write of 8-byte floats
    return {"taps": taps, "bytes": values.size * taps * 8 * 3}


def _iterate_attrs(args, kwargs, result):
    return {"steps": _steps(_arg(args, kwargs, 2, "t"), _arg(args, kwargs, 3, "h"))}


def _oracle_attrs(args, kwargs, result):
    t, h = _arg(args, kwargs, 2, "t"), _arg(args, kwargs, 3, "h_fine")
    return {"steps": _steps(t, h) + _steps(t, 2.0 * h)}


def _suite_counts(result, n):
    checked = sum(r.checked for r in result.results)
    violations = sum(r.violations for r in result.results)
    return {"n": n, "checked": checked, "violations": violations}


def _structural_attrs(args, kwargs, result):
    return _suite_counts(result, _arg(args, kwargs, 2, "n_pairs", 1000))


def _appendix_attrs(args, kwargs, result):
    return _suite_counts(result, _arg(args, kwargs, 0, "n_instances", 1000))


def _artifact_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _workers_attrs(args, kwargs, result):
    rates = sys.modules["chernoff.rates"]
    n = rates.worker_count(len(_arg(args, kwargs, 3, "h_list")), kwargs.get("workers"))
    return {"workers": n}


# Every wrapped function: (span name, module, attribute, counts hook).
# The names are the layers' public functions; ``cli._write_json`` and
# ``cli.write_error_curve`` together are the artifact writer of ``run``.
LAYERS = (
    ("kernels.apply_taps", "chernoff.kernels", "apply_taps", _taps_attrs),
    ("kernels.gaussian_convolve", "chernoff.kernels", "gaussian_convolve", None),
    ("nisio.nisio_step", "chernoff.nisio", "nisio_step", None),
    ("convex_expectation.lln_step", "chernoff.convex_expectation", "lln_step", None),
    ("convex_expectation.clt_step", "chernoff.convex_expectation", "clt_step", None),
    (
        "convex_expectation.maximally_distributed_limit",
        "chernoff.convex_expectation",
        "maximally_distributed_limit",
        None,
    ),
    (
        "convex_expectation.growth_certificate",
        "chernoff.convex_expectation",
        "growth_certificate",
        None,
    ),
    ("core.GridFunction", "chernoff.core", "GridFunction.__post_init__", None),
    ("iterate.chernoff_iterate", "chernoff.iterate", "chernoff_iterate", _iterate_attrs),
    (
        "iterate.discrete_comparison_check",
        "chernoff.iterate",
        "discrete_comparison_check",
        None,
    ),
    ("reference.fine_oracle", "chernoff.reference", "fine_oracle", _oracle_attrs),
    ("rates.measure_errors", "chernoff.rates", "measure_errors", _workers_attrs),
    ("rates.rate_report", "chernoff.rates", "rate_report", None),
    ("rates.holder_check", "chernoff.rates", "holder_check", None),
    ("properties.admit_operator", "chernoff.properties", "admit_operator", None),
    ("properties.structural_suite", "chernoff.properties", "structural_suite", _structural_attrs),
    ("properties.appendix_suite", "chernoff.properties", "appendix_suite", _appendix_attrs),
    ("mollifier.mollify", "chernoff.mollifier", "mollify", None),
    (
        "mollifier.derivative_bound_check",
        "chernoff.mollifier",
        "derivative_bound_check",
        None,
    ),
    ("bounds.nisio_bounds", "chernoff.bounds", "nisio_bounds", None),
    ("bounds.lln_bounds", "chernoff.bounds", "lln_bounds", None),
    ("bounds.clt_bounds", "chernoff.bounds", "clt_bounds", None),
    ("config.load_config", "chernoff.config", "load_config", None),
    ("cli.main", "chernoff.cli", "main", None),
    ("cli.artifacts", "chernoff.cli", "_write_json", _artifact_attrs),
    ("cli.artifacts", "chernoff.cli", "write_error_curve", _artifact_attrs),
)

STEP_SPANS = ("nisio.nisio_step", "convex_expectation.lln_step", "convex_expectation.clt_step")
# Calls whose arguments are kept, so the run can repeat them untraced.
CAPTURED = frozenset({"rates.measure_errors"})


class Tracer:
    """Span recorder; wrappers pass straight through while disabled."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, pass_id, thread, attrs)
        self.enabled = False
        self.pass_id = None
        self.install_sites = defaultdict(list)
        self.last_call = {}  # name in CAPTURED -> (args, kwargs) of its latest call
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name, fn, args, kwargs, attrs_hook=None):
        """Call fn inside a span named ``name``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        result = None
        done = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            done = True
        finally:
            end = perf_counter()
            stack.pop()
            attrs = attrs_hook(args, kwargs, result) if done and attrs_hook else None
            self.spans.append(
                (sid, name, start, end, parent, self.pass_id, threading.get_ident(), attrs)
            )
        return result

    def wrap(self, name, fn, attrs_hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if name in CAPTURED:
                tracer.last_call[name] = (args, kwargs)
            return tracer.record(name, fn, args, kwargs, attrs_hook)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Replace every lookup name of every layer function with a wrapper.

        All loaded ``chernoff`` modules are scanned, so each
        ``from ... import`` copy is replaced along with the original.
        Step operators built afterwards bind the wrapped step functions,
        because ``StepOperator.from_*`` imports them from their module
        when it builds the operator.
        """
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == "chernoff" or n.startswith("chernoff."))
        ]
        for name, module_name, attr, hook in LAYERS:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self.wrap(name, original, hook)
            if path:  # a method: one lookup site, the class
                setattr(owner, leaf, wrapper)
                self.install_sites[name].append(f"{module_name}.{attr}")
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self.install_sites[name].append(f"{module.__name__}.{key}")

    def write(self, path):
        """Spans as JSON lines, times relative to the first span's start."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, pid, thread, attrs in self.spans:
                row = {
                    "id": sid,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "pass": pid,
                    "thread": thread,
                }
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def pass_table(spans):
    """Per pass id: {span name: list of per-span dicts}.

    Each dict holds the duration, the self time (duration minus the part
    of the span's interval its children cover), the parallel overlap
    (children's summed duration beyond that covered part, nonzero only
    where children ran in parallel threads), the counts, and per child
    name the children's summed duration and number.
    """
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s)
    out = defaultdict(lambda: defaultdict(list))
    for sid, name, start, end, parent, pid, thread, attrs in spans:
        kids = children.get(sid, ())
        covered = _covered([(k[2], k[3]) for k in kids], start, end)
        kid_dur = defaultdict(float)
        kid_count = defaultdict(int)
        for k in kids:
            kid_dur[k[1]] += k[3] - k[2]
            kid_count[k[1]] += 1
        out[pid][name].append(
            {
                "dur": end - start,
                "self": end - start - covered,
                "overlap": sum(kid_dur.values()) - covered,
                "attrs": attrs or {},
                "kid_dur": kid_dur,
                "kid_count": kid_count,
            }
        )
    return out


def percentile(values, p):
    """Nearest-rank percentile; 0.0 for no values."""
    xs = sorted(values)
    if not xs:
        return 0.0
    return xs[max(math.ceil(p / 100.0 * len(xs)) - 1, 0)]


def _sum(rows, key):
    return sum(r[key] for r in rows)


def _attr(rows, key):
    return sum(r["attrs"].get(key, 0) for r in rows)


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: (name, unit, better, kind, per-pass function of the
# pass's {span name: rows}).  kind "count" must repeat exactly between
# passes and is reported once; kind "time" is the median over passes.
# Percentiles of single calls are pooled over all traced passes (below).
_T = "time"
_C = "count"
PASS_METRICS = (
    ("kernels.apply_taps.calls", "count", "lower", _C,
     lambda p: len(p["kernels.apply_taps"])),
    ("kernels.apply_taps.taps", "count", "lower", _C,
     lambda p: _attr(p["kernels.apply_taps"], "taps")),
    ("kernels.apply_taps.self_s", "s", "lower", _T,
     lambda p: _sum(p["kernels.apply_taps"], "self")),
    ("kernels.apply_taps.bytes_computed", "B", "lower", _C,
     lambda p: _attr(p["kernels.apply_taps"], "bytes")),
    ("kernels.gaussian_convolve.calls", "count", "lower", _C,
     lambda p: len(p["kernels.gaussian_convolve"])),
    ("kernels.gaussian_convolve.self_s", "s", "lower", _T,
     lambda p: _sum(p["kernels.gaussian_convolve"], "self")),
    ("nisio.nisio_step.calls", "count", "lower", _C, lambda p: len(p["nisio.nisio_step"])),
    ("nisio.nisio_step.self_s", "s", "lower", _T,
     lambda p: _sum(p["nisio.nisio_step"], "self")),
    ("convex_expectation.lln_step.calls", "count", "lower", _C,
     lambda p: len(p["convex_expectation.lln_step"])),
    ("convex_expectation.lln_step.self_s", "s", "lower", _T,
     lambda p: _sum(p["convex_expectation.lln_step"], "self")),
    ("convex_expectation.clt_step.calls", "count", "lower", _C,
     lambda p: len(p["convex_expectation.clt_step"])),
    ("convex_expectation.clt_step.self_s", "s", "lower", _T,
     lambda p: _sum(p["convex_expectation.clt_step"], "self")),
    ("core.GridFunction.constructions", "count", "lower", _C,
     lambda p: len(p["core.GridFunction"])),
    ("core.GridFunction.self_s", "s", "lower", _T,
     lambda p: _sum(p["core.GridFunction"], "self")),
    ("iterate.chernoff_iterate.calls", "count", "lower", _C,
     lambda p: len(p["iterate.chernoff_iterate"])),
    ("iterate.chernoff_iterate.steps", "count", "lower", _C,
     lambda p: _attr(p["iterate.chernoff_iterate"], "steps")),
    ("iterate.chernoff_iterate.self_s", "s", "lower", _T,
     lambda p: _sum(p["iterate.chernoff_iterate"], "self")),
    ("iterate.discrete_comparison_check.busy_s", "s", "lower", _T,
     lambda p: _sum(p["iterate.discrete_comparison_check"], "dur")),
    ("reference.fine_oracle.busy_s", "s", "lower", _T,
     lambda p: _sum(p["reference.fine_oracle"], "dur")),
    ("reference.fine_oracle.steps", "count", "lower", _C,
     lambda p: _attr(p["reference.fine_oracle"], "steps")),
    ("rates.measure_errors.busy_s", "s", "lower", _T,
     lambda p: _sum(p["rates.measure_errors"], "dur")),
    ("rates.measure_errors.workers", "count", "higher", _C,
     lambda p: max((r["attrs"]["workers"] for r in p["rates.measure_errors"]), default=0)),
    ("rates.measure_errors.concurrency", "ratio", "higher", _T,
     lambda p: _ratio(
         sum(r["kid_dur"]["iterate.chernoff_iterate"] for r in p["rates.measure_errors"]),
         _sum(p["rates.measure_errors"], "dur"),
     )),
    ("rates.rate_report.busy_s", "s", "lower", _T,
     lambda p: _sum(p["rates.rate_report"], "dur")),
    ("properties.admit_operator.busy_s", "s", "lower", _T,
     lambda p: _sum(p["properties.admit_operator"], "dur")),
    ("properties.structural_suite.busy_s", "s", "lower", _T,
     lambda p: _sum(p["properties.structural_suite"], "dur")),
    ("properties.structural_suite.pairs", "count", "higher", _C,
     lambda p: _attr(p["properties.structural_suite"], "n")),
    ("properties.structural_suite.step_calls", "count", "lower", _C,
     lambda p: sum(
         r["kid_count"][name] for r in p["properties.structural_suite"] for name in STEP_SPANS
     )),
    ("properties.structural_suite.useful_frac", "ratio", "higher", _C,
     lambda p: 1.0 - _ratio(
         _attr(p["properties.structural_suite"], "violations"),
         _attr(p["properties.structural_suite"], "checked"),
     ) if p["properties.structural_suite"] else 0.0),
    ("properties.appendix_suite.busy_s", "s", "lower", _T,
     lambda p: _sum(p["properties.appendix_suite"], "dur")),
    ("properties.appendix_suite.instances", "count", "higher", _C,
     lambda p: _attr(p["properties.appendix_suite"], "n")),
    ("convex_expectation.maximally_distributed_limit.busy_s", "s", "lower", _T,
     lambda p: _sum(p["convex_expectation.maximally_distributed_limit"], "dur")),
    ("convex_expectation.growth_certificate.busy_s", "s", "lower", _T,
     lambda p: _sum(p["convex_expectation.growth_certificate"], "dur")),
    ("mollifier.mollify.calls", "count", "lower", _C, lambda p: len(p["mollifier.mollify"])),
    ("mollifier.mollify.busy_s", "s", "lower", _T,
     lambda p: _sum(p["mollifier.mollify"], "dur")),
    ("mollifier.derivative_bound_check.busy_s", "s", "lower", _T,
     lambda p: _sum(p["mollifier.derivative_bound_check"], "dur")),
    ("bounds.nisio_bounds.busy_s", "s", "lower", _T,
     lambda p: _sum(p["bounds.nisio_bounds"], "dur")),
    ("bounds.lln_bounds.busy_s", "s", "lower", _T,
     lambda p: _sum(p["bounds.lln_bounds"], "dur")),
    ("bounds.clt_bounds.busy_s", "s", "lower", _T,
     lambda p: _sum(p["bounds.clt_bounds"], "dur")),
    ("config.load_config.busy_s", "s", "lower", _T,
     lambda p: _sum(p["config.load_config"], "dur")),
    ("cli.artifacts.bytes", "B", "lower", _C, lambda p: _attr(p["cli.artifacts"], "bytes")),
    ("cli.artifacts.write_s", "s", "lower", _T, lambda p: _sum(p["cli.artifacts"], "dur")),
)

# Percentiles of single-call durations, pooled over the traced passes:
# (name, unit, span name, percentile, scale from seconds).
CALL_PERCENTILES = (
    ("kernels.apply_taps.us_per_call_p50", "us", "kernels.apply_taps", 50, 1e6),
    ("kernels.apply_taps.us_per_call_p99", "us", "kernels.apply_taps", 99, 1e6),
    ("nisio.nisio_step.ms_p50", "ms", "nisio.nisio_step", 50, 1e3),
    ("nisio.nisio_step.ms_p99", "ms", "nisio.nisio_step", 99, 1e3),
    ("convex_expectation.lln_step.ms_p50", "ms", "convex_expectation.lln_step", 50, 1e3),
    ("convex_expectation.clt_step.ms_p50", "ms", "convex_expectation.clt_step", 50, 1e3),
)
