"""Span tracing of swinfer's layers from outside the package.

The tracer wraps module-level names at the place where callers look them
up (``swinfer.estimators.wasserstein_pp_batch`` is the name the direction
pass calls, not ``swinfer.ot1d.wasserstein_pp_batch``), so the package
itself is never edited. Each call becomes a span with a name, start, end,
parent, thread id, op id and thread CPU time. Spans stay in memory until
the run ends.

A span opened on a thread with no open span of its own (a worker of a
thread pool) takes as parent the innermost open span of the thread that
drives the operations. Self time subtracts only children on the same
thread, so on the driving thread the self times of one operation add up
to that operation's wall time.

Names missing from a later version of the package are reported as absent
instead of failing the run.
"""

from __future__ import annotations

import importlib
import itertools
import math
import os
import statistics
import threading
import time
import tracemalloc

MIB = 1024.0 * 1024.0


def _direction_pass_counts(args, kwargs, result):
    X, Y, dirs = args[0], args[1], args[2]
    return {"directions": dirs.k, "sorted_values": dirs.k * (X.n + Y.n)}


def _coupling_counts(args, kwargs, result):
    rows, n = args[0].shape
    m = args[1].shape[1]
    # the merged quantile grid of sizes n and m has n + m - gcd(n, m) cells
    return {"coupling_cells": rows * (n + m - math.gcd(n, m))}


def _potential_counts(args, kwargs, result):
    return {"rows": args[0].shape[0]}


def _variate_counts(args, kwargs, result):
    return {"variates": result.size}


def _parse_counts(args, kwargs, result):
    return {"bytes_parsed": os.path.getsize(args[0])}


def _write_counts(args, kwargs, result):
    return {"bytes_written": len(args[1])}


def _run_plan_counts(args, kwargs, result):
    threads = kwargs.get("threads", args[1] if len(args) > 1 else 1)
    excluded = sum(cell.excluded for cell in result.cells)
    kept = sum(len(cell.statistics) for cell in result.cells)
    return {"threads": threads, "replications": kept + excluded,
            "excluded": excluded}


# (span name, "module:attribute.path", counter, measure allocations)
WRAP_POINTS = (
    ("rng.gaussian_rows", "swinfer._rng:gaussian_rows", _variate_counts, False),
    ("rng.gaussian_rows", "swinfer.distributions:gaussian_rows", _variate_counts, False),
    ("distributions.sample_gaussian", "swinfer.sim:sample_gaussian", None, False),
    ("geometry.sample_directions", "swinfer.sim:sample_directions", None, False),
    ("geometry.sample_directions", "swinfer.cli:sample_directions", None, False),
    ("geometry.sample_matrix", "swinfer.geometry:SampleMatrix.__post_init__", None, False),
    ("estimators.direction_pass", "swinfer.inference:_direction_pass",
     _direction_pass_counts, True),
    ("estimators.direction_pass", "swinfer.cli:_direction_pass",
     _direction_pass_counts, True),
    ("ot1d.wasserstein_pp_batch", "swinfer.estimators:wasserstein_pp_batch",
     _coupling_counts, False),
    ("potentials.potential_values_batch", "swinfer.estimators:potential_values_batch",
     _potential_counts, False),
    ("inference.analyze", "swinfer.inference:analyze", None, False),
    ("inference.analyze", "swinfer.sim:analyze", None, False),
    ("textio.read_matrix_csv", "swinfer.cli:read_matrix_csv", _parse_counts, True),
    ("textio.emit", "swinfer.cli:dump_json", None, False),
    ("textio.emit", "swinfer.cli:result_csv_text", None, False),
    ("textio.emit", "swinfer.cli:result_json_text", None, False),
    ("textio.emit", "swinfer.cli:write_text", _write_counts, False),
    ("cli.main", "swinfer.cli:main", None, False),
    ("sim.run_plan", "swinfer.cli:run_plan", _run_plan_counts, False),
    ("sim.replication", "swinfer.sim:_one_replication", None, False),
)


def _resolve_owner(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans for calls through the wrapped names while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.op_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[dict] = []
        self._local.stack = self._main_stack
        self._patches: list[tuple[object, str, object]] = []
        # tracemalloc slows every allocation (several times over in the CSV
        # parse), so peaks are taken on dedicated operations only
        self.measure_alloc = False
        self._alloc_lock = threading.Lock()
        self._alloc_depth = 0

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        span = {"id": next(self._ids), "name": name,
                "parent": parent["id"] if parent else None,
                "thread": threading.get_ident(), "op": self.op_id,
                "start": time.perf_counter(), "end": None,
                "cpu": time.thread_time()}
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["cpu"] = time.thread_time() - span["cpu"]
        self._stack().pop()
        self.spans.append(span)

    def _alloc_enter(self) -> int:
        with self._alloc_lock:
            if self._alloc_depth == 0:
                tracemalloc.start()
            self._alloc_depth += 1
            tracemalloc.reset_peak()
            return tracemalloc.get_traced_memory()[0]

    def _alloc_exit(self, base: int) -> int:
        # overlapping spans on several threads share one peak, so their
        # figures are approximate; single-threaded spans are exact
        with self._alloc_lock:
            peak = tracemalloc.get_traced_memory()[1]
            self._alloc_depth -= 1
            if self._alloc_depth == 0:
                tracemalloc.stop()
            return max(peak - base, 0)

    def _wrap(self, name, fn, counter, alloc):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            measure = alloc and tracer.measure_alloc
            base = tracer._alloc_enter() if measure else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure:
                    span["peak_alloc"] = tracer._alloc_exit(base)
                tracer.close(span)
            if counter is not None:
                try:
                    span.update(counter(args, kwargs, result))
                except (AttributeError, IndexError, TypeError, OSError):
                    # a changed signature loses the count, never the call
                    if f"{name} counts" not in tracer.absent:
                        tracer.absent.append(f"{name} counts")
            return result

        return wrapper

    def install(self) -> None:
        for name, target, counter, alloc in WRAP_POINTS:
            try:
                owner, attr = _resolve_owner(target)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, counter, alloc))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the children that ran on its thread."""
    by_id = {s["id"]: s for s in spans}
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["thread"] == s["thread"]:
            own[parent["id"]] -= s["end"] - s["start"]
    return own


# per-layer metric name -> (span name, statistic, span field)
_SUMS = {
    "estimators.direction_pass.busy_s": ("estimators.direction_pass", "busy", None),
    "estimators.direction_pass.self_s": ("estimators.direction_pass", "self", None),
    "estimators.directions": ("estimators.direction_pass", "count", "directions"),
    "estimators.sorted_values": ("estimators.direction_pass", "count", "sorted_values"),
    "ot1d.wasserstein_pp_batch.busy_s": ("ot1d.wasserstein_pp_batch", "busy", None),
    "ot1d.coupling_cells": ("ot1d.wasserstein_pp_batch", "count", "coupling_cells"),
    "potentials.potential_values_batch.busy_s":
        ("potentials.potential_values_batch", "busy", None),
    "potentials.rows": ("potentials.potential_values_batch", "count", "rows"),
    "inference.analyze.busy_s": ("inference.analyze", "busy", None),
    "inference.analyze.self_s": ("inference.analyze", "self", None),
    "rng.gaussian_rows.busy_s": ("rng.gaussian_rows", "busy", None),
    "rng.variates": ("rng.gaussian_rows", "count", "variates"),
    "distributions.sample_gaussian.busy_s": ("distributions.sample_gaussian", "busy", None),
    "geometry.sample_directions.busy_s": ("geometry.sample_directions", "busy", None),
    "geometry.sample_matrix.busy_s": ("geometry.sample_matrix", "busy", None),
    "textio.read_matrix_csv.busy_s": ("textio.read_matrix_csv", "busy", None),
    "textio.bytes_parsed": ("textio.read_matrix_csv", "count", "bytes_parsed"),
    "textio.emit.busy_s": ("textio.emit", "busy", None),
    "textio.bytes_written": ("textio.emit", "count", "bytes_written"),
    "cli.main.busy_s": ("cli.main", "busy", None),
    "cli.main.self_s": ("cli.main", "self", None),
    "sim.run_plan.busy_s": ("sim.run_plan", "busy", None),
    "sim.replications": ("sim.run_plan", "count", "replications"),
    "sim.excluded": ("sim.run_plan", "count", "excluded"),
}

_PEAKS = {
    "estimators.direction_pass.peak_alloc_mib": "estimators.direction_pass",
    "textio.read_matrix_csv.peak_alloc_mib": "textio.read_matrix_csv",
}


def layer_metrics(spans: list[dict], alloc_spans: list[dict]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics and a detail record with the self-time ranking and
    the self-time closure check.

    Times and counts are medians over the operations in ``spans`` of
    per-operation sums; peaks are maxima over ``alloc_spans``, the spans of
    the operations traced with allocation tracking.
    """
    ops: dict[int, list[dict]] = {}
    for s in spans:
        ops.setdefault(s["op"], []).append(s)
    per_op: dict[str, list[float]] = {name: [] for name in _SUMS}
    per_op["sim.parallel_efficiency"] = []
    ranking: dict[str, list[float]] = {}
    closure_error = 0.0
    for op_spans in ops.values():
        own = self_times(op_spans)
        for metric, (span_name, stat, field) in _SUMS.items():
            if stat == "busy":
                value = sum(s["end"] - s["start"] for s in op_spans if s["name"] == span_name)
            elif stat == "self":
                value = sum(own[s["id"]] for s in op_spans if s["name"] == span_name)
            else:
                value = sum(s.get(field, 0) for s in op_spans if s["name"] == span_name)
            per_op[metric].append(value)
        plans = [s for s in op_spans if s["name"] == "sim.run_plan"]
        plan_capacity = sum((s["end"] - s["start"]) * s.get("threads", 1) for s in plans)
        # thread CPU time, not wall time: a worker waiting for the
        # interpreter lock is busy by the wall clock but makes no progress
        replication_s = sum(s["cpu"] for s in op_spans if s["name"] == "sim.replication")
        per_op["sim.parallel_efficiency"].append(
            replication_s / plan_capacity if plan_capacity > 0 else 0.0)
        totals: dict[str, float] = {}
        for s in op_spans:
            totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
        for name, value in totals.items():
            ranking.setdefault(name, []).append(value)
        roots = [s for s in op_spans if s["name"] == "op"]
        if roots:
            root = roots[0]
            driven = sum(own[s["id"]] for s in op_spans if s["thread"] == root["thread"])
            wall = root["end"] - root["start"]
            closure_error = max(closure_error, abs(driven - wall) / wall)
    metrics = {name: statistics.median(values) if values else 0.0
               for name, values in per_op.items()}
    for metric, span_name in _PEAKS.items():
        peaks = [s["peak_alloc"] for s in alloc_spans
                 if s["name"] == span_name and "peak_alloc" in s]
        metrics[metric] = max(peaks) / MIB if peaks else 0.0
    self_rank = sorted(((statistics.median(v), k) for k, v in ranking.items()),
                       reverse=True)
    detail = {"traced_ops": len(ops),
              "self_s_median_by_span": {k: round(v, 6) for v, k in self_rank},
              "self_time_closure_max_rel_error": closure_error}
    return metrics, detail
