"""Replication harness for the Gaussian mean-shift experiment.

Each cell of a plan fixes a direction budget k and a shift offset h; each
replication draws X from N(0, I_d), Y from N((sqrt(d) + h) e_1, I_d) and a
fresh direction sample, then runs the full inference pipeline for the cost
|s - t|^p against the null value delta. At h = 0 the population sliced cost
is ``gaussian_sw2_meanshift(sqrt(d) e_1, p)``, which is d/d = 1 at p = 2;
with delta set to it the null is true and the rejection rate should track
the test level; h > 0 pushes the cost above delta and rejections measure
power.

Every replication derives its three substreams (X rows, Y rows, directions)
from the master seed and the cell and replication indices alone, so results
are bit-identical for any worker count.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial
from math import sqrt

import numpy as np

from ._textio import csv_text, dump_json
from .distributions import GaussianSpec, sample_gaussian
from .estimators import _check_budget, _check_threads
from .geometry import sample_directions
from .inference import (DegenerateVarianceError, InferenceReport, _critical_value,
                        analyze)
from .ot1d import _check_p

# substream ids 0..15 are reserved for direct CLI use
_STREAM_BASE = 16
_ROLE_X, _ROLE_Y, _ROLE_DIRS, _ROLE_CELL_DIRS = 0, 1, 2, 3
# bin count of each cell's statistic histogram
_HIST_BINS = 40


def _plan_int(value, least=None) -> int:
    """An integer, at least ``least`` if given; not a fraction, bool or string."""
    if not (isinstance(value, float) and value.is_integer()
            or isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        raise ValueError(f"must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"must be at least {least}, got {value!r}")
    return int(value)


def _plan_real(value) -> float:
    """A finite real number; a string, a boolean, NaN or an infinity is refused."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ValueError(f"must be a finite real number, got {value!r}")


def _plan_list(value, item) -> tuple:
    """A non-empty list or tuple, each entry checked by ``item``."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"must be a non-empty list, got {value!r}")
    return tuple(item(entry) for entry in value)


def _plan_budget(value) -> int:
    """An integer direction budget, checked by ``_check_budget``."""
    k = _plan_int(value)
    _check_budget(k)
    return k


def _plan_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _plan_level(value) -> float:
    _critical_value(level := _plan_real(value))  # refuses a level outside (0, 1)
    return level


def _plan_p(value) -> float:
    # a float goes straight to _check_p, which refuses NaN and infinity as an order p
    return _check_p(value if isinstance(value, float) else _plan_real(value))


def _plan_field(check, default=MISSING):
    """A plan field whose value ``check`` tests and converts."""
    return field(default=default, metadata={"check": check})


@dataclass(frozen=True, kw_only=True)
class SimulationPlan:
    """Cross of direction budgets and shifts, replicated under one seed.

    Each field is declared once, with its check, in the order the JSON
    summary echoes them.
    """

    p: float = _plan_field(_plan_p, default=2.0)
    d: int = _plan_field(partial(_plan_int, least=1))
    n: int = _plan_field(partial(_plan_int, least=2))
    m: int = _plan_field(partial(_plan_int, least=2))
    k_values: tuple[int, ...] = _plan_field(partial(_plan_list, item=_plan_budget))
    h_values: tuple[float, ...] = _plan_field(partial(_plan_list, item=_plan_real))
    delta: float = _plan_field(_plan_real)
    replications: int = _plan_field(partial(_plan_int, least=1))
    level: float = _plan_field(_plan_level, default=0.95)
    master_seed: int = _plan_field(_plan_int)
    reuse_directions: bool = _plan_field(_plan_bool, default=False)

    def __post_init__(self):
        for spec in fields(self):
            try:
                value = spec.metadata["check"](getattr(self, spec.name))
            except ValueError as exc:
                raise ValueError(f"plan field {spec.name!r}: {exc}") from None
            object.__setattr__(self, spec.name, value)

    @property
    def cells(self) -> list[tuple[int, float]]:
        return [(k, h) for k in self.k_values for h in self.h_values]


@dataclass(frozen=True, eq=False)
class CellResult:
    """Outcome of one (k, h) cell.

    ``replications[i]`` is the replication index that produced
    ``statistics[i]`` and its test decision ``rejects[i]``; excluded
    replications appear in none.
    """

    k: int
    h: float
    statistics: np.ndarray
    rejects: np.ndarray
    rejection_rate: float
    hist_edges: np.ndarray
    hist_counts: np.ndarray
    excluded: int
    replications: np.ndarray


@dataclass(frozen=True, eq=False)
class SimulationResult:
    plan: SimulationPlan
    cells: list[CellResult]


def _replication_streams(plan: SimulationPlan, cell_index: int,
                         rep_index: int) -> tuple[int, int, int]:
    base = _STREAM_BASE + (cell_index * plan.replications + rep_index) * 4
    if plan.reuse_directions:
        dirs_stream = _STREAM_BASE + cell_index * plan.replications * 4 + _ROLE_CELL_DIRS
    else:
        dirs_stream = base + _ROLE_DIRS
    return base + _ROLE_X, base + _ROLE_Y, dirs_stream


def _one_replication(plan: SimulationPlan, cell_index: int, rep_index: int,
                     k: int, h: float) -> InferenceReport | None:
    sx, sy, sd = _replication_streams(plan, cell_index, rep_index)
    shift = np.zeros(plan.d)
    shift[0] = sqrt(plan.d) + h
    X = sample_gaussian(GaussianSpec(np.zeros(plan.d)), plan.n,
                        plan.master_seed, sx)
    Y = sample_gaussian(GaussianSpec(shift), plan.m, plan.master_seed, sy)
    dirs = sample_directions(plan.d, k, plan.master_seed, sd)
    try:
        report = analyze(X, Y, dirs, p=plan.p, delta=plan.delta,
                         level=plan.level)
    except DegenerateVarianceError:
        return None
    return report


def _replicate(plan: SimulationPlan, task: tuple[int, int, int, float]
               ) -> InferenceReport | None:
    """``_one_replication`` on one task tuple. A worker receives this function
    by name and looks ``_one_replication`` up here, so that a wrapper of it
    (the tracer's or a test's), which cannot be pickled, still runs there."""
    return _one_replication(plan, *task)


def _worker_pool(workers: int):
    """An executor of ``workers`` replication processes.

    The analysis of a small sample holds the interpreter lock for most of
    its run, so threads barely overlap; processes do. On Linux they are
    forked, which takes milliseconds and re-imports nothing; the executor
    forks them all before it starts its helper threads, as those of Python
    3.10.13 and 3.11 do. Elsewhere they start by the platform's default method
    (macOS's system libraries are not fork-safe). A worker that dies, say
    killed for memory, fails the run with ``BrokenProcessPool`` instead of
    hanging it. The modules are imported here, so that commands that start
    no workers do not hold them (0.3 MiB resident).
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    method = "fork" if sys.platform.startswith("linux") else None
    return ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context(method))


def run_plan(plan: SimulationPlan, threads: int = 1) -> SimulationResult:
    """Execute every replication of every cell of a plan.

    Parameters
    ----------
    plan : SimulationPlan
    threads : int
        Worker bound, at least 1 (checked before any replication runs).
        At 1 the replications run here, one after another.
        Above 1 they run on ``min(threads, replications of all cells)``
        worker processes, forked on Linux (the platform's default start
        method elsewhere), each with its own heap; a fork copies no other
        thread, so call this while no other thread holds a lock. The first
        failing replication's error is re-raised here, and every worker is
        joined before this returns or raises. The result is bit-identical
        for every value, because each replication draws from its own
        streams and results are gathered in index order.

    Returns
    -------
    SimulationResult
        Per cell: each report's statistic and ``reject`` flag (degenerate
        replications excluded with a count), the rejection rate (the mean of
        those flags) and a histogram of ``_HIST_BINS`` equal-width bins.
    """
    _check_threads(threads)
    tasks = [(ci, ri, k, h)
             for ci, (k, h) in enumerate(plan.cells)
             for ri in range(plan.replications)]
    work = partial(_replicate, plan)
    workers = min(threads, len(tasks))
    if workers > 1:
        # results are read in index order, so the first failing replication's
        # error is raised, as in the serial loop; the replications not yet
        # started are then cancelled, and leaving the block joins every worker
        with _worker_pool(workers) as pool:
            outcomes = list(pool.map(work, tasks))
    else:
        outcomes = [work(t) for t in tasks]

    cells = []
    for ci, (k, h) in enumerate(plan.cells):
        block = outcomes[ci * plan.replications:(ci + 1) * plan.replications]
        kept = np.asarray([ri for ri, rep in enumerate(block) if rep is not None],
                          dtype=np.int64)
        stats = np.asarray([block[ri].statistic for ri in kept], dtype=np.float64)
        rejects = np.asarray([block[ri].reject for ri in kept], dtype=bool)
        excluded = plan.replications - stats.size
        if stats.size:
            rate = float(np.mean(rejects))
            counts, edges = np.histogram(stats, bins=_HIST_BINS)
        else:
            rate = float("nan")
            edges, counts = np.zeros(1), np.zeros(0, dtype=np.int64)
        cells.append(CellResult(k=k, h=h, statistics=stats, rejects=rejects,
                                rejection_rate=rate, hist_edges=edges,
                                hist_counts=counts, excluded=excluded,
                                replications=kept))
    return SimulationResult(plan=plan, cells=cells)


def result_csv_text(result: SimulationResult) -> str:
    """One row per kept replication: cell ids, statistic, reject flag."""
    return csv_text(("k", "h", "replication", "statistic", "reject"),
                    ((cell.k, cell.h, ri, t, flag)
                     for cell in result.cells
                     for ri, t, flag in zip(cell.replications, cell.statistics,
                                            cell.rejects)))


def result_json_text(result: SimulationResult) -> str:
    """Per-cell summary: rejection rate, exclusions, histogram."""
    doc = {
        "plan": asdict(result.plan),  # every field, in declaration order
        "cells": [
            {
                "k": cell.k,
                "h": cell.h,
                "rejection_rate": (None if np.isnan(cell.rejection_rate)
                                   else cell.rejection_rate),
                "excluded": cell.excluded,
                "histogram": {"edges": cell.hist_edges,
                              "counts": cell.hist_counts},
            }
            for cell in result.cells
        ],
    }
    return dump_json(doc) + "\n"
