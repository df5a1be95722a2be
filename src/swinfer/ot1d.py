"""Exact one-dimensional optimal transport between empirical measures.

The optimal coupling of two empirical measures on the line pairs quantile
blocks: source block i, mass ((i-1)/n, i/n], meets target block j wherever
the blocks intersect. The intersection pattern depends only on (n, m) and is
streamed from a merge of the breakpoint grids {i/n} and {j/m}; the transport
cost is the mass-weighted sum of |s_(i) - t_(j)|^p over intersecting blocks,
which equals the integral of |F_n^{-1} - G_m^{-1}|^p over (0, 1) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True, eq=False)
class SortedProjection:
    """A 1-d sample in nondecreasing order plus the sort permutation.

    ``perm[i]`` is the original index of the i-th smallest value, so
    ``values[i] == original[perm[i]]``. The sort is stable: tied values keep
    their input order.
    """

    values: np.ndarray
    perm: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        perm = np.ascontiguousarray(self.perm, dtype=np.intp)
        if values.ndim != 1 or perm.shape != values.shape:
            raise ValueError("values and perm must be 1-d arrays of equal length")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "perm", perm)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def sort_projection(values) -> SortedProjection:
    """Stable-sort a 1-d sample, retaining the permutation.

    Raises ValueError on NaN or infinite entries.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("need a nonempty 1-d array")
    if not np.isfinite(values).all():
        raise ValueError("projection contains non-finite entries")
    perm = np.argsort(values, kind="stable")
    return SortedProjection(values=values[perm], perm=perm)


@lru_cache(maxsize=32)
def _cell_arrays(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0-based rank arrays (i0, j0) and masses for the (n, m) coupling.

    Breakpoints are merged in integer arithmetic over the common denominator
    n*m, so cell boundaries are exact and every cell has positive mass. Cells
    come in increasing quantile order, at most n + m - 1 of them; per source
    rank the masses sum to 1/n, per target rank to 1/m.
    """
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be positive")
    breaks = np.union1d(np.arange(1, n + 1, dtype=np.int64) * m,
                        np.arange(1, m + 1, dtype=np.int64) * n)
    edges = np.concatenate((np.zeros(1, dtype=np.int64), breaks))
    i0 = edges[:-1] // m
    j0 = edges[:-1] // n
    mass = np.diff(edges) / float(n * m)
    for arr in (i0, j0, mass):
        arr.setflags(write=False)
    return i0, j0, mass


def _pow_cost(diff: np.ndarray, p: float) -> np.ndarray:
    """|diff|^p, computed in place in ``diff``, which is returned."""
    if p == 2.0:
        diff *= diff
    else:
        np.abs(diff, out=diff)
        diff **= p
    return diff


def _check_p(p: float) -> float:
    p = float(p)
    if not math.isfinite(p) or p <= 1.0:
        raise ValueError(f"order p must be a finite real > 1, got {p}")
    return p


def wasserstein_pp(s: SortedProjection, t: SortedProjection, p: float) -> float:
    """W_p^p between the empirical measures of two sorted 1-d samples.

    Parameters
    ----------
    s, t : SortedProjection
        The two samples, sizes n and m.
    p : float
        Cost exponent, must exceed 1.

    Returns
    -------
    float
        Sum over coupling cells of mass * |s_(i) - t_(j)|^p.
    """
    p = _check_p(p)
    i0, j0, mass = _cell_arrays(s.n, t.n)
    return float(np.sum(mass * _pow_cost(s.values[i0] - t.values[j0], p)))


def wasserstein_pp_batch(S: np.ndarray, T: np.ndarray, p: float) -> np.ndarray:
    """Row-wise W_p^p for stacks of pre-sorted samples.

    ``S`` has shape (k, n) and ``T`` shape (k, m), each row sorted; the
    result is the length-k vector of per-row costs.

    The cell costs are built C-ordered (``take``; a fancy index would give
    Fortran order), so ``sum(axis=1)`` reduces each contiguous row alone,
    pairwise, exactly as ``wasserstein_pp`` sums one sample: every row's
    cost equals the scalar path's bit for bit, whatever k is. A matrix
    product with ``mass`` would pick its summation by the number of rows.
    """
    p = _check_p(p)
    i0, j0, mass = _cell_arrays(S.shape[1], T.shape[1])
    if S.shape[1] == T.shape[1]:
        diff = np.subtract(S, T)
    else:
        diff = S.take(i0, axis=1)
        diff -= T.take(j0, axis=1)
    _pow_cost(diff, p)
    diff *= mass
    return diff.sum(axis=1)
