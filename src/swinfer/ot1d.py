"""Exact one-dimensional optimal transport between sorted samples.

The optimal coupling of two empirical measures on the line pairs quantile
blocks: source block i, mass ((i-1)/n, i/n], meets target block j wherever
the blocks intersect. The intersection pattern depends only on (n, m) and is
streamed from a merge of the breakpoint grids {i/n} and {j/m}; the transport
cost is the mass-weighted sum of |s_(i) - t_(j)|^p over intersecting blocks,
which equals the integral of |F_n^{-1} - G_m^{-1}|^p over (0, 1) exactly.

For the convex cost h(s - t) = |s - t|^p, p > 1, the dual is attained by a
potential built from the same coupling. On the sorted source points it
starts from phi(s_(1)) = 0 and steps with

    phi(s_(i+1)) = phi(s_(i)) + h(s_(i+1) - t_(r(i))) - h(s_(i) - t_(r(i))),

where r(i) is the largest target rank coupled to source rank i. Together
with the c-conjugate phi^c(t) = min_i (h(s_(i) - t) - phi(s_(i))) this
attains the primal cost: strong duality holds exactly for empirical
measures, up to floating-point rounding. Each step is a difference of costs
of s - t, so a common translation of both samples leaves every value
unchanged up to rounding, with nothing large squared before it cancels.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

_OVERFLOW = "the projected transport cost overflows float64; rescale the data"
# every result that may overflow is checked and raises _OVERFLOW, so numpy's
# warnings are off; the state is per thread, so each pool worker enters it
_quiet = partial(np.errstate, over="ignore", invalid="ignore")


def _finite(values):
    """``values``, or the overflow error if any of them is not finite."""
    if not np.isfinite(values).all():
        raise ValueError(_OVERFLOW)
    return values


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


def row_assignment(n: int, m: int) -> np.ndarray:
    """Largest target rank coupled to each source rank, as 1-based ranks.

    Equals ceil(i * m / n) for every i = 1..n (exact integer arithmetic;
    the last entry is always m). Nondecreasing in i.
    """
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be positive")
    i = np.arange(1, n + 1, dtype=np.int64)
    return -(-(i * m) // n)


_Coupling = namedtuple("_Coupling", "i0 j0 mass steps")


@lru_cache(maxsize=32)
def _coupling(n: int, m: int) -> _Coupling:
    """The read-only (n, m) coupling table, built once per shape.

    ``i0`` and ``j0`` are the cells' 0-based source and target ranks and
    ``mass`` their masses, in increasing quantile order, at most n + m - 1
    cells; per source rank the masses sum to 1/n, per target rank to 1/m.
    ``steps`` holds r(i) - 1 for i = 1..n-1, the target rank each potential
    step is taken against. Breakpoints are merged exactly, in integers over
    n*m, by one sort and a dedupe (``np.union1d`` took 18 times as long at
    60000/36000 on numpy 2.4), so every cell has positive mass.
    """
    steps = row_assignment(n, m)[:-1] - 1
    steps.setflags(write=False)
    if n > m:
        # the breakpoint merge is symmetric: share the (m, n) cells, swapped
        j0, i0, mass, _ = _coupling(m, n)
        return _Coupling(i0, j0, mass, steps)
    edges = np.sort(np.concatenate((np.arange(n, dtype=np.int64) * m,
                                    np.arange(1, m + 1, dtype=np.int64) * n)))
    edges = edges[np.diff(edges, prepend=-1) != 0]
    cells = (edges[:-1] // m, edges[:-1] // n, np.diff(edges) / float(n * m))
    for arr in cells:
        arr.setflags(write=False)
    return _Coupling(*cells, steps)


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
    i0, j0, mass, _ = _coupling(s.n, t.n)
    with _quiet():
        cost = float(np.sum(mass * _pow_cost(s.values[i0] - t.values[j0], p)))
    return _finite(cost)


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
    i0, j0, mass, _ = _coupling(S.shape[1], T.shape[1])
    if S.shape[1] == T.shape[1]:
        diff = np.subtract(S, T)
    else:
        diff = S.take(i0, axis=1)
        diff -= T.take(j0, axis=1)
    _pow_cost(diff, p)
    diff *= mass
    return diff.sum(axis=1)


def potential_values(s: SortedProjection, t: SortedProjection,
                     p: float = 2.0) -> np.ndarray:
    """Optimal potential phi for the cost |s - t|^p at the sorted source points.

    Starts from phi(s_(1)) = 0 and steps across consecutive sorted source
    points by the cost difference against t_(r(i)); a single source point
    gets [0]. Use ``s.perm`` to scatter the values back to input order.
    """
    p = _check_p(p)
    t_r = t.values[_coupling(s.n, t.n).steps]
    with _quiet():
        steps = np.abs(s.values[1:] - t_r) ** p - np.abs(s.values[:-1] - t_r) ** p
        return _finite(np.concatenate(([0.0], np.cumsum(steps))))


def potential_values_batch(S: np.ndarray, T: np.ndarray,
                           p: float = 2.0) -> np.ndarray:
    """Row-wise potentials for stacks of pre-sorted samples.

    ``S`` is (k, n) and ``T`` is (k, m), each row sorted. Returns the (k, n)
    matrix of phi values at the sorted source points, row by row.

    The lower costs h(s_(i) - t_(r(i))) are written into the output, the
    upper costs h(s_(i+1) - t_(r(i))) into one scratch array, and each step
    is their difference, cumulated along the row. Every element takes the
    same operations whatever k is, so the direction pass may hand over its
    rows in blocks of any height; it keeps them cache-sized.
    """
    n, m = S.shape[1], T.shape[1]
    out = np.empty(S.shape)
    out[:, 0] = 0.0
    steps = out[:, 1:]
    # r(i) = i when m == n, so t_(r(i)) is a view and needs no gather.
    # ``take`` gathers in C order; a fancy index would give Fortran order,
    # and the mixed-layout arithmetic below runs about twice as slow.
    if m == n:
        t_r, upper = T[:, :-1], None
    else:
        t_r = upper = T.take(_coupling(n, m).steps, axis=1)
    _pow_cost(np.subtract(S[:, :-1], t_r, out=steps), p)
    upper = _pow_cost(np.subtract(S[:, 1:], t_r, out=upper), p)
    np.subtract(upper, steps, out=steps)
    np.cumsum(steps, axis=1, out=steps)
    return out


def c_conjugate(phi_at_s: np.ndarray, s: SortedProjection,
                t_points, p: float = 2.0) -> np.ndarray:
    """c-conjugate phi^c(t) = min_i (|s_(i) - t|^p - phi(s_(i))).

    Parameters
    ----------
    phi_at_s : ndarray of length n
        Potential values at the sorted source points.
    s : SortedProjection
        The source sample.
    t_points : array-like
        Query points, any order; the result matches their order.
    p : float
        Cost exponent, must exceed 1.

    Returns
    -------
    ndarray of length len(t_points)

    Any convex cost h(s - t) is submodular in (rank, point), so the minimizing
    source rank is nondecreasing along sorted queries regardless of the phi
    vector. Solving the middle query by a full scan of its bracket and
    recursing on the two halves evaluates the same expression as the dense
    scan while touching O((n + m) log m) entries.
    """
    p = _check_p(p)
    phi_at_s = np.asarray(phi_at_s, dtype=np.float64)
    t_points = np.asarray(t_points, dtype=np.float64)
    if phi_at_s.shape != s.values.shape:
        raise ValueError("phi_at_s must align with the sorted source points")
    if t_points.ndim != 1:
        raise ValueError("t_points must be 1-d")
    order = np.argsort(t_points, kind="stable")
    tq = t_points[order]
    out = np.empty(tq.shape[0])
    stack = [(0, tq.shape[0], 0, s.n - 1)]
    with _quiet():
        while stack:
            qlo, qhi, ilo, ihi = stack.pop()
            if qlo >= qhi:
                continue
            mid = (qlo + qhi) // 2
            vals = np.abs(s.values[ilo:ihi + 1] - tq[mid]) ** p - phi_at_s[ilo:ihi + 1]
            a = int(np.argmin(vals))
            out[order[mid]] = vals[a]
            a += ilo
            stack.append((qlo, mid, ilo, a))
            stack.append((mid + 1, qhi, a, ihi))
    return _finite(out)


def duality_gap(s: SortedProjection, t: SortedProjection,
                p: float = 2.0) -> float:
    """Primal minus dual value for the cost |s - t|^p; zero up to rounding.

    Returns W_p^p(s, t) - [mean(phi(s_i)) + mean(phi^c(t_j))] where phi is
    the constructed potential. The magnitude should not exceed about
    1e-9 * (1 + W_p^p) on well-scaled data.
    """
    phi = potential_values(s, t, p)
    with _quiet():
        dual = float(np.mean(phi)) + float(np.mean(c_conjugate(phi, s, t.values, p)))
        return _finite(wasserstein_pp(s, t, p) - dual)
