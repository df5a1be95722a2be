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

where r(i) is the largest target rank coupled to source rank i, that is
ceil(i m / n). The coupling table reads r(i) off its cells, as the target
of each source rank's last cell, so the rule has one home. Together with
the c-conjugate phi^c(t) = min_i (h(s_(i) - t) - phi(s_(i))) this attains
the primal cost: strong duality holds exactly for empirical measures, up
to floating-point rounding. The package never evaluates phi^c: the tests
keep it, and the duality gap, in ``tests/potential_reference.py``, as the
oracle that these potentials attain the primal. Each step is a difference
of costs of s - t, so a common translation of both samples leaves every
value unchanged up to rounding, with nothing large squared before it
cancels. The batch kernels build each cell's cost once: the cost kernel
leaves them, and both samples' potentials read their steps from them.
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


_Coupling = namedtuple("_Coupling", "i0 j0 mass steps lasts")


@lru_cache(maxsize=32)
def _coupling(n: int, m: int) -> _Coupling:
    """The read-only (n, m) coupling table, built once per shape.

    ``i0`` and ``j0`` are the cells' 0-based source and target ranks and
    ``mass`` their masses, in increasing quantile order, at most n + m - 1
    cells; per source rank the masses sum to 1/n, per target rank to 1/m.
    ``lasts[i]`` is the last cell of source rank i - 1 for i = 1..n-1, the
    cell a potential step from rank i - 1 to rank i is taken against, and
    ``lasts[0]`` is 0, a place holder, so that one gather fills a whole row
    of potentials. ``steps`` holds those cells' target ranks, r(i) - 1 for
    i = 1..n-1. Breakpoints are merged exactly, in integers over n*m, by one
    sort and a dedupe (``np.union1d`` took 18 times as long at 60000/36000
    on numpy 2.4), so every cell has positive mass. The (m, n) table has
    the same cells in the same order, with the ranks swapped.
    """
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be positive")
    if n > m:
        # the breakpoint merge is symmetric: share the (m, n) cells, swapped
        j0, i0, mass, *_ = _coupling(m, n)
    else:
        edges = np.sort(np.concatenate((np.arange(n, dtype=np.int64) * m,
                                        np.arange(1, m + 1, dtype=np.int64) * n)))
        edges = edges[np.diff(edges, prepend=-1) != 0]
        i0, j0, mass = edges[:-1] // m, edges[:-1] // n, np.diff(edges) / float(n * m)
    # each rank's last cell is the one before the next rank's first
    lasts = np.flatnonzero(np.diff(i0, prepend=-1)) - 1
    lasts[0] = 0
    steps = j0[lasts[1:]]
    for arr in (i0, j0, mass, steps, lasts):
        arr.setflags(write=False)
    return _Coupling(i0, j0, mass, steps, lasts)


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
    i0, j0, mass, *_ = _coupling(s.n, t.n)
    with _quiet():
        cost = float(np.sum(mass * _pow_cost(s.values[i0] - t.values[j0], p)))
    return _finite(cost)


def wasserstein_pp_batch(S: np.ndarray, T: np.ndarray, p: float, out: np.ndarray,
                         cells: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Row-wise W_p^p for stacks of pre-sorted samples, into ``out``.

    ``S`` has shape (k, n) and ``T`` shape (k, m), each row sorted, and
    ``p`` is a float that ``_check_p`` passed; ``out`` receives the length-k
    vector of per-row costs, which is returned. ``cells`` is a C-ordered
    (2, k, c) array, c the number of coupling cells, and ``masses`` the
    cells' masses repeated on each of the k rows, C-ordered, as numpy
    buffers a product with one row broadcast over short rows, allocating as
    it goes; for k = 1 it may be the coupling's own mass row. The direction
    pass keeps ``cells`` in its working set, and ``masses`` too unless a
    block has one row.

    The kernel leaves in ``cells`` what the potentials of both samples read
    (see ``potential_values_batch``): the first layer holds the unweighted
    cell costs h(s_(i) - t_(j)), and, unless n == m, the second holds the
    difference of each cell's cost from the next one's, c - 1 per row.

    The cell costs are built C-ordered (``take``; a fancy index would give
    Fortran order), so ``sum(axis=1)`` reduces each contiguous row of their
    weighted copy alone, pairwise, exactly as ``wasserstein_pp`` sums one
    sample: every row's cost equals the scalar path's bit for bit, whatever
    k is. A matrix product with ``mass`` would pick its summation by the
    number of rows.
    """
    n, m = S.shape[1], T.shape[1]
    i0, j0, *_ = _coupling(n, m)
    costs, scratch = cells
    if n == m:
        np.subtract(S, T, out=costs)
    else:
        # the cells' ranks are in range, so "clip" never clips; it only
        # keeps ``take`` from buffering ``out``, as "raise" does
        S.take(i0, axis=1, out=costs, mode="clip")
        costs -= T.take(j0, axis=1, out=scratch, mode="clip")
    _pow_cost(costs, p)
    np.multiply(costs, masses, out=scratch).sum(axis=1, out=out)
    if n != m:
        # over the whole raveled layer: the last difference of each row
        # straddles two rows and is never read
        flat = costs.ravel()
        np.subtract(flat[1:], flat[:-1], out=scratch.ravel()[:-1])
    return out


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


def potential_values_batch(S: np.ndarray, T: np.ndarray, p: float, out: np.ndarray,
                           upper: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Row-wise potentials for stacks of pre-sorted samples, into ``out``.

    ``S`` is (k, n) and ``T`` is (k, m), each row sorted and C-ordered, and
    ``p`` is as for ``wasserstein_pp_batch``. ``out``, C-ordered (k, n),
    receives the phi values at the sorted source points, row by row, and is
    returned; ``upper`` is a scratch array of k gcd(n, m) - 1 entries.
    ``cells`` is the (2, k, c) array that ``wasserstein_pp_batch`` leaves
    for (S, T) or for (T, S): the two orders have the same cells in the
    same order, and |x - y|^p has the bits of |y - x|^p.

    A step's lower cost h(s_(i) - t_(r(i))) is source rank i's last cell,
    and its upper cost h(s_(i+1) - t_(r(i))) is the next cell unless the
    two grids share the boundary i/n. So one gather of the cells'
    differences at ``lasts`` gives every step but those; when n == m it
    gives none and is skipped. With g = gcd(n, m), the grids share g - 1
    boundaries, at i = q n/g for q = 1..g-1, where r(i) = q m/g and the
    lower cost is cell q (n + m)/g - q - 1. Each of these steps strides
    evenly through S, T, the cells and the output, so its upper cost is
    computed, and the step taken, over the raveled rows. Each step, upper
    minus lower, is cumulated along the row. Every element takes the same
    operations whatever k is, so the direction pass may hand over its rows
    in blocks of any height; it keeps them cache-sized.
    """
    n, m = S.shape[1], T.shape[1]
    g = math.gcd(n, m)
    a, b = n // g, m // g
    if n != m:
        # ``take`` gathers in C order; a fancy index would give Fortran
        # order. ``lasts`` is in range, so "clip" never clips
        cells[1].take(_coupling(n, m).lasts, axis=1, out=out, mode="clip")
    # over the raveled rows, so that numpy does not buffer column slices:
    # the last entry of each row straddles two rows and lands on the next
    # row's first potential, which is set below
    upper = _pow_cost(np.subtract(S.ravel()[a::a], T.ravel()[b - 1:-1:b], out=upper), p)
    np.subtract(upper, cells[0].ravel()[a + b - 2:-1:a + b - 1], out=out.ravel()[a::a])
    out[:, 0] = 0.0
    np.cumsum(out[:, 1:], axis=1, out=out[:, 1:])
    return out
