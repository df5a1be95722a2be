"""Point and variance estimators for the sliced transport cost.

The point estimator averages exact 1-d costs over k random directions.
Three variance estimators feed the studentization:

* ``w_hat_sq``, the dispersion of per-direction costs across directions
  (their two-pass population variance), which captures Monte Carlo
  projection noise;
* ``v_hat_sq`` applied to (X, Y) and to (Y, X), the empirical variance over
  source points of the direction-averaged optimal potential, which captures
  sampling noise in the data;
* ``combined_variance``, a convex blend of the two weighted by how the
  direction budget k compares with the harmonic sample size nm/(n+m).

One chunked sweep, ``_direction_pass``, yields the per-direction costs and,
on request, the direction-averaged potentials; ``sliced_estimate``,
``v_hat_sq`` and the inference pipeline all read from it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import DirectionSet, SampleMatrix
from .ot1d import (_coupling, _finite, _quiet, potential_values_batch,
                   wasserstein_pp_batch)

_CHUNK = 512
# bytes of projected values (both samples) that one GEMM per sample writes
# at a time: a chunk is projected a panel of rows after another, into one
# buffer per sample. Panels are cut by (n, m) alone, never by the block
# rule, because BLAS may round a row differently in a product of another
# height; with n + m <= 1024 a panel is a whole chunk
_PANEL_BYTES = 4 * 1024 * 1024
# bytes of projected values (both samples) that ``_pass_chunk`` handles at a
# time; small enough that a block and its intermediates stay in a core's L2
_BLOCK_BYTES = 256 * 1024


def _variance(values) -> float:
    """Population variance (two-pass ``np.var``), or the overflow error."""
    with _quiet():
        return _finite(float(np.var(values)))


@dataclass(frozen=True, eq=False)
class SlicedEstimate:
    """Monte Carlo sliced-cost estimate plus its per-direction components."""

    sw_pp: float
    per_direction: np.ndarray
    p: float
    n: int
    m: int
    k: int


@dataclass(frozen=True)
class VarianceComponents:
    """All variance ingredients of the studentized statistic."""

    w_hat_sq: float
    v_hat_pq_sq: float
    v_hat_qp_sq: float
    tau_hat: float
    lambda_hat: float
    combined: float


class _Side:
    """One sample's sorted block in a chunk's working set: the sort keys,
    which end as the permutation, the sorted rows and their sortedness
    flags, each of its exact width, so that a block's rows are a
    contiguous prefix."""

    def __init__(self, rows: int, n: int):
        self.index = np.arange(n)
        # turn each row's column indices into indices of the raveled block
        self.offsets = np.arange(rows)[:, None] * n
        self.order = np.empty((rows, n), dtype=np.int64)
        self.values = np.empty((rows, n))
        self.ordered = np.empty((rows, n - 1), dtype=bool)


def _carve(arena: np.ndarray, shape, start: int = 0) -> np.ndarray:
    """A C-ordered float array of ``shape`` over ``arena`` from ``start``:
    of its exact width, so never a column slice."""
    return arena[start:start + math.prod(shape)].reshape(shape)


def _sorted_order(block: np.ndarray, side: _Side, arena: np.ndarray):
    """(sorted rows, their sorting permutation), written into ``side``'s
    buffers, with ``arena`` as scratch; see ``_pass_chunk``."""
    rows, n = block.shape
    order, s = side.order[:rows], side.values[:rows]
    flat = _carve(arena, (rows, n)).view(np.int64)
    low = (1 << max(1, (n - 1).bit_length())) - 1
    np.bitwise_and(block.view(np.int64), ~low, out=order)
    order |= side.index
    order.view(np.float64).sort(axis=1)
    nan = np.isnan(order.view(np.float64)[:, -1]).any()
    order &= low
    # an index read off a NaN key may point anywhere, but then ``nan`` sends
    # the block to the argsort; every other index is in range
    block.ravel().take(np.add(order, side.offsets[:rows], out=flat), out=s,
                       mode="clip")
    ordered = np.greater_equal(s[:, 1:], s[:, :-1], out=side.ordered[:rows])
    if nan or not ordered.all():
        order[...] = np.argsort(block, axis=1)
        block.ravel().take(np.add(order, side.offsets[:rows], out=flat), out=s,
                           mode="clip")
    return s, order


def _pass_chunk(X: SampleMatrix, Y: SampleMatrix, dir_rows: np.ndarray, p: float,
                potentials: bool):
    """Costs and potential sums of one chunk: (costs, gx_sum, gy_sum).

    The chunk is projected a panel of ``_PANEL_BYTES // (8 (n + m))``
    directions at a time (at least one, at most the chunk), starting at its
    first row, by one GEMM per sample into two buffers that every panel
    reuses. A panel's rows are walked in blocks of ``_BLOCK_BYTES // (8 (n +
    m))`` directions (at least one, at most the panel), so that a block's
    sorts, gathers, costs, potentials and scatter stay in cache; no block
    straddles two panels. Every block temporary lives in one working set,
    allocated once per chunk and written through ``out=``, so the block
    loop allocates no block-sized array: each sample's sort keys, sorted
    rows and sortedness flags (``_Side``), and one arena that the block's
    stages take in turn, for the gathers' flat indices, the cost cells and
    each sample's potentials and step scratch. A worker holds one panel
    and one block's buffers, whatever k. Costs depend on the sorted values
    alone; without ``potentials`` each block is sorted in place and the
    sums are None.

    Otherwise ``_sorted_order`` gets each row's permutation from a value
    sort, several times faster than an argsort. With b = max(1, bit
    length of n - 1), a key is the value with its low b bits replaced by
    its column index; clearing them truncates toward zero, which is
    monotone. A row's keys are distinct, so they sort as floats in one
    order whatever the algorithm, and their low bits are the permutation.
    Only distinct values in one bucket of 2^b ulp can come out of order
    (by index, reversed below zero), seen as gathered rows out of order;
    an inf or NaN keyed with an index is a NaN, sorted last, whose index a
    SIMD sort may drop. Either way the block is argsorted instead.

    Any sorting permutation gives the same values, up to the sign of a
    zero, which no cost or potential sees. Tied source points always get
    equal potentials at every p: the step across a tie is h(s - t) -
    h(s - t) for the same floats, exactly 0. So the sums do not depend on
    which permutation sorts a row.
    """
    (k, _), n, m = dir_rows.shape, X.n, Y.n
    height = min(k, max(1, _PANEL_BYTES // (8 * (n + m))))
    rows = min(height, max(1, _BLOCK_BYTES // (8 * (n + m))))
    panel_x, panel_y = np.empty((height, n)), np.empty((height, m))
    layers, cells = (1 if n == m else 2), _coupling(n, m).mass.size
    # the largest stage: the cost cells, or one sample's potentials and step
    # scratch (which also cover the gather's flat indices)
    arena = np.empty(rows * max(layers * cells, 2 * max(n, m) - 1))
    costs = np.empty(k)
    if potentials:
        side_x, side_y = _Side(rows, n), _Side(rows, m)
        gx_sum, gy_sum = np.zeros(n), np.zeros(m)
    else:
        gx_sum = gy_sum = None
    for top in range(0, k, height):
        panel = dir_rows[top:top + height]
        px = np.matmul(panel, X.data.T, out=panel_x[:len(panel)])
        py = np.matmul(panel, Y.data.T, out=panel_y[:len(panel)])
        for lo in range(0, len(panel), rows):
            bx, by = px[lo:lo + rows], py[lo:lo + rows]
            r = len(bx)
            block_costs = costs[top + lo:top + lo + r]
            block_cells = _carve(arena, (layers, r, cells))
            if not potentials:
                bx.sort(axis=1)
                by.sort(axis=1)
                wasserstein_pp_batch(bx, by, p, out=block_costs, cells=block_cells)
                continue
            sx, ox = _sorted_order(bx, side_x, arena)
            sy, oy = _sorted_order(by, side_y, arena)
            wasserstein_pp_batch(sx, sy, p, out=block_costs, cells=block_cells)
            for sums, s, t, order in ((gx_sum, sx, sy, ox), (gy_sum, sy, sx, oy)):
                phi = _carve(arena, s.shape)
                upper = _carve(arena, (r, s.shape[1] - 1), phi.size)
                potential_values_batch(s, t, p, out=phi, upper=upper)
                np.add.at(sums, order.ravel(), phi.ravel())
    return costs, gx_sum, gy_sum


def _check_threads(threads: int) -> None:
    """Refuse a worker bound below 1."""
    if threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")


def _check_budget(k: int) -> None:
    """Refuse a direction budget below 2: the spread of the per-direction
    costs, ``w_hat_sq``, needs two of them."""
    if k < 2:
        raise ValueError(f"need at least 2 directions, got k={k}")


def _direction_pass(X: SampleMatrix, Y: SampleMatrix, dirs: DirectionSet, p: float,
                    potentials: bool, threads: int):
    """One sweep over all directions, chunked for memory and parallelism.

    Returns (SlicedEstimate, g_x, g_y). The per-direction costs are always
    computed. With ``potentials``, g_x and g_y are the direction-averaged
    potentials for the same cost |s - t|^p at X's and Y's rows in input
    order; without it they are None. A cost, a potential or their mean that
    overflows (finite costs can have potentials that do) raises ValueError,
    with numpy's warnings silenced.

    In a chunk, ``np.add.at`` adds each potential to its input-order slot,
    from +0.0 and in direction order, block after block and panel after
    panel: the sums of the scattered array over axis 0, bit for bit, as a
    potential is never -0.0, whatever the block height (``np.add.at`` gives
    the same sums before numpy 1.25, only several times slower). Chunk
    boundaries are fixed by ``_CHUNK`` alone and panel boundaries by
    ``_CHUNK`` and (n, m) alone, and chunk results are added in chunk order
    as they arrive, so the output does not depend on the worker count.
    Each worker holds one chunk's panel and working set (see
    ``_pass_chunk``), so memory grows with (n, m) and the worker count,
    not with k.
    """
    _check_threads(threads)
    if X.d != Y.d or X.d != dirs.d:
        raise ValueError(
            f"dimension mismatch: X d={X.d}, Y d={Y.d}, dirs d={dirs.d}")
    k = dirs.k
    starts = range(0, k, _CHUNK)

    def work(lo):
        with _quiet():
            return _pass_chunk(X, Y, dirs.dirs[lo:lo + _CHUNK], p, potentials)

    per_direction = np.empty(k)
    g_x = np.zeros(X.n) if potentials else None
    g_y = np.zeros(Y.n) if potentials else None
    with ThreadPoolExecutor(max_workers=threads) as pool, _quiet():
        parts = (pool.map(work, starts) if threads > 1 and len(starts) > 1
                 else map(work, starts))
        for lo, (costs, gx_sum, gy_sum) in zip(starts, parts):
            per_direction[lo:lo + _CHUNK] = costs
            if potentials:
                g_x += gx_sum
                g_y += gy_sum
        sw_pp = float(np.mean(per_direction))
        if potentials:
            g_x /= k
            g_y /= k
    for values in (sw_pp, per_direction, g_x, g_y):
        if values is not None:
            _finite(values)
    est = SlicedEstimate(sw_pp=sw_pp, per_direction=per_direction, p=float(p),
                         n=X.n, m=Y.n, k=k)
    return est, g_x, g_y


def sliced_estimate(X: SampleMatrix, Y: SampleMatrix, dirs: DirectionSet,
                    p: float = 2.0, threads: int = 1) -> SlicedEstimate:
    """Monte Carlo estimate of the sliced p-cost between two samples.

    Parameters
    ----------
    X, Y : SampleMatrix
        Samples with a common coordinate dimension.
    dirs : DirectionSet
        Unit directions; one exact 1-d transport cost per direction.
    p : float
        Cost exponent, must exceed 1.
    threads : int
        Worker bound for the direction sweep, at least 1; the result is
        identical for every value.

    Returns
    -------
    SlicedEstimate
        ``sw_pp`` is the arithmetic mean of the per-direction costs.
    """
    return _direction_pass(X, Y, dirs, p, False, threads)[0]


def w_hat_sq(est: SlicedEstimate) -> float:
    """Dispersion of per-direction costs: their population variance.

    Two-pass (``np.var``): the costs are centered before they are squared,
    so the result is never negative and does not cancel to zero when the
    costs are large and nearly equal, as mean of squares minus squared mean
    does. Requires k >= 2. Raises the pass's overflow error if it overflows.
    """
    _check_budget(est.k)
    return _variance(est.per_direction)


def v_hat_sq(X: SampleMatrix, Y: SampleMatrix, dirs: DirectionSet,
             p: float = 2.0, threads: int = 1) -> float:
    """Sampling-noise variance estimate from the |s - t|^p potentials.

    Averages the per-direction potentials pointwise over directions and
    returns the population variance of that average across X's rows. This
    equals the full double sum over direction pairs of empirical potential
    covariances, at O(k n) cost instead of O(k^2 n). Swap the arguments to
    estimate the companion quantity for Y.
    """
    _, g_x, _ = _direction_pass(X, Y, dirs, p, True, threads)
    return _variance(g_x)


def combined_variance(n: int, m: int, k: int, w_hat_sq: float,
                      v_hat_pq_sq: float, v_hat_qp_sq: float) -> VarianceComponents:
    """Blend projection and sampling variance by the budget ratio.

    With r = nm/(n+m), the weight tau_hat = k/(k+r) interpolates between the
    direction-dominated regime (tau near 0, projection noise rules) and the
    sample-dominated regime (tau near 1, sampling noise rules); lambda_hat =
    n/(n+m) splits the sampling part between the two samples.
    """
    if min(n, m, k) < 1:
        raise ValueError("n, m, k must be positive")
    for name, val in (("w_hat_sq", w_hat_sq), ("v_hat_pq_sq", v_hat_pq_sq),
                      ("v_hat_qp_sq", v_hat_qp_sq)):
        if val < 0.0 or not np.isfinite(val):
            raise ValueError(f"{name} must be finite and nonnegative, got {val}")
    r = n * m / (n + m)
    tau = k / (k + r)
    lam = n / (n + m)
    combined = (1.0 - tau) * w_hat_sq + tau * ((1.0 - lam) * v_hat_pq_sq
                                               + lam * v_hat_qp_sq)
    return VarianceComponents(w_hat_sq=float(w_hat_sq),
                              v_hat_pq_sq=float(v_hat_pq_sq),
                              v_hat_qp_sq=float(v_hat_qp_sq),
                              tau_hat=float(tau),
                              lambda_hat=float(lam),
                              combined=float(combined))
