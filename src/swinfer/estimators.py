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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import DirectionSet, SampleMatrix
from .ot1d import wasserstein_pp_batch
from .potentials import potential_values_batch

_CHUNK = 512


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


def _sorted_rows(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort each row, returning the sorted rows and the sort permutation.

    The permutation comes from the default (unstable, vectorized) argsort, so
    tied values may come out in any order. Callers only reduce potentials
    back to input order through it, and tied source points always get equal
    potentials at every p: the step across a tie is h(s - t) - h(s - t) for
    the same floats, exactly 0. The reduced result therefore does not depend
    on how ties are ordered.
    """
    order = np.argsort(block, axis=1)
    return np.take_along_axis(block, order, axis=1), order


def _project_sorted(X: SampleMatrix, Y: SampleMatrix, dir_rows: np.ndarray,
                    with_order: bool):
    """Both samples projected on ``dir_rows``, rows sorted: (sx, sy, ox, oy).

    Without ``with_order`` the permutations ``ox``, ``oy`` are None and the
    projections, this call's own, are sorted in place.
    """
    px = dir_rows @ X.data.T
    py = dir_rows @ Y.data.T
    if not with_order:
        px.sort(axis=1)
        py.sort(axis=1)
        return px, py, None, None
    sx, ox = _sorted_rows(px)
    sy, oy = _sorted_rows(py)
    return sx, sy, ox, oy


def _pass_chunk(X: SampleMatrix, Y: SampleMatrix, dir_rows: np.ndarray, p: float,
                potentials: bool):
    # costs depend on the sorted values alone; only the potentials need the
    # permutations and their gathers
    sx, sy, ox, oy = _project_sorted(X, Y, dir_rows, potentials)
    costs = wasserstein_pp_batch(sx, sy, p)
    if not potentials:
        return costs, None, None
    gx_sum = np.bincount(ox.ravel(), minlength=X.n,
                         weights=potential_values_batch(sx, sy, p).ravel())
    gy_sum = np.bincount(oy.ravel(), minlength=Y.n,
                         weights=potential_values_batch(sy, sx, p).ravel())
    return costs, gx_sum, gy_sum


def _direction_pass(X: SampleMatrix, Y: SampleMatrix, dirs: DirectionSet, p: float,
                    potentials: bool, threads: int):
    """One sweep over all directions, chunked for memory and parallelism.

    Returns (SlicedEstimate, g_x, g_y). The per-direction costs are always
    computed. With ``potentials``, g_x and g_y are the direction-averaged
    potentials for the same cost |s - t|^p at X's and Y's rows in input
    order; without it they are None.

    In a chunk, ``np.bincount`` adds each potential to its input-order slot,
    from +0.0 and in direction order: the sums of the scattered array over
    axis 0, bit for bit, as a potential is never -0.0. Chunk boundaries are
    fixed by ``_CHUNK`` alone, and chunk results are reduced in chunk order
    after all workers finish, so the output does not depend on the worker
    count.
    """
    if X.d != Y.d or X.d != dirs.d:
        raise ValueError(
            f"dimension mismatch: X d={X.d}, Y d={Y.d}, dirs d={dirs.d}")
    k = dirs.k
    starts = range(0, k, _CHUNK)

    def work(lo):
        return _pass_chunk(X, Y, dirs.dirs[lo:lo + _CHUNK], p, potentials)

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(work, starts))
    else:
        parts = [work(lo) for lo in starts]

    per_direction = np.concatenate([costs for costs, _, _ in parts])
    est = SlicedEstimate(sw_pp=float(np.mean(per_direction)),
                         per_direction=per_direction,
                         p=float(p), n=X.n, m=Y.n, k=k)
    if not potentials:
        return est, None, None
    g_x = sum((gx_sum for _, gx_sum, _ in parts), np.zeros(X.n)) / k
    g_y = sum((gy_sum for _, _, gy_sum in parts), np.zeros(Y.n)) / k
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
        Worker bound for the direction sweep; the result is identical for
        every value.

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
    does. Requires k >= 2.
    """
    if est.k < 2:
        raise ValueError("w_hat_sq needs at least 2 directions")
    return float(np.var(est.per_direction))


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
    return float(np.var(g_x))


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
