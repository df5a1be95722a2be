"""Point and variance estimators for the sliced transport cost.

The point estimator averages exact 1-d costs over k random directions.
Three variance estimators feed the studentization:

* ``w_hat_sq``, the dispersion of per-direction costs across directions,
  which captures Monte Carlo projection noise;
* ``v_hat_sq`` applied to (X, Y) and to (Y, X), the empirical variance over
  source points of the direction-averaged optimal potential, which captures
  sampling noise in the data;
* ``combined_variance``, a convex blend of the two weighted by how the
  direction budget k compares with the harmonic sample size nm/(n+m).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import DirectionSet, SampleMatrix
from .ot1d import wasserstein_pp_batch
from .potentials import PotentialTable, potential_values_batch

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


class WHatSq(NamedTuple):
    """Projection-noise variance estimate; ``clamped`` flags a negative
    rounding artifact that was truncated to zero."""

    value: float
    clamped: bool


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
    tied values may come out in any order. Callers only scatter potentials
    back through it, and tied source points always get equal potentials:
    the convex part grows by slope * (s_(i+1) - s_(i)) = 0 across a tie, and
    the quadratic part is equal too. The scattered result therefore does not
    depend on how ties are ordered.
    """
    order = np.argsort(block, axis=1)
    return np.take_along_axis(block, order, axis=1), order


def _check_dims(X: SampleMatrix, Y: SampleMatrix, dirs: DirectionSet) -> None:
    if X.d != Y.d or X.d != dirs.d:
        raise ValueError(
            f"dimension mismatch: X d={X.d}, Y d={Y.d}, dirs d={dirs.d}")


def _potentials_in_input_order(ssrc: np.ndarray, stgt: np.ndarray,
                               order: np.ndarray) -> np.ndarray:
    """Potentials of the sorted source rows, scattered back to input order."""
    ph = potential_values_batch(ssrc, stgt)
    out = np.empty_like(ph)
    np.put_along_axis(out, order, ph, axis=1)
    return out


def _pass_chunk(X: SampleMatrix, Y: SampleMatrix, dir_rows: np.ndarray, p: float,
                want_costs: bool, want_potentials: bool):
    px = dir_rows @ X.data.T
    py = dir_rows @ Y.data.T
    if not want_potentials:
        # costs depend on the sorted values alone, so skip the permutation
        # and its gather; the projections are this chunk's own, sort in place
        px.sort(axis=1)
        py.sort(axis=1)
        return wasserstein_pp_batch(px, py, p), None, None
    sx, ox = _sorted_rows(px)
    sy, oy = _sorted_rows(py)
    del px, py  # free the unsorted projections before the potentials
    costs = wasserstein_pp_batch(sx, sy, p) if want_costs else None
    gx_sum = _potentials_in_input_order(sx, sy, ox).sum(axis=0)
    gy_sum = _potentials_in_input_order(sy, sx, oy).sum(axis=0)
    return costs, gx_sum, gy_sum


def _direction_pass(X: SampleMatrix, Y: SampleMatrix, dirs: DirectionSet, p: float,
                    want_costs: bool, want_potentials: bool, threads: int):
    """One sweep over all directions, chunked for memory and parallelism.

    Chunk boundaries are fixed by ``_CHUNK`` alone, and chunk results are
    reduced in chunk order after all workers finish, so the output does not
    depend on the worker count.
    """
    _check_dims(X, Y, dirs)
    k = dirs.k
    spans = [(lo, min(lo + _CHUNK, k)) for lo in range(0, k, _CHUNK)]

    def work(span):
        lo, hi = span
        return _pass_chunk(X, Y, dirs.dirs[lo:hi], p, want_costs, want_potentials)

    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(work, spans))
    else:
        parts = [work(s) for s in spans]

    per_direction = None
    if want_costs:
        per_direction = np.empty(k)
        for (lo, hi), (costs, _, _) in zip(spans, parts):
            per_direction[lo:hi] = costs
    g_x = g_y = None
    if want_potentials:
        g_x = np.zeros(X.n)
        g_y = np.zeros(Y.n)
        for _, gx_sum, gy_sum in parts:
            g_x += gx_sum
            g_y += gy_sum
        g_x /= k
        g_y /= k
    return per_direction, g_x, g_y


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
    per_direction, _, _ = _direction_pass(X, Y, dirs, p,
                                          want_costs=True,
                                          want_potentials=False,
                                          threads=threads)
    return SlicedEstimate(sw_pp=float(np.mean(per_direction)),
                          per_direction=per_direction,
                          p=float(p), n=X.n, m=Y.n, k=dirs.k)


def w_hat_sq(est: SlicedEstimate) -> WHatSq:
    """Dispersion of per-direction costs: mean of squares minus squared mean.

    Requires k >= 2. A tiny negative value can arise from rounding when the
    per-direction costs are (near-)constant; it is clamped to zero and the
    clamp is reported.
    """
    if est.k < 2:
        raise ValueError("w_hat_sq needs at least 2 directions")
    per = est.per_direction
    value = float(np.mean(per * per) - est.sw_pp ** 2)
    if value < 0.0:
        return WHatSq(0.0, True)
    return WHatSq(value, False)


def potential_table(X: SampleMatrix, Y: SampleMatrix,
                    dirs: DirectionSet) -> PotentialTable:
    """Quadratic-cost potentials for every direction, at original points.

    Row l holds the optimal potential for direction l evaluated at the
    projections of X's rows in input order, transporting X's projected
    empirical measure onto Y's.
    """
    _check_dims(X, Y, dirs)
    px = dirs.dirs @ X.data.T
    py = dirs.dirs @ Y.data.T
    sx, ox = _sorted_rows(px)
    sy, _ = _sorted_rows(py)
    return PotentialTable(phi=_potentials_in_input_order(sx, sy, ox))


def v_hat_sq(X: SampleMatrix, Y: SampleMatrix, dirs: DirectionSet,
             threads: int = 1) -> float:
    """Sampling-noise variance estimate from transport potentials (p = 2).

    Averages the per-direction potentials pointwise over directions and
    returns the population variance of that average across X's rows. This
    equals the full double sum over direction pairs of empirical potential
    covariances, at O(k n) cost instead of O(k^2 n). Swap the arguments to
    estimate the companion quantity for Y.
    """
    _, g_x, _ = _direction_pass(X, Y, dirs, 2.0,
                                want_costs=False,
                                want_potentials=True,
                                threads=threads)
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
