"""Studentized two-sample inference on the sliced transport cost.

The statistic T = sqrt(k r / (k + r)) * (estimate - delta) / sqrt(combined),
with r = nm/(n+m), is asymptotically standard normal under the null
hypothesis that the population sliced cost equals delta, which yields
two-sided p-values and confidence intervals by normal inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import ndtr, ndtri

import numpy as np

from .estimators import (VarianceComponents, _direction_pass, combined_variance,
                         w_hat_sq)
from .geometry import DirectionSet, SampleMatrix

# direction budget must stay well under the harmonic sample size before the
# projection-only variance is an honest studentizer
_W_ONLY_BUDGET_RATIO = 0.1


class DegenerateVarianceError(RuntimeError):
    """Raised when the combined variance estimate is exactly zero."""


@dataclass(frozen=True)
class InferenceReport:
    """Everything a test or interval reports, in one place."""

    estimate: float
    delta: float
    statistic: float
    p_value: float
    ci_low: float
    ci_high: float
    level: float
    variance: VarianceComponents
    effective_rate: float
    variance_mode: str = "combined"


def effective_rate(n: int, m: int, k: int) -> float:
    """sqrt(k r / (k + r)) with r = nm/(n+m), the studentization rate."""
    if min(n, m, k) < 1:
        raise ValueError("n, m, k must be positive")
    r = n * m / (n + m)
    return math.sqrt(k * r / (k + r))


def test_statistic(estimate: float, delta: float, n: int, m: int, k: int,
                   combined_variance: float) -> float:
    """Studentized statistic for the null value delta.

    Raises DegenerateVarianceError when the variance estimate is zero, since
    the statistic is undefined there.
    """
    if combined_variance < 0.0:
        raise ValueError("combined variance must be nonnegative")
    if combined_variance == 0.0:
        raise DegenerateVarianceError(
            "combined variance estimate is zero; statistic undefined")
    return effective_rate(n, m, k) * (estimate - delta) / math.sqrt(combined_variance)


def two_sided_pvalue(statistic: float) -> float:
    """2 * (1 - Phi(|T|)) for a standard normal Phi."""
    if not math.isfinite(statistic):
        raise ValueError("statistic must be finite")
    return float(2.0 * ndtr(-abs(statistic)))


def confidence_interval(estimate: float, n: int, m: int, k: int,
                        combined_variance: float, level: float) -> tuple[float, float]:
    """Normal-inversion interval; degenerate variance collapses to a point.

    Returns estimate +- z_((1+level)/2) * sqrt(variance) / rate.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    if combined_variance < 0.0:
        raise ValueError("combined variance must be nonnegative")
    if combined_variance == 0.0:
        return (estimate, estimate)
    half = ndtri(0.5 + 0.5 * level) * math.sqrt(combined_variance) / effective_rate(n, m, k)
    return (estimate - half, estimate + half)


def _estimate_and_variance(X: SampleMatrix, Y: SampleMatrix, dirs: DirectionSet,
                           p: float, variance_mode: str, threads: int,
                           need_variance: bool = False):
    """One direction pass to the estimate, ``w_hat_sq`` and the variance.

    Resolves ``variance_mode`` (see :func:`analyze`) to "combined", "w_only"
    or "none" before the pass; "none", the only outcome for "auto" and
    "combined" at p != 2, is refused when ``need_variance`` is set. Returns
    (SlicedEstimate, w_hat_sq, VarianceComponents or None, mode).
    """
    if variance_mode not in ("auto", "combined", "w_only"):
        raise ValueError(f"unknown variance_mode {variance_mode!r}")
    n, m, k = X.n, Y.n, dirs.k
    r = n * m / (n + m)
    if variance_mode != "w_only":
        mode = "combined" if p == 2.0 else "none"
    elif p == 2.0:
        raise ValueError("w_only applies to p != 2; p = 2 always uses the blend")
    elif k > _W_ONLY_BUDGET_RATIO * r:
        raise ValueError(
            f"w_only studentization needs k <= {_W_ONLY_BUDGET_RATIO} * nm/(n+m) "
            f"= {_W_ONLY_BUDGET_RATIO * r:.3g}, got k = {k}")
    else:
        mode = "w_only"
    if mode == "none" and need_variance:
        raise ValueError(
            "potential-based variance estimation needs p = 2; pass "
            "variance_mode='w_only' (--w-only) to accept projection-only "
            "studentization")
    est, g_x, g_y = _direction_pass(X, Y, dirs, p, mode == "combined", threads)
    w = w_hat_sq(est)
    if mode == "none":
        return est, w, None, mode
    v_pq = float(np.var(g_x)) if mode == "combined" else 0.0
    v_qp = float(np.var(g_y)) if mode == "combined" else 0.0
    return est, w, combined_variance(n, m, k, w, v_pq, v_qp), mode


def analyze(X: SampleMatrix, Y: SampleMatrix, dirs: DirectionSet, p: float = 2.0,
            delta: float = 0.0, level: float = 0.95, threads: int = 1,
            variance_mode: str = "auto") -> InferenceReport:
    """Full estimation plus inference pipeline on two samples.

    Parameters
    ----------
    X, Y : SampleMatrix
        The two samples.
    dirs : DirectionSet
        Projection directions; k must be at least 2 for any variance work.
    p : float
        Cost exponent. Potential-based variance estimation exists only for
        p = 2; other exponents require ``variance_mode="w_only"``.
    delta : float
        Null value of the sliced cost being tested.
    level : float
        Confidence level for the interval.
    threads : int
        Worker bound; results are identical for every value.
    variance_mode : {"auto", "combined", "w_only"}
        "combined" (the "auto" resolution at p = 2) blends projection and
        sampling variance. "w_only" studentizes by the projection variance
        alone. It is allowed only at p != 2, where no potential-based
        variance exists, and only while k <= 0.1 * nm/(n+m), where that
        variance is an honest studentizer; at p = 2 the blend already puts
        weight near 1 on ``w_hat_sq`` in that regime. The command line
        applies the same rule to ``--w-only``.

    Returns
    -------
    InferenceReport

    Raises
    ------
    DegenerateVarianceError
        When the selected variance estimate is exactly zero.
    ValueError
        For p != 2 without an explicit "w_only" opt-in, a "w_only" request
        at p = 2, or one whose direction budget is too large.
    """
    est, _, vc, mode = _estimate_and_variance(X, Y, dirs, p, variance_mode,
                                              threads, need_variance=True)
    n, m, k = est.n, est.m, est.k
    statistic = test_statistic(est.sw_pp, delta, n, m, k, vc.combined)
    low, high = confidence_interval(est.sw_pp, n, m, k, vc.combined, level)
    return InferenceReport(estimate=est.sw_pp,
                           delta=float(delta),
                           statistic=statistic,
                           p_value=two_sided_pvalue(statistic),
                           ci_low=low,
                           ci_high=high,
                           level=float(level),
                           variance=vc,
                           effective_rate=effective_rate(n, m, k),
                           variance_mode=mode)
