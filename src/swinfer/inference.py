"""Studentized two-sample inference on the sliced transport cost.

The statistic T = sqrt(k r / (k + r)) * (estimate - delta) / sqrt(combined),
with r = nm/(n+m), is asymptotically standard normal under the null
hypothesis that the population sliced cost equals delta, which yields
two-sided p-values and confidence intervals by normal inversion. The test
rejects when |T| > z_((1+level)/2), the critical value the interval inverts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import ndtr, ndtri

from .estimators import (VarianceComponents, _check_budget, _direction_pass,
                         _variance, combined_variance, w_hat_sq)
from .geometry import DirectionSet, SampleMatrix


class DegenerateVarianceError(RuntimeError):
    """Raised when the combined variance estimate is exactly zero."""


@dataclass(frozen=True)
class InferenceReport:
    """Everything a test or interval reports, in one place."""

    estimate: float
    delta: float
    statistic: float
    p_value: float
    reject: bool
    ci_low: float
    ci_high: float
    level: float
    variance: VarianceComponents
    effective_rate: float


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
    the statistic is undefined there, and ValueError on a non-finite delta.
    """
    if not math.isfinite(delta):
        raise ValueError(f"null value delta must be finite, got {delta}")
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


def _critical_value(level: float) -> float:
    """z_((1+level)/2): the interval's half-width factor and the test's cutoff."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    return float(ndtri(0.5 + 0.5 * level))


def confidence_interval(estimate: float, n: int, m: int, k: int,
                        combined_variance: float, level: float) -> tuple[float, float]:
    """Normal-inversion interval; degenerate variance collapses to a point.

    Returns estimate +- z_((1+level)/2) * sqrt(variance) / rate.
    """
    z = _critical_value(level)
    if combined_variance < 0.0:
        raise ValueError("combined variance must be nonnegative")
    if combined_variance == 0.0:
        return (estimate, estimate)
    half = z * math.sqrt(combined_variance) / effective_rate(n, m, k)
    return (estimate - half, estimate + half)


def _estimate_and_variance(X: SampleMatrix, Y: SampleMatrix, dirs: DirectionSet,
                           p: float, threads: int):
    """One direction pass to the estimate and the blended variance.

    Returns (SlicedEstimate, VarianceComponents). A budget below 2
    directions is refused before the pass.
    """
    _check_budget(dirs.k)
    est, g_x, g_y = _direction_pass(X, Y, dirs, p, True, threads)
    return est, combined_variance(est.n, est.m, est.k, w_hat_sq(est),
                                  _variance(g_x), _variance(g_y))


def analyze(X: SampleMatrix, Y: SampleMatrix, dirs: DirectionSet, p: float = 2.0,
            delta: float = 0.0, level: float = 0.95,
            threads: int = 1) -> InferenceReport:
    """Full estimation plus inference pipeline on two samples.

    Parameters
    ----------
    X, Y : SampleMatrix
        The two samples.
    dirs : DirectionSet
        Projection directions; k must be at least 2, checked before any
        projection.
    p : float
        Cost exponent, must exceed 1. The sampling variance comes from the
        transport potentials of the same cost |s - t|^p.
    delta : float
        Null value of the sliced cost being tested.
    level : float
        Confidence level for the interval.
    threads : int
        Worker bound, at least 1; results are identical for every value.

    Returns
    -------
    InferenceReport
        ``reject`` is |statistic| > z_((1+level)/2), the z of the interval.

    Raises
    ------
    DegenerateVarianceError
        When the combined variance estimate is exactly zero.
    """
    est, vc = _estimate_and_variance(X, Y, dirs, p, threads)
    n, m, k = est.n, est.m, est.k
    statistic = test_statistic(est.sw_pp, delta, n, m, k, vc.combined)
    low, high = confidence_interval(est.sw_pp, n, m, k, vc.combined, level)
    return InferenceReport(estimate=est.sw_pp,
                           delta=float(delta),
                           statistic=statistic,
                           p_value=two_sided_pvalue(statistic),
                           reject=bool(abs(statistic) > _critical_value(level)),
                           ci_low=low,
                           ci_high=high,
                           level=float(level),
                           variance=vc,
                           effective_rate=effective_rate(n, m, k))
