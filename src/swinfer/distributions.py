"""Reference distributions and the tail-regularity diagnostic.

Identity-covariance Gaussians are the built-in simulation family: they admit
a closed-form sliced cost under mean shifts, which makes them the natural
ground truth. The J_alpha functional integrates
(t(1-t))^(alpha/2) / f(F^{-1}(t))^alpha over (0, 1); its finiteness is the
tail condition that separates well-behaved quantile densities from heavy
ones, and it is classified here numerically from a shrinking-cutoff ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri, poch

from ._rng import gaussian_rows
from .geometry import SampleMatrix

_REL_TOL = 1e-6
_EXTRAPOLATION_CAP = 0.95
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# the J_alpha cutoff ladder: each rung extends the integration window from
# (eps_prev, 1 - eps_prev) to (eps, 1 - eps), down to 1e-15, with a fixed
# Gauss-Legendre node count per tail increment
_EPSILONS = tuple(10.0 ** -e for e in range(2, 16))
_POINTS_PER_LEVEL = 48


@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """Gaussian with identity-scaled covariance sigma_sq * I."""

    mean: np.ndarray
    sigma_sq: float = 1.0

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        if mean.ndim != 1 or not np.isfinite(mean).all():
            raise ValueError("mean must be a finite 1-d vector")
        if not self.sigma_sq > 0.0:
            raise ValueError(f"sigma_sq must be positive, got {self.sigma_sq}")
        object.__setattr__(self, "mean", mean)

    @property
    def d(self) -> int:
        return self.mean.shape[0]


def sample_gaussian(spec: GaussianSpec, n: int, seed: int,
                    stream_id: int = 0) -> SampleMatrix:
    """n i.i.d. draws mean + sigma * z, deterministic per (seed, stream_id).

    Row r of the output is independent of n, so prefixes agree across
    different sample sizes under one stream.
    """
    if n < 2:
        raise ValueError("need n >= 2 to form a valid sample matrix")
    z = gaussian_rows(seed, stream_id, n, spec.d)
    return SampleMatrix(spec.mean + math.sqrt(spec.sigma_sq) * z)


def gaussian_sw2_meanshift(delta, p: float = 2.0) -> float:
    """Population sliced p-cost between N(a, I) and N(a + delta, I).

    Along a unit direction theta the projected measures are unit-variance
    Gaussians separated by <theta, delta>, so the directional cost is
    |<theta, delta>|^p and its sphere average is E|theta_1|^p ||delta||^p,
    with E|theta_1|^p = Gamma(d/2) Gamma((p+1)/2) / (sqrt(pi) Gamma((d+p)/2)).
    At p = 2 this is ||delta||^2 / d. Depends on delta only through its norm.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=np.float64))
    if delta.ndim != 1:
        raise ValueError("delta must be a vector")
    d = delta.shape[0]
    # poch(a, x) = Gamma(a + x) / Gamma(a), and sqrt(pi) = Gamma(1/2)
    moment = float(poch(0.5, 0.5 * p) / poch(0.5 * d, 0.5 * p))
    return float(delta @ delta) ** (0.5 * p) * moment


def gaussian_quantile_density(t) -> np.ndarray:
    """f(F^{-1}(t)) for the standard normal."""
    x = ndtri(np.asarray(t, dtype=np.float64))
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def uniform_quantile_density(t) -> np.ndarray:
    """f(F^{-1}(t)) for the uniform distribution on (0, 1): identically 1."""
    return np.ones_like(np.asarray(t, dtype=np.float64))


@dataclass(frozen=True)
class JAlphaResult:
    """Value and convergence status of the tail-regularity integral."""

    value: float
    status: str  # "converged" or "diverging"


def _eval_integrand(quantile_density, t_exact: np.ndarray, weight: np.ndarray,
                    alpha: float) -> np.ndarray:
    dens = np.asarray(quantile_density(t_exact), dtype=np.float64)
    if dens.shape != t_exact.shape:
        raise ValueError("quantile_density must be vectorized over its input")
    if not np.isfinite(dens).all() or (dens <= 0.0).any():
        raise ValueError("quantile density must be positive and finite on (0, 1)")
    return weight ** (0.5 * alpha) / dens ** alpha


def _central_integral(quantile_density, alpha: float, eps0: float) -> float:
    nodes, weights = np.polynomial.legendre.leggauss(_POINTS_PER_LEVEL)
    total = 0.0
    panel_edges = np.linspace(eps0, 1.0 - eps0, 9)
    for a, b in zip(panel_edges[:-1], panel_edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        t = mid + half * nodes
        vals = _eval_integrand(quantile_density, t, t * (1.0 - t), alpha)
        total += half * float(weights @ vals)
    return total


def _tail_increment(quantile_density, alpha: float, lo: float,
                    hi: float) -> float:
    """Integral over (lo, hi) of both tails, by log-substitution.

    The left tail evaluates at t = u; the right tail at t = 1 - u with the
    weight t(1-t) formed from the exact u, which keeps the weight accurate
    deep into the tail.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_POINTS_PER_LEVEL)
    ylo, yhi = math.log(lo), math.log(hi)
    mid, half = 0.5 * (ylo + yhi), 0.5 * (yhi - ylo)
    y = mid + half * nodes
    u = np.exp(y)
    jac = half * u
    left = _eval_integrand(quantile_density, u, u * (1.0 - u), alpha)
    right = _eval_integrand(quantile_density, 1.0 - u, u * (1.0 - u), alpha)
    return float(weights @ (jac * (left + right)))


def j_alpha(quantile_density, alpha: float) -> JAlphaResult:
    """Classify and evaluate the tail-regularity integral J_alpha.

    Parameters
    ----------
    quantile_density : callable
        Vectorized map t -> f(F^{-1}(t)), positive on (0, 1).
    alpha : float
        Exponent, at least 1.

    Returns
    -------
    JAlphaResult
        ``status`` is "converged" when successive ladder values agree to
        1e-6 relative (a geometric tail correction accelerates the decision
        when increments decay cleanly), else "diverging". The value is the
        last ladder estimate either way.

    Notes
    -----
    Convergence of the ladder tracks finiteness of the integral: shrinking
    the cutoff adds tail mass that either dies out geometrically (finite
    integral) or keeps contributing (infinite one).
    """
    if alpha < 1.0:
        raise ValueError(f"alpha must be at least 1, got {alpha}")
    running = _central_integral(quantile_density, alpha, _EPSILONS[0])
    previous_value = running
    previous_increment = None
    for hi, lo in zip(_EPSILONS[:-1], _EPSILONS[1:]):
        increment = _tail_increment(quantile_density, alpha, lo, hi)
        running += increment
        value = running
        if previous_increment is not None and 0.0 < increment:
            ratio = increment / previous_increment
            if 0.0 < ratio < _EXTRAPOLATION_CAP:
                value = running + increment * ratio / (1.0 - ratio)
        scale = max(abs(value), abs(previous_value), 1e-300)
        if abs(value - previous_value) < _REL_TOL * scale:
            return JAlphaResult(value=float(value), status="converged")
        previous_value = value
        previous_increment = increment
    return JAlphaResult(value=float(previous_value), status="diverging")
