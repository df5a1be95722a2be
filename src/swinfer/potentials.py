"""Optimal transport potentials for the quadratic cost on the line.

For p = 2 the dual of the empirical transport problem is attained by a
c-concave potential phi(x) = x^2 - 2*phi_conv(x) with phi_conv convex and
piecewise linear. On the sorted source points the convex part satisfies
phi_conv(s_(1)) = 0 and grows with slope t_(r(i)) on [s_(i), s_(i+1)],
where r(i) is the largest target rank coupled to source rank i. Together
with the c-conjugate phi^c(t) = min_i (|s_(i) - t|^2 - phi(s_(i))) this
attains the primal cost: strong duality holds exactly for empirical
measures, up to floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ot1d import SortedProjection, wasserstein_pp

ANCHOR_NOTE = "phi_conv(s_(1)) = 0 per direction"


@dataclass(frozen=True, eq=False)
class PotentialTable:
    """Per-direction potential values at the original source points.

    ``phi[l][i]`` is the optimal potential for direction l evaluated at the
    projection of the i-th source observation in input order. ``anchor``
    records the normalization fixing the additive constant; every consumer
    in this package is invariant to that choice.
    """

    phi: np.ndarray
    anchor: str = ANCHOR_NOTE

    @property
    def k(self) -> int:
        return self.phi.shape[0]

    @property
    def n(self) -> int:
        return self.phi.shape[1]


def row_assignment(n: int, m: int) -> np.ndarray:
    """Largest target rank coupled to each source rank, as 1-based ranks.

    Equals ceil(i * m / n) for every i = 1..n (exact integer arithmetic;
    the last entry is always m). Nondecreasing in i.
    """
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be positive")
    i = np.arange(1, n + 1, dtype=np.int64)
    return -(-(i * m) // n)


def _potential_sorted(svals: np.ndarray, tvals: np.ndarray) -> np.ndarray:
    """phi at sorted source points; inputs are sorted 1-d arrays."""
    n = svals.shape[0]
    if n == 1:
        return svals ** 2
    slopes = tvals[row_assignment(n, tvals.shape[0])[:-1] - 1]
    conv = np.empty(n)
    conv[0] = 0.0
    np.cumsum(slopes * np.diff(svals), out=conv[1:])
    return svals ** 2 - 2.0 * conv


def potential_values(s: SortedProjection, t: SortedProjection) -> np.ndarray:
    """Optimal potential phi evaluated at the sorted source points.

    The convex part is anchored at phi_conv(s_(1)) = 0 and accumulated with
    slope t_(r(i)) across consecutive sorted source points; the returned
    values are phi(s_(i)) = s_(i)^2 - 2 * phi_conv(s_(i)). Use ``s.perm`` to
    scatter the values back to input order.

    Only the quadratic cost is supported; callers selecting another exponent
    must be rejected upstream.
    """
    return _potential_sorted(s.values, t.values)


def potential_values_batch(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Row-wise potentials for stacks of pre-sorted samples.

    ``S`` is (k, n) and ``T`` is (k, m), each row sorted. Returns the (k, n)
    matrix of phi values at the sorted source points, row by row.
    """
    k, n = S.shape
    if n == 1:
        return S ** 2
    m = T.shape[1]
    # r(i) = i when m == n, so the slopes are a view and need no gather.
    # ``take`` gathers in C order; a fancy index would give Fortran order,
    # and the mixed-layout multiply below runs about twice as slow.
    slopes = T[:, :-1] if m == n else T.take(row_assignment(n, m)[:-1] - 1, axis=1)
    conv = np.empty((k, n))
    conv[:, 0] = 0.0
    np.subtract(S[:, 1:], S[:, :-1], out=conv[:, 1:])
    conv[:, 1:] *= slopes
    np.cumsum(conv[:, 1:], axis=1, out=conv[:, 1:])
    # s^2 - 2c, computed as s^2 + (-2)c: scaling by -2 is exact
    conv *= -2.0
    conv += S * S
    return conv


def _c_conjugate_sorted(phi_at_s: np.ndarray, svals: np.ndarray,
                        tq: np.ndarray) -> np.ndarray:
    """Conjugate at sorted query points via divide and conquer.

    The quadratic cost is submodular in (rank, point), so the minimizing
    source rank is nondecreasing along sorted queries regardless of the phi
    vector. Solving the middle query by a full scan of its bracket and
    recursing on the two halves evaluates the same expression as the dense
    scan while touching O((n + m) log m) entries.
    """
    out = np.empty(tq.shape[0])
    stack = [(0, tq.shape[0], 0, svals.shape[0] - 1)]
    while stack:
        qlo, qhi, ilo, ihi = stack.pop()
        if qlo >= qhi:
            continue
        mid = (qlo + qhi) // 2
        vals = (svals[ilo:ihi + 1] - tq[mid]) ** 2 - phi_at_s[ilo:ihi + 1]
        a = int(np.argmin(vals))
        out[mid] = vals[a]
        a += ilo
        stack.append((qlo, mid, ilo, a))
        stack.append((mid + 1, qhi, a, ihi))
    return out


def c_conjugate(phi_at_s: np.ndarray, s: SortedProjection,
                t_points) -> np.ndarray:
    """c-conjugate phi^c(t) = min_i (|s_(i) - t|^2 - phi(s_(i))).

    Parameters
    ----------
    phi_at_s : ndarray of length n
        Potential values at the sorted source points.
    s : SortedProjection
        The source sample.
    t_points : array-like
        Query points, any order; the result matches their order.

    Returns
    -------
    ndarray of length len(t_points)
    """
    phi_at_s = np.asarray(phi_at_s, dtype=np.float64)
    t_points = np.asarray(t_points, dtype=np.float64)
    if phi_at_s.shape != s.values.shape:
        raise ValueError("phi_at_s must align with the sorted source points")
    if t_points.ndim != 1:
        raise ValueError("t_points must be 1-d")
    order = np.argsort(t_points, kind="stable")
    tq = t_points[order]
    conj = _c_conjugate_sorted(phi_at_s, s.values, tq)
    out = np.empty_like(conj)
    out[order] = conj
    return out


def duality_gap(s: SortedProjection, t: SortedProjection) -> float:
    """Primal minus dual value at p = 2; zero up to rounding.

    Returns W_2^2(s, t) - [mean(phi(s_i)) + mean(phi^c(t_j))] where phi is
    the constructed potential. The magnitude should not exceed about
    1e-9 * (1 + W_2^2) on well-scaled data.
    """
    primal = wasserstein_pp(s, t, 2.0)
    phi = potential_values(s, t)
    conj = c_conjugate(phi, s, t.values)
    dual = float(np.mean(phi)) + float(np.mean(conj))
    return primal - dual
