"""Optimal transport potentials for the cost |s - t|^p on the line.

For a convex cost h(s - t) = |s - t|^p, p > 1, the dual of the empirical
transport problem is attained by a potential built from the monotone
coupling alone. On the sorted source points it starts from
phi(s_(1)) = 0 and steps with

    phi(s_(i+1)) = phi(s_(i)) + h(s_(i+1) - t_(r(i))) - h(s_(i) - t_(r(i))),

where r(i) is the largest target rank coupled to source rank i. Together
with the c-conjugate phi^c(t) = min_i (h(s_(i) - t) - phi(s_(i))) this
attains the primal cost: strong duality holds exactly for empirical
measures, up to floating-point rounding. Each step is a difference of costs
of s - t, so a common translation of both samples leaves every value
unchanged up to rounding, with nothing large squared before it cancels.
"""

from __future__ import annotations

import numpy as np

from .ot1d import SortedProjection, _pow_cost, wasserstein_pp

# bytes of upper-cost rows built at a time by ``potential_values_batch``;
# small enough that a block's operands stay in a core's L2 cache
_BLOCK_BYTES = 256 * 1024


def row_assignment(n: int, m: int) -> np.ndarray:
    """Largest target rank coupled to each source rank, as 1-based ranks.

    Equals ceil(i * m / n) for every i = 1..n (exact integer arithmetic;
    the last entry is always m). Nondecreasing in i.
    """
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be positive")
    i = np.arange(1, n + 1, dtype=np.int64)
    return -(-(i * m) // n)


def potential_values(s: SortedProjection, t: SortedProjection,
                     p: float = 2.0) -> np.ndarray:
    """Optimal potential phi for the cost |s - t|^p at the sorted source points.

    Starts from phi(s_(1)) = 0 and steps across consecutive sorted source
    points by the cost difference against t_(r(i)); a single source point
    gets [0]. Use ``s.perm`` to scatter the values back to input order.
    """
    t_r = t.values[row_assignment(s.n, t.n)[:-1] - 1]
    steps = np.abs(s.values[1:] - t_r) ** p - np.abs(s.values[:-1] - t_r) ** p
    return np.concatenate(([0.0], np.cumsum(steps)))


def potential_values_batch(S: np.ndarray, T: np.ndarray,
                           p: float = 2.0) -> np.ndarray:
    """Row-wise potentials for stacks of pre-sorted samples.

    ``S`` is (k, n) and ``T`` is (k, m), each row sorted. Returns the (k, n)
    matrix of phi values at the sorted source points, row by row.

    The upper costs h(s_(i+1) - t_(r(i))) are built in one reused buffer of
    at most ``_BLOCK_BYTES`` (at least one row), block by block, and
    subtracted in place from the lower costs in the output. Each element
    takes the same operations whatever the block size, so no bit depends
    on it.
    """
    (k, n), m = S.shape, T.shape[1]
    out = np.empty(S.shape)
    out[:, 0] = 0.0
    steps = out[:, 1:]
    # r(i) = i when m == n, so t_(r(i)) is a view and needs no gather.
    # ``take`` gathers in C order; a fancy index would give Fortran order,
    # and the mixed-layout arithmetic below runs about twice as slow.
    ranks = None if m == n else row_assignment(n, m)[:-1] - 1
    rows = max(1, _BLOCK_BYTES // (8 * n))
    buf = np.empty((min(rows, k), n - 1))
    for lo in range(0, k, rows):
        hi = min(lo + rows, k)
        upper = buf[:hi - lo]
        if ranks is None:
            t_r = T[lo:hi, :-1]
        else:
            t_r = T[lo:hi].take(ranks, axis=1, out=upper)
        _pow_cost(np.subtract(S[lo:hi, :-1], t_r, out=steps[lo:hi]), p)
        _pow_cost(np.subtract(S[lo:hi, 1:], t_r, out=upper), p)
        np.subtract(upper, steps[lo:hi], out=steps[lo:hi])
    np.cumsum(steps, axis=1, out=steps)
    return out


def _c_conjugate_sorted(phi_at_s: np.ndarray, svals: np.ndarray,
                        tq: np.ndarray, p: float) -> np.ndarray:
    """Conjugate at sorted query points via divide and conquer.

    Any convex cost h(s - t) is submodular in (rank, point), so the minimizing
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
        vals = np.abs(svals[ilo:ihi + 1] - tq[mid]) ** p - phi_at_s[ilo:ihi + 1]
        a = int(np.argmin(vals))
        out[mid] = vals[a]
        a += ilo
        stack.append((qlo, mid, ilo, a))
        stack.append((mid + 1, qhi, a, ihi))
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
        Cost exponent.

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
    conj = _c_conjugate_sorted(phi_at_s, s.values, tq, p)
    out = np.empty_like(conj)
    out[order] = conj
    return out


def duality_gap(s: SortedProjection, t: SortedProjection,
                p: float = 2.0) -> float:
    """Primal minus dual value for the cost |s - t|^p; zero up to rounding.

    Returns W_p^p(s, t) - [mean(phi(s_i)) + mean(phi^c(t_j))] where phi is
    the constructed potential. The magnitude should not exceed about
    1e-9 * (1 + W_p^p) on well-scaled data.
    """
    primal = wasserstein_pp(s, t, p)
    phi = potential_values(s, t, p)
    conj = c_conjugate(phi, s, t.values, p)
    dual = float(np.mean(phi)) + float(np.mean(conj))
    return primal - dual
