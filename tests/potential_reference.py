"""Scalar-path references and dual oracles for the potentials of the tests.

The package only ever reduces potentials over directions inside its
direction pass; these tests need every direction's row on its own. The
closed form of the potential's step targets is kept here as the oracle for
the targets the package reads off its coupling cells.

The package never evaluates the dual, so the c-conjugate and the duality
gap live here too: they are the oracle that the package's potentials attain
the primal cost (strong duality and c-concavity). ``v_hat_sq`` reads one
sample's potential variance straight off the direction pass, at any k,
where ``inference.analyze`` needs k >= 2 and reports both samples' values.
``kernel_buffers`` lays out the batch kernels' buffers as the pass does.
"""

import math
from types import SimpleNamespace

import numpy as np

from swinfer.estimators import _direction_pass, _variance
from swinfer.ot1d import (SortedProjection, _check_p, _coupling, _finite, _quiet,
                          potential_values, sort_projection, wasserstein_pp)


def row_assignment(n, m):
    """Largest target rank coupled to each source rank, as 1-based ranks.

    Equals ceil(i * m / n) for every i = 1..n (exact integer arithmetic;
    the last entry is always m). Nondecreasing in i.
    """
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be positive")
    i = np.arange(1, n + 1, dtype=np.int64)
    return -(-(i * m) // n)


def potential_rows(X, Y, dirs, p=2.0):
    """(k, n) potentials for the cost |s - t|^p, one row per direction.

    Row l is the optimal potential for direction l at the projections of
    X's rows in input order, transporting X's projected empirical measure
    onto Y's, fixed to 0 at the smallest projection.
    """
    rows = np.empty((dirs.k, X.n))
    for row, theta in zip(rows, dirs.dirs):
        s = sort_projection(X.data @ theta)
        row[s.perm] = potential_values(s, sort_projection(Y.data @ theta), p)
    return rows


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


def v_hat_sq(X, Y, dirs, p=2.0, threads=1):
    """The population variance over X's rows of the direction-averaged
    |s - t|^p potentials, with the pass's overflow check: the
    ``v_hat_pq_sq`` that ``analyze`` reports, or ``v_hat_qp_sq`` with the
    samples swapped."""
    return _variance(_direction_pass(X, Y, dirs, p, threads)[1])


def kernel_buffers(n, m, rows):
    """The batch kernels' buffers for ``rows`` directions, shaped as the
    direction pass's working set holds them (``estimators._WorkingSet``):
    the (2, rows, c) coupling cells, the cell masses tiled on every row,
    the costs, each sample's potentials and the rows gcd(n, m) - 1 computed
    upper costs. All but the masses start as NaN, so an entry that a kernel
    should write and does not shows."""
    mass = _coupling(n, m).mass
    return SimpleNamespace(cells=np.full((2, rows, mass.size), np.nan),
                           masses=np.tile(mass, (rows, 1)),
                           costs=np.full(rows, np.nan),
                           phi_s=np.full((rows, n), np.nan),
                           phi_t=np.full((rows, m), np.nan),
                           upper=np.full(rows * math.gcd(n, m) - 1, np.nan))
