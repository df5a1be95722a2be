"""Scalar-path references for the potentials of the tests.

The package only ever reduces potentials over directions inside its
direction pass; these tests need every direction's row on its own. The
closed form of the potential's step targets is kept here as the oracle for
the targets the package reads off its coupling cells.
"""

import numpy as np

from swinfer.ot1d import potential_values, sort_projection


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
