from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from potential_reference import c_conjugate
from swinfer.ot1d import SortedProjection, _coupling, sort_projection, wasserstein_pp


def brute_cells(n, m):
    """Dense interval-intersection oracle in exact rational arithmetic."""
    cells = []
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            lo = max(Fraction(i - 1, n), Fraction(j - 1, m))
            hi = min(Fraction(i, n), Fraction(j, m))
            if hi > lo:
                cells.append((i, j, hi - lo))
    return cells


def kernel_cells(n, m):
    """(i, j, mass) per coupling cell, with 1-based ranks, read off the
    arrays the cost kernels use."""
    i0, j0, mass, *_ = _coupling(n, m)
    return [(int(i) + 1, int(j) + 1, float(w)) for i, j, w in zip(i0, j0, mass)]


def brute_wpp(svals, tvals, p):
    total = 0.0
    for i, j, mass in brute_cells(len(svals), len(tvals)):
        total += float(mass) * abs(svals[i - 1] - tvals[j - 1]) ** p
    return total


def test_sort_projection_example():
    s = sort_projection(np.array([3.0, 1.0, 2.0]))
    assert_array_equal(s.values, [1.0, 2.0, 3.0])
    assert_array_equal(s.perm, [1, 2, 0])


def test_sort_projection_identity_when_sorted():
    s = sort_projection(np.array([1.0, 2.0, 3.0]))
    assert_array_equal(s.perm, [0, 1, 2])


def test_sort_projection_stable_on_ties():
    s = sort_projection(np.array([1.0, 1.0, 0.0]))
    assert_array_equal(s.values, [0.0, 1.0, 1.0])
    assert_array_equal(s.perm, [2, 0, 1])


def test_sort_projection_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        sort_projection(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        sort_projection(np.array([0.0, np.inf]))


def test_bad_shapes_are_refused():
    with pytest.raises(ValueError, match="nonempty 1-d"):
        sort_projection([])
    with pytest.raises(ValueError, match="equal length"):
        SortedProjection(values=np.zeros(3), perm=np.arange(2))
    s = sort_projection(np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="t_points must be 1-d"):
        c_conjugate(np.zeros(2), s, np.zeros((2, 2)))


def test_coupling_cells_aligned():
    assert kernel_cells(2, 2) == [(1, 1, 0.5), (2, 2, 0.5)]


def test_coupling_cells_2_3():
    got = kernel_cells(2, 3)
    expected = [(1, 1, Fraction(1, 3)), (1, 2, Fraction(1, 6)),
                (2, 2, Fraction(1, 6)), (2, 3, Fraction(1, 3))]
    assert [(i, j) for i, j, _ in got] == [(i, j) for i, j, _ in expected]
    assert_allclose([w for _, _, w in got],
                    [float(m) for _, _, m in expected], rtol=0, atol=1e-16)


def test_coupling_cells_transpose_symmetry():
    a = kernel_cells(3, 2)
    b = kernel_cells(2, 3)
    assert a == [(j, i, w) for i, j, w in b]


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (7, 5), (50, 33), (40, 40)])
def test_coupling_cells_match_brute_force(n, m):
    got = [(i, j, Fraction(w).limit_denominator(n * m))
           for i, j, w in kernel_cells(n, m)]
    assert got == brute_cells(n, m)


@pytest.mark.parametrize("n,m", [(2, 3), (13, 7), (50, 49), (64, 64)])
def test_coupling_cell_margins(n, m):
    cells = kernel_cells(n, m)
    assert len(cells) <= n + m - 1
    assert all(w > 0 for _, _, w in cells)
    assert abs(sum(w for _, _, w in cells) - 1.0) <= 1e-15
    for row_rank in range(1, n + 1):
        row = sum(w for i, _, w in cells if i == row_rank)
        assert abs(row - 1.0 / n) <= 1e-15
    for col_rank in range(1, m + 1):
        col = sum(w for _, j, w in cells if j == col_rank)
        assert abs(col - 1.0 / m) <= 1e-15


def test_wasserstein_identical_samples():
    s = sort_projection(np.array([0.0, 1.0]))
    assert wasserstein_pp(s, s, 2.0) == 0.0


def test_wasserstein_monotone_shift():
    s = sort_projection(np.array([0.0, 2.0]))
    t = sort_projection(np.array([1.0, 3.0]))
    assert wasserstein_pp(s, t, 2.0) == pytest.approx(1.0, abs=1e-15)


def test_wasserstein_unequal_sizes_riemann_oracle():
    # integral of |F^{-1} - G^{-1}|^2 over (0,1) by a fine Riemann sum
    s = sort_projection(np.array([0.0, 1.0]))
    t = sort_projection(np.array([0.0, 1.0, 2.0]))
    u = (np.arange(1_000_000) + 0.5) / 1_000_000
    finv = s.values[np.minimum((np.ceil(u * 2) - 1).astype(int), 1)]
    ginv = t.values[np.minimum((np.ceil(u * 3) - 1).astype(int), 2)]
    oracle = np.mean((finv - ginv) ** 2)
    got = wasserstein_pp(s, t, 2.0)
    assert got == pytest.approx(0.5, abs=1e-12)
    assert got == pytest.approx(oracle, abs=1e-5)


def test_wasserstein_rejects_small_p():
    s = sort_projection(np.array([0.0, 1.0]))
    for bad in (1.0, 0.5, -2.0, np.nan):
        with pytest.raises(ValueError):
            wasserstein_pp(s, s, bad)


def test_coupling_refuses_an_empty_sample():
    """An empty sample has no coupling; the cost says so instead of 0."""
    empty = SortedProjection(values=np.zeros(0), perm=np.zeros(0, dtype=int))
    s = sort_projection(np.array([0.0, 1.0]))
    for a, b in ((empty, s), (s, empty), (empty, empty)):
        with pytest.raises(ValueError, match="sample sizes must be positive"):
            wasserstein_pp(a, b, 2.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_wasserstein_matches_dense_brute_force(p):
    rng = np.random.default_rng(404)
    for _ in range(60):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(1, 51))
        sv = np.sort(rng.normal(0, 2, n))
        tv = np.sort(rng.normal(0.3, 1.5, m))
        s, t = sort_projection(sv), sort_projection(tv)
        got = wasserstein_pp(s, t, p)
        want = brute_wpp(sv, tv, p)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
       st.lists(st.floats(-100, 100), min_size=1, max_size=30),
       st.sampled_from([1.5, 2.0, 2.5]))
def test_metric_sanity(xs, ys, p):
    s = sort_projection(np.array(xs))
    t = sort_projection(np.array(ys))
    assert wasserstein_pp(s, s, p) == 0.0
    assert wasserstein_pp(s, t, p) == wasserstein_pp(t, s, p)
    scale = 1.0 + wasserstein_pp(s, t, p)
    shifted_s = sort_projection(np.array(xs) + 7.25)
    shifted_t = sort_projection(np.array(ys) + 7.25)
    assert abs(wasserstein_pp(shifted_s, shifted_t, p)
               - wasserstein_pp(s, t, p)) <= 1e-12 * scale


@settings(deadline=None, max_examples=40)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=25),
       st.lists(st.floats(-50, 50), min_size=1, max_size=25),
       st.floats(0.25, 4.0), st.sampled_from([1.5, 2.0, 3.0]))
def test_scaling_by_positive_factor(xs, ys, a, p):
    s = sort_projection(np.array(xs))
    t = sort_projection(np.array(ys))
    base = wasserstein_pp(s, t, p)
    scaled = wasserstein_pp(sort_projection(a * np.array(xs)),
                            sort_projection(a * np.array(ys)), p)
    assert scaled == pytest.approx((a ** p) * base, rel=1e-12, abs=1e-12)
