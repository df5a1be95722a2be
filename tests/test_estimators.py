import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from potential_reference import potential_rows, v_hat_sq

from swinfer import estimators
from swinfer.estimators import SlicedEstimate, combined_variance, sliced_estimate, w_hat_sq
from swinfer.geometry import SampleMatrix, sample_directions
from swinfer.ot1d import sort_projection, wasserstein_pp


def make_pair(seed, n=40, m=30, d=4, shift=0.7):
    rng = np.random.default_rng(seed)
    X = SampleMatrix(rng.normal(0, 1, (n, d)))
    Y = SampleMatrix(rng.normal(shift, 1, (m, d)))
    return X, Y


def double_sum_variance(rows):
    """Explicit (1/k^2) sum over direction pairs of empirical covariances."""
    centered = rows - rows.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / rows.shape[1]
    return float(cov.sum()) / rows.shape[0] ** 2


def test_estimate_zero_for_identical_samples():
    X, _ = make_pair(0)
    dirs = sample_directions(4, 16, seed=5)
    est = sliced_estimate(X, X, dirs)
    assert est.sw_pp == 0.0
    assert_array_equal(est.per_direction, np.zeros(16))


def test_estimate_is_mean_of_per_direction():
    X, Y = make_pair(1)
    dirs = sample_directions(4, 33, seed=6)
    est = sliced_estimate(X, Y, dirs, p=1.5)
    assert est.sw_pp == pytest.approx(np.mean(est.per_direction), rel=1e-12)
    assert (est.per_direction >= 0).all()
    assert (est.n, est.m, est.k) == (40, 30, 33)


def test_estimate_d1_reduces_to_raw_cost():
    rng = np.random.default_rng(9)
    x = rng.normal(size=25)
    y = rng.normal(1, 1, size=35)
    X = SampleMatrix(x[:, None])
    Y = SampleMatrix(y[:, None])
    raw = wasserstein_pp(sort_projection(x), sort_projection(y), 2.0)
    for k in (2, 7):
        est = sliced_estimate(X, Y, sample_directions(1, k, seed=k))
        assert est.sw_pp == pytest.approx(raw, rel=1e-12)


def test_estimate_invariant_to_row_permutation():
    X, Y = make_pair(3)
    dirs = sample_directions(4, 12, seed=8)
    rng = np.random.default_rng(4)
    Xp = SampleMatrix(X.data[rng.permutation(X.n)])
    Yp = SampleMatrix(Y.data[rng.permutation(Y.n)])
    a = sliced_estimate(X, Y, dirs)
    b = sliced_estimate(Xp, Yp, dirs)
    assert_array_equal(a.per_direction, b.per_direction)


def test_estimate_threads_do_not_change_result():
    rng = np.random.default_rng(44)
    X = SampleMatrix(rng.normal(size=(150, 3)))
    Y = SampleMatrix(rng.normal(0.3, 1, size=(110, 3)))
    dirs = sample_directions(3, 1200, seed=10)  # spans multiple chunks
    a = sliced_estimate(X, Y, dirs, threads=1)
    b = sliced_estimate(X, Y, dirs, threads=6)
    assert_array_equal(a.per_direction, b.per_direction)
    assert a.sw_pp == b.sw_pp


@pytest.mark.parametrize("threads", [0, -1])
def test_estimate_refuses_a_worker_bound_below_one(threads):
    X, Y = make_pair(6)
    dirs = sample_directions(4, 8, seed=1)
    with pytest.raises(ValueError, match=f"threads must be positive, got {threads}"):
        sliced_estimate(X, Y, dirs, threads=threads)


def test_estimate_rejects_mismatch_and_bad_p():
    X, Y = make_pair(5)
    dirs3 = sample_directions(3, 4, seed=0)
    with pytest.raises(ValueError):
        sliced_estimate(X, Y, dirs3)
    dirs4 = sample_directions(4, 4, seed=0)
    with pytest.raises(ValueError):
        sliced_estimate(X, Y, dirs4, p=1.0)


def test_w_hat_sq_two_point_example():
    fake = SlicedEstimate(sw_pp=1.0, per_direction=np.array([0.0, 2.0]),
                          p=2.0, n=10, m=10, k=2)
    assert w_hat_sq(fake) == 1.0


def test_w_hat_sq_zero_dispersion_clamps():
    same = SlicedEstimate(sw_pp=0.3, per_direction=np.full(5, 0.3),
                          p=2.0, n=10, m=10, k=5)
    got = w_hat_sq(same)
    assert got == 0.0
    # a mean one ulp off must not leak into the dispersion
    bumped = SlicedEstimate(sw_pp=np.nextafter(0.3, 1.0),
                            per_direction=np.full(5, 0.3),
                            p=2.0, n=10, m=10, k=5)
    flagged = w_hat_sq(bumped)
    assert flagged == 0.0


def test_w_hat_sq_matches_two_pass_variance():
    X, Y = make_pair(8)
    est = sliced_estimate(X, Y, sample_directions(4, 64, seed=3))
    got = w_hat_sq(est)
    assert got == pytest.approx(float(np.var(est.per_direction)),
                                rel=1e-10, abs=1e-12)


def test_w_hat_sq_survives_cancellation():
    # costs of 1e8 +- 0.1: mean of squares minus squared mean cancels to
    # 0.0 here (or below zero); the variance of uniform(-0.1, 0.1) noise is
    # 0.2^2 / 12, about 3.3e-3
    rng = np.random.default_rng(2025)
    per = 1e8 + rng.uniform(-0.1, 0.1, 1000)
    est = SlicedEstimate(sw_pp=float(np.mean(per)), per_direction=per,
                         p=2.0, n=10, m=10, k=1000)
    got = w_hat_sq(est)
    assert got > 0.0
    assert got == pytest.approx(float(np.var(per)), rel=1e-9)


def test_w_hat_sq_needs_two_directions():
    X, Y = make_pair(9)
    est = sliced_estimate(X, Y, sample_directions(4, 1, seed=4))
    with pytest.raises(ValueError):
        w_hat_sq(est)


def test_gaussian_meanshift_dispersion_formula():
    # the per-direction cost for an identity-covariance mean shift is
    # (theta . delta)^2; its sphere variance has the closed form
    # |delta|^4 (3/(d(d+2)) - 1/d^2), checked by direct Monte Carlo
    d, delta = 8, 2.0
    analytic = delta ** 4 * (3.0 / (d * (d + 2)) - 1.0 / d ** 2)
    rng = np.random.default_rng(123)
    z = rng.standard_normal((1_000_000, d))
    theta1 = z[:, 0] / np.linalg.norm(z, axis=1)
    vals = (delta * theta1) ** 2
    sample_var = np.var(vals)
    centered = vals - vals.mean()
    se = np.sqrt((np.mean(centered ** 4) - sample_var ** 2) / vals.size)
    assert abs(sample_var - analytic) <= 4 * se


def test_v_hat_sq_single_direction_collapse():
    X, Y = make_pair(10)
    dirs = sample_directions(4, 1, seed=11)
    rows = potential_rows(X, Y, dirs)
    assert v_hat_sq(X, Y, dirs) == pytest.approx(
        float(np.var(rows[0])), rel=1e-12)


def test_v_hat_sq_equals_double_sum():
    cases = [(5, 9, 2), (12, 7, 3), (30, 25, 5), (50, 41, 10), (8, 50, 7)]
    for seed, (n, m, k) in enumerate(cases):
        X, Y = make_pair(20 + seed, n=n, m=m, d=3)
        dirs = sample_directions(3, k, seed=seed)
        for p in (1.5, 2.0, 3.0):
            rows = potential_rows(X, Y, dirs, p)
            collapsed = v_hat_sq(X, Y, dirs, p)
            explicit = double_sum_variance(rows)
            assert collapsed == pytest.approx(explicit, rel=1e-12, abs=1e-12)


def test_v_hat_sq_constant_shift_invariance():
    X, Y = make_pair(30)
    dirs = sample_directions(4, 8, seed=12)
    rows = potential_rows(X, Y, dirs)
    g = rows.mean(axis=0)
    base = float(np.var(g))
    rng = np.random.default_rng(13)
    shifts = rng.normal(0, 5, size=(dirs.k, 1))
    shifted = float(np.var((rows + shifts).mean(axis=0)))
    assert abs(shifted - base) <= 1e-12
    assert base == pytest.approx(v_hat_sq(X, Y, dirs), rel=1e-12, abs=1e-15)


def test_v_hat_sq_swapped_roles_runs_same_code_path():
    X, Y = make_pair(31)
    dirs = sample_directions(4, 6, seed=14)
    rows_qp = potential_rows(Y, X, dirs)
    assert v_hat_sq(Y, X, dirs) == pytest.approx(
        float(np.var(rows_qp.mean(axis=0))), rel=1e-12, abs=1e-15)


def test_v_hat_sq_d1_location_shift():
    # scalar Gaussians shifted by mu: the optimal potential is linear with
    # slope -2 mu, so the population value is 4 mu^2 = 4
    rng = np.random.default_rng(15)
    n = 4000
    X = SampleMatrix(rng.normal(0, 1, (n, 1)))
    Y = SampleMatrix(rng.normal(1, 1, (n, 1)))
    dirs = sample_directions(1, 2, seed=16)
    got = v_hat_sq(X, Y, dirs)
    assert 3.3 <= got <= 4.7


def test_combined_variance_limits():
    big_k = combined_variance(10, 10, 10 ** 9, 2.0, 3.0, 5.0)
    inner = 0.5 * 3.0 + 0.5 * 5.0
    assert big_k.combined == pytest.approx(inner, rel=1e-6)
    tiny_k = combined_variance(10 ** 6, 10 ** 6, 1, 2.0, 3.0, 5.0)
    assert tiny_k.combined == pytest.approx(2.0, rel=1e-5)
    half = combined_variance(10, 10, 5, 2.0, 3.0, 5.0)
    assert half.tau_hat == pytest.approx(0.5, rel=1e-15)
    assert half.combined == pytest.approx(0.5 * 2.0 + 0.5 * 4.0, rel=1e-15)


def test_combined_variance_is_convex_blend():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n, m, k = (int(v) for v in rng.integers(1, 1000, size=3))
        w, v1, v2 = rng.uniform(0, 10, size=3)
        vc = combined_variance(n, m, k, w, v1, v2)
        inner = (1 - vc.lambda_hat) * v1 + vc.lambda_hat * v2
        lo, hi = min(w, inner), max(w, inner)
        assert lo - 1e-12 <= vc.combined <= hi + 1e-12
        assert 0.0 <= vc.tau_hat <= 1.0
        assert vc.lambda_hat == n / (n + m)


def test_combined_variance_rejects_negative_inputs():
    with pytest.raises(ValueError):
        combined_variance(10, 10, 10, -0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        combined_variance(0, 10, 10, 0.1, 1.0, 1.0)


def test_bad_exponent_refused_before_any_chunk(monkeypatch):
    chunks, real = [], estimators._pass_chunk

    def spy(*args):
        chunks.append(args)
        return real(*args)

    monkeypatch.setattr(estimators, "_pass_chunk", spy)
    X, Y = make_pair(2)
    dirs = sample_directions(4, 8, seed=3)
    for kernel in (sliced_estimate, v_hat_sq):
        with pytest.raises(ValueError, match="order p"):
            kernel(X, Y, dirs, p=1.0)
    assert chunks == []
