import math

import numpy as np
import pytest

from potential_reference import v_hat_sq
from swinfer import estimators, inference
from swinfer.estimators import SlicedEstimate, combined_variance, sliced_estimate, w_hat_sq
from swinfer.geometry import DirectionSet, SampleMatrix, sample_directions
from swinfer.inference import (DegenerateVarianceError, analyze,
                               confidence_interval, effective_rate,
                               two_sided_pvalue)
from swinfer.inference import test_statistic as studentized

Z_975 = 1.959963984540054


def gaussian_pair(seed, n=80, m=60, d=3, shift=0.5):
    rng = np.random.default_rng(seed)
    X = SampleMatrix(rng.normal(0, 1, (n, d)))
    Y = SampleMatrix(rng.normal(shift, 1, (m, d)))
    return X, Y


def test_effective_rate_exact_example():
    # r = 8 and k = 8 give k r / (k + r) = 4
    assert effective_rate(16, 16, 8) == 2.0
    with pytest.raises(ValueError):
        effective_rate(0, 4, 4)


def test_statistic_zero_at_null_value():
    assert studentized(1.2, 1.2, 5, 5, 4, 2.0) == 0.0


def test_statistic_algebra_example():
    # rate 2, excess 3, standard error sqrt(4): T = 2 * 3 / 2
    assert studentized(4.0, 1.0, 16, 16, 8, 4.0) == 3.0


def test_statistic_sign_antisymmetry():
    t = studentized(0.7, 0.2, 10, 20, 5, 1.3)
    assert studentized(-0.7, -0.2, 10, 20, 5, 1.3) == -t


def test_statistic_degenerate_and_negative_variance():
    with pytest.raises(DegenerateVarianceError):
        studentized(1.0, 0.0, 10, 10, 5, 0.0)
    with pytest.raises(ValueError):
        studentized(1.0, 0.0, 10, 10, 5, -1.0)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_non_finite_delta_is_named(delta):
    message = f"null value delta must be finite, got {delta}"
    with pytest.raises(ValueError, match=message):
        studentized(1.0, delta, 10, 10, 5, 2.0)
    # named before the variance is looked at
    with pytest.raises(ValueError, match=message):
        studentized(1.0, delta, 10, 10, 5, 0.0)
    X, Y = gaussian_pair(3)
    with pytest.raises(ValueError, match=message):
        analyze(X, Y, sample_directions(3, 8, seed=4), delta=delta)


def test_pvalue_examples():
    assert two_sided_pvalue(0.0) == 1.0
    assert two_sided_pvalue(Z_975) == pytest.approx(0.05, rel=1e-9)
    # independent route through the stdlib complementary error function
    assert two_sided_pvalue(3.0) == pytest.approx(
        math.erfc(3.0 / math.sqrt(2.0)), rel=1e-13)
    assert two_sided_pvalue(3.0) == pytest.approx(0.0026998, abs=1e-7)


def test_pvalue_even_and_monotone():
    for t in (0.3, 1.7, 4.2):
        assert two_sided_pvalue(t) == two_sided_pvalue(-t)
    assert two_sided_pvalue(1.0) > two_sided_pvalue(2.0) > two_sided_pvalue(3.0)
    with pytest.raises(ValueError):
        two_sided_pvalue(math.nan)


def test_interval_point_when_variance_zero():
    assert confidence_interval(0.4, 10, 10, 5, 0.0, 0.95) == (0.4, 0.4)


def test_interval_unit_example():
    # n = m = 4, k = 2 makes the rate exactly 1
    lo, hi = confidence_interval(0.0, 4, 4, 2, 1.0, 0.95)
    assert hi == pytest.approx(Z_975, abs=1e-12)
    assert lo == -hi


def test_interval_shape_properties():
    lo, hi = confidence_interval(2.5, 30, 20, 7, 0.8, 0.9)
    assert lo < 2.5 < hi
    assert (lo + hi) / 2 == pytest.approx(2.5, abs=1e-12)
    lo2, hi2 = confidence_interval(2.5, 30, 20, 7, 0.8, 0.99)
    assert hi2 - lo2 > hi - lo
    lo4, hi4 = confidence_interval(2.5, 30, 20, 7, 3.2, 0.9)
    assert hi4 - lo4 == pytest.approx(2 * (hi - lo), rel=1e-12)
    with pytest.raises(ValueError):
        confidence_interval(0.0, 10, 10, 5, 1.0, 1.0)
    with pytest.raises(ValueError):
        confidence_interval(0.0, 10, 10, 5, -0.5, 0.9)


def test_pvalue_interval_consistency():
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(500):
        est = rng.normal(0, 2)
        delta = rng.normal(0, 2)
        var = rng.uniform(0.01, 5)
        n, m, k = (int(v) for v in rng.integers(2, 200, size=3))
        level = rng.uniform(0.5, 0.99)
        t = studentized(est, delta, n, m, k, var)
        p = two_sided_pvalue(t)
        if abs(p - (1 - level)) < 1e-9:
            continue
        lo, hi = confidence_interval(est, n, m, k, var, level)
        outside = delta < lo or delta > hi
        assert (p < 1 - level) == outside
        checked += 1
    assert checked > 450


def test_analyze_wires_components_together():
    X, Y = gaussian_pair(1)
    dirs = sample_directions(3, 24, seed=2)
    rep = analyze(X, Y, dirs, delta=0.1, level=0.9)
    est = sliced_estimate(X, Y, dirs)
    assert rep.estimate == est.sw_pp
    assert rep.delta == 0.1
    assert rep.level == 0.9
    assert 0.0 < rep.variance.tau_hat < 1.0
    assert rep.effective_rate == effective_rate(X.n, Y.n, dirs.k)
    assert rep.statistic == studentized(rep.estimate, 0.1, X.n, Y.n, dirs.k,
                                        rep.variance.combined)
    assert rep.p_value == two_sided_pvalue(rep.statistic)
    lo, hi = confidence_interval(rep.estimate, X.n, Y.n, dirs.k,
                                 rep.variance.combined, 0.9)
    assert (rep.ci_low, rep.ci_high) == (lo, hi)
    assert rep.ci_low < rep.estimate < rep.ci_high


def test_analyze_rejects_exactly_the_nulls_outside_its_interval():
    """``reject`` and the interval share one critical value, so away from
    its edges the test rejects delta exactly when the interval omits it."""
    X, Y = gaussian_pair(4)
    dirs = sample_directions(3, 32, seed=6)
    for level in (0.8, 0.95):
        base = analyze(X, Y, dirs, level=level)
        width = base.ci_high - base.ci_low
        rejects = []
        for delta in np.linspace(base.ci_low - width, base.ci_high + width, 14):
            rep = analyze(X, Y, dirs, delta=delta, level=level)
            assert (rep.ci_low, rep.ci_high) == (base.ci_low, base.ci_high)
            assert min(abs(delta - rep.ci_low), abs(delta - rep.ci_high)) > 1e-6 * width
            assert rep.reject == (not rep.ci_low <= delta <= rep.ci_high)
            rejects.append(rep.reject)
        assert 0 < sum(rejects) < len(rejects)


def test_analyze_threads_bitwise_identical():
    rng = np.random.default_rng(3)
    X = SampleMatrix(rng.normal(size=(60, 3)))
    Y = SampleMatrix(rng.normal(0.2, 1, size=(50, 3)))
    dirs = sample_directions(3, 1100, seed=4)  # crosses chunk boundaries
    a = analyze(X, Y, dirs, threads=1)
    b = analyze(X, Y, dirs, threads=4)
    assert a.statistic == b.statistic
    assert a.variance.combined == b.variance.combined
    assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)


def test_analyze_refuses_a_worker_bound_below_one():
    rng = np.random.default_rng(5)
    X = SampleMatrix(rng.normal(size=(20, 2)))
    dirs = sample_directions(2, 8, seed=1)
    with pytest.raises(ValueError, match="threads must be positive, got 0"):
        analyze(X, X, dirs, threads=0)


def test_analyze_refuses_one_direction_before_any_projection(monkeypatch):
    calls = []
    real = inference._direction_pass

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(inference, "_direction_pass", spy)
    X, Y = gaussian_pair(3)
    with pytest.raises(ValueError, match="need at least 2 directions, got k=1"):
        analyze(X, Y, sample_directions(3, 1, seed=0))
    dirs = sample_directions(3, 8, seed=0)
    with pytest.raises(ValueError, match="level must lie in"):
        analyze(X, Y, dirs, level=1.5)
    with pytest.raises(ValueError, match="delta must be finite"):
        analyze(X, Y, dirs, delta=math.nan)
    assert calls == []
    # a bad p is refused at the pass's entry, before any chunk is projected
    chunks, real_chunk = [], estimators._pass_chunk

    def chunk_spy(*args):
        chunks.append(args)
        return real_chunk(*args)

    monkeypatch.setattr(estimators, "_pass_chunk", chunk_spy)
    with pytest.raises(ValueError, match="order p"):
        analyze(X, Y, dirs, p=1.0)
    assert chunks == []


def test_analyze_blends_at_every_exponent():
    # the potentials of the same cost |s - t|^p feed the blend at any p > 1
    X, Y = gaussian_pair(7, n=200, m=150)
    dirs = sample_directions(3, 12, seed=8)
    for p in (1.5, 3.0):
        rep = analyze(X, Y, dirs, p=p, delta=0.2)
        est = sliced_estimate(X, Y, dirs, p=p)
        assert rep.estimate == est.sw_pp
        vc = combined_variance(X.n, Y.n, dirs.k, w_hat_sq(est),
                               v_hat_sq(X, Y, dirs, p=p), v_hat_sq(Y, X, dirs, p=p))
        assert rep.variance == vc
        assert vc.v_hat_pq_sq > 0.0 and vc.v_hat_qp_sq > 0.0
        assert math.isfinite(rep.statistic)
        assert rep.ci_low < rep.estimate < rep.ci_high
    with pytest.raises(ValueError):
        analyze(X, Y, dirs, p=1.0)
    with pytest.raises(TypeError):
        analyze(X, Y, dirs, p=1.5, variance_mode="w_only")


def test_analyze_degenerate_data_raises():
    X = SampleMatrix(np.zeros((5, 2)))
    Y = SampleMatrix(np.zeros((6, 2)))
    dirs = sample_directions(2, 3, seed=11)
    with pytest.raises(DegenerateVarianceError):
        analyze(X, Y, dirs, delta=0.5)


def test_overflowing_costs_raise():
    """Finite samples near the float64 limit, whose projected costs overflow."""
    rng = np.random.default_rng(31)
    X = SampleMatrix(rng.normal(0.0, 1.0, (60, 3)) * 1e307)
    Y = SampleMatrix(rng.normal(0.0, 1.0, (50, 3)) * 1e307)
    dirs = sample_directions(3, 16, seed=12)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="overflows float64.*rescale"):
            sliced_estimate(X, Y, dirs)
        with pytest.raises(ValueError, match="overflows float64.*rescale"):
            analyze(X, Y, dirs, p=1.5)


def test_overflowing_projection_raises():
    """A finite row whose projections overflow, last in its sample, so that
    its sort key carries an index, after the largest finite row, first."""
    rng = np.random.default_rng(32)
    X = rng.normal(0.0, 1.0, (40, 2))
    X[0], X[-1] = 10.0, 1.5e308
    Y = SampleMatrix(rng.normal(0.0, 1.0, (30, 2)))
    dirs = DirectionSet(dirs=np.resize([[0.6, 0.8], [0.8, 0.6]], (8, 2)), k=8,
                        seed=0, stream_id=0)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="overflows float64.*rescale"):
            analyze(SampleMatrix(X), Y, dirs, p=1.5)


OVERFLOWING_POTENTIALS = np.array([[0.0], [1e200], [3.0]])


def test_overflowing_potentials_raise():
    """Equal samples give zero costs, but the potential steps |1e200 - 3|^2
    overflow, and inf - inf leaves NaN potentials."""
    X = SampleMatrix(OVERFLOWING_POTENTIALS)
    dirs = sample_directions(1, 4, seed=13)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="overflows float64.*rescale"):
            analyze(X, X, dirs)


@pytest.mark.parametrize("entry", [sliced_estimate, v_hat_sq],
                         ids=lambda f: f.__name__)
def test_overflowing_potentials_raise_in_every_estimator(entry):
    """The data above raise in the estimators as in ``analyze``, and as the
    CLI exits 2 on them (``test_cli::test_overflowing_potentials_exit_2``):
    ``sliced_estimate`` too, whose costs alone are finite."""
    X = SampleMatrix(OVERFLOWING_POTENTIALS)
    dirs = sample_directions(1, 4, seed=13)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="overflows float64.*rescale"):
            entry(X, X, dirs)


def test_overflowing_mean_raises():
    """Finite per-direction costs of 8.45e307 whose mean overflows; no
    ``np.errstate`` here, so a RuntimeWarning would fail the test."""
    X = SampleMatrix(np.array([[0.0], [1.3e154]]))
    Y = SampleMatrix(np.zeros((2, 1)))
    with pytest.raises(ValueError, match="overflows float64.*rescale"):
        sliced_estimate(X, Y, sample_directions(1, 4, seed=14))


def test_overflowing_variances_raise():
    """Finite costs (3.3e199) and potentials (5e199) whose variances
    overflow; no ``np.errstate`` here either."""
    X = SampleMatrix(np.array([[0.0], [1e100], [3.0]]))
    Y = SampleMatrix(np.array([[0.0], [1.0], [2.0]]))
    dirs = sample_directions(1, 4, seed=15)
    with pytest.raises(ValueError, match="overflows float64.*rescale"):
        analyze(X, Y, dirs)
    with pytest.raises(ValueError, match="overflows float64.*rescale"):
        v_hat_sq(X, Y, dirs)
    spread = SlicedEstimate(sw_pp=5e199, per_direction=np.array([0.0, 1e200]),
                            p=2.0, n=3, m=3, k=2)
    with pytest.raises(ValueError, match="overflows float64.*rescale"):
        w_hat_sq(spread)
