"""Metamorphic properties: input transformations with a known effect on
every output.

Swapping X and Y is exact. Each per-direction cost is built from the same
sorted values with the difference negated, over the transposed coupling,
whose masses are the same numbers in the same order. The potentials of
each sample against the other come from the same code in either role, so
the two sampling variances trade places bit for bit. Only the blend
weights change form (lambda_hat becomes 1 - lambda_hat), so the combined
variance agrees to rounding.

Scaling X, Y by a and the null value by a^p scales the estimate by a^p and
leaves T unchanged. At p = 2 and a = 2^j every intermediate is scaled by a
power of two, so both hold bit for bit; otherwise they hold to rounding.

A common translation of X and Y changes nothing but rounding: costs and
potential steps are built from differences s - t, so the offset cancels
before anything is squared.

Discrete data, with repeated rows, a constant column and both signed
zeros, still give a finite estimate, variances and statistic, the same for
every thread count. Only samples that each sit on a single point may leave
no noise to studentize by.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from swinfer.estimators import _CHUNK, sliced_estimate
from swinfer.geometry import as_sample_matrix, sample_directions
from swinfer.inference import DegenerateVarianceError, analyze


def draw_pair(seed, n, m, d, decimals):
    """Two Gaussian samples; rounded to ``decimals`` they are tie-heavy."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 2.0, (n, d))
    Y = rng.normal(0.5, 2.0, (m, d))
    if decimals is not None:
        X, Y = np.round(X, decimals), np.round(Y, decimals)
    return as_sample_matrix(X), as_sample_matrix(Y)


@st.composite
def sizes(draw, least=2):
    relation = draw(st.sampled_from(["n == m", "n > m", "n < m"]))
    small = draw(st.integers(least, 40))
    big = draw(st.integers(small + 1, 60))
    return {"n == m": (small, small), "n > m": (big, small),
            "n < m": (small, big)}[relation]


@settings(deadline=None, max_examples=60)
@given(nm=sizes(), d=st.integers(1, 4),
       k=st.one_of(st.integers(2, 40), st.integers(510, 600)),
       decimals=st.sampled_from([None, 0, 1]),
       seed=st.integers(0, 2**32 - 1), p=st.sampled_from([1.5, 2.0, 3.0]))
def test_swapping_samples_is_exact(nm, d, k, decimals, seed, p):
    n, m = nm
    X, Y = draw_pair(seed, n, m, d, decimals)
    dirs = sample_directions(d, k, seed=seed)
    for q in (1.5, 2.0, 3.0):
        forward = sliced_estimate(X, Y, dirs, p=q).per_direction
        backward = sliced_estimate(Y, X, dirs, p=q).per_direction
        assert_array_equal(backward.view(np.uint64), forward.view(np.uint64))

    try:
        fwd = analyze(X, Y, dirs, p=p)
    except DegenerateVarianceError:
        with pytest.raises(DegenerateVarianceError):
            analyze(Y, X, dirs, p=p)
        return
    back = analyze(Y, X, dirs, p=p)
    assert back.estimate == fwd.estimate
    assert back.variance.w_hat_sq == fwd.variance.w_hat_sq
    assert back.variance.v_hat_pq_sq == fwd.variance.v_hat_qp_sq
    assert back.variance.v_hat_qp_sq == fwd.variance.v_hat_pq_sq
    assert back.variance.combined == pytest.approx(fwd.variance.combined,
                                                   rel=1e-14)


def outputs(report):
    return (report.estimate, report.statistic, report.variance.v_hat_pq_sq,
            report.variance.v_hat_qp_sq)


@settings(deadline=None, max_examples=40)
@given(nm=sizes(), d=st.integers(1, 4), k=st.integers(2, 40),
       seed=st.integers(0, 2**32 - 1), p=st.sampled_from([1.5, 2.0, 3.0]),
       a=st.one_of(st.integers(-6, 6).map(lambda j: 2.0 ** j),
                   st.floats(0.01, 100.0)))
def test_scaling_multiplies_estimate_by_a_to_the_p(nm, d, k, seed, p, a):
    n, m = nm
    X, Y = draw_pair(seed, n, m, d, None)
    dirs = sample_directions(d, k, seed=seed)
    # a null half the estimate keeps estimate - delta clear of cancellation
    delta = 0.5 * sliced_estimate(X, Y, dirs, p=p).sw_pp
    base = analyze(X, Y, dirs, p=p, delta=delta)
    scaled = analyze(as_sample_matrix(a * X.data), as_sample_matrix(a * Y.data),
                     dirs, p=p, delta=delta * a ** p)
    want = (base.estimate * a ** p, base.statistic,
            base.variance.v_hat_pq_sq * a ** (2 * p),
            base.variance.v_hat_qp_sq * a ** (2 * p))
    if p == 2.0 and np.log2(a).is_integer():
        assert outputs(scaled) == want
    else:
        assert_allclose(outputs(scaled), want, rtol=1e-12, atol=0)


@settings(deadline=None, max_examples=40)
@given(nm=sizes(least=10), d=st.integers(1, 4), k=st.integers(2, 40),
       seed=st.integers(0, 2**32 - 1), p=st.sampled_from([1.5, 2.0, 3.0]),
       offset=st.sampled_from([1e2, 1e4, 1e6]))
def test_common_translation_changes_nothing(nm, d, k, seed, p, offset):
    n, m = nm
    X, Y = draw_pair(seed, n, m, d, None)
    dirs = sample_directions(d, k, seed=seed)
    shift = np.random.default_rng(seed).normal(size=d)
    shift *= offset / np.linalg.norm(shift)
    delta = 0.5 * sliced_estimate(X, Y, dirs, p=p).sw_pp
    base = analyze(X, Y, dirs, p=p, delta=delta)
    moved = analyze(as_sample_matrix(X.data + shift),
                    as_sample_matrix(Y.data + shift), dirs, p=p, delta=delta)
    assert_allclose(outputs(moved), outputs(base), rtol=1e-9, atol=0)


def discrete_sample(rng, n, d, column):
    """n integer-rounded rows drawn from fewer pool rows, so some repeat;
    ``column`` is zero throughout, with both signs present."""
    distinct = rng.integers(1, n)
    pool = np.round(rng.normal(0.0, 1.5, (distinct, d)))
    rows = pool[rng.integers(0, distinct, n)]
    rows[:, column] = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    rows[0, column], rows[-1, column] = 0.0, -0.0
    return as_sample_matrix(rows)


def one_point(sample):
    return bool(np.all(sample.data == sample.data[0]))


@settings(deadline=None, max_examples=40)
@given(n=st.integers(2, 40), m=st.integers(2, 40), d=st.integers(2, 4),
       k=st.integers(_CHUNK + 1, _CHUNK + 150), seed=st.integers(0, 2**32 - 1),
       p=st.sampled_from([1.5, 2.0, 3.0]))
def test_discrete_data_give_finite_thread_identical_reports(n, m, d, k, seed, p):
    rng = np.random.default_rng(seed)
    column = rng.integers(0, d)
    X = discrete_sample(rng, n, d, column)
    Y = discrete_sample(rng, m, d, column)
    dirs = sample_directions(d, k, seed=seed)
    try:
        report = analyze(X, Y, dirs, p=p, threads=1)
    except DegenerateVarianceError:
        assert one_point(X) and one_point(Y)
        with pytest.raises(DegenerateVarianceError):
            analyze(X, Y, dirs, p=p, threads=2)
        return
    assert np.isfinite(outputs(report)).all()
    assert analyze(X, Y, dirs, p=p, threads=2) == report
