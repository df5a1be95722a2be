"""Metamorphic properties: input transformations with a known effect on
every output.

Swapping X and Y is exact. Each per-direction cost is built from the same
sorted values with the difference negated, over the transposed coupling,
whose masses are the same numbers in the same order. The potentials of
each sample against the other come from the same code in either role, so
the two sampling variances trade places bit for bit. Only the blend
weights change form (lambda_hat becomes 1 - lambda_hat), so the combined
variance agrees to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from swinfer.estimators import sliced_estimate
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
def sizes(draw):
    relation = draw(st.sampled_from(["n == m", "n > m", "n < m"]))
    small = draw(st.integers(2, 40))
    big = draw(st.integers(small + 1, 60))
    return {"n == m": (small, small), "n > m": (big, small),
            "n < m": (small, big)}[relation]


@settings(deadline=None, max_examples=60)
@given(nm=sizes(), d=st.integers(1, 4),
       k=st.one_of(st.integers(2, 40), st.integers(510, 600)),
       decimals=st.sampled_from([None, 0, 1]),
       seed=st.integers(0, 2**32 - 1))
def test_swapping_samples_is_exact(nm, d, k, decimals, seed):
    n, m = nm
    X, Y = draw_pair(seed, n, m, d, decimals)
    dirs = sample_directions(d, k, seed=seed)
    for p in (1.5, 2.0, 3.0):
        forward = sliced_estimate(X, Y, dirs, p=p).per_direction
        backward = sliced_estimate(Y, X, dirs, p=p).per_direction
        assert_array_equal(backward.view(np.uint64), forward.view(np.uint64))

    try:
        fwd = analyze(X, Y, dirs)
    except DegenerateVarianceError:
        with pytest.raises(DegenerateVarianceError):
            analyze(Y, X, dirs)
        return
    back = analyze(Y, X, dirs)
    assert back.estimate == fwd.estimate
    assert back.variance.w_hat_sq == fwd.variance.w_hat_sq
    assert back.variance.v_hat_pq_sq == fwd.variance.v_hat_qp_sq
    assert back.variance.v_hat_qp_sq == fwd.variance.v_hat_pq_sq
    assert back.variance.combined == pytest.approx(fwd.variance.combined,
                                                   rel=1e-14)
