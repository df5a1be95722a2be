import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from swinfer import _rng
from swinfer.geometry import DirectionSet, SampleMatrix, sample_directions


def test_sample_matrix_validation():
    with pytest.raises(ValueError):
        SampleMatrix(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        SampleMatrix(np.zeros(5))
    with pytest.raises(ValueError, match="at least 1 coordinate"):
        SampleMatrix(np.zeros((3, 0)))
    with pytest.raises(ValueError):
        SampleMatrix(np.array([[0.0, np.nan], [1.0, 2.0]]))
    sm = SampleMatrix([[1, 2], [3, 4], [5, 6]])
    assert (sm.n, sm.d) == (3, 2)


def test_direction_set_rejects_non_unit_rows():
    bad = np.array([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError):
        DirectionSet(dirs=bad, k=2, seed=0, stream_id=0)


def test_direction_set_rejects_non_finite_rows():
    # a NaN norm fails no "> tol" test; accepted, it makes analyze fail
    # later on a NaN w_hat_sq
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="unit norm"):
            DirectionSet(dirs=[[bad, 0.0], [1.0, 0.0]], k=2, seed=0, stream_id=0)
    with pytest.raises(ValueError, match="k >= 1"):
        DirectionSet(dirs=np.zeros((0, 2)), k=0, seed=0, stream_id=0)


def test_unit_norms():
    dirs = sample_directions(5, 100, seed=42)
    norms = np.linalg.norm(dirs.dirs, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_d1_directions_are_signs():
    dirs = sample_directions(1, 3, seed=9)
    assert set(dirs.dirs.ravel()) <= {-1.0, 1.0}


def test_determinism_same_arguments():
    a = sample_directions(7, 50, seed=123, stream_id=4)
    b = sample_directions(7, 50, seed=123, stream_id=4)
    assert_array_equal(a.dirs, b.dirs)


def test_streams_differ():
    a = sample_directions(7, 50, seed=123, stream_id=4)
    b = sample_directions(7, 50, seed=123, stream_id=5)
    c = sample_directions(7, 50, seed=124, stream_id=4)
    assert not np.array_equal(a.dirs, b.dirs)
    assert not np.array_equal(a.dirs, c.dirs)


def test_prefix_stability_across_k():
    # row i consumes a fixed counter slice, so it cannot depend on k
    small = sample_directions(6, 20, seed=77, stream_id=2)
    large = sample_directions(6, 260, seed=77, stream_id=2)
    assert_array_equal(small.dirs, large.dirs[:20])


def test_zero_norm_row_is_redrawn_from_its_salted_stream(monkeypatch):
    """A Gaussian row of zeros has no direction: that row alone is drawn
    again, from its own salted stream, and normalized."""
    real = _rng.gaussian_rows

    def gaussian_rows(seed, stream_id, rows, width, salt=()):
        z = real(seed, stream_id, rows, width, salt)
        if not salt:
            z[2] = 0.0
        return z

    monkeypatch.setattr(_rng, "gaussian_rows", gaussian_rows)
    got = sample_directions(4, 5, seed=3, stream_id=1).dirs
    monkeypatch.undo()
    plain = sample_directions(4, 5, seed=3, stream_id=1).dirs
    redraw = real(3, 1, 1, 4, salt=(2, 1))[0]
    assert_array_equal(got[2], redraw / np.sqrt(redraw @ redraw))
    assert_array_equal(np.delete(got, 2, axis=0), np.delete(plain, 2, axis=0))
    assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-12)


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        sample_directions(0, 5, seed=1)
    with pytest.raises(ValueError):
        sample_directions(3, 0, seed=1)


def test_first_coordinate_second_moment():
    # sphere-uniformity check: E[theta_1^2] = 1/d, with the standard error
    # taken from an independent generator's draw of the same quantity
    d, k = 3, 200_000
    dirs = sample_directions(d, k, seed=2024)
    sample_mean = np.mean(dirs.dirs[:, 0] ** 2)

    rng = np.random.default_rng(999)
    z = rng.standard_normal((k, d))
    oracle_vals = (z[:, 0] / np.linalg.norm(z, axis=1)) ** 2
    se = np.sqrt(np.var(oracle_vals) / k)
    assert abs(np.mean(oracle_vals) - 1.0 / d) <= 4 * se
    assert abs(sample_mean - 1.0 / d) <= 3 * se
