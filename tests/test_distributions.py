import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.integrate import IntegrationWarning, quad
from scipy.special import beta as beta_fn

from swinfer.distributions import (GaussianSpec, JAlphaResult,
                                   QuadratureConfig, gaussian_quantile_density,
                                   gaussian_sw2_meanshift, j_alpha,
                                   sample_gaussian, uniform_quantile_density)


def test_spec_validation():
    spec = GaussianSpec(mean=[1.0, 2.0], sigma_sq=0.5)
    assert spec.d == 2
    assert GaussianSpec(mean=3.0).d == 1
    with pytest.raises(ValueError):
        GaussianSpec(mean=[0.0], sigma_sq=0.0)
    with pytest.raises(ValueError):
        GaussianSpec(mean=[[0.0, 1.0]])
    with pytest.raises(ValueError):
        GaussianSpec(mean=[np.nan])


def test_sampling_is_deterministic_per_stream():
    spec = GaussianSpec(mean=np.zeros(3))
    a = sample_gaussian(spec, 8, seed=42, stream_id=0)
    b = sample_gaussian(spec, 8, seed=42, stream_id=0)
    assert_array_equal(a.data, b.data)
    c = sample_gaussian(spec, 8, seed=42, stream_id=1)
    assert (a.data != c.data).any()
    d = sample_gaussian(spec, 8, seed=43, stream_id=0)
    assert (a.data != d.data).any()


def test_sampling_rows_are_prefix_stable():
    spec = GaussianSpec(mean=np.array([1.0, -2.0]))
    small = sample_gaussian(spec, 5, seed=7)
    large = sample_gaussian(spec, 12, seed=7)
    assert_array_equal(small.data, large.data[:5])


def test_sampling_needs_two_rows():
    with pytest.raises(ValueError):
        sample_gaussian(GaussianSpec(mean=np.zeros(2)), 1, seed=0)


def test_sampling_moments():
    spec = GaussianSpec(mean=np.array([2.0, -1.0, 0.5]), sigma_sq=4.0)
    sample = sample_gaussian(spec, 20000, seed=11)
    err = np.linalg.norm(sample.data.mean(axis=0) - spec.mean)
    assert err <= 4 * 2.0 * math.sqrt(3 / 20000)
    stds = sample.data.std(axis=0)
    assert np.all(np.abs(stds - 2.0) < 0.1)


def test_meanshift_cost_examples():
    assert gaussian_sw2_meanshift(np.zeros(4)) == 0.0
    delta = np.zeros(32)
    delta[0] = math.sqrt(32.0)
    assert gaussian_sw2_meanshift(delta) == pytest.approx(1.0, rel=1e-14)
    # d = 8, p = 3: E|theta_1|^3 = Gamma(4) Gamma(2) / (sqrt(pi) Gamma(11/2))
    # = 64 / (315 pi), and ||delta||^3 = 16 sqrt(2)
    delta = np.zeros(8)
    delta[0] = math.sqrt(8.0)
    assert gaussian_sw2_meanshift(delta, 3.0) == pytest.approx(
        1024 * math.sqrt(2.0) / (315 * math.pi), rel=1e-14)
    # on the line |theta_1| = 1, so the cost is |delta|^p
    assert gaussian_sw2_meanshift([-2.0], 1.5) == pytest.approx(2.0 ** 1.5, rel=1e-15)
    assert gaussian_sw2_meanshift(np.zeros(4), 3.0) == 0.0
    with pytest.raises(ValueError):
        gaussian_sw2_meanshift(np.zeros((2, 2)))


def test_meanshift_cost_rotation_invariant():
    rng = np.random.default_rng(5)
    delta = rng.normal(size=6)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    assert gaussian_sw2_meanshift(q @ delta) == pytest.approx(
        gaussian_sw2_meanshift(delta), rel=1e-12)


def test_meanshift_cost_against_sphere_monte_carlo():
    rng = np.random.default_rng(99)
    delta = rng.normal(size=6)
    z = rng.standard_normal((1_000_000, 6))
    theta = z / np.linalg.norm(z, axis=1, keepdims=True)
    for p in (1.5, 2.0, 3.0):
        vals = np.abs(theta @ delta) ** p
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - gaussian_sw2_meanshift(delta, p)) <= 4 * se


def test_quantile_density_values():
    assert gaussian_quantile_density(0.5) == pytest.approx(
        1.0 / math.sqrt(2 * math.pi), rel=1e-15)
    t = np.array([0.01, 0.2, 0.77])
    sym = gaussian_quantile_density(1.0 - t)
    assert gaussian_quantile_density(t) == pytest.approx(sym, rel=1e-12)
    assert_array_equal(uniform_quantile_density(t), np.ones(3))


def test_j_alpha_uniform_closed_forms():
    flat = j_alpha(uniform_quantile_density, 2.0)
    assert flat.status == "converged"
    assert flat.value == pytest.approx(1.0 / 6.0, abs=1e-9)
    # alpha = 1.5 gives a Beta(7/4, 7/4) normalizing constant
    softer = j_alpha(uniform_quantile_density, 1.5)
    assert softer.status == "converged"
    assert softer.value == pytest.approx(float(beta_fn(1.75, 1.75)), rel=1e-7)


def test_j_alpha_density_scaling():
    base = j_alpha(uniform_quantile_density, 2.0)
    halved = j_alpha(lambda t: uniform_quantile_density(t) / 2.0, 2.0)
    assert halved.status == "converged"
    assert halved.value == pytest.approx(4.0 * base.value, rel=1e-13)


def test_j_alpha_normal_classification():
    assert j_alpha(gaussian_quantile_density, 1.5).status == "converged"
    assert j_alpha(gaussian_quantile_density, 2.0).status == "diverging"
    assert j_alpha(gaussian_quantile_density, 2.5).status == "diverging"


def test_j_alpha_normal_value_against_adaptive_quadrature():
    def integrand(t):
        return (t * (1.0 - t)) ** 0.75 / gaussian_quantile_density(t) ** 1.5

    with warnings.catch_warnings():
        # the endpoint singularity makes quad grumble; its value is still
        # good to ~1e-6 relative, which is all this cross-check needs
        warnings.simplefilter("ignore", IntegrationWarning)
        oracle, _ = quad(integrand, 0.0, 1.0, limit=200)
    got = j_alpha(gaussian_quantile_density, 1.5)
    assert got.value == pytest.approx(oracle, rel=1e-5)


def test_j_alpha_rejects_bad_inputs():
    with pytest.raises(ValueError):
        j_alpha(uniform_quantile_density, 0.5)
    with pytest.raises(ValueError):
        j_alpha(lambda t: np.zeros_like(np.asarray(t)), 2.0)
    with pytest.raises(ValueError):
        j_alpha(lambda t: -uniform_quantile_density(t), 2.0)
    with pytest.raises(ValueError):
        j_alpha(lambda t: 1.0, 2.0)  # not vectorized


def test_j_alpha_result_is_plain_float():
    out = j_alpha(uniform_quantile_density, 2.0)
    assert isinstance(out, JAlphaResult)
    assert type(out.value) is float


def test_quadrature_config_validation():
    cfg = QuadratureConfig(epsilon_sequence=(1e-2, 1e-4, 1e-8), points_per_level=16)
    assert cfg.epsilon_sequence == (1e-2, 1e-4, 1e-8)
    with pytest.raises(ValueError):
        QuadratureConfig(epsilon_sequence=(1e-4, 1e-2))
    with pytest.raises(ValueError):
        QuadratureConfig(epsilon_sequence=(0.6, 1e-3))
    with pytest.raises(ValueError):
        QuadratureConfig(epsilon_sequence=(1e-3,))
    with pytest.raises(ValueError):
        QuadratureConfig(points_per_level=1)


def test_j_alpha_honors_custom_ladder():
    # a ladder stopping at 1e-4 cannot see far enough into the normal tail
    # to rule either way, but it must still return a finite value
    shallow = QuadratureConfig(epsilon_sequence=(1e-2, 1e-3, 1e-4))
    out = j_alpha(gaussian_quantile_density, 1.5, cfg=shallow)
    assert math.isfinite(out.value)
