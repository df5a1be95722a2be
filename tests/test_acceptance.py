"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints nothing on its own; the conftest summary hook emits one
ACCEPTANCE line per criterion after the run. Stated runtime budgets are
asserted with perf_counter around the expensive part.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from swinfer.distributions import (GaussianSpec, gaussian_quantile_density,
                                   gaussian_sw2_meanshift, j_alpha,
                                   sample_gaussian, uniform_quantile_density)
from swinfer.estimators import potential_table, sliced_estimate, v_hat_sq, w_hat_sq
from swinfer.geometry import sample_directions
from swinfer.inference import analyze
from swinfer.ot1d import sort_projection, wasserstein_pp
from swinfer.potentials import c_conjugate, duality_gap, potential_values
from swinfer.sim import SimulationPlan, run_plan

# substream ids used by these tests only; the package itself never goes
# above the replication harness range for the seeds involved here
_S = 10_000


def dense_interval_brute(x, y, p):
    """All-pairs quantile-interval intersection, masses exact in 1/(nm) units."""
    s, t = np.sort(x), np.sort(y)
    n, m = s.size, t.size
    i = np.arange(n + 1, dtype=np.int64)
    j = np.arange(m + 1, dtype=np.int64)
    hi = np.minimum(i[1:, None] * m, j[None, 1:] * n)
    lo = np.maximum(i[:-1, None] * m, j[None, :-1] * n)
    mass = np.clip(hi - lo, 0, None) / float(n * m)
    cost = np.abs(s[:, None] - t[None, :]) ** p
    return float((mass * cost).sum())


def test_criterion_1_merged_coupling_matches_dense_brute():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    instances = 0
    for trial in range(350):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(2, 51))
        x = rng.normal(rng.uniform(-1, 1), rng.uniform(0.2, 2.0), n)
        y = rng.normal(rng.uniform(-1, 1), rng.uniform(0.2, 2.0), m)
        for p in (1.5, 2.0, 3.0):
            got = wasserstein_pp(sort_projection(x), sort_projection(y), p)
            want = dense_interval_brute(x, y, p)
            assert abs(got - want) <= 1e-12 * max(abs(want), 1e-30)
            instances += 1
    elapsed = time.perf_counter() - start
    assert instances >= 1000
    assert elapsed < 5.0


def test_criterion_2_strong_duality():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        m = int(rng.integers(2, 201))
        s = sort_projection(rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 3.0), n))
        t = sort_projection(rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 3.0), m))
        primal = wasserstein_pp(s, t, 2.0)
        assert abs(duality_gap(s, t)) <= 1e-9 * (1.0 + primal)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


def test_criterion_3_exhaustive_c_concavity():
    rng = np.random.default_rng(303)
    for trial in range(200):
        n = int(rng.integers(2, 31))
        m = int(rng.integers(2, 31))
        s = sort_projection(rng.normal(0, 2, n))
        t = sort_projection(rng.normal(rng.uniform(-1, 1), 2, m))
        phi = potential_values(s, t)
        conj = c_conjugate(phi, s, t.values)
        cost = (s.values[:, None] - t.values[None, :]) ** 2
        lhs = phi[:, None] + conj[None, :]
        assert (lhs <= cost + 1e-12).all()


def test_criterion_4_gaussian_ground_truth():
    d, n, k = 8, 4000, 2000
    delta_vec = np.zeros(d)
    delta_vec[0] = 2.0
    true_sw = 4.0 / d  # ||delta||^2 / d
    true_w = 2.0 ** 4 * (3.0 / (d * (d + 2)) - 1.0 / d ** 2)
    p_spec = GaussianSpec(np.zeros(d))
    q_spec = GaussianSpec(delta_vec)

    start = time.perf_counter()
    X = sample_gaussian(p_spec, n, seed=77, stream_id=_S)
    Y = sample_gaussian(q_spec, n, seed=77, stream_id=_S + 1)
    dirs = sample_directions(d, k, seed=77, stream_id=_S + 2)
    report = analyze(X, Y, dirs)
    band = 3.0 * np.sqrt(report.variance.combined) / report.effective_rate
    assert abs(report.estimate - true_sw) <= band

    dispersion = np.empty(200)
    for rep in range(200):
        sx = _S + 10 + 3 * rep
        Xr = sample_gaussian(p_spec, n, seed=78, stream_id=sx)
        Yr = sample_gaussian(q_spec, n, seed=78, stream_id=sx + 1)
        dr = sample_directions(d, k, seed=78, stream_id=sx + 2)
        est = sliced_estimate(Xr, Yr, dr)
        dispersion[rep] = w_hat_sq(est)
    se = dispersion.std(ddof=1) / np.sqrt(200)
    assert abs(dispersion.mean() - true_w) <= 3.0 * se
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0


def test_criterion_5_scalar_variance_oracle():
    n = 20000
    p_spec = GaussianSpec(np.zeros(1))
    q_spec = GaussianSpec(np.ones(1))
    start = time.perf_counter()
    inside = 0
    for rep in range(20):
        sx = _S + 1000 + 3 * rep
        X = sample_gaussian(p_spec, n, seed=5, stream_id=sx)
        Y = sample_gaussian(q_spec, n, seed=5, stream_id=sx + 1)
        dirs = sample_directions(1, 2, seed=5, stream_id=sx + 2)
        got = v_hat_sq(X, Y, dirs)
        inside += int(3.6 <= got <= 4.4)
    elapsed = time.perf_counter() - start
    assert inside >= 18
    assert elapsed < 60.0


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_criterion_6_null_calibration(p):
    # at h = 0 the population cost is that of the shift sqrt(8) e_1
    shift = np.zeros(8)
    shift[0] = np.sqrt(8.0)
    plan = SimulationPlan(d=8, n=500, m=300, k_values=(400,), h_values=(0.0,),
                          delta=gaussian_sw2_meanshift(shift, p),
                          replications=1000, master_seed=606, p=p)
    start = time.perf_counter()
    result = run_plan(plan, threads=8)
    elapsed = time.perf_counter() - start
    cell = result.cells[0]
    assert cell.excluded == 0
    assert 0.02 <= cell.rejection_rate <= 0.08
    assert elapsed < 300.0


def test_criterion_7_power_grows_with_direction_budget():
    plan = SimulationPlan(d=8, n=500, m=300, k_values=(10, 400),
                          h_values=(0.5,), delta=1.0, replications=500,
                          master_seed=707)
    result = run_plan(plan, threads=8)
    rate = {cell.k: cell.rejection_rate for cell in result.cells}
    assert rate[400] > rate[10] + 0.05


def test_criterion_8_tail_integral_classification():
    start = time.perf_counter()
    assert j_alpha(gaussian_quantile_density, 1.5).status == "converged"
    assert j_alpha(gaussian_quantile_density, 2.5).status == "diverging"
    flat = j_alpha(uniform_quantile_density, 2.0)
    assert flat.status == "converged"
    assert abs(flat.value - 1.0 / 6.0) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


def test_criterion_9_simulate_is_thread_deterministic(tmp_path):
    plan = {"d": 3, "n": 40, "m": 30, "k_values": [4, 8],
            "h_values": [0.0, 0.5], "delta": 1.0, "replications": 6,
            "master_seed": 2024}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    outputs = {}
    for threads in (1, 8):
        out = tmp_path / f"run_t{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "swinfer.cli", "simulate",
             "--plan", str(plan_path), "--threads", str(threads),
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = (
            (tmp_path / f"run_t{threads}.csv").read_bytes(),
            (tmp_path / f"run_t{threads}.json").read_bytes(),
        )
    assert outputs[1] == outputs[8]


def test_criterion_10_variance_estimator_identities():
    rng = np.random.default_rng(909)
    for trial in range(50):
        n = int(rng.integers(3, 51))
        m = int(rng.integers(3, 51))
        k = int(rng.integers(2, 11))
        d = int(rng.integers(1, 5))
        X = sample_gaussian(GaussianSpec(np.zeros(d)), n, seed=trial,
                            stream_id=_S + 5000)
        Y = sample_gaussian(GaussianSpec(np.full(d, 0.6)), m, seed=trial,
                            stream_id=_S + 5001)
        dirs = sample_directions(d, k, seed=trial, stream_id=_S + 5002)

        table = potential_table(X, Y, dirs)
        rows = table.phi
        centered = rows - rows.mean(axis=1, keepdims=True)
        double_sum = float((centered @ centered.T).sum()) / (k * k * n)
        collapsed = v_hat_sq(X, Y, dirs)
        assert abs(collapsed - double_sum) <= 1e-12 * max(1.0, abs(double_sum))

        shifts = rng.normal(0, 3, size=(k, 1))
        shifted = float(np.var((rows + shifts).mean(axis=0)))
        assert abs(shifted - collapsed) <= 1e-12
