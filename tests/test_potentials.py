import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from potential_reference import c_conjugate, duality_gap, kernel_buffers, row_assignment
from swinfer.ot1d import (_coupling, potential_values, potential_values_batch,
                          sort_projection, wasserstein_pp, wasserstein_pp_batch)


def c_conjugate_brute(phi_at_s, svals, t_points, p=2.0):
    """Dense-scan reference: min_i (|s_(i) - t|^p - phi(s_(i))) per query,
    the same expression c_conjugate evaluates on a monotone bracket."""
    cost = np.abs(svals[None, :] - t_points[:, None]) ** p
    return np.min(cost - phi_at_s[None, :], axis=1)


def rank_from_cells(n, m):
    """Oracle: largest coupled target rank per source rank, read off the
    coupling's cell arrays."""
    out = np.zeros(n, dtype=int)
    i0, j0, *_ = _coupling(n, m)
    for i, j in zip(i0, j0):
        out[i] = max(out[i], j + 1)
    return out


def test_row_assignment_examples():
    assert_array_equal(row_assignment(2, 2), [1, 2])
    assert_array_equal(row_assignment(2, 3), [2, 3])
    assert_array_equal(row_assignment(3, 2), [1, 2, 2])


@pytest.mark.parametrize("n,m", [(1, 1), (4, 4), (5, 3), (3, 5),
                                 (50, 7), (7, 50), (33, 29)])
def test_row_assignment_matches_cell_oracle(n, m):
    got = row_assignment(n, m)
    assert_array_equal(got, rank_from_cells(n, m))
    assert got[-1] == m
    assert (np.diff(got) >= 0).all()
    assert_array_equal(_coupling(n, m).steps, got[:-1] - 1)


def test_coupling_steps_match_closed_form():
    """The step targets read off the cells are r(i) - 1 = ceil(i m / n) - 1,
    on every small shape and on the benchmark's and tests' large ones."""
    large = [(60000, 36000), (36000, 60000), (4000, 4000), (500, 300),
             (300, 500), (4096, 4097)]
    small = [(n, m) for n in range(1, 50) for m in range(1, 50)]
    for n, m in large + small:
        steps = _coupling(n, m).steps
        assert steps.dtype == np.int64 and not steps.flags.writeable
        assert_array_equal(steps, row_assignment(n, m)[:-1] - 1,
                           err_msg=f"n={n}, m={m}")


def test_potential_values_hand_recursion():
    s = sort_projection(np.array([0.0, 1.0]))
    t = sort_projection(np.array([2.0, 3.0]))
    phi = potential_values(s, t)
    assert_array_equal(phi, [0.0, -3.0])


def test_potential_values_duplicate_source_points():
    s = sort_projection(np.array([2.0, 2.0]))
    t = sort_projection(np.array([-1.0, 5.0]))
    # the step across the tie is h(2 - (-1)) - h(2 - (-1)) = 0 at every p
    for p in (1.5, 2.0, 3.0):
        assert_array_equal(potential_values(s, t, p), [0.0, 0.0])


def test_potential_values_identical_samples():
    s = sort_projection(np.array([0.0, 1.0]))
    phi = potential_values(s, s)
    assert_array_equal(phi, [0.0, 1.0])
    conj = c_conjugate(phi, s, s.values)
    dual = phi.mean() + conj.mean()
    assert dual == pytest.approx(0.0, abs=1e-15)


def test_potential_values_single_source_point():
    s = sort_projection(np.array([3.0]))
    t = sort_projection(np.array([0.0, 1.0]))
    assert_array_equal(potential_values(s, t), [0.0])
    assert_array_equal(potential_values(s, t, 3.0), [0.0])


def test_batch_matches_scalar_path():
    rng = np.random.default_rng(5)
    S = np.sort(rng.normal(size=(6, 17)), axis=1)
    T = np.sort(rng.normal(size=(6, 11)), axis=1)
    for p in (1.5, 2.0, 3.0):
        buf = kernel_buffers(17, 11, 6)
        wasserstein_pp_batch(S, T, p, buf.costs, buf.cells, buf.masses)
        batch = potential_values_batch(S, T, p, buf.phi_s, buf.upper, buf.cells)
        for row in range(6):
            single = potential_values(sort_projection(S[row]),
                                      sort_projection(T[row]), p)
            assert_array_equal(batch[row], single)


def test_c_conjugate_hand_example():
    s = sort_projection(np.array([0.0, 1.0]))
    conj = c_conjugate(np.array([0.0, -3.0]), s, np.array([2.0, 3.0]))
    assert_array_equal(conj, [4.0, 7.0])


def test_c_conjugate_preserves_query_order():
    rng = np.random.default_rng(2)
    s = sort_projection(rng.normal(size=9))
    phi = potential_values(s, s)
    t = rng.normal(size=14)
    out = c_conjugate(phi, s, t)
    for i, ti in enumerate(t):
        assert out[i] == np.min((s.values - ti) ** 2 - phi)


def test_c_conjugate_monotone_equals_brute_generic():
    # phi drawn independently of t: no structure beyond sortedness of s
    rng = np.random.default_rng(7)
    for _ in range(400):
        n = int(rng.integers(1, 80))
        m = int(rng.integers(1, 80))
        s = sort_projection(np.sort(rng.normal(0, 3, n)))
        phi = rng.normal(0, 4, n)
        t = rng.normal(0, 3, m)
        fast = c_conjugate(phi, s, t)
        slow = c_conjugate_brute(phi, s.values, t)
        assert_array_equal(fast, slow)


def test_c_conjugate_monotone_equals_brute_constructed():
    # phi built from the same target sample, the duality use case; flat
    # stretches of the objective make this the adversarial configuration
    rng = np.random.default_rng(8)
    for _ in range(400):
        n = int(rng.integers(1, 80))
        m = int(rng.integers(1, 80))
        s = sort_projection(np.sort(rng.normal(0, 3, n)))
        t = sort_projection(np.sort(rng.normal(0, 3, m)))
        phi = potential_values(s, t)
        fast = c_conjugate(phi, s, t.values)
        slow = c_conjugate_brute(phi, s.values, t.values)
        assert_array_equal(fast, slow)


def test_c_conjugate_rejects_bad_method_and_shapes():
    s = sort_projection(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        c_conjugate(np.zeros(3), s, np.zeros(2))


@pytest.mark.parametrize("p", [1.0, 0.5, np.nan, np.inf])
def test_potentials_refuse_bad_exponent(p):
    s = sort_projection(np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="order p"):
        potential_values(s, s, p)
    with pytest.raises(ValueError, match="order p"):
        c_conjugate(np.zeros(2), s, s.values, p)


# s_(3) = 1e200 overflows the coupled cost |1e200 - 2|^2 and the potential
# step |1e200 - 1|^2; the gap's dual would then read inf - inf
OVERFLOW_S = sort_projection(np.array([0.0, 1e200, 3.0]))
OVERFLOW_T = sort_projection(np.array([0.0, 1.0, 2.0]))


@pytest.mark.parametrize("kernel", [wasserstein_pp, potential_values, duality_gap])
def test_scalar_kernels_name_an_overflow(kernel):
    """The direction pass's overflow error, with no RuntimeWarning first
    (pytest turns one into a failure)."""
    with pytest.raises(ValueError, match="overflows float64.*rescale"):
        kernel(OVERFLOW_S, OVERFLOW_T, 2.0)


def test_c_conjugate_names_an_overflow():
    s = sort_projection(np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="overflows float64.*rescale"):
        c_conjugate(np.zeros(2), s, [1e200], 2.0)


def test_duality_gap_names_an_overflowing_dual():
    """A finite cost (3.3e307) and finite potentials [0, 1e308, 1e308], whose
    mean overflows."""
    s = sort_projection(np.array([0.0, 1e154, 1e154]))
    t = sort_projection(np.array([0.0, 0.0, 1e154]))
    with pytest.raises(ValueError, match="overflows float64.*rescale"):
        duality_gap(s, t, 2.0)


def test_scalar_kernels_keep_finite_results_near_the_limit():
    s = sort_projection(np.array([0.0, 1e154]))
    t = sort_projection(np.zeros(2))
    assert wasserstein_pp(s, t, 2.0) == 0.5 * 1e154 ** 2
    assert_array_equal(potential_values(s, t, 2.0), [0.0, 1e154 ** 2])


def test_duality_gap_hand_example():
    s = sort_projection(np.array([0.0, 1.0]))
    t = sort_projection(np.array([2.0, 3.0]))
    # primal 4, dual (0 - 3)/2 + (4 + 7)/2 = 4
    assert duality_gap(s, t) == 0.0
    # p = 3: phi = [0, 1 - 8], phi^c = [min(8, 1 + 7), min(27, 8 + 7)],
    # primal (8 + 8)/2 = 8, dual -7/2 + 23/2 = 8
    assert_array_equal(potential_values(s, t, 3.0), [0.0, -7.0])
    assert_array_equal(c_conjugate([0.0, -7.0], s, t.values, 3.0), [8.0, 15.0])
    assert duality_gap(s, t, 3.0) == 0.0


def test_duality_gap_identical_samples():
    s = sort_projection(np.array([-1.0, 0.5, 2.0]))
    assert duality_gap(s, s) == pytest.approx(0.0, abs=1e-15)


def test_strong_duality_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 201))
        m = int(rng.integers(1, 201))
        s = sort_projection(rng.normal(0, 2, n))
        t = sort_projection(rng.normal(1, 3, m))
        w = wasserstein_pp(s, t, 2.0)
        assert abs(duality_gap(s, t)) <= 1e-9 * (1.0 + w)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_strong_duality_other_exponents(p):
    # the |s - t|^p potential attains the primal cost, is c-concave against
    # its conjugate, and the divide-and-conquer conjugate equals a dense scan
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 201))
        m = int(rng.integers(1, 201))
        s = sort_projection(rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 3.0), n))
        t = sort_projection(rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 3.0), m))
        w = wasserstein_pp(s, t, p)
        worst = max(worst, abs(duality_gap(s, t, p)) / (1.0 + w))
        phi = potential_values(s, t, p)
        conj = c_conjugate(phi, s, t.values, p)
        assert_array_equal(conj, c_conjugate_brute(phi, s.values, t.values, p))
        cost = np.abs(s.values[:, None] - t.values[None, :]) ** p
        assert (phi[:, None] + conj[None, :] <= cost + 1e-12 * (1.0 + cost)).all()
    assert worst <= 1e-9


def test_phi_conv_slopes_nondecreasing():
    # slopes of the convex part are t_(r(i)), nondecreasing by construction
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(1, 60))
        t = np.sort(rng.normal(size=m))
        slopes = t[row_assignment(n, m) - 1]
        assert (np.diff(slopes) >= 0).all()


def test_phi_conv_discrete_convexity():
    # abscissae kept well separated so recovering phi_conv from phi does not
    # amplify rounding in the divided differences
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(3, 80))
        m = int(rng.integers(1, 80))
        sv = np.cumsum(0.1 + rng.random(n))
        sv -= sv.mean()
        tv = np.sort(rng.normal(0, 2, m))
        phi = potential_values(sort_projection(sv), sort_projection(tv))
        conv = 0.5 * (sv ** 2 - phi)
        slopes = np.diff(conv) / np.diff(sv)
        assert (np.diff(slopes) >= -1e-12).all()


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=30),
       st.lists(st.floats(-10, 10), min_size=1, max_size=30))
def test_c_concavity_exhaustive(xs, ys):
    s = sort_projection(np.array(xs))
    t = sort_projection(np.array(ys))
    phi = potential_values(s, t)
    conj = c_conjugate(phi, s, t.values)
    lhs = phi[:, None] + conj[None, :]
    cost = (s.values[:, None] - t.values[None, :]) ** 2
    assert (lhs <= cost + 1e-12).all()
