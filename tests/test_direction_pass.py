"""Bit-identity of the direction-pass kernels against their reference forms.

The batch kernels build their intermediates in place, and the pass sorts
block by block through a value sort of index-tagged keys, falling back to
an unstable argsort. Each test here compares the production code with the
plain expressions it replaces using exact equality, on inputs chosen to
stress ties and the keys: rounded data, duplicated rows, both signed
zeros, subnormals, near neighbours and axis-aligned directions.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from swinfer import estimators, ot1d
from swinfer.estimators import _BLOCK_BYTES, _CHUNK, _direction_pass
from swinfer.geometry import DirectionSet, as_sample_matrix
from swinfer.ot1d import (_coupling, potential_values_batch, row_assignment,
                          sort_projection, wasserstein_pp, wasserstein_pp_batch)

# single points, n == m, n > m and n < m, small and large
SHAPES = [(1, 1), (1, 4), (7, 7), (7, 3), (3, 7), (300, 300), (300, 200)]


def at_exponents(cases):
    """Each case at p = 1.5, 2 and 3. The p = 2 cases keep the ids they had
    before p became a parameter; the others append p."""
    return [pytest.param(*case, p, id="-".join(map(str, case))
                         + ("" if p == 2.0 else f"-{p}"))
            for case in cases for p in (1.5, 2.0, 3.0)]


def assert_same_bits(got, want):
    """Exact equality that also tells 0.0 from -0.0."""
    assert_array_equal(got, want)
    assert_array_equal(np.signbit(got), np.signbit(want))


def reference_cost(S, T, p):
    """Each row's cost summed as ``wasserstein_pp`` sums one sample."""
    i0, j0, mass, _ = _coupling(S.shape[1], T.shape[1])
    costs = []
    for s, t in zip(S, T):
        diff = s[i0] - t[j0]
        row = diff * diff if p == 2.0 else np.abs(diff) ** p
        costs.append(np.sum(row * mass))
    return np.array(costs)


def reference_potentials(S, T, p):
    t_r = T[:, row_assignment(S.shape[1], T.shape[1])[:-1] - 1]
    hi = S[:, 1:] - t_r
    lo = S[:, :-1] - t_r
    steps = hi * hi - lo * lo if p == 2.0 else np.abs(hi) ** p - np.abs(lo) ** p
    return np.concatenate((np.zeros((S.shape[0], 1)), np.cumsum(steps, axis=1)),
                          axis=1)


def reference_pass(X, Y, dirs, p):
    """The direction pass with a stable argsort and the reference kernels,
    reduced over the same chunks in the same order."""
    k = dirs.k
    per_direction = np.empty(k)
    g_x = np.zeros(X.n)
    g_y = np.zeros(Y.n)
    for lo in range(0, k, _CHUNK):
        rows = dirs.dirs[lo:lo + _CHUNK]
        px = rows @ X.data.T
        py = rows @ Y.data.T
        ox = np.argsort(px, axis=1, kind="stable")
        oy = np.argsort(py, axis=1, kind="stable")
        sx = np.take_along_axis(px, ox, axis=1)
        sy = np.take_along_axis(py, oy, axis=1)
        per_direction[lo:lo + rows.shape[0]] = reference_cost(sx, sy, p)
        for g, s, t, order in ((g_x, sx, sy, ox), (g_y, sy, sx, oy)):
            buf = np.empty_like(s)
            np.put_along_axis(buf, order, reference_potentials(s, t, p), axis=1)
            g += buf.sum(axis=0)
    return per_direction, g_x / k, g_y / k


def sorted_stack(rng, k, n, decimals):
    S = np.sort(np.round(rng.normal(0.0, 2.0, (k, n)), decimals), axis=1)
    zeros = S == 0.0
    S[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return S


def tie_heavy_sample(rng, n, d):
    """Rounded data with duplicated rows and entries of both signed zeros."""
    base = rng.normal(0.0, 1.0, (n, d))
    base[:, 0] = np.round(base[:, 0])
    base[:, 1:] = np.round(base[:, 1:], 1)
    half = n // 2
    base[half:] = base[rng.integers(0, half, n - half)]
    zeros = rng.random((n, d)) < 0.15
    base[zeros] = np.where(rng.random((n, d)) < 0.5, 0.0, -0.0)[zeros]
    return as_sample_matrix(base)


def tie_heavy_directions(rng, d, k):
    axes = np.concatenate((np.eye(d), -np.eye(d)))
    z = rng.normal(size=(k - axes.shape[0], d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    rows = np.concatenate((axes, z))[rng.permutation(k)]
    return DirectionSet(dirs=rows, k=k, seed=0, stream_id=0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("n,m", SHAPES)
def test_cost_kernel_matches_reference_bitwise(n, m, p):
    rng = np.random.default_rng(1000 * n + m)
    S = sorted_stack(rng, 9, n, 1)
    T = sorted_stack(rng, 9, m, 0)
    S0, T0 = S.copy(), T.copy()
    got = wasserstein_pp_batch(S, T, p)
    assert_array_equal(S, S0)
    assert_array_equal(T, T0)
    assert_same_bits(got, reference_cost(S, T, p))


@pytest.mark.parametrize("n,m,p", at_exponents(SHAPES))
def test_potential_kernel_matches_reference_bitwise(n, m, p):
    rng = np.random.default_rng(1000 * n + m + 7)
    S = sorted_stack(rng, 9, n, 0)
    T = sorted_stack(rng, 9, m, 1)
    S0, T0 = S.copy(), T.copy()
    got = potential_values_batch(S, T, p)
    assert_array_equal(S, S0)
    assert_array_equal(T, T0)
    assert_same_bits(got, reference_potentials(S, T, p))


def block_rows(n, m):
    """Directions that the pass handles at a time, at most a whole chunk."""
    return min(_CHUNK, max(1, _BLOCK_BYTES // (8 * (n + m))))


def random_pass_inputs(rng, n, m, d, k):
    X = as_sample_matrix(np.round(rng.normal(0.0, 1.0, (n, d)), 1))
    Y = as_sample_matrix(np.round(rng.normal(0.5, 2.0, (m, d)), 1))
    z = rng.normal(size=(k, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return X, Y, DirectionSet(dirs=z, k=k, seed=0, stream_id=0)


def assert_pass_matches_reference(X, Y, dirs, p):
    want = reference_pass(X, Y, dirs, p)
    est, g_x, g_y = _direction_pass(X, Y, dirs, p, True, 1)
    for got, w in zip((est.per_direction, g_x, g_y), want):
        assert_same_bits(got, w)


# n == m, n > m, n < m and the smallest samples, whose blocks are whole
# chunks; a sample has at least 2 points, so the kernels' 0-column steps of
# a single source point are pinned by the kernel tests above. (2, 2), (3, 4)
# and (4096, 4097) put n on both sides of a change in the key sort's index width
BLOCK_SHAPES = [(300, 300), (300, 200), (200, 300), (7, 3), (2, 2), (2, 5), (3, 4),
                (4096, 4097)]
# one sample wider than a block, so every block holds a single direction
WIDE = _BLOCK_BYTES // 8 + 1


@pytest.mark.parametrize("n,m,p", at_exponents(BLOCK_SHAPES))
def test_potential_kernel_crosses_block_boundaries(n, m, p, fallbacks):
    """The kernels as the pass runs them: two full blocks and a ragged one,
    each sorted by its keys alone."""
    rows = block_rows(n, m)
    k = 2 * rows + rows // 2 + 1
    rng = np.random.default_rng(1000 * n + m + 11)
    assert_pass_matches_reference(*random_pass_inputs(rng, n, m, 3, k), p)
    assert fallbacks() == 0


@pytest.mark.parametrize("n,m,p", at_exponents([(WIDE, WIDE), (WIDE, WIDE - 3)]))
def test_potential_kernel_single_row_blocks(n, m, p):
    """The kernels as the pass runs them, one direction per block."""
    assert block_rows(n, m) == 1
    rng = np.random.default_rng(n + m)
    assert_pass_matches_reference(*random_pass_inputs(rng, n, m, 2, 3), p)


def test_coupling_built_once_per_shape(monkeypatch):
    """Over many blocks, the pass builds the (n, m) and (m, n) coupling
    tables once each: ``row_assignment`` runs once per orientation."""
    calls, blocks = [], []
    row_assignment = ot1d.row_assignment
    cost_kernel = estimators.wasserstein_pp_batch

    def spy(n, m):
        calls.append((n, m))
        return row_assignment(n, m)

    def count_blocks(S, T, p):
        blocks.append(S.shape[0])
        return cost_kernel(S, T, p)

    monkeypatch.setattr(ot1d, "row_assignment", spy)
    monkeypatch.setattr(estimators, "wasserstein_pp_batch", count_blocks)
    monkeypatch.setattr(estimators, "_BLOCK_BYTES", 8 * (37 + 23) * 3)
    ot1d._coupling.cache_clear()
    X, Y, dirs = random_pass_inputs(np.random.default_rng(5), 37, 23, 3, 40)
    _direction_pass(X, Y, dirs, 3.0, True, 1)
    assert blocks == [3] * 13 + [1]
    assert sorted(calls) == [(23, 37), (37, 23)]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_pass_costs_equal_scalar_path(p, threads):
    """Every per-direction cost is the scalar ``wasserstein_pp`` of the same
    projections, bit for bit, over random shapes and block heights."""
    rng = np.random.default_rng(int(10 * p) + threads)
    for _ in range(10):
        n, m, d = rng.integers(2, 400), rng.integers(2, 400), rng.integers(1, 9)
        X, Y, dirs = random_pass_inputs(rng, n, m, d, _CHUNK + rng.integers(1, 100))
        est = _direction_pass(X, Y, dirs, p, False, threads)[0]
        # the projections are the pass's own chunk products: a single
        # direction's matrix-vector product may round differently
        want = []
        for lo in range(0, dirs.k, _CHUNK):
            rows = dirs.dirs[lo:lo + _CHUNK]
            want += [wasserstein_pp(sort_projection(px), sort_projection(py), p)
                     for px, py in zip(rows @ X.data.T, rows @ Y.data.T)]
        assert_same_bits(est.per_direction, np.array(want))


@pytest.mark.parametrize("n,m,p", at_exponents([(60, 60), (90, 41), (41, 90), (2, 5)]))
def test_pass_is_block_invariant(n, m, p, monkeypatch):
    """One direction per block, the default and one block per chunk give
    the same costs and potential sums, bit for bit."""
    rng = np.random.default_rng(n * m + 3)
    X, Y, dirs = random_pass_inputs(rng, n, m, 4, _CHUNK + 77)
    results = []
    for block_bytes in (8, _BLOCK_BYTES, 2 ** 30):
        monkeypatch.setattr(estimators, "_BLOCK_BYTES", block_bytes)
        est, g_x, g_y = _direction_pass(X, Y, dirs, p, True, 2)
        plain = _direction_pass(X, Y, dirs, p, False, 1)[0]
        assert_same_bits(plain.per_direction, est.per_direction)
        results.append((est.per_direction, g_x, g_y))
    for got in results[1:]:
        for a, b in zip(got, results[0]):
            assert_same_bits(a, b)


@pytest.mark.parametrize("n,m,threads,p", at_exponents(
    [(n, m, threads) for n, m in [(45, 70), (60, 60), (70, 45)]
     for threads in (1, 2)]))
def test_tie_heavy_pass_matches_stable_reference(n, m, threads, p):
    rng = np.random.default_rng(n * m)
    d = 4
    X = tie_heavy_sample(rng, n, d)
    Y = tie_heavy_sample(rng, m, d)
    dirs = tie_heavy_directions(rng, d, _CHUNK + 40)
    want = reference_pass(X, Y, dirs, p)
    est, g_x, g_y = _direction_pass(X, Y, dirs, p, True, threads)
    for g, w in zip((est.per_direction, g_x, g_y), want):
        assert_same_bits(g, w)


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the pass's argsort fallbacks: its unkeyed ``np.argsort`` calls."""
    calls = []
    argsort = np.argsort

    def spy(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return lambda: calls.count(None)


def line_pass_inputs(x, y, k=6):
    """1-d samples seen along +1 and -1, so the projections are the data
    and their negations, exactly."""
    rows = np.resize([[1.0], [-1.0]], (k, 1))
    return (as_sample_matrix(np.asarray(x)[:, None]),
            as_sample_matrix(np.asarray(y)[:, None]),
            DirectionSet(dirs=rows, k=k, seed=0, stream_id=0))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_key_sort_falls_back_on_reversed_neighbours(p, fallbacks):
    """x and the next float up, in reversed index order, share a key bucket,
    so the value sort leaves them reversed and the block is argsorted."""
    rng = np.random.default_rng(41)
    x = np.round(rng.normal(0.0, 2.0, 30), 1)
    x[7], x[19] = np.nextafter(1.0, np.inf), 1.0
    inputs = line_pass_inputs(x, np.round(rng.normal(0.5, 1.0, 20), 1))
    assert_pass_matches_reference(*inputs, p)
    assert fallbacks() > 0


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0])
def test_key_sort_signed_zeros_subnormals_and_extremes(p, fallbacks):
    """Both zeros, subnormals and values near the float64 limit; p = 1.01
    keeps the costs of values 1e300 apart finite."""
    big = 1e300 if p < 1.1 else 1e100
    pool = np.array([0.0, -0.0, 1e-310, -1e-310, 3e-310, big, -big, 1.0, -2.5])
    rng = np.random.default_rng(int(100 * p))
    inputs = line_pass_inputs(rng.choice(pool, 40), rng.choice(pool, 25))
    assert_pass_matches_reference(*inputs, p)
    assert fallbacks() == 0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_key_sort_all_equal_rows(p, fallbacks):
    assert_pass_matches_reference(*line_pass_inputs(np.full(33, 0.3),
                                                    np.full(17, -1.25)), p)
    assert fallbacks() == 0


@pytest.mark.parametrize("potentials", [True, False])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_overflowing_projection_raises(sign, potentials):
    """A finite point whose projection overflows to inf, keyed with index 1,
    is a NaN key; the pass must still see the infinite cost."""
    X = as_sample_matrix(np.array([[0.0, 0.0], [1.5e308, 1.5e308]]) * sign)
    Y = as_sample_matrix(np.zeros((2, 2)))
    dirs = DirectionSet(dirs=np.array([[0.6, 0.8]]), k=1, seed=0, stream_id=0)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="overflows float64.*rescale"):
            _direction_pass(X, Y, dirs, 2.0, potentials, 1)
