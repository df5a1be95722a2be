"""Bit-identity of the direction-pass kernels against their reference forms.

The batch kernels build their intermediates in place, and the pass sorts
block by block through a value sort of index-tagged keys, falling back to
an unstable argsort. Each test here compares the production code with the
plain expressions it replaces using exact equality, on inputs chosen to
stress ties and the keys: rounded data, duplicated rows, both signed
zeros, subnormals, near neighbours and axis-aligned directions. A thread
keeps its working set from pass to pass: the last tests pin what a repeat
pass allocates, and that a kept set gives the bits of a fresh one.
"""

import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from potential_reference import row_assignment
from swinfer import estimators, inference, ot1d
from swinfer.estimators import _BLOCK_BYTES, _CHUNK, _PANEL_BYTES, _direction_pass
from swinfer.geometry import DirectionSet, as_sample_matrix
from swinfer.ot1d import (_coupling, potential_values_batch, sort_projection,
                          wasserstein_pp, wasserstein_pp_batch)

# single points, n == m, n > m and n < m, small and large; gcd(n, m) > 1
# with n != m, where some upper costs of the potentials are not cells, from
# (300, 200) on
SHAPES = [(1, 1), (1, 4), (7, 7), (7, 3), (3, 7), (300, 300), (300, 200),
          (200, 300), (4, 6), (6, 4), (2400, 4000)]


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
    i0, j0, mass, *_ = _coupling(S.shape[1], T.shape[1])
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


def chunk_panels(X, Y, dirs):
    """The pass's projections, one list per chunk: each chunk's rows a
    panel of ``_PANEL_BYTES // (8 (n + m))`` at a time, one GEMM per panel
    and sample. A product of another height may round a row differently."""
    height = max(1, _PANEL_BYTES // (8 * (X.n + Y.n)))
    for lo in range(0, dirs.k, _CHUNK):
        chunk = dirs.dirs[lo:lo + _CHUNK]
        yield [(rows @ X.data.T, rows @ Y.data.T)
               for rows in (chunk[top:top + height]
                            for top in range(0, chunk.shape[0], height))]


def reference_pass(X, Y, dirs, p):
    """The direction pass with a stable argsort and the reference kernels,
    projected in the same panels and reduced over the same chunks in the
    same order."""
    costs = []
    g_x = np.zeros(X.n)
    g_y = np.zeros(Y.n)
    for panels in chunk_panels(X, Y, dirs):
        scattered = ([], [])
        for px, py in panels:
            ox = np.argsort(px, axis=1, kind="stable")
            oy = np.argsort(py, axis=1, kind="stable")
            sx = np.take_along_axis(px, ox, axis=1)
            sy = np.take_along_axis(py, oy, axis=1)
            costs.append(reference_cost(sx, sy, p))
            for bufs, s, t, order in ((scattered[0], sx, sy, ox),
                                      (scattered[1], sy, sx, oy)):
                buf = np.empty_like(s)
                np.put_along_axis(buf, order, reference_potentials(s, t, p), axis=1)
                bufs.append(buf)
        # the chunk's rows summed in direction order, across its panels
        g_x += np.concatenate(scattered[0]).sum(axis=0)
        g_y += np.concatenate(scattered[1]).sum(axis=0)
    return np.concatenate(costs), g_x / dirs.k, g_y / dirs.k


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
    S = sorted_stack(rng, block_rows(n, m), n, 1)
    T = sorted_stack(rng, block_rows(n, m), m, 0)
    S0, T0 = S.copy(), T.copy()
    got = wasserstein_pp_batch(S, T, p)
    assert_array_equal(S, S0)
    assert_array_equal(T, T0)
    assert_same_bits(got, reference_cost(S, T, p))


@pytest.mark.parametrize("n,m,p", at_exponents(SHAPES))
def test_potential_kernel_matches_reference_bitwise(n, m, p):
    rng = np.random.default_rng(1000 * n + m + 7)
    S = sorted_stack(rng, block_rows(n, m), n, 0)
    T = sorted_stack(rng, block_rows(n, m), m, 1)
    S0, T0 = S.copy(), T.copy()
    got = potential_values_batch(S, T, p)
    assert_array_equal(S, S0)
    assert_array_equal(T, T0)
    assert_same_bits(got, reference_potentials(S, T, p))


@pytest.mark.parametrize("n,m,p", at_exponents(SHAPES))
def test_shared_cells_give_the_cost_and_both_potentials(n, m, p):
    """As the pass runs them: the cost kernel leaves its cells in buffers
    that held other values, and both samples' potentials read them."""
    rows = block_rows(n, m)
    rng = np.random.default_rng(1000 * n + m + 13)
    S = sorted_stack(rng, rows, n, 1)
    T = sorted_stack(rng, rows, m, 0)
    cells = np.full((2, rows, _coupling(n, m).mass.size), np.nan)
    costs = np.full(rows, np.nan)
    wasserstein_pp_batch(S, T, p, out=costs, cells=cells)
    assert_same_bits(costs, reference_cost(S, T, p))
    upper = np.full(rows * math.gcd(n, m) - 1, np.nan)
    for s, t in ((S, T), (T, S)):
        phi = np.full(s.shape, np.nan)
        potential_values_batch(s, t, p, out=phi, upper=upper, cells=cells)
        assert_same_bits(phi, reference_potentials(s, t, p))


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
    est, g_x, g_y = _direction_pass(X, Y, dirs, p, 1)
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
    tables once each: the table cache misses once per orientation."""
    blocks = []
    cost_kernel = estimators.wasserstein_pp_batch

    def count_blocks(S, T, p, **buffers):
        blocks.append(S.shape[0])
        return cost_kernel(S, T, p, **buffers)

    monkeypatch.setattr(estimators, "wasserstein_pp_batch", count_blocks)
    monkeypatch.setattr(estimators, "_BLOCK_BYTES", 8 * (37 + 23) * 3)
    ot1d._coupling.cache_clear()
    X, Y, dirs = random_pass_inputs(np.random.default_rng(5), 37, 23, 3, 40)
    _direction_pass(X, Y, dirs, 3.0, 1)
    assert blocks == [3] * 13 + [1]
    assert ot1d._coupling.cache_info().misses == 2


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_pass_costs_equal_scalar_path(p, threads):
    """Every per-direction cost is the scalar ``wasserstein_pp`` of the same
    projections, bit for bit, over random shapes and block heights."""
    rng = np.random.default_rng(int(10 * p) + threads)
    for _ in range(10):
        n, m, d = rng.integers(2, 400), rng.integers(2, 400), rng.integers(1, 9)
        X, Y, dirs = random_pass_inputs(rng, n, m, d, _CHUNK + rng.integers(1, 100))
        est = estimators.sliced_estimate(X, Y, dirs, p, threads)
        # the projections are the pass's own panel products: a single
        # direction's matrix-vector product may round differently
        want = [wasserstein_pp(sort_projection(sx), sort_projection(sy), p)
                for panels in chunk_panels(X, Y, dirs) for px, py in panels
                for sx, sy in zip(px, py)]
        assert_same_bits(est.per_direction, np.array(want))


@pytest.mark.parametrize("n,m,p", at_exponents([(60, 60), (90, 41), (41, 90), (2, 5)]))
def test_pass_is_block_invariant(n, m, p, monkeypatch):
    """One direction per block, the default and one block per chunk give
    the same costs and potential sums, bit for bit, and ``sliced_estimate``
    in one thread gives the costs of the pass in two."""
    rng = np.random.default_rng(n * m + 3)
    X, Y, dirs = random_pass_inputs(rng, n, m, 4, _CHUNK + 77)
    results = []
    for block_bytes in (8, _BLOCK_BYTES, 2 ** 30):
        monkeypatch.setattr(estimators, "_BLOCK_BYTES", block_bytes)
        est, g_x, g_y = _direction_pass(X, Y, dirs, p, 2)
        plain = estimators.sliced_estimate(X, Y, dirs, p, 1)
        assert_same_bits(plain.per_direction, est.per_direction)
        results.append((est.per_direction, g_x, g_y))
    for got in results[1:]:
        for a, b in zip(got, results[0]):
            assert_same_bits(a, b)


# n + m = 5500 cuts 95-row panels: the first chunk is five full panels and
# a ragged one, the second chunk a single panel shorter than the others
MULTI_PANEL = (3000, 2500, 8, 600)


@pytest.fixture(scope="module")
def multi_panel_inputs():
    n, m, _, k = MULTI_PANEL
    assert _PANEL_BYTES // (8 * (n + m)) == 95 and k > _CHUNK
    return random_pass_inputs(np.random.default_rng(29), *MULTI_PANEL)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_multi_panel_pass_matches_reference(p, multi_panel_inputs):
    assert_pass_matches_reference(*multi_panel_inputs, p)


def test_multi_panel_pass_is_thread_and_block_invariant(multi_panel_inputs,
                                                        monkeypatch):
    """Threads 1 and 2, one direction per block, the default and one block
    per panel give the same bits; ``sliced_estimate`` gives the pass's
    costs."""
    X, Y, dirs = multi_panel_inputs
    want = _direction_pass(X, Y, dirs, 2.0, 1)
    for block_bytes in (8, _BLOCK_BYTES, 2 ** 30):
        monkeypatch.setattr(estimators, "_BLOCK_BYTES", block_bytes)
        for threads in (1, 2):
            est, g_x, g_y = _direction_pass(X, Y, dirs, 2.0, threads)
            for got, w in zip((est.per_direction, g_x, g_y),
                              (want[0].per_direction, *want[1:])):
                assert_same_bits(got, w)
            costs = estimators.sliced_estimate(X, Y, dirs, 2.0, threads)
            assert_same_bits(costs.per_direction, want[0].per_direction)
            assert costs.sw_pp == want[0].sw_pp


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
    est, g_x, g_y = _direction_pass(X, Y, dirs, p, threads)
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


@pytest.mark.parametrize("entry", [estimators.sliced_estimate, estimators.v_hat_sq,
                                   inference.analyze], ids=lambda f: f.__name__)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_overflowing_projection_raises(sign, entry):
    """A finite point whose projection overflows to inf, keyed with index 1,
    is a NaN key; every public path through the pass must still see the
    infinite cost."""
    X = as_sample_matrix(np.array([[0.0, 0.0], [1.5e308, 1.5e308]]) * sign)
    Y = as_sample_matrix(np.zeros((2, 2)))
    dirs = DirectionSet(dirs=np.array([[0.6, 0.8]] * 2), k=2, seed=0, stream_id=0)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="overflows float64.*rescale"):
            entry(X, Y, dirs)


def on_fresh_thread(fn, *args):
    """``fn(*args)`` on a thread of its own, which holds no working set
    before the call and gives its own back when it ends."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result()


def traced_peak_mib(X, Y, dirs, threads):
    """Peak of the memory that numpy and Python allocate during one pass
    with potentials, beyond what was held before it, on a fresh thread, so
    that the pass builds its working set."""
    tracemalloc.start()
    try:
        on_fresh_thread(_direction_pass, X, Y, dirs, 2.0, threads)
        return tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    finally:
        tracemalloc.stop()


def test_pass_memory_is_bounded_by_the_sample_sizes():
    """A pass holds one projection panel and one block's working set per
    worker: its peak does not grow with the direction count or with a
    chunk's 512 rows, and each worker adds at most its own share."""
    rng = np.random.default_rng(17)
    X, Y, dirs = random_pass_inputs(rng, 20000, 15000, 8, 1024)
    few = DirectionSet(dirs=dirs.dirs[:64], k=64, seed=0, stream_id=0)
    small = traced_peak_mib(X, Y, few, 1)
    full = traced_peak_mib(X, Y, dirs, 1)
    pair = traced_peak_mib(X, Y, dirs, 2)
    slack = 2.0
    assert full <= small + slack, (small, full)
    assert pair <= 2.0 * full + slack, (full, pair)
    assert max(small, full, pair) < 32.0, (small, full, pair)


def test_repeat_pass_allocates_nothing_block_sized():
    """A thread keeps its working set across passes of one shape: a repeat
    pass at the criterion-6 shape allocates none of its panels, sort
    buffers or arena (one block's share alone is several hundred KiB)."""
    X, Y, dirs = random_pass_inputs(np.random.default_rng(23), 500, 300, 8, 400)

    def repeat_peak():
        _direction_pass(X, Y, dirs, 2.0, 1)
        tracemalloc.start()
        try:
            _direction_pass(X, Y, dirs, 2.0, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak = on_fresh_thread(repeat_peak)
    assert peak < 64 * 1024, peak


# 4000/4000 at k = 600 is two chunks of several panels each
KEPT_SET_PASSES = [(500, 300, 400), (4000, 4000, 600), (7, 3, 40), (500, 300, 400)]


@pytest.fixture(scope="module")
def kept_set_inputs():
    rng = np.random.default_rng(31)
    return [random_pass_inputs(rng, n, m, 5, k) for n, m, k in KEPT_SET_PASSES]


def assert_same_pass(got, want):
    for a, b in zip((got[0].per_direction, *got[1:]), (want[0].per_direction, *want[1:])):
        assert_same_bits(a, b)


def test_kept_working_set_is_never_reused_for_another_shape(kept_set_inputs,
                                                            monkeypatch):
    """One thread alternates shapes, exponents and block heights; each pass
    gives the bits of the same pass on a fresh thread, and the thread holds
    one working set, keyed by the last pass's shape."""
    for block_bytes in (_BLOCK_BYTES, 8, _BLOCK_BYTES):
        monkeypatch.setattr(estimators, "_BLOCK_BYTES", block_bytes)
        for p, (X, Y, dirs) in itertools.product((1.5, 2.0, 3.0), kept_set_inputs):
            want = on_fresh_thread(_direction_pass, X, Y, dirs, p, 1)
            assert_same_pass(_direction_pass(X, Y, dirs, p, 1), want)
            height = min(_CHUNK, _PANEL_BYTES // (8 * (X.n + Y.n)))
            rows = min(height, max(1, block_bytes // (8 * (X.n + Y.n))))
            assert estimators._held.set.key == (X.n, Y.n, height, rows)


def test_threads_with_different_shapes_keep_their_own_sets(kept_set_inputs):
    """More threads than cores run different shapes at the same time, each
    in its own order and switching often; every pass gives the bits of the
    same pass on a fresh thread."""
    wants = [on_fresh_thread(_direction_pass, *inputs, 2.0, 1)
             for inputs in kept_set_inputs]

    def run(order):
        return [(i, _direction_pass(*kept_set_inputs[i], 2.0, 1)) for i in order]

    count = len(kept_set_inputs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, [(i + shift) % count for i in range(2 * count)])
                       for shift in range(4)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for passes in results:
        for i, got in passes:
            assert_same_pass(got, wants[i])
