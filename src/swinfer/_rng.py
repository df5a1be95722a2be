"""Seeded counter-based random streams shared by the sampling modules.

Every consumer draws from a Philox generator keyed by a (seed, stream_id)
pair, so distinct stream ids give independent streams under one user seed.
Gaussian variates go through the inverse normal CDF, which consumes exactly
one 64-bit word per variate. Rows are padded to whole Philox counter blocks,
so row r of a batch is bit-identical to row r generated in isolation; batch
boundaries and worker counts can never change the output.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_WORDS_PER_BLOCK = 4
_INV_2_53 = 1.0 / 9007199254740992.0


def philox_stream(seed: int, stream_id: int, salt: tuple[int, ...] = ()) -> np.random.Philox:
    """Philox bit generator keyed by (seed, stream_id) plus optional salt words."""
    words = (int(seed) & _MASK64, int(stream_id) & _MASK64)
    words += tuple(int(w) & _MASK64 for w in salt)
    key = np.random.SeedSequence(entropy=words).generate_state(2, np.uint64)
    return np.random.Philox(key=key)


def _doubles_from_raw(raw: np.ndarray) -> np.ndarray:
    # +0.5 keeps the uniforms above 0; the top 2^11 words round up to 1.0, so
    # they are clamped to the largest double below 1 and ndtri stays finite
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53
    return np.minimum(u, 1.0 - _INV_2_53, out=u)


def uniform_rows(seed: int, stream_id: int, start_row: int, rows: int, width: int,
                 salt: tuple[int, ...] = ()) -> np.ndarray:
    """Rows [start_row, start_row + rows) of a conceptually unbounded matrix
    of uniforms on (0, 1), one whole number of counter blocks per row."""
    if rows < 0 or width < 1:
        raise ValueError("need rows >= 0 and width >= 1")
    blocks_per_row = -(-width // _WORDS_PER_BLOCK)
    gen = philox_stream(seed, stream_id, salt)
    if start_row:
        gen.advance(int(start_row) * blocks_per_row)
    raw = gen.random_raw(rows * blocks_per_row * _WORDS_PER_BLOCK)
    raw = raw.reshape(rows, blocks_per_row * _WORDS_PER_BLOCK)[:, :width]
    return _doubles_from_raw(raw)


def gaussian_rows(seed: int, stream_id: int, start_row: int, rows: int, width: int,
                  salt: tuple[int, ...] = ()) -> np.ndarray:
    """Standard Gaussian counterpart of :func:`uniform_rows`."""
    return ndtri(uniform_rows(seed, stream_id, start_row, rows, width, salt))
