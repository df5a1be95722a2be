"""Seeded counter-based random streams shared by the sampling modules.

Every consumer draws from a Philox generator keyed by a (seed, stream_id)
pair, so distinct stream ids give independent streams under one user seed.
Gaussian variates go through the inverse normal CDF, which consumes exactly
one 64-bit word per variate. Each row takes whole Philox counter blocks of
four words, the unused words dropped, so the first r rows of a batch do not
depend on how many rows follow. The padding fixes the bits every stream has
always drawn: a width that is a multiple of four (d = 8) drops nothing, a
width of 3 drops one word per row.
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


def uniform_rows(seed: int, stream_id: int, rows: int, width: int,
                 salt: tuple[int, ...] = ()) -> np.ndarray:
    """The first ``rows`` rows of a conceptually unbounded matrix of uniforms
    on (0, 1), one whole number of counter blocks per row."""
    if rows < 0 or width < 1:
        raise ValueError("need rows >= 0 and width >= 1")
    row_words = -(-width // _WORDS_PER_BLOCK) * _WORDS_PER_BLOCK
    raw = philox_stream(seed, stream_id, salt).random_raw(rows * row_words)
    return _doubles_from_raw(raw.reshape(rows, row_words)[:, :width])


def gaussian_rows(seed: int, stream_id: int, rows: int, width: int,
                  salt: tuple[int, ...] = ()) -> np.ndarray:
    """Standard Gaussian counterpart of :func:`uniform_rows`."""
    return ndtri(uniform_rows(seed, stream_id, rows, width, salt))
