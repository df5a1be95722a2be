"""Sample matrices and uniform random directions on the unit sphere."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _rng

GAUSSIAN_METHOD = "philox4x64-inverse-cdf"

_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SampleMatrix:
    """n observations of a d-dimensional quantity, one row per observation.

    Parameters
    ----------
    data : ndarray of shape (n, d)
        Finite float values.

    Raises
    ------
    ValueError
        If the array is not a 2-d matrix with n >= 2, d >= 1, or contains
        non-finite entries.
    """

    data: np.ndarray
    n: int = field(init=False)
    d: int = field(init=False)

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"sample matrix must be 2-d, got shape {data.shape}")
        n, d = data.shape
        if n < 2:
            raise ValueError(f"need at least 2 observations, got {n}")
        if d < 1:
            raise ValueError("need at least 1 coordinate")
        if not np.isfinite(data).all():
            raise ValueError("sample matrix contains non-finite entries")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)


@dataclass(frozen=True, eq=False)
class DirectionSet:
    """k unit vectors on S^(d-1) together with the stream that produced them.

    ``method`` records the fixed variate-generation scheme so outputs can be
    traced to an exact reproduction recipe.
    """

    dirs: np.ndarray
    k: int
    seed: int
    stream_id: int
    method: str = GAUSSIAN_METHOD

    def __post_init__(self):
        dirs = np.ascontiguousarray(self.dirs, dtype=np.float64)
        if dirs.ndim != 2 or dirs.shape[0] != self.k or self.k < 1:
            raise ValueError("dirs must be a (k, d) matrix with k >= 1")
        norms = np.sqrt(np.einsum("ij,ij->i", dirs, dirs))
        if not (np.abs(norms - 1.0) <= _NORM_TOL).all():  # NaN fails too
            raise ValueError("direction rows must have unit norm")
        object.__setattr__(self, "dirs", dirs)

    @property
    def d(self) -> int:
        return self.dirs.shape[1]


def sample_directions(d: int, k: int, seed: int, stream_id: int = 0) -> DirectionSet:
    """Draw k independent uniform directions on the unit sphere in R^d.

    Each row is a standard Gaussian d-vector normalized to unit length,
    generated from a dedicated slice of the (seed, stream_id) Philox stream.
    Regenerating with the same arguments gives bit-identical rows, and row i
    does not depend on k, so prefixes agree across different k.

    Parameters
    ----------
    d : int
        Ambient dimension, at least 1.
    k : int
        Number of directions, at least 1.
    seed : int
        User-level seed (64-bit).
    stream_id : int
        Substream selector; distinct ids give independent streams.

    Returns
    -------
    DirectionSet
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if k < 1:
        raise ValueError(f"direction count must be >= 1, got {k}")
    z = _rng.gaussian_rows(seed, stream_id, k, d)
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    attempt = 0
    while True:
        bad = np.flatnonzero(norms == 0.0)
        if bad.size == 0:
            break
        attempt += 1
        for row in bad:
            z[row] = _rng.gaussian_rows(seed, stream_id, 1, d,
                                        salt=(int(row), attempt))[0]
            norms[row] = np.sqrt(z[row] @ z[row])
    return DirectionSet(dirs=z / norms[:, None], k=k, seed=int(seed),
                        stream_id=int(stream_id))

