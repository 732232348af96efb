"""Samplers for the normalized ball-union volumes that drive the cell moments.

The base variable is the volume of the union of a fixed unit ball centered at
e1 = (1, 0, ..., 0) and a random ball B(Y, ||Y||) with Y uniform in the unit
ball, normalized by the unit-ball volume; it always lies in [1, 2].  The
order-k generalization unions k - 1 independent random balls with the fixed
one and lies in [1, 2^d].  Orders one and two are exact.  Higher orders are
exact at d <= 2 too (wk_exact_values, by geometry.exact_union_volumes) and
fall back to the mixture Monte Carlo estimator above (wk_mc_values).

The two-ball sampler also returns the normalized lens volume
L = |B(e1, 1) ∩ B(Y, ||Y||)| / |B|, which it computes anyway.  W + L is
1 + ||Y||^d, uniform on [1, 2], so L is what separates W from a variable of
known law.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    ball_intersection_volumes,
    exact_union_volumes,
    row_sq_norms,
    union_volume_mc_values,
    unit_ball_volume,
)
from .sampling import RandomStream, sample_unit_ball_batch

__all__ = [
    "DEFAULT_INNER_SAMPLES",
    "w_and_lens",
    "sample_w_batch",
    "wk_mc_values",
    "wk_exact_values",
]

DEFAULT_INNER_SAMPLES = 4096

# rows per block of the two-ball kernels: a float per row is 64 KiB, below
# glibc's 128 KiB mmap threshold, so blocks reuse heap memory, not fresh pages
_BLOCK = 1 << 13


def w_and_lens(y, out=None) -> tuple[np.ndarray, np.ndarray]:
    """The exact normalized volumes W of B(e1, 1) ∪ B(y, ||y||), and the
    normalized lens volumes L of B(e1, 1) ∩ B(y, ||y||), for the rows y of
    an (n, d) center matrix, as the columns of `out` (n, 2; new if None)."""
    y = np.asarray(y, dtype=float)
    n, d = y.shape
    w, lens = (np.empty((n, 2), order="F") if out is None else out).T
    ny = np.sqrt(row_sq_norms(y))
    shifted = y.copy()
    shifted[:, 0] -= 1.0
    dist = np.sqrt(row_sq_norms(shifted))
    v = unit_ball_volume(d)
    inter = ball_intersection_volumes(d, 1.0, ny, dist)
    np.divide(v + (v * ny**d - inter), v, out=w)
    np.divide(inter, v, out=lens)
    return w, lens


def sample_w_batch(d: int, n: int, rng: RandomStream) -> np.ndarray:
    """n independent two-ball draws, exactly, as an (n, 2) array: column 0
    is W and column 1 the normalized lens volume L, as w_and_lens gives
    them, with W + L = 1 + ||Y||^d up to rounding."""
    y = sample_unit_ball_batch(d, n, rng)
    out = np.empty((n, 2), order="F")  # contiguous columns
    for i in range(0, n, _BLOCK):
        w_and_lens(y[i : i + _BLOCK], out[i : i + _BLOCK])
    return out


def _configs(d: int, k: int, n: int, rng: RandomStream, out=None):
    """The centers (n, k, d) and radii (n, k) of n order-k configurations,
    B(e1, 1) and k - 1 balls B(y, |y|), y uniform in the unit ball.  `out`
    (shape (n,)), when given, receives each star bound 1 + sum V_i >= W_k,
    at no extra draws: 1 + V_i is the W of w_and_lens for random ball i."""
    if k < 3:
        raise ValueError("order-k configurations are for k >= 3; lower orders are exact")
    centers = np.zeros((n, k, d))
    centers[:, 0, 0] = 1.0
    centers[:, 1:] = sample_unit_ball_batch(d, n * (k - 1), rng).reshape(n, k - 1, d)
    radii = np.ones((n, k))
    radii[:, 1:] = np.sqrt(row_sq_norms(centers[:, 1:]))
    if out is not None:
        w, _ = w_and_lens(centers[:, 1:].reshape(-1, d))
        np.sum(w.reshape(n, k - 1) - 1.0, axis=1, out=out)
        out += 1.0
    return centers, radii


def wk_mc_values(
    d: int, k: int, n: int, inner_samples: int, rng: RandomStream, out=None
) -> np.ndarray:
    """Normalized per-draw union-volume values for n order-k configurations.

    Returns shape (n, inner_samples); each row's mean estimates that
    configuration's normalized union volume.  `out` receives the star bounds
    (see _configs).  Requires k >= 3: lower orders are exact.
    """
    if inner_samples < 1:
        raise ValueError("inner_samples must be >= 1 for k >= 3")
    centers, radii = _configs(d, k, n, rng, out)
    return union_volume_mc_values(centers, radii, inner_samples, rng) / unit_ball_volume(d)


def wk_exact_values(d: int, k: int, n: int, rng: RandomStream, out=None) -> np.ndarray:
    """The exact normalized union volumes W_k of n order-k configurations at
    d <= 2, shape (n,), drawn as wk_mc_values draws them, with the same
    star bounds in `out`; no inner draws."""
    centers, radii = _configs(d, k, n, rng, out)
    return exact_union_volumes(centers, radii) / unit_ball_volume(d)
