"""Estimators, closed forms, and bounds for the limiting cell-measure moments.

The asymptotic second moment alpha(d) is the mean of 2 / W^2 under the exact
two-ball sampler; the k-th limiting moment is the mean of k! / W_k^k, with a
delete-1 jackknife removing the plug-in bias of w -> w^(-k) whenever W_k
itself is Monte Carlo estimated (k >= 3).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import Estimate
from .sampling import RandomStream, shard_ranges
from .wstat import DEFAULT_INNER_SAMPLES, sample_w_batch, wk_mc_values

__all__ = [
    "MomentBounds",
    "MAX_FACTORIAL_K",
    "estimate_alpha",
    "estimate_alpha_parallel",
    "alpha_closed_form_d1",
    "alpha_bounds",
    "estimate_z_moment",
    "estimate_z_moment_parallel",
    "z_moment_bounds",
    "z_moment_closed_form_d1",
    "z_cdf_d1",
    "z_mgf_bounds",
]

# factorials stay in float beyond this only at the cost of precision
MAX_FACTORIAL_K = 20

_W_CHUNK = 1 << 20
_OUTER_CHUNK = 512


@dataclass(frozen=True)
class MomentBounds:
    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("bounds with lower > upper")


def _factorial(k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > MAX_FACTORIAL_K:
        raise OverflowError(
            f"factorial-based moments support k <= {MAX_FACTORIAL_K}, got k={k}"
        )
    return float(math.factorial(k))


def _estimate(fn, args, workers: int) -> Estimate:
    """Run fn on every shard, in a pool when workers > 1, and merge the
    shards' (s, s2, n) sums in stream order."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(args))) as ex:
            parts = list(ex.map(fn, args))
    else:
        parts = [fn(a) for a in args]
    s = s2 = 0.0
    n = 0
    for ps, ps2, pn in parts:
        s += ps
        s2 += ps2
        n += pn
    mean = s / n
    var = max(s2 / n - mean * mean, 0.0)
    stderr = math.sqrt(var / (n - 1)) if n > 1 else 0.0
    return Estimate(value=mean, stderr=stderr, samples=n)


def _alpha_sums(args) -> tuple[float, float, int]:
    d, count, seed, stream_index = args
    rng = RandomStream(seed, stream_index)
    s = s2 = 0.0
    left = count
    while left:
        m = min(_W_CHUNK, left)
        left -= m
        x = 2.0 / sample_w_batch(d, m, rng) ** 2
        s += float(x.sum())
        s2 += float((x * x).sum())
    return s, s2, count


def estimate_alpha(d: int, samples: int, rng: RandomStream) -> Estimate:
    """Mean of 2 / W^2 over exact two-ball draws, with standard error.

    Uses no nested Monte Carlo, so the estimate is free of plug-in bias and
    the high-precision d = 2, 3 reference values are reachable by sampling
    alone.
    """
    return _z_moment(d, 2, samples, 0, rng.seed, rng.stream_index, 1)


def estimate_alpha_parallel(d: int, samples: int, seed: int, workers: int = 1) -> Estimate:
    """Split the sample budget across worker streams 0..workers-1.

    Results are bit-reproducible for a fixed (seed, workers) pair because
    shard partials are merged in stream-index order.
    """
    return _z_moment(d, 2, samples, 0, seed, 0, workers)


def alpha_closed_form_d1() -> float:
    """Exact value 3/2 in one dimension.

    In d = 1 the normalized union volume is 1 with probability 1/2 and 1 + U
    otherwise (U uniform), so the mean of 2 / W^2 is
    (2 + E[2 / (1 + U)^2]) / 2 = 1 + E[1 / (1 + U)^2] = 3/2.
    """
    return 1.5


def alpha_bounds(d: int) -> MomentBounds:
    """Envelope 1 <= alpha(d) <= min(2, 1 + 6 (3/4)^(d/2))."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return MomentBounds(lower=1.0, upper=min(2.0, 1.0 + 6.0 * 0.75 ** (d / 2)))


def _zmoment_sums(args) -> tuple[float, float, int]:
    d, k, outer, inner, seed, stream_index = args
    rng = RandomStream(seed, stream_index)
    kf = _factorial(k)
    s = s2 = 0.0
    left = outer
    while left:
        c = min(_OUTER_CHUNK, left)
        left -= c
        vals = wk_mc_values(d, k, c, inner, rng)
        m = vals.shape[1]
        total = vals.sum(axis=1)
        plug = kf / (total / m) ** k
        # delete-1 jackknife over the inner draws removes the O(1/m)
        # nonlinearity bias of w -> w^(-k)
        loo = (total[:, None] - vals) / (m - 1)
        theta = m * plug - (m - 1) * np.mean(kf / loo**k, axis=1)
        s += float(theta.sum())
        s2 += float((theta * theta).sum())
    return s, s2, outer


def _z_moment(d, k, outer, inner, seed, first_stream, workers) -> Estimate:
    """The one body of the estimators: shard `outer` draws over streams
    first_stream, first_stream + 1, ... (one per worker)."""
    _factorial(k)
    if k == 1:
        return Estimate(value=1.0, stderr=0.0, samples=int(outer))
    if seed is None:
        raise ValueError("a random stream is required for k >= 2")
    if outer < 2:
        raise ValueError("the sample count must be >= 2")
    if k >= 3 and inner < 2:
        raise ValueError("inner must be >= 2 when k >= 3")
    shards = list(enumerate(shard_ranges(int(outer), workers), start=first_stream))
    if k == 2:
        return _estimate(_alpha_sums, [(d, len(r), seed, i) for i, r in shards], workers)
    args = [(d, k, len(r), int(inner), seed, i) for i, r in shards]
    return _estimate(_zmoment_sums, args, workers)


def estimate_z_moment(
    d: int,
    k: int,
    outer: int,
    inner: int = DEFAULT_INNER_SAMPLES,
    rng: RandomStream | None = None,
) -> Estimate:
    """Mean of k! / W_k^k over `outer` draws of the order-k union volume.

    k = 1 is exactly 1; k = 2 uses the exact two-ball sampler; k >= 3 pairs
    `inner` mixture-estimator draws per configuration with a delete-1
    jackknife bias correction.  The standard error reflects outer variation.
    """
    seed, stream = (None, 0) if rng is None else (rng.seed, rng.stream_index)
    return _z_moment(d, k, outer, inner, seed, stream, 1)


def estimate_z_moment_parallel(
    d: int,
    k: int,
    outer: int,
    inner: int = DEFAULT_INNER_SAMPLES,
    seed: int = 0,
    workers: int = 1,
) -> Estimate:
    """Worker-sharded version of estimate_z_moment (fixed-order merge)."""
    return _z_moment(d, k, outer, inner, seed, 0, workers)


def z_moment_bounds(d: int, k: int) -> MomentBounds:
    """Sandwich k! / 2^(dk) <= E[Z^k] <= k! for the limiting moments."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    kf = _factorial(k)
    return MomentBounds(lower=kf * 2.0 ** (-d * k), upper=kf)


def z_moment_closed_form_d1(k: int) -> float:
    """(k + 1)! / 2^k: the k-th moment of half the sum of two unit exponentials."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > MAX_FACTORIAL_K:
        raise OverflowError(
            f"factorial-based moments support k <= {MAX_FACTORIAL_K}, got k={k}"
        )
    return math.factorial(k + 1) / 2.0**k


def z_cdf_d1(z):
    """Limit CDF of the scaled cell measure in one dimension.

    Equals 1 - exp(-2z) (1 + 2z), the CDF of (E1 + E2) / 2 with independent
    unit exponentials; accepts scalars or arrays, and is 0 for z < 0.
    """
    arr = np.asarray(z, dtype=float)
    with np.errstate(invalid="ignore"):
        body = 1.0 - np.exp(-2.0 * arr) * (1.0 + 2.0 * arr)
    out = np.where(arr < 0.0, 0.0, np.where(np.isinf(arr), 1.0, body))
    return float(out) if np.isscalar(z) or arr.ndim == 0 else out


def z_mgf_bounds(s: float, d: int) -> MomentBounds:
    """Envelope for the limit moment generating function at argument s > 0.

    Lower bound 1 / (1 - s / 2^d) holds for s < 2^d; the upper bound
    1 / (1 - s) holds for s < 1 and is reported as +inf (unbounded) beyond.
    """
    if not s > 0:
        raise ValueError("s must be > 0")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    cap = 2.0**d
    lower = 1.0 / (1.0 - s / cap) if s < cap else math.inf
    upper = 1.0 / (1.0 - s) if s < 1.0 else math.inf
    return MomentBounds(lower=lower, upper=upper)
