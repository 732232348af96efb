"""Estimators, closed forms, and bounds for the limiting cell-measure moments.

The asymptotic second moment alpha(d) is the mean of 2 / W^2 under the exact
two-ball sampler, estimated as 1 plus the mean of its excess over the control
2 / (1 + |Y|^d)^2, which has mean exactly 1, so its error shrinks with
alpha(d) - 1.  The k-th limiting moment is the mean of k! / W_k^k.  For
k >= 3, W_k is exact at d <= 2, with no inner draws.  At d >= 3, where W_k
itself is Monte Carlo estimated, a randomized multilevel estimator (Rhee and
Glynn 2015; Blanchet and Glynn 2015) removes the plug-in bias of
w -> k! / w^k, up to O(1/inner^2) for a cap of `inner` inner draws.  Both
subtract the star control k! / (1 + V_1 + ... + V_(k-1))^k, with 1 + V_i
the exact union of random ball i with the fixed ball, which W_k tends to as
d grows.  Its mean C_k(d) comes from a product Gauss rule (Golub and
Welsch 1969) over the law of one V_i and a Laplace integral.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np

from .geometry import (
    _NO_STATS, Estimate, _exact_block_rows, _merge, _stats, ball_intersection_volumes, check_dim,
    unit_ball_volume,
)
from .sampling import RandomStream, check_seed, shard_ranges
from .wstat import _BLOCK, DEFAULT_INNER_SAMPLES, sample_w_batch, wk_exact_values, wk_mc_values

__all__ = [
    "MomentBounds",
    "MAX_FACTORIAL_K",
    "MAX_INNER_SAMPLES",
    "estimate_alpha_parallel",
    "alpha_bounds",
    "estimate_z_moment_parallel",
    "z_moment_bounds",
    "z_moment_closed_form_d1",
    "z_cdf_d1",
    "shard_pool",
]

# factorials stay in float beyond this only at the cost of precision
MAX_FACTORIAL_K = 20

# the cap on inner draws per configuration (k >= 3)
MAX_INNER_SAMPLES = 1 << 20

# two-ball draws per chunk: a chunk's temporaries stay cache-sized
_W_CHUNK = 1 << 16
# outer draws per chunk of the multilevel estimator
_OUTER_CHUNK = 1 << 20
# the multilevel estimator's base inner sample size; level l runs
# _M0 * 2^(l+1) inner draws and is drawn with probability ∝ 2^(-1.5 l)
_M0 = 16
# mixture points (configurations x inner draws), and their coordinates, per wk_mc_values call
_POINTS_PER_CALL = 1 << 21
_COORDS_PER_CALL = 1 << 22
# nodes of the rule for the star control's mean: Gauss-Jacobi in |Y|,
# Gauss-Legendre in the angle to e1, Gauss-Laguerre in the Laplace variable
_R_NODES, _THETA_NODES, _T_NODES = 64, 48, 96


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


def shard_pool(workers: int, samples: int):
    """The process pool for `samples` draws sharded over `workers` streams,
    one process per shard; a null context (None) when there is one shard.

    Pass it to several estimates to start one pool for all of them.
    """
    size = len(shard_ranges(samples, workers))
    return ProcessPoolExecutor(max_workers=size) if size > 1 else nullcontext()


def _alpha_sums(args) -> tuple[int, float, float]:
    """(count, mean, M2) of the excess e = 2/W^2 - 2/a^2 over two-ball draws.

    With U = |Y|^d and L the normalized lens volume, a = 1 + U = W + L, and
    e = 2 L (a + W) / (W^2 a^2) is formed from positive terms alone.  The
    control 2/a^2 has mean exactly 1, since U is uniform on [0, 1].
    """
    d, count, seed, stream_index = args
    rng = RandomStream(seed, stream_index)
    excess = np.empty(min(_W_CHUNK, count))
    acc = _NO_STATS
    left = count
    while left:
        m = min(_W_CHUNK, left)
        left -= m
        draws = sample_w_batch(d, m, rng)
        for i in range(0, m, _BLOCK):
            (w, lens), e = draws[i : i + _BLOCK].T, excess[i : min(i + _BLOCK, m)]
            a = w + lens
            np.multiply(lens, 2.0, out=e)
            e *= a + w
            e /= np.square(np.multiply(w, a, out=a), out=a)
        del draws, w, lens  # so that the next chunk's draws can reuse the memory
        acc = _merge(acc, _stats(excess[:m]))
    return acc


def estimate_alpha_parallel(d: int, samples: int, seed: int, workers: int = 1, *,
                            stream_index: int = 0) -> Estimate:
    """alpha(d) = E[2 / W^2] over exact two-ball draws, with standard error.

    Estimated as 1 + the mean of the excess 2/W^2 - 2/(1 + |Y|^d)^2, whose
    control term has mean exactly 1.  The excess is never negative, so the
    estimate is never below 1, and its standard error shrinks with
    alpha(d) - 1 as d grows.  Uses no nested Monte Carlo, so the estimate
    is free of plug-in bias and the high-precision d = 2, 3 reference
    values are reachable by sampling alone.

    The draws are split over the `workers` consecutive streams (seed,
    stream_index), (seed, stream_index + 1), ..., whose partial sums are
    merged in stream order, so the estimate is bit-reproducible for fixed
    (seed, workers, stream_index).
    """
    return _z_moment(d, 2, samples, DEFAULT_INNER_SAMPLES, seed, stream_index, workers)


def alpha_bounds(d: int) -> MomentBounds:
    """Envelope 1 <= alpha(d) <= min(2, 1 + 6 (3/4)^(d/2))."""
    check_dim(d)
    return MomentBounds(lower=1.0, upper=min(2.0, 1.0 + 6.0 * 0.75 ** (d / 2)))


def _levels(inner: int) -> tuple[int, np.ndarray]:
    """The base size m0 and the probabilities of levels 0..L, where L is the
    largest level whose m0 * 2^(L+1) inner draws fit in `inner`."""
    m0 = _M0 if inner >= 2 * _M0 else inner // 2
    p = 2.0 ** (-1.5 * np.arange((inner // m0).bit_length() - 1))
    return m0, p / p.sum()


def _gauss(diag, off) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss rule of the symmetric tridiagonal Jacobi matrix with
    diagonal `diag` and off-diagonal `off` (Golub and Welsch 1969): its
    eigenvalues as nodes, and weights summing to 1.

    Each weight is 1 / sum_j p_j(x)^2 over the orthonormal polynomials of the
    matrix's three-term recurrence, a sum of positive terms, so tiny weights
    keep their relative accuracy, which the eigenvectors' first components
    lose.  A sum that overflows belongs to a weight below the double range,
    which is 0.
    """
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p, prev, total = np.ones_like(x), np.zeros_like(x), np.ones_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, b in enumerate(off):
            p, prev = ((x - diag[j]) * p - (off[j - 1] if j else 0.0) * prev) / b, p
            total += p * p
    w = np.where(np.isfinite(total), 1.0 / total, 0.0)
    return x, w / w.sum()


def _jacobi01(beta: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss rule on [0, 1] for the weight x^beta (Gauss-Legendre
    at beta = 0): the Jacobi(0, beta) recurrence, mapped from [-1, 1]."""
    j = np.arange(1, n, dtype=float)
    s = 2.0 * j + beta
    diag = np.empty(n)
    diag[0] = 0.5 + 0.5 * beta / (beta + 2.0)
    diag[1:] = 0.5 + 0.5 * beta * beta / (s * (s + 2.0))
    off = j * (j + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    return _gauss(diag, off)


@lru_cache(maxsize=None)
def _star_table(d: int, nr: int = _R_NODES, nth: int = _THETA_NODES):
    """V = W_2 - 1 for Y uniform in the unit ball, at the nodes of a product
    rule in (r, theta) = (|Y|, the angle of Y to e1), and the nodes' weights.

    |Y| has density d r^(d-1), which the Gauss-Jacobi nodes carry; theta has
    density proportional to sin^(d-2) theta, folded into the weights of
    Gauss-Legendre nodes on [0, pi], and at d = 1 it is 0 or pi.
    """
    r, wr = _jacobi01(d - 1, nr)
    if d == 1:
        theta, wt = np.array([0.0, math.pi]), np.array([0.5, 0.5])
    else:
        x, wt = _jacobi01(0, nth)
        theta = math.pi * x
        wt = wt * np.sin(theta) ** (d - 2)
        wt /= wt.sum()
    r, theta = r[:, None], theta[None, :]
    # |Y - e1|^2 = (1 - r)^2 + 4 r sin^2(theta/2), without cancellation near Y = e1
    dist = np.sqrt((1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * theta) ** 2)
    v = r**d - ball_intersection_volumes(d, 1.0, r, dist) / unit_ball_volume(d)
    return v.ravel(), np.outer(wr, wt).ravel()


@lru_cache(maxsize=None)
def _star_laplace(d: int, nr: int = _R_NODES, nth: int = _THETA_NODES, nt: int = _T_NODES):
    """The Gauss-Laguerre nodes t and weights, and phi_d(t) = E exp(-t V)
    at the nodes, by the rule of _star_table.

    phi is formed one node at a time: a (nt, nodes) array would be above
    glibc's 128 KiB mmap threshold, and freeing it would raise the
    threshold, so that the union kernel's later arrays stay on the heap and
    the process's peak memory grows by megabytes."""
    v, w = _star_table(d, nr, nth)
    j = np.arange(nt, dtype=float)
    t, wt = _gauss(2.0 * j + 1.0, j[1:])
    return t, wt, np.array([np.exp(-x * v) @ w for x in t])


def _star_mean(d: int, k: int, nr: int = _R_NODES, nth: int = _THETA_NODES,
               nt: int = _T_NODES) -> float:
    """C_k(d) = E[k! / (1 + V_1 + ... + V_(k-1))^k] for iid V_i = W_2 - 1.

    From 1/a^k = (1/(k-1)!) int_0^inf t^(k-1) e^(-a t) dt and independence,
    C_k(d) = k int_0^inf t^(k-1) e^(-t) phi_d(t)^(k-1) dt, with
    phi_d(t) = E exp(-t V); C_2(d) is alpha(d).
    """
    t, wt, phi = _star_laplace(d, nr, nth, nt)
    return float(k * (wt @ (t * phi) ** (k - 1)))


def _zmoment_sums(args) -> tuple[int, float, float]:
    """(count, mean, M2) of the k >= 3 draws' excess over the star control:
    _zmoment_exact at d <= 2, _zmoment_multilevel above, on the same args."""
    return (_zmoment_exact if args[0] <= 2 else _zmoment_multilevel)(args)


def _zmoment_exact(args) -> tuple[int, float, float]:
    """k! / W_k^k - k! / B^k, of mean E[k! / W_k^k] - C_k(d), with W_k exact
    and B the star bound from wk_exact_values; drawn in blocks of
    _exact_block_rows(k), so no array grows with `outer`.  `inner` is unused."""
    d, k, outer, _, seed, stream_index = args
    rng = RandomStream(seed, stream_index)
    kf = _factorial(k)
    step = _exact_block_rows(k)
    acc = _NO_STATS
    for start in range(0, outer, step):
        bound = np.empty(min(step, outer - start))
        w = wk_exact_values(d, k, bound.size, rng, out=bound)
        acc = _merge(acc, _stats(kf / w**k - kf / bound**k))
    return acc


def _zmoment_multilevel(args) -> tuple[int, float, float]:
    """Single-term randomized multilevel estimate of E[k! / W_k^k] - C_k(d).

    Each outer draw picks a level l with one uniform and runs
    m = m0 * 2^(l+1) inner draws for one configuration.  With f(w) = k!/w^k
    and f_n the value of f at the mean of n of those draws, its value is
    f_m0 - f(B) + (f_m - (f of the first half + f of the second half) / 2)
    / P(l), whose mean telescopes to E[f_mL] - C_k(d) at the top level L:
    the control f(B), at the configuration's star bound B = 1 + sum V_i
    that wk_mc_values writes, has mean C_k(d) (_star_mean).  The top
    level's correction counts twice, which cancels the c/m bias of E[f_mL]
    and leaves O(1/m_L^2).  The base term f_m0 is the mean of f over all
    m / m0 disjoint blocks of m0 draws: the draws are iid, so every block
    has the law of the first, and the mean keeps E[f_m0] while it averages
    out much of the inner noise.
    """
    d, k, outer, inner, seed, stream_index = args
    rng = RandomStream(seed, stream_index)
    kf = _factorial(k)
    m0, p = _levels(inner)
    weight = 1.0 / p
    weight[-1] *= 2.0
    cum = np.cumsum(p)

    def f(total, size):
        return kf / (total / size) ** k

    acc = _NO_STATS
    left = outer
    while left:
        c = min(_OUTER_CHUNK, left)
        left -= c
        level = np.minimum(np.searchsorted(cum, rng.random(c), side="right"), p.size - 1)
        theta = np.empty(c)
        for lev, w in enumerate(weight):
            m = m0 << (lev + 1)
            rows = np.flatnonzero(level == lev)
            step = max(1, min(_POINTS_PER_CALL, _COORDS_PER_CALL // d) // m)
            for part in (rows[i : i + step] for i in range(0, rows.size, step)):
                s = np.empty(part.size)
                vals = wk_mc_values(d, k, part.size, m, rng, out=s)
                first = vals[:, : m // 2].sum(axis=1)
                second = vals[:, m // 2 :].sum(axis=1)
                delta = f(first + second, m) - 0.5 * (f(first, m // 2) + f(second, m // 2))
                base = f(vals.reshape(part.size, m // m0, m0).sum(axis=2), m0).mean(axis=1)
                theta[part] = base - f(s, 1) + w * delta
        acc = _merge(acc, _stats(theta))
    return acc


def _z_moment(d, k, outer, inner, seed, first_stream, workers, pool=None) -> Estimate:
    """The one body of the estimators: check every argument, then shard
    `outer` draws over streams first_stream, first_stream + 1, ... (one per
    worker), run in `pool` or, when it is None, in a pool of their own."""
    check_dim(d)
    _factorial(k)
    check_seed(seed)
    if outer < 2:
        raise ValueError("the sample count must be >= 2")
    if not 2 <= inner <= MAX_INNER_SAMPLES:
        raise ValueError(f"inner must be in [2, {MAX_INNER_SAMPLES}]")
    if first_stream < 0:
        raise ValueError("stream_index must be >= 0")
    shards = list(enumerate(shard_ranges(int(outer), workers), start=first_stream))
    if k == 1:
        return Estimate(value=1.0, stderr=0.0, samples=int(outer))
    if k == 2:
        fn, args, mean = _alpha_sums, [(d, len(r), seed, i) for i, r in shards], 1.0
    else:
        fn, args = _zmoment_sums, [(d, k, len(r), int(inner), seed, i) for i, r in shards]
        mean = _star_mean(d, k)
    # every shard's (count, mean, M2), merged in stream order
    with nullcontext(pool) if pool is not None else shard_pool(workers, int(outer)) as pool:
        parts = [fn(a) for a in args] if pool is None else list(pool.map(fn, args))
    est = Estimate.of(reduce(_merge, parts, _NO_STATS))
    # every shard averages the excess over a control of known mean
    return replace(est, value=mean + est.value)


def estimate_z_moment_parallel(
    d: int, k: int, outer: int, inner: int = DEFAULT_INNER_SAMPLES, seed: int = 0,
    workers: int = 1, pool=None, *, stream_index: int = 0,
) -> Estimate:
    """Mean of k! / W_k^k over `outer` draws of the order-k union volume.

    k = 1 is exactly 1; k = 2 uses the exact two-ball sampler; k >= 3 uses
    exact W_k at d <= 2 and, above, a randomized multilevel estimator over
    mixture-estimator draws, either less the star control
    k! / (1 + V_1 + ... + V_(k-1))^k, where 1 + V_i is the exact union of
    random ball i with the fixed ball, plus the control's mean C_k(d) from
    a product Gauss rule, computed in the calling process before the
    shards run; its error shrinks as W_k concentrates on the star bound
    with growing d.
    `inner` (2..MAX_INNER_SAMPLES) caps the inner draws of one
    configuration at d >= 3; the estimator spends about 66 of them per
    outer draw at the default cap, and its bias is O(1/inner^2).  At
    d <= 2 it is checked but has no effect, and the estimate is unbiased.
    The standard error covers both the outer and the inner variation.
    Streams and their merge are those of estimate_alpha_parallel.  `pool`,
    from shard_pool(workers, outer), lets the estimates of several k share
    one process pool.
    """
    return _z_moment(d, k, outer, inner, seed, stream_index, workers, pool)


def z_moment_bounds(d: int, k: int) -> MomentBounds:
    """Sandwich k! / 2^(dk) <= E[Z^k] <= k! for the limiting moments."""
    check_dim(d)
    kf = _factorial(k)
    return MomentBounds(lower=kf * 2.0 ** (-d * k), upper=kf)


def z_moment_closed_form_d1(k: int) -> float:
    """(k + 1)! / 2^k: the k-th moment of half the sum of two unit exponentials."""
    _factorial(k)  # the range checks of k
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

