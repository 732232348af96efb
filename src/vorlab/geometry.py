"""Exact and Monte Carlo volumes of d-dimensional balls and their unions.

The exact two-ball machinery (cap volumes through the regularized incomplete
beta function, evaluated from elementary functions) is the computational
substrate for everything downstream.  Unions of any number of balls are exact
at d <= 2 (a sweep, or Green's theorem over boundary arcs); above, the mixture
Monte Carlo estimator covers unions of three or more balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Ball",
    "Estimate",
    "MAX_DIM",
    "as_point",
    "unit_ball_volume",
    "ball_intersection_volume",
    "ball_intersection_volumes",
    "two_ball_union_volume",
    "union_volume_mc",
    "union_volume_mc_values",
    "exact_union_volumes",
    "interval_union_length",
]


# the largest d whose unit-ball volume is a normal double (0.0 from d = 453)
MAX_DIM = 435


def as_point(coords) -> np.ndarray:
    """Validate and return a coordinate vector as a float array."""
    p = np.asarray(coords, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("a point must be a 1-d vector with at least one coordinate")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


# widest rows that row_sq_norms sums column by column, and the rows per
# block that it squares and sums at once above that width
_ROW_LOOP_MAX_D = 7
_NORM_ROWS = 1024


def _column_sum(term, n: int) -> np.ndarray:
    """term(0) + term(1) + ... + term(n - 1), added left to right.  Each
    term(i) must be a new array."""
    out = term(0)
    for i in range(1, n):
        out += term(i)
    return out


def row_sq_norms(v: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms along the last axis of v, equal to
    (v * v).sum(axis=-1) bit for bit.

    Up to _ROW_LOOP_MAX_D columns _column_sum adds the squares one column at
    a time, as numpy does; from 8 columns on numpy adds them pairwise, and
    its reduction runs on blocks of _NORM_ROWS rows of the first axis, so
    that the squares never fill a second array of v's size.  7 keeps the
    bits that TestRowSqNorms and tests/oracles.py rely on; it is not the
    speed crossover.  On (8192, d) rows (2 cores, numpy 2.4) the column loop
    took 0.06 against 0.20 ms at d = 8 and 0.16 against 0.26 ms at d = 20;
    numpy caught up only at about 60 columns (1.5 against 5.0 ms at 200).
    """
    if v.shape[-1] > _ROW_LOOP_MAX_D:
        if v.ndim == 1:
            return np.square(v).sum()
        out = np.empty(v.shape[:-1])
        for i in range(0, len(v), _NORM_ROWS):
            out[i : i + _NORM_ROWS] = np.square(v[i : i + _NORM_ROWS]).sum(axis=-1)
        return out
    return _column_sum(lambda j: np.square(v[..., j]), v.shape[-1])


def check_dim(d) -> None:
    """Raise ValueError unless d is an integer in [1, MAX_DIM]."""
    if int(d) != d or not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension must be an integer in [1, {MAX_DIM}], got {d!r}")


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in d dimensions, pi^(d/2) / Gamma(d/2 + 1).

    Evaluated by the two-step recursion V_d = V_{d-2} 2 pi / d, which is the
    same quantity with less rounding than the ratio of transcendentals (it
    returns 2, pi, and pi^2/2 exactly for d = 1, 2, 4).  Raises above
    MAX_DIM, where the volume is no longer a normal double.
    """
    check_dim(d)
    v = 2.0 if d % 2 else 1.0
    for j in range(2 + d % 2, int(d) + 1, 2):
        v *= 2.0 * math.pi / j
    return v


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed ball given by a center point and a nonnegative radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        r = float(self.radius)
        if not (math.isfinite(r) and r >= 0.0):
            raise ValueError(f"radius must be finite and >= 0, got {self.radius!r}")
        object.__setattr__(self, "radius", r)

    @property
    def dimension(self) -> int:
        return self.center.size

    @property
    def volume(self) -> float:
        # np.power keeps this bit-identical to the vectorized kernels
        # (python's ** can differ from numpy's integer-power loop by an ulp)
        return float(unit_ball_volume(self.dimension) * np.power(np.float64(self.radius), self.dimension))


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate with its standard error and sample count."""

    value: float
    stderr: float
    samples: int

    @classmethod
    def of(cls, stats) -> Estimate:
        """The mean of a sample given as its (count, mean, M2), with numpy's
        std(ddof=1) / sqrt(count) as its standard error, bit for bit: 0 for
        one value, and inf when the mean is infinite."""
        n, mean, m2 = stats
        stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0
        return cls(mean, math.inf if math.isinf(mean) else stderr, n)


# (count, mean, M2) of no values; M2 is the sum of squared deviations
_NO_STATS = (0, 0.0, 0.0)


def _stats(x: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, M2) of the values x; the mean of a constant sample is
    its value exactly, a zero as +0, and M2 may be nan when the mean is
    infinite."""
    if np.all(x == x[0]):
        return x.size, float(x[0]) + 0.0, 0.0  # -0 + 0.0 is +0
    mean = float(x.mean())
    with np.errstate(invalid="ignore"):  # inf - inf
        return x.size, mean, float(np.square(x - mean).sum())


def _merge(a, b) -> tuple[int, float, float]:
    """(count, mean, M2) of two disjoint samples together (Chan, Golub and
    LeVeque 1979).  Unlike E[x^2] - E[x]^2 it takes no difference of large
    sums, so values far from 0 keep their spread."""
    na, ma, qa = a
    nb, mb, qb = b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), qa + qb + delta * delta * (na * nb / n)


# the recurrence is kept where its result is at least 1/64 of its start value,
# so that cancellation costs it at most about 6 bits
_RECURRENCE_KEEP = 64.0
# a series term below 2^-54 is under half an ulp of its sum, which is >= 1
_SERIES_TOL = 2.0**-54


def _cap_fraction(d: int, x: np.ndarray) -> np.ndarray:
    """I_x((d+1)/2, 1/2), the regularized incomplete beta function, for
    integer d >= 1, from elementary functions.

    With a = (d+1)/2 and t_a = x^a sqrt(1-x) / (a B(a, 1/2)), the start value
    is I_x(1, 1/2) = 1 - sqrt(1-x) for odd d and I_x(3/2, 1/2) =
    (2/pi)(arctan2(sqrt(x), sqrt(1-x)) - sqrt(x(1-x))) for even d (arcsin
    sqrt(x) would lose up to 2.8e-9 relative as x -> 1), and the upward
    recurrence I_x(a+1, 1/2) = I_x(a, 1/2) - t_a (DLMF 8.17.20) reaches a.
    Where that subtraction cancels (small x), the positive-term series
    I_x(a, 1/2) = t_a sum_n (a+1/2)_n / (a+1)_n x^n (DLMF 8.17.8) replaces it.
    Each element's value depends on that element alone: the series stops
    only when every term left is absorbed by its sum.
    """
    sy = np.sqrt(1.0 - x)
    if d % 2:
        a, c = 1.0, 0.5  # c = 1 / (a B(a, 1/2))
        start = x / (1.0 + sy)  # 1 - sqrt(1-x) without cancellation
        val = start.copy()
    else:
        a, c = 1.5, 4.0 / (3.0 * math.pi)
        s = np.sqrt(x)
        start = (2.0 / math.pi) * np.arctan2(s, sy)
        val = start - (2.0 / math.pi) * (s * sy)
    steps = (d - 1) // 2
    if steps:
        t = c * np.power(x, a) * sy
        for _ in range(steps):
            val -= t
            ratio = (a + 0.5) / (a + 1.0)
            t *= np.multiply(x, ratio, out=sy)  # sqrt(1-x) is not needed again
            c *= ratio
            a += 1.0
    small = np.multiply(val, _RECURRENCE_KEEP, out=sy) < start
    if np.any(small):
        xs = x[small]
        term = np.ones_like(xs)
        total = np.ones_like(xs)
        top = xs.argmax()  # the largest x has the largest terms, bit for bit
        n = 0
        while term[top] > _SERIES_TOL:
            term *= xs * ((a + 0.5 + n) / (a + 1.0 + n))
            total += term
            n += 1
        val[small] = c * np.power(xs, a) * np.sqrt(1.0 - xs) * total
    return val


def _cap_volumes(d: int, r: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Volume of the spherical cap of a radius-r ball cut at signed height h.

    h is the distance from the ball center to the cutting hyperplane; h >= 0
    gives the minority cap, h < 0 the complementary one.  Evaluated with the
    regularized incomplete beta function I_x((d+1)/2, 1/2), from
    _cap_fraction.
    """
    full = unit_ball_volume(d) * r**d
    # clamp guards ulp-level excursions of 1 - (h/r)^2 at the branch edges
    x = np.clip(1.0 - (h * h) / (r * r), 0.0, 1.0)
    frac = _cap_fraction(d, x)
    frac *= 0.5 * full  # the minority cap
    return np.where(h >= 0.0, frac, np.subtract(full, frac, out=full))


def ball_intersection_volumes(d: int, r1, r2, dist) -> np.ndarray:
    """Intersection volumes of ball pairs given radii and center distance.

    Vectorized over broadcastable arrays ``r1``, ``r2``, ``dist``.  Selects
    containment, lens or disjoint by exact comparisons on the computed
    distance: measure-zero boundaries
    are irrelevant to the Monte Carlo consumers, and exactness on the
    containment branch keeps degenerate configurations bit-reproducible.
    """
    r1, r2, dist = np.broadcast_arrays(
        np.asarray(r1, dtype=float), np.asarray(r2, dtype=float), np.asarray(dist, dtype=float)
    )
    shape = dist.shape
    # at least 1-d, so that scalars run the array loops too (a numpy scalar's
    # ** can differ from numpy's integer-power loop by an ulp)
    r1, r2, dist = np.atleast_1d(r1, r2, dist)
    # canonical radius order makes the evaluation exactly symmetric in (a, b)
    rlo = np.minimum(r1, r2)
    rhi = np.maximum(r1, r2)
    contained = dist <= rhi - rlo
    meets = dist < rhi + rlo
    # the caps are evaluated on every pair, where they may be inf or nan, and
    # kept where the balls meet; the contained pairs are overwritten last
    with np.errstate(divide="ignore", invalid="ignore"):
        h = (dist * dist + rhi * rhi - rlo * rlo) / (2.0 * dist)
        caps = _cap_volumes(d, rhi, h) + _cap_volumes(d, rlo, dist - h)
    np.copyto(caps, 0.0, where=~meets)
    if contained.any():
        caps[contained] = unit_ball_volume(d) * rlo[contained] ** d
    return caps.reshape(shape)


def _check_pair(a: Ball, b: Ball) -> None:
    if a.dimension != b.dimension:
        raise ValueError(
            f"dimension mismatch: {a.dimension} vs {b.dimension}"
        )


def ball_intersection_volume(a: Ball, b: Ball) -> float:
    """Exact volume of the intersection of two balls via the two-cap formula."""
    _check_pair(a, b)
    dist = np.linalg.norm(a.center - b.center)
    return float(ball_intersection_volumes(a.dimension, a.radius, b.radius, dist))


def two_ball_union_volume(a: Ball, b: Ball) -> float:
    """Exact volume of the union of two balls: vol(a) + vol(b) - vol(a ∩ b)."""
    inter = ball_intersection_volume(a, b)
    va, vb = a.volume, b.volume
    lo, hi = (va, vb) if va <= vb else (vb, va)
    # grouped so a contained ball cancels exactly against its intersection
    return hi + (lo - inter)


# draws, and their coordinates, per union_volume_mc_values call of union_volume_mc
_MC_CHUNK = 1 << 16
_MC_COORDS = 1 << 18


def union_volume_mc_values(centers: np.ndarray, radii: np.ndarray, samples: int, rng) -> np.ndarray:
    """Per-draw values of the mixture estimator for ball-union volumes.

    ``centers`` has shape (nsets, k, d) and ``radii`` (nsets, k); the return
    value has shape (nsets, samples) and each row averages to the union
    volume of that row's balls.  A draw picks ball i with probability
    vol_i / sum_j vol_j, samples a uniform point X in it, and contributes
    sum_j vol_j / #{j : X in B_j}.  Rows whose balls all have zero volume
    yield all-zero values.
    """
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    nsets, k, d = centers.shape
    m = int(samples)
    if m < 1:
        raise ValueError("samples must be >= 1")

    vols = unit_ball_volume(d) * radii**d
    total = vols.sum(axis=1)
    # a row of zero volume gets nan weights (0 / 0): every draw then comes
    # from ball 0, which counts it, and scores 0 / hits = +0
    with np.errstate(invalid="ignore"):
        cum = np.cumsum(vols / total[:, None], axis=1)

    u = rng.random((nsets, m))
    # the number of the first k - 1 cumulative weights below u: u above the
    # last one is above them all, and the index stays k - 1
    src = np.zeros((nsets, m), dtype=np.intp)
    for j in range(k - 1):
        src += u > cum[:, j, None]

    g = rng.standard_normal((nsets, m, d))
    # each draw's source ball, as an index into the rows of k balls
    src_at = src + k * np.arange(nsets)[:, None]
    rad = rng.random((nsets, m)) ** (1.0 / d) * np.take(radii, src_at)
    # one (nsets, m) array per coordinate from here on; a point is
    # (g / |g|) * radius + center, and each squared norm is summed left to
    # right.  From d = 8 on that may differ from row_sq_norms in its last
    # bits, which can move only a draw that close to a ball's surface
    norm = np.sqrt(_column_sum(lambda i: np.square(g[..., i]), d))
    x = np.empty((d, nsets, m))
    for i, xi in enumerate(x):
        np.divide(g[..., i], norm, out=xi)
        xi *= rad
        xi += np.take(centers[:, :, i], src_at)
    del g, norm

    hits = np.zeros((nsets, m), dtype=np.int32)
    for j in range(k):
        c = centers[:, j, :, None]
        d2 = _column_sum(lambda i: np.square(x[i] - c[:, i]), d)
        inside = d2 <= (radii[:, j] ** 2)[:, None]
        # the drawn point lies in its source ball by construction; rounding
        # at the boundary must not drop it
        inside |= src == j
        hits += inside
    return total[:, None] / hits


def union_volume_mc(balls, samples: int, rng) -> Estimate:
    """Unbiased mixture-estimator Monte Carlo for the volume of a ball union.

    Parameters
    ----------
    balls : sequence of Ball, all of the same dimension, nonempty
    samples : number of Monte Carlo draws (>= 1), taken in chunks of at most
        _MC_CHUNK draws and _MC_COORDS coordinates, so memory stays bounded
    rng : random stream owned by the caller

    Returns the estimate with its sample standard error; constant draws (a
    single ball, or balls that all have radius zero) give their value
    exactly, with standard error 0.
    """
    balls = list(balls)
    if not balls:
        raise ValueError("at least one ball is required")
    d = balls[0].dimension
    for b in balls[1:]:
        if b.dimension != d:
            raise ValueError(f"dimension mismatch: {d} vs {b.dimension}")
    m = int(samples)
    if m < 1:
        raise ValueError("samples must be >= 1")

    centers = np.stack([b.center for b in balls])[None, :, :]
    radii = np.array([b.radius for b in balls])[None, :]
    # draws in units of the power of two at the total volume, an exact scaling,
    # so that squared deviations of volumes below 1e-154 do not underflow to 0
    scale = math.ldexp(1.0, math.frexp(sum(b.volume for b in balls))[1])
    chunk = min(_MC_CHUNK, _MC_COORDS // d)
    acc = _NO_STATS
    for start in range(0, m, chunk):
        values = union_volume_mc_values(centers, radii, min(chunk, m - start), rng)[0]
        acc = _merge(acc, _stats(values / scale))
    est = Estimate.of(acc)
    return Estimate(est.value * scale, est.stderr * scale, est.samples)


# elements of one temporary of exact_union_volumes: 64 KiB of floats, below
# glibc's 128 KiB mmap threshold, so blocks reuse heap memory
_EXACT_ELEMS = 1 << 13


def _exact_block_rows(k: int) -> int:
    """Sets of k balls per block, so that a (sets, k, 2k + 1) array fits _EXACT_ELEMS."""
    return max(1, _EXACT_ELEMS // (k * (2 * k + 1)))


def _interval_union_lengths(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Sorted sweep: an interval adds its part right of those starting before it."""
    lo, hi = c[..., 0] - r, c[..., 0] + r
    order = np.argsort(lo, axis=1)
    lo, hi = np.take_along_axis(lo, order, 1), np.take_along_axis(hi, order, 1)
    lo[:, 1:] = np.maximum(lo[:, 1:], np.maximum.accumulate(hi, axis=1)[:, :-1])
    return np.maximum(hi - lo, 0.0).sum(axis=1)


def _disk_union_areas(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Green's theorem over the boundary arcs that no other disk covers."""
    n, k = r.shape
    dx = c[:, None, :, 0] - c[:, :, None, 0]  # [s, i, j]: from center i to center j
    dy = c[:, None, :, 1] - c[:, :, None, 1]
    dist = np.hypot(dx, dy)
    ri, rj = r[:, :, None], r[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (ri * ri + dist * dist - rj * rj) / (2.0 * ri * dist)
        ex, ey = dx / dist, dy / dist
    # disk j holds circle i where cos <= -1; of coincident disks (0/0) the
    # earlier holds the later, and the diagonal holds nothing
    holds = (cos <= -1.0) | (np.isnan(cos) & np.tri(k, k, -1, dtype=bool))
    # disk j covers the arc of circle i from phi - h to phi + h, phi the
    # direction (ex, ey) to c_j and cos h = cos; elsewhere a point arc at
    # angle 0, whose delta below is 0
    partial = (cos > -1.0) & (cos < 1.0)
    ch = np.where(partial, cos, 1.0)
    ex, ey = np.where(partial, ex, 1.0), np.where(partial, ey, 0.0)
    half = np.arccos(ch)
    start = np.arctan2(ey, ex) - half  # in [-2 pi, pi]
    start[start < 0.0] += 2.0 * math.pi
    stop = start + 2.0 * half
    wraps = stop >= 2.0 * math.pi
    stop[wraps] -= 2.0 * math.pi
    # 2 F(t) = r (c x u) + r^2 t at the arc ends u = (cos t, sin t); with
    # e = (ex, ey), c x u = (c x e) cos h -+ (c . e) sin h at phi -+ h
    cx, cy = c[:, :, None, 0], c[:, :, None, 1]
    cross = (cx * ey - cy * ex) * ch
    dot = (cx * ex + cy * ey) * np.sqrt(1.0 - ch * ch)
    ends = np.concatenate((start, stop), axis=2)
    f = r[..., None] * np.concatenate((cross - dot, cross + dot), axis=2)
    f += (r * r)[..., None] * ends
    delta = partial.view(np.int8)
    delta = np.concatenate((delta, -delta), axis=2)
    # the ends in angle order, as flat positions of the (n, k, 2k) arrays
    order = np.argsort(ends, axis=2)
    order += np.arange(0, order.size, 2 * k).reshape(n, k, 1)
    # the arcs over each segment from an arc end to the next one (or 2 pi):
    # those that cover angle 0, then the running sum of +-1 deltas; tied
    # ends bound segments of length 0
    covered = np.count_nonzero(holds | wraps, axis=2)[..., None] + np.cumsum(
        delta.ravel()[order], axis=2)
    f_end = 2.0 * math.pi * r * r - r * c[..., 1]
    gain = np.diff(np.concatenate((f.ravel()[order], f_end[..., None]), axis=2), axis=2)
    return 0.5 * np.where(covered == 0, gain, 0.0).sum(axis=(1, 2))


def exact_union_volumes(centers, radii) -> np.ndarray:
    """Exact volumes, shape (nsets,), of the unions of the k balls of each
    set at d <= 2: ``centers`` (nsets, k, d), ``radii`` (nsets, k).

    d = 1 is a sorted sweep.  d = 2 sums F(b) - F(a), F(t) = (r c_x sin t -
    r c_y cos t + r^2 t) / 2, over the arcs [a, b] of each circle that no
    other disk covers (Green's theorem; Avis, Bhattacharya and Imai 1988;
    Cazals, Kanhere and Loriot 2011).  Of coincident disks the first counts.
    Sets run in blocks of _exact_block_rows(k).
    """
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    nsets, k, d = centers.shape
    if d > 2:
        raise ValueError(f"exact union volumes are for d <= 2, got d={d}")
    kernel = _interval_union_lengths if d == 1 else _disk_union_areas
    out = np.empty(nsets)
    step = _exact_block_rows(k)
    for i in range(0, nsets, step):
        out[i : i + step] = kernel(centers[i : i + step], radii[i : i + step])
    return out


def interval_union_length(intervals) -> float:
    """Exact Lebesgue measure of a union of closed intervals by sort-and-sweep."""
    pairs = [(float(lo), float(hi)) for lo, hi in intervals]
    for lo, hi in pairs:
        if lo > hi:
            raise ValueError(f"interval with lo > hi: ({lo}, {hi})")
    if not pairs:
        return 0.0
    pairs.sort()
    length = 0.0
    cur_lo, cur_hi = pairs[0]
    for lo, hi in pairs[1:]:
        if lo > cur_hi:
            length += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return length + (cur_hi - cur_lo)
