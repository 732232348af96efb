"""Independent oracles used to derive and cross-check expected test values.

Everything here deliberately avoids the library's own closed forms: cross
sections are integrated by quadrature, unions are estimated by rejection over
a bounding ball, and gaussian ball measures reduce to one-dimensional
integrals against the central chi-square distribution or to Poisson mixtures
of central chi-square CDFs.  The envelope of the limit law's moment
generating function lives here too: only the tests use it.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import gammainc, gammaln
from scipy.stats import chi2

from vorlab.geometry import (
    _NO_STATS, _merge, _stats, row_sq_norms, union_volume_mc_values, unit_ball_volume,
)
from vorlab.moments import (
    _COORDS_PER_CALL, _OUTER_CHUNK, _POINTS_PER_CALL, MomentBounds, _factorial, _levels,
)
from vorlab.sampling import RandomStream, sample_unit_ball_batch
from vorlab.wstat import wk_mc_values


def ball_volume_gamma(d: int, r: float = 1.0) -> float:
    """Reference ball volume straight from the gamma-function formula."""
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1) * r**d


def lens_volume_quad(d: int, r1: float, r2: float, dist: float) -> tuple[float, float]:
    """Two-ball intersection volume by 1-d quadrature over cross sections.

    Slices perpendicular to the center axis are (d-1)-balls whose radius is
    the smaller of the two sphere cross sections.  Returns (value, abserr).
    """
    lo = max(-r1, dist - r2)
    hi = min(r1, dist + r2)
    if lo >= hi:
        return 0.0, 0.0
    if d == 1:
        return hi - lo, 0.0
    slice_vol = ball_volume_gamma(d - 1)

    def cross_section(t):
        rho2 = min(r1 * r1 - t * t, r2 * r2 - (t - dist) * (t - dist))
        return slice_vol * max(rho2, 0.0) ** ((d - 1) / 2)

    val, err = integrate.quad(cross_section, lo, hi, limit=200, epsabs=1e-13)
    return val, err


def hit_or_miss_union(centers: np.ndarray, radii: np.ndarray, samples: int, rng) -> tuple[float, float]:
    """Rejection estimate of a ball-union volume over an enclosing ball."""
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    d = centers.shape[1]
    mid = centers.mean(axis=0)
    bound = float(np.max(np.linalg.norm(centers - mid, axis=1) + radii))
    g = rng.standard_normal((samples, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    pts = mid + g * (rng.random(samples)[:, None] ** (1.0 / d)) * bound
    inside = np.zeros(samples, dtype=bool)
    for c, r in zip(centers, radii):
        inside |= ((pts - c) ** 2).sum(axis=1) <= r * r
    vol_bound = ball_volume_gamma(d, bound)
    p = inside.mean()
    return vol_bound * p, vol_bound * math.sqrt(p * (1 - p) / samples)


def gaussian_ball_measure_quad(d: int, center_norm: float, r: float) -> float:
    """P(||X - c|| <= r) for standard gaussian X, by 1-d quadrature.

    Reduces over the axis through c: the remaining d-1 squared coordinates
    are central chi-square.
    """
    a = float(center_norm)
    if d == 1:
        return 0.5 * (math.erf((a + r) / math.sqrt(2)) - math.erf((a - r) / math.sqrt(2)))

    def integrand(t):
        rem = r * r - (t - a) ** 2
        if rem <= 0.0:
            return 0.0
        return math.exp(-t * t / 2) / math.sqrt(2 * math.pi) * chi2.cdf(rem, d - 1)

    val, _ = integrate.quad(integrand, a - r, a + r, limit=200)
    return val


def gaussian_ball_measure_poisson(d: int, center_norm: float, r: float) -> float:
    """P(||X - c|| <= r) for standard gaussian X and c != 0, as a Poisson mixture.

    ||X - c||^2 is noncentral chi-square with noncentrality ||c||^2, that is,
    central chi-square with d + 2J degrees of freedom, J ~ Poisson(||c||^2 / 2).
    The weights are taken in log space and each CDF is a regularized lower
    incomplete gamma value, so the sum keeps its relative accuracy far in the
    tail, where the measure is tiny.
    """
    half = center_norm * center_norm / 2.0
    j = np.arange(int(half + 40.0 * math.sqrt(half) + 200.0))
    weights = np.exp(j * math.log(half) - half - gammaln(j + 1.0))
    return float(np.sum(weights * gammainc(d / 2.0 + j, r * r / 2.0)))


def gaussian_ball_measure_mpmath(d: int, center_norm: float, r: float, dps: int = 60) -> float:
    """The Poisson mixture of gaussian_ball_measure_poisson summed with mpmath
    at `dps` digits, until the terms past the Poisson mean stop adding to them.
    """
    import mpmath

    with mpmath.workdps(dps):
        half = mpmath.mpf(center_norm) ** 2 / 2
        x = mpmath.mpf(r) ** 2 / 2
        weight = mpmath.exp(-half)
        total = mpmath.mpf(0)
        j = 0
        while True:
            term = weight * mpmath.gammainc(mpmath.mpf(d) / 2 + j, 0, x, regularized=True)
            total += term
            if j > half and term < total * mpmath.mpf(10) ** (5 - dps):
                return float(total)
            j += 1
            weight *= half / j


def ks_statistic(sample, cdf) -> float:
    """Exact sup-distance between the sample ECDF and a CDF callable."""
    s = np.sort(np.asarray(sample, dtype=float))
    n = s.size
    f = np.asarray(cdf(s), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def d1_cell_interval(x: float, others) -> tuple[float, float]:
    """Midpoint endpoints of the cell of x on the line (inf when unbounded)."""
    others = np.asarray(others, dtype=float).reshape(-1)
    left = others[others < x]
    right = others[others > x]
    lo = (x + left.max()) / 2 if left.size else -math.inf
    hi = (x + right.min()) / 2 if right.size else math.inf
    return lo, hi


def random_rotation(d: int, rng) -> np.ndarray:
    """Haar-ish random rotation from the QR decomposition of a gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def greedy_cap_cover_quadratic(cand: np.ndarray, half_aperture: float) -> np.ndarray:
    """Greedy cap cover that recounts every candidate's gain on each pick.

    The full Gram matrix is thresholded at the shrunk cap radius
    0.92 * half_aperture; each pick is the first candidate covering the most
    candidates not yet covered.  Quadratic time per pick.
    """
    cover = cand @ cand.T >= math.cos(0.92 * half_aperture)
    uncovered = np.ones(len(cand), dtype=bool)
    rows = []
    while uncovered.any():
        best = int(np.argmax(cover[:, uncovered].sum(axis=1)))
        rows.append(cand[best])
        uncovered &= ~cover[best]
    return np.array(rows)


def cone_nn_radii_brute(x, others, dirs, cos_cut: float) -> np.ndarray:
    """Per-cone distance from x to its nearest point, +inf for an empty cone.

    Every point is tested against every cone, in input order, with no sort
    and no early exit.  A point belongs to a cone when the cosine of its
    angle to the axis, summed coordinate by coordinate, is at least
    `cos_cut`; a point that coincides with x belongs to every cone.
    """
    x = np.asarray(x, dtype=float)
    others = np.asarray(others, dtype=float).reshape(-1, x.size)
    dirs = np.asarray(dirs, dtype=float)
    radii = np.full(len(dirs), math.inf)
    for p in others:
        diff = p - x
        dist = float(np.sqrt((diff * diff).sum()))
        member = np.ones(len(dirs), dtype=bool) if dist == 0.0 else (
            (dirs * (diff / dist)).sum(axis=1) >= cos_cut)
        radii[member] = np.minimum(radii[member], dist)
    return radii


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


def max_pairwise_distance_quadratic(pts: np.ndarray) -> float:
    """Farthest-pair distance by comparing every pair, in blocks of rows."""
    if pts.shape[0] < 2:
        return 0.0
    best = 0.0
    for lo in range(0, pts.shape[0], 256):
        d2 = ((pts[lo : lo + 256, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        best = max(best, float(d2.max()))
    return math.sqrt(best)


# The two-ball kernels as they were before they were blocked and made to work
# in place, copied verbatim: whole-array temporaries, one np.where per
# branch.  The library's kernels must equal them bit for bit.

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
        val = x / (1.0 + sy)  # 1 - sqrt(1-x) without cancellation
        start = val
    else:
        a, c = 1.5, 4.0 / (3.0 * math.pi)
        s = np.sqrt(x)
        start = (2.0 / math.pi) * np.arctan2(s, sy)
        val = start - (2.0 / math.pi) * (s * sy)
    steps = (d - 1) // 2
    if steps:
        t = c * np.power(x, a) * sy
        for _ in range(steps):
            val = val - t
            ratio = (a + 0.5) / (a + 1.0)
            t *= x * ratio
            c *= ratio
            a += 1.0
    small = val * _RECURRENCE_KEEP < start
    if np.any(small):
        xs = x[small]
        term = np.ones_like(xs)
        total = np.ones_like(xs)
        n = 0
        while term.max() > _SERIES_TOL:
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
    half_cap = 0.5 * full * frac
    return np.where(h >= 0.0, half_cap, full - half_cap)


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
    lens = ~contained & (dist < rhi + rlo)
    # the caps are evaluated on every pair and kept on the lens pairs only;
    # elsewhere (a zero distance or radius) they may be inf or nan
    with np.errstate(divide="ignore", invalid="ignore"):
        h1 = (dist * dist + rhi * rhi - rlo * rlo) / (2.0 * dist)
        caps = _cap_volumes(d, rhi, h1) + _cap_volumes(d, rlo, dist - h1)
    out = np.where(contained, unit_ball_volume(d) * rlo**d, np.where(lens, caps, 0.0))
    return out.reshape(shape)


def sample_w_batch_reference(d: int, n: int, rng) -> np.ndarray:
    """The two-ball sampler unblocked: one pass of the reference kernels
    over all n centers, as an (n, 2) array of W and the normalized lens
    volume L.  At d = 1 the n centers are drawn as sample_unit_ball_batch
    draws them; at d >= 2, ceil(n/2) centers are drawn so, and the mirrors
    (-y1, y2, ..., yd) of the first floor(n/2) follow them."""
    m = n if d == 1 else (n + 1) // 2
    g = rng.standard_normal((m, d))
    g /= np.sqrt(row_sq_norms(g))[:, None]
    y = g * (rng.random(m) ** (1.0 / d))[:, None]
    if d > 1:
        mirrors = y[: n // 2].copy()
        mirrors[:, 0] = -mirrors[:, 0]
        y = np.concatenate((y, mirrors))
    ny = np.sqrt(row_sq_norms(y))
    shifted = y.copy()
    shifted[:, 0] -= 1.0
    dist = np.sqrt(row_sq_norms(shifted))
    v = unit_ball_volume(d)
    inter = ball_intersection_volumes(d, 1.0, ny, dist)
    return np.column_stack(((v + (v * ny**d - inter)) / v, inter / v))


def zmoment_sums_plain(args) -> tuple[int, float, float]:
    """The multilevel estimate of E[k! / W_k^k] without a control, copied
    verbatim from the library as it was before the control k! / S_k^k was
    subtracted: (count, mean, M2) of the outer draws, on the same draws as
    moments._zmoment_sums for the same args."""
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
                vals = wk_mc_values(d, k, part.size, m, rng)
                first = vals[:, : m // 2].sum(axis=1)
                second = vals[:, m // 2 :].sum(axis=1)
                delta = f(first + second, m) - 0.5 * (f(first, m // 2) + f(second, m // 2))
                theta[part] = f(vals[:, :m0].sum(axis=1), m0) + w * delta
        acc = _merge(acc, _stats(theta))
    return acc


def union_volume_mc_values_reference(centers: np.ndarray, radii: np.ndarray, samples: int, rng) -> np.ndarray:
    """The mixture estimator's per-draw values, copied verbatim from
    geometry.union_volume_mc_values as it was before it ran one coordinate
    at a time: on (nsets, m, d) arrays, with rows of squares summed by
    row_sq_norms.  The library kernel must return the same bits from the
    same draws.

    Per-draw values of the mixture estimator for ball-union volumes.

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
    live = total > 0.0
    weights = np.where(live[:, None], vols / np.where(live, total, 1.0)[:, None], 0.0)
    cum = np.cumsum(weights, axis=1)

    u = rng.random((nsets, m))
    # the number of cumulative weights below u, capped at k - 1
    src = np.zeros((nsets, m), dtype=np.intp)
    for j in range(k):
        src += u > cum[:, j, None]
    np.minimum(src, k - 1, out=src)

    g = rng.standard_normal((nsets, m, d))
    g /= np.sqrt(row_sq_norms(g))[:, :, None]
    rows = np.arange(nsets)[:, None]
    rad = rng.random((nsets, m)) ** (1.0 / d) * radii[rows, src]
    x = centers[rows, src] + g * rad[:, :, None]

    hits = np.zeros((nsets, m), dtype=np.int32)
    for j in range(k):
        d2 = row_sq_norms(x - centers[:, None, j, :])
        inside = d2 <= (radii[:, j] ** 2)[:, None]
        # the drawn point lies in its source ball by construction; rounding
        # at the boundary must not drop it
        inside |= src == j
        hits += inside
    values = total[:, None] / hits
    values[~live] = 0.0
    return values


def zmoment_sums_first_block(args) -> tuple[int, float, float]:
    """moments._zmoment_sums copied verbatim as it was when its base term
    f_m0 used only the first m0 inner values of each outer draw: (count,
    mean, M2) on the same draws as moments._zmoment_sums for the same args.

    Single-term randomized multilevel estimate of E[k! / W_k^k] - 1.

    Each outer draw picks a level l with one uniform and runs
    m = m0 * 2^(l+1) inner draws for one configuration.  With f(w) = k!/w^k
    and f_n the value of f at the mean of n of those draws, its value is
    f_m0 - f(S_k) + (f_m - (f of the first half + f of the second half) / 2)
    / P(l), whose mean telescopes to E[f_mL] - 1 at the top level L: the
    control f(S_k), at the configuration's sum of ball volumes, has mean
    exactly 1.  The top level's correction counts twice, which cancels the
    c/m bias of E[f_mL] and leaves O(1/m_L^2).
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
                theta[part] = f(vals[:, :m0].sum(axis=1), m0) - f(s, 1) + w * delta
        acc = _merge(acc, _stats(theta))
    return acc


def wk_mc_values_sk(
    d: int, k: int, n: int, inner_samples: int, rng: RandomStream, out=None
) -> np.ndarray:
    """wstat.wk_mc_values copied verbatim as it was when `out` received S_k,
    the sum of the normalized ball volumes, in place of the star bound: the
    same values from the same draws.

    Normalized per-draw union-volume values for n order-k configurations.

    Returns shape (n, inner_samples); each row's mean estimates that
    configuration's normalized union volume.  When given, `out` (shape (n,))
    receives each configuration's normalized sum of ball volumes
    S_k = 1 + sum |y_i|^d >= W_k, at no extra draws.  Requires k >= 3 (lower
    orders are exact and never need inner sampling).
    """
    if k < 3:
        raise ValueError("wk_mc_values is for k >= 3; lower orders are exact")
    if inner_samples < 1:
        raise ValueError("inner_samples must be >= 1 for k >= 3")
    # each configuration is the fixed ball B(e1, 1), then k - 1 balls B(y, |y|)
    centers = np.zeros((n, k, d))
    centers[:, 0, 0] = 1.0
    centers[:, 1:] = sample_unit_ball_batch(d, n * (k - 1), rng).reshape(n, k - 1, d)
    radii = np.ones((n, k))
    radii[:, 1:] = np.sqrt(row_sq_norms(centers[:, 1:]))
    if out is not None:
        np.sum(radii**d, axis=1, out=out)
    v = unit_ball_volume(d)
    return union_volume_mc_values(centers, radii, inner_samples, rng) / v


def zmoment_sums_sk_control(args) -> tuple[int, float, float]:
    """moments._zmoment_sums copied verbatim as it was when it subtracted
    the control k! / S_k^k, of mean exactly 1, in place of the star control,
    with S_k from wk_mc_values_sk: (count, mean, M2) on the same draws as
    moments._zmoment_sums for the same args; the estimate is 1 + mean.

    Single-term randomized multilevel estimate of E[k! / W_k^k] - 1.

    Each outer draw picks a level l with one uniform and runs
    m = m0 * 2^(l+1) inner draws for one configuration.  With f(w) = k!/w^k
    and f_n the value of f at the mean of n of those draws, its value is
    f_m0 - f(S_k) + (f_m - (f of the first half + f of the second half) / 2)
    / P(l), whose mean telescopes to E[f_mL] - 1 at the top level L: the
    control f(S_k), at the configuration's sum of ball volumes, has mean
    exactly 1.  The top level's correction counts twice, which cancels the
    c/m bias of E[f_mL] and leaves O(1/m_L^2).  The base term f_m0 is the
    mean of f over all m / m0 disjoint blocks of m0 draws: the draws are
    iid, so every block has the law of the first, and the mean keeps
    E[f_m0] while it averages out much of the inner noise.
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
                vals = wk_mc_values_sk(d, k, part.size, m, rng, out=s)
                first = vals[:, : m // 2].sum(axis=1)
                second = vals[:, m // 2 :].sum(axis=1)
                delta = f(first + second, m) - 0.5 * (f(first, m // 2) + f(second, m // 2))
                base = f(vals.reshape(part.size, m // m0, m0).sum(axis=2), m0).mean(axis=1)
                theta[part] = base - f(s, 1) + w * delta
        acc = _merge(acc, _stats(theta))
    return acc


def star_mean_d1_mpmath(k: int, dps: int = 30) -> float:
    """C_k(1) = E[k! / (1 + V_1 + ... + V_(k-1))^k] at d = 1 by mpmath
    quadrature of k int_0^inf t^(k-1) e^(-t) phi(t)^(k-1) dt.

    At d = 1, V = W_2 - 1 is 0 for Y > 0 (the random interval [0, 2Y] lies
    in [0, 2]) and |Y| for Y < 0 (the two are disjoint), so
    phi(t) = E exp(-t V) = 1/2 + (1 - e^(-t)) / (2t) exactly.
    """
    import mpmath

    with mpmath.workdps(dps):
        def integrand(t):
            phi = mpmath.mpf(1) / 2 + (-mpmath.expm1(-t)) / (2 * t)
            return t ** (k - 1) * mpmath.exp(-t) * phi ** (k - 1)

        return float(k * mpmath.quad(integrand, [0, 1, 10, 50, mpmath.inf]))


def disk_union_area_chords(centers, radii, points: int = 1 << 16) -> tuple[float, float]:
    """The area of a union of disks from a discretised boundary, and a bound
    on its error: no arccos and no sort.

    Each circle is cut into `points` chords of angle step h = 2 pi / points.
    A chord is kept when its midpoint lies outside every other disk (of
    coincident disks only the first counts), and the area is half the sum
    of p_a x p_b over the kept chords (Green's theorem on the chords).  Each
    chord misses its circular segment, (r^2 / 2)(h - sin h) <= r^2 h^3 / 12,
    so pi r^2 h^2 / 6 per circle; and each end of a free arc lies in one
    chord that is kept or dropped whole, which moves the sum by at most
    r (|c| + r) h, the chord's term and the arc's together, for each of the
    2 (k - 1) arc ends a circle can have.  The bound is the sum of both.
    """
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    k = len(radii)
    h = 2.0 * math.pi / points
    t = h * np.arange(points + 1)
    area = bound = 0.0
    for i in range(k):
        copies = [j for j in range(k)
                  if np.array_equal(centers[j], centers[i]) and radii[j] == radii[i]]
        if copies[0] < i:
            continue  # a copy of an earlier disk
        p = centers[i] + radii[i] * np.column_stack((np.cos(t), np.sin(t)))
        mid = 0.5 * (p[1:] + p[:-1])
        free = np.ones(points, dtype=bool)
        for j in range(k):
            if j not in copies:
                free &= ((mid - centers[j]) ** 2).sum(axis=1) > radii[j] ** 2
        cross = p[:-1, 0] * p[1:, 1] - p[:-1, 1] * p[1:, 0]
        area += 0.5 * cross[free].sum()
        r, c = radii[i], math.hypot(*centers[i])
        bound += math.pi * r * r * h * h / 6.0 + 2 * (k - 1) * r * (c + r) * h
    return area, bound


def two_disk_union_area_mpmath(c1, r1, c2, r2, dps: int = 40) -> float:
    """The area of the union of two disks at `dps` digits: pi (r1^2 + r2^2)
    less the lens, r1^2 acos(.) + r2^2 acos(.) - sqrt(...) / 2 where the
    circles cross, the smaller disk where one holds the other, 0 apart."""
    import mpmath

    with mpmath.workdps(dps):
        r1, r2 = mpmath.mpf(float(r1)), mpmath.mpf(float(r2))
        d = mpmath.sqrt(sum((mpmath.mpf(float(a)) - mpmath.mpf(float(b))) ** 2
                            for a, b in zip(c1, c2)))
        if d >= r1 + r2:
            lens = 0
        elif d <= abs(r1 - r2):
            lens = mpmath.pi * min(r1, r2) ** 2
        else:
            kite = mpmath.sqrt((r1 + r2 - d) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
            lens = (r1**2 * mpmath.acos((d * d + r1 * r1 - r2 * r2) / (2 * d * r1))
                    + r2**2 * mpmath.acos((d * d + r2 * r2 - r1 * r1) / (2 * d * r2)) - kite / 2)
        return float(mpmath.pi * (r1 * r1 + r2 * r2) - lens)
