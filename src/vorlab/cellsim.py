"""Empirical cell experiments: measure and diameter of a conditioned cell.

The cell of a conditioned point x among n sample points is probed with fresh
draws from the same density: the fraction whose nearest neighbor is x is an
unbiased estimate of the cell measure, and falling-factorial hit statistics
give unbiased estimates of its higher moments (k distinct probes all landing
in the cell estimate mu^k without the binomial plug-in bias).  In one
dimension the cell is an interval with known midpoint endpoints and the
measure is computed exactly instead; that path backs the
distributional-convergence checks, where probe noise would swamp the shape
of the empirical law.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import KW_ONLY, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .geometry import Estimate, _stats, as_point, check_dim, row_sq_norms, unit_ball_volume
from .sampling import DensityModel, RandomStream, check_seed, sample_unit_ball_batch, shard_ranges

__all__ = [
    "NNIndex",
    "exact_cell_measure_1d",
    "CellExperimentConfig",
    "CellExperimentResult",
    "run_cell_experiment",
    "cone_directions",
    "cone_nn_radii",
    "estimate_cell_diameter",
    "DiameterExperimentConfig",
    "DiameterResult",
    "run_diameter_experiment",
]

# cones have full aperture pi/4: membership within angular radius pi/8 of the
# axis, closed with a small tolerance so boundary points are never dropped
CONE_HALF_APERTURE = math.pi / 8
_COS_CONE = math.cos(CONE_HALF_APERTURE)
_CONE_BOUNDARY_TOL = 1e-12
# points in the first block of cone_nn_radii's nearest-first walk (at d = 3
# the nearest 110 points set every radius in the median replicate); each
# further block doubles while its (points, cones) arrays stay within
# _NN_ELEMENTS, so a long walk takes few, cache-sized steps
_NN_BLOCK = 64
_NN_ELEMENTS = 1 << 15
# the certified covers of R^3, R^4 and R^5, keyed "d3", "d4", "d5"; they are
# rebuilt, and checked bit for bit, by tests/cone_cover.py
_COVER_TABLE = Path(__file__).with_name("cone_covers.npz")

_QUANTILE_LEVELS = (0.5, 0.9, 0.99)
# largest dimension with a shipped cone cover: at d = 6 the hull repairs
# run for tens of seconds and end with about 4000 cones, so at n = 2000
# nearly every replicate has an empty cone and an infinite upper diameter
_DIAM_MAX_D = 5

# largest n * d, and probes * d, of a cell or diam config: a replicate's
# (n - 1, d) sample and (probes, d) draws stay within 512 MB each; also the
# largest replicates * result columns, so that the results do too
_MAX_ELEMENTS = 1 << 26

# elements per block of NNIndex.query: its (block, n, d) difference array
# takes half, and the squares that row_sq_norms copies above 7 columns the
# other half
_BLOCK_ELEMENTS = 1 << 24
# nearest neighbours of x whose bisectors prefilter the probes, and probes
# per prefilter block, so that its (neighbours, block) arrays stay in cache
_CERT_NEIGHBORS = 32
_CERT_BLOCK = 1024
# the nearest of those neighbours, whose bisectors each block meets first
_CERT_STAGE = 4
# relative margin that keeps the prefilter and the exact check's radius clear
# of rounding, which is about d * 2^-53 of the same scale
_CERT_MARGIN = 1e-9
# a point of the cell in a cone whose nearest point is at rho lies within
# rho / (2 cos(2 theta)) of x (see estimate_cell_diameter); the relative
# margin covers the cone tolerance, which widens a cone by about 3e-12 rad,
# and the rounding of the membership test
_WINDOW_MARGIN = 1e-6
_WINDOW_SCALE = (1.0 + _WINDOW_MARGIN) / (2.0 * math.cos(2.0 * CONE_HALF_APERTURE))
# relative slack of the farthest-pair pruning, far above the rounding of
# the distances it compares, and the elements of its difference blocks
_PAIR_SLACK = 1.0 - 1e-9
_PAIR_ELEMENTS = 1 << 16


def _check_elements(key: str, count: int, width: int, of: str = "dim") -> None:
    if count * width > _MAX_ELEMENTS:
        raise ValueError(
            f"key {key!r}: {key} * {of} = {count * width} exceeds the budget of 2^26 elements"
        )


class NNIndex:
    """Exact brute-force nearest-neighbor index; ties go to the smallest index."""

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("at least one point is required")
        if pts.ndim != 2:
            raise ValueError("points must form an (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        self.points = pts

    def query(self, queries) -> np.ndarray:
        """Index of the exact nearest point for each query row."""
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        if q.shape[1] != self.points.shape[1]:
            raise ValueError("query dimension does not match the index")
        out = np.empty(q.shape[0], dtype=np.intp)
        step = max(1, _BLOCK_ELEMENTS // (2 * self.points.size))
        for lo in range(0, q.shape[0], step):
            # argmin returns the first minimum, i.e. the smallest index
            out[lo : lo + step] = np.argmin(row_sq_norms(q[lo : lo + step, None] - self.points), 1)
        return out


def _by_distance(x: np.ndarray, others: np.ndarray):
    """(offsets others - x, their squared lengths, a nearest-first order of
    the offsets): what both the membership test and the cone radii walk,
    computed once per replicate.  Neither depends on how tied points are
    ordered."""
    rel = others - x
    dist2 = row_sq_norms(rel)
    return rel, dist2, np.argsort(dist2)


def _cell_member(
    x: np.ndarray, others: np.ndarray, draws: np.ndarray, by_distance=None
) -> np.ndarray:
    """Mask of the draws whose nearest point among {x} plus `others` is x,
    with ties to x: the answer of `NNIndex` on the whole set, index 0.

    A draw p is nearer to a point y than to x exactly when
    2 (p - x).(y - x) > |y - x|^2.  The prefilter rejects p when the left
    side exceeds the right by a margin for one of x's `_CERT_NEIGHBORS`
    nearest neighbours.  The margin, _CERT_MARGIN (rho + max |y - x|)^2 with
    rho >= |p - x| over the block, is far above the rounding of both this
    form and the brute force's squared distances, so a rejected draw also
    loses in `NNIndex`.  Each block is tested against the `_CERT_STAGE`
    nearest bisectors first, which reject most draws, and only their
    survivors against the rest, so the survivors are those of one test
    against all of them.  A draw at distance rho from x can only lose to, or
    tie with, points within 2 rho of x, so each survivor is decided by
    `NNIndex` on x (index 0) and the points within 2 (1 + _CERT_MARGIN)
    times the largest survivor distance.  `by_distance` is
    `_by_distance(x, others)`, computed here when None.
    """
    rel_others, dist2, order = by_distance or _by_distance(x, others)
    sorted2 = dist2[order]
    near = rel_others[order[:_CERT_NEIGHBORS]]
    near_sq = sorted2[:_CERT_NEIGHBORS]
    reach = math.sqrt(near_sq.max(initial=0.0))
    first, rest = np.split(2.0 * near, [_CERT_STAGE])
    keep = np.empty(draws.shape[0], dtype=bool)
    for lo in range(0, draws.shape[0], _CERT_BLOCK):
        rel = draws[lo : lo + _CERT_BLOCK] - x
        # sqrt(d) times the largest coordinate bounds every |p - x|
        rho = math.sqrt(x.size) * float(np.abs(rel).max())
        cut = near_sq + _CERT_MARGIN * (rho + reach) ** 2
        block = (first @ rel.T <= cut[:_CERT_STAGE, None]).all(axis=0)
        live = np.flatnonzero(block)
        block[live] = (rest @ rel[live].T <= cut[_CERT_STAGE:, None]).all(axis=0)
        keep[lo : lo + _CERT_BLOCK] = block
    cand = np.flatnonzero(keep)
    rho2 = row_sq_norms(draws[cand] - x).max(initial=0.0)
    radius2 = 4.0 * rho2 * (1.0 + _CERT_MARGIN) ** 2
    local = others[order[: np.searchsorted(sorted2, radius2, side="right")]]
    keep[cand] = NNIndex(np.vstack([x[None, :], local])).query(draws[cand]) == 0
    return keep


def _probe_hits(
    x: np.ndarray, others, model: DensityModel, probes: int, rng: RandomStream,
    by_distance=None, window: float = math.inf,
) -> np.ndarray:
    """Draw probes from the model; return those whose nearest point among {x}
    plus `others` is x (index 0, so x wins every tie).

    When the cell lies in the ball B = B(x, window), only the probes that
    land in B can hit, and they are drawn by thinning: with M the density's
    largest value on B and q = vol(B) M, draw N ~ Bin(probes, q) points
    uniform in B and keep each point p with probability f(p) / M.  A point
    is then kept with probability mu(B) / q, so the kept count is
    Bin(probes, mu(B)) and the kept points are independent draws from the
    density restricted to B: the law of the plain probes that land in B.
    When q >= 1 (an infinite window included) the probes are drawn plainly.
    """
    d = x.size
    others = np.asarray(others, dtype=float).reshape(-1, d)
    mass = math.inf
    if window < math.inf:
        peak = model.pdf_max(x, window)
        # beyond the range of a double, q is inf, 0 or nan; only 0 <= q < 1 thins
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            mass = unit_ball_volume(d) * np.float64(window) ** d * peak
    if not mass < 1.0:
        draws = model.sample(rng, probes)
    else:
        count = rng.binomial(probes, mass)
        draws = x + window * sample_unit_ball_batch(d, count, rng)
        draws = draws[rng.random(count) * peak < model.pdf(draws)]
    return draws[_cell_member(x, others, draws, by_distance)]


def exact_cell_measure_1d(x, others, model: DensityModel) -> float:
    """Exact cell measure in one dimension via neighbor midpoints.

    The cell of x is the interval between the midpoints toward its nearest
    left and right neighbors (unbounded sides extend to the support edge);
    points that duplicate x never win a tie against it and are ignored.
    """
    if model.dimension != 1:
        raise ValueError("exact cell measure requires dimension 1")
    x = float(as_point(np.atleast_1d(x))[0])
    others = np.asarray(others, dtype=float).reshape(-1)
    left = others[others < x]
    right = others[others > x]
    lo = (x + left.max()) / 2 if left.size else -math.inf
    hi = (x + right.min()) / 2 if right.size else math.inf
    return model.interval_measure(lo, hi)


# ---------------------------------------------------------------------------
# replicated experiments


@dataclass(frozen=True, eq=False)
class _Replicated:
    """The keys the cell and diam configs share; only `density` is positional."""

    density: DensityModel
    _: KW_ONLY
    x: np.ndarray | None = None
    replicates: int = 2000
    probes: int = 5000
    seed: int = 0
    workers: int = 1

    def _check(self, counts, min_probes: int, columns: int, error: str) -> None:
        """Default x to the origin and check the shared keys: `error` unless
        the counts, replicates and workers are >= 1 and probes >= min_probes;
        then the seed, workers <= MAX_WORKERS, the budgets of probes and of
        the replicates' `columns` results each, and x in the support."""
        x = np.zeros(self.density.dimension) if self.x is None else as_point(self.x)
        object.__setattr__(self, "x", x)
        if min(*counts, self.replicates, self.workers) < 1 or self.probes < min_probes:
            raise ValueError(error)
        check_seed(self.seed)
        shard_ranges(self.replicates, self.workers)  # raises above MAX_WORKERS
        _check_elements("probes", self.probes, self.density.dimension)
        _check_elements("replicates", self.replicates, columns, "result columns")
        if not self.density.support_contains(self.x):
            raise ValueError("conditioning point x lies outside the support")


def _replicate(block, cfg: _Replicated, n_grid) -> list[np.ndarray]:
    """block((cfg, n, streams)) over the replicates of each n, one array per n.

    Replicate r of grid entry i uses stream (seed, i * replicates + r), so
    results do not depend on the worker count.  The shards of every entry go
    through one pool; block's last axis holds the streams it was given.
    """
    R = cfg.replicates
    shards = shard_ranges(R, cfg.workers)
    tasks = [(cfg, n, range(i * R + s.start, i * R + s.stop))
             for i, n in enumerate(n_grid) for s in shards]
    if cfg.workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(tasks))) as ex:
            parts = list(ex.map(block, tasks))
    else:
        parts = [block(t) for t in tasks]
    k = len(shards)
    return [np.concatenate(parts[i : i + k], axis=-1) for i in range(0, len(parts), k)]


# ---------------------------------------------------------------------------
# cell-measure experiment


@dataclass(frozen=True, eq=False, kw_only=True)
class CellExperimentConfig(_Replicated):
    """Parameters of a conditioned-cell measure experiment.

    `measure_mode` is "probe" (default, any dimension) or "exact"
    (one-dimensional models only: interval cell measure, no probe noise).
    """

    n: int = 2000
    k_max: int = 4
    measure_mode: str = "probe"

    def __post_init__(self):
        self._check((self.n, self.k_max), 1, 1, "counts must be >= 1")
        _check_elements("n", self.n, self.density.dimension)
        if self.measure_mode not in ("probe", "exact"):
            raise ValueError(f"unknown measure_mode {self.measure_mode!r}")
        if self.measure_mode == "probe" and self.k_max > self.probes:
            raise ValueError("k_max cannot exceed probes (k distinct probes per tuple)")
        if self.measure_mode == "exact" and self.density.dimension != 1:
            raise ValueError("exact measure mode requires a one-dimensional model")


@dataclass(frozen=True, eq=False)
class CellExperimentResult:
    """Replicated scaled cell measures with empirical moments and ECDF."""

    replicates: int
    scaled_measures: np.ndarray
    hits: np.ndarray | None
    empirical_moments: dict[int, float]
    moment_stderrs: dict[int, float]
    ecdf: np.ndarray
    config: CellExperimentConfig


def _falling(x: np.ndarray, k: int) -> np.ndarray:
    out = np.ones_like(x, dtype=float)
    for j in range(k):
        out = out * (x - j)
    return out


def _cell_block(args) -> np.ndarray:
    """Hit counts (probe mode) or exact cell measures of the given streams."""
    cfg, n, streams = args
    out = np.empty(len(streams))
    for j, r in enumerate(streams):
        rng = RandomStream(cfg.seed, r)
        others = cfg.density.sample(rng, n - 1)
        if cfg.measure_mode == "exact":
            out[j] = exact_cell_measure_1d(cfg.x, others, cfg.density)
        else:
            out[j] = len(_probe_hits(cfg.x, others, cfg.density, cfg.probes, rng))
    return out


def run_cell_experiment(config: CellExperimentConfig) -> CellExperimentResult:
    """Replicate the conditioned-cell experiment and aggregate its law.

    Each replicate r draws n - 1 fresh points from the density (the
    conditioning point is placed deterministically, which realizes the
    conditional law exactly), estimates the cell measure, and contributes
    n * mu_hat to the sample.  Replicates use streams (seed, r), so results
    are independent of the worker count.  Empirical moments use unbiased
    falling-factorial hit statistics in probe mode and plain powers in exact
    mode.
    """
    cfg = config
    (values,) = _replicate(_cell_block, cfg, (cfg.n,))
    if cfg.measure_mode == "probe":
        hits = values.astype(np.intp)
        scaled = cfg.n * values / cfg.probes
    else:
        hits, scaled = None, cfg.n * values

    moments: dict[int, float] = {}
    stderrs: dict[int, float] = {}
    for k in range(1, cfg.k_max + 1):
        if cfg.measure_mode == "probe":
            per = float(cfg.n) ** k * _falling(values, k) / _falling(
                np.array(float(cfg.probes)), k
            )
        else:
            per = scaled**k
        est = Estimate.of(_stats(per))
        moments[k], stderrs[k] = est.value, est.stderr

    return CellExperimentResult(
        replicates=cfg.replicates, scaled_measures=scaled, hits=hits, empirical_moments=moments,
        moment_stderrs=stderrs, ecdf=np.sort(scaled), config=cfg,
    )


# ---------------------------------------------------------------------------
# diameter machinery


@lru_cache(maxsize=None)
def cone_directions(d: int) -> np.ndarray:
    """Unit directions whose pi/4-aperture cones cover all of R^d.

    Every unit vector lies within angular distance pi/8 of some direction.
    d = 1 and d = 2 use the minimal analytic families.  d = 3, 4, 5 read a
    shipped table: greedy cap covers of a low-discrepancy sphere point set,
    repaired until the convex hull of the directions shows no hole.  There
    is no cover for d > 5, where one would have thousands of cones.
    """
    check_dim(d)
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif d == 2:
        ang = np.arange(8) * (math.pi / 4)
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        with np.load(_COVER_TABLE, allow_pickle=False) as table:
            if f"d{d}" not in table:
                raise ValueError(f"no certified cone cover of R^{d} is shipped")
            dirs = table[f"d{d}"]
    dirs.setflags(write=False)
    return dirs


def cone_nn_radii(x, others, directions, by_distance=None) -> np.ndarray:
    """Per-cone distance from x to its nearest point, +inf for empty cones.

    A point belongs to every cone whose closed angular condition it meets;
    a point coinciding with x belongs to all cones at distance zero.  The
    points are visited nearest first, in blocks that start at `_NN_BLOCK`
    points and double while a block times the cones stays within
    `_NN_ELEMENTS`.  The walk stops at the first block whose nearest point
    is farther than every radius found so far: no farther point can lower
    one.  While a cone is empty its radius is inf, so a point set with an
    empty cone is walked to the end.  `by_distance` is
    `_by_distance(x, others)`, computed here when None.
    """
    x = as_point(x)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    others = np.asarray(others, dtype=float).reshape(-1, x.size)
    rel, dist2, order = by_distance or _by_distance(x, others)
    radii = np.full(dirs.shape[0], math.inf)
    cap = max(_NN_BLOCK, _NN_ELEMENTS // dirs.shape[0])
    start, step = 0, _NN_BLOCK
    while start < order.size:
        idx = order[start : start + step]
        start, step = start + step, min(2 * step, cap)
        dist = np.sqrt(dist2[idx])
        if dist[0] > radii.max():
            break
        safe = np.where(dist > 0.0, dist, 1.0)
        cos = (rel[idx] / safe[:, None]) @ dirs.T
        member = (cos >= _COS_CONE - _CONE_BOUNDARY_TOL) | (dist == 0.0)[:, None]
        np.minimum(radii, np.where(member, dist[:, None], math.inf).min(axis=0), out=radii)
    return radii


def _max_pairwise_distance(pts: np.ndarray) -> float:
    """Largest distance between two rows of pts, 0 for fewer than two.

    |p_i - p_j| <= r_i + r_j with r the distances from the centroid, so the
    rows are visited farthest from it first, in blocks whose (rows,
    partners) differences stay within `_PAIR_ELEMENTS`.  A block is compared
    only with the rows after its first one that are near enough to the far
    side to beat the best distance so far, and the visit stops once no row
    is.  The compared pairs include the farthest one, and their squared
    distances are those of a pass over every pair, so the result is too,
    bit for bit.
    """
    n, d = pts.shape
    if n < 2:
        return 0.0
    radius = np.sqrt(row_sq_norms(pts - pts.mean(axis=0)))
    order = np.argsort(-radius)
    # minus the radii, ascending
    neg, pts = -radius[order], pts[order]
    best2, lo = 0.0, 0
    while lo < n - 1:
        # a partner of row lo, or of a later row, is at least floor from the centroid
        floor = math.sqrt(best2) * _PAIR_SLACK + neg[lo]
        if -neg[lo + 1] < floor:
            break
        stop = int(np.searchsorted(neg, -floor, side="right"))
        rows = max(1, _PAIR_ELEMENTS // ((stop - lo) * d))
        diff = pts[lo : lo + rows, None, :] - pts[None, lo + 1 : stop, :]
        best2 = max(best2, float(row_sq_norms(diff).max()))
        lo += rows
    return math.sqrt(best2)


def estimate_cell_diameter(
    x, others, model: DensityModel, probes: int, rng: RandomStream
) -> tuple[float, float]:
    """Bracket the diameter of the cell centered at x.

    The lower estimate is the farthest-pair distance among probe points that
    land in the cell (0 when fewer than two do); the upper estimate is
    sqrt(d) times the largest per-cone nearest-neighbor distance, infinite
    whenever some cone holds no point.  lower <= upper always.

    A point q of the cell in a cone whose nearest point y is at distance
    rho makes an angle of at most 2 theta = pi/4 with y - x, so
    |q - x|^2 <= |q - y|^2 gives |q - x| <= rho / (2 cos(2 theta)).  The
    probes are therefore drawn only in the ball of that radius, taken at
    the largest cone radius, which leaves the law of the hits unchanged.
    """
    if probes < 2:
        raise ValueError("probes must be >= 2")
    x = as_point(x)
    d = x.size
    others = np.asarray(others, dtype=float).reshape(-1, d)
    by_distance = _by_distance(x, others)
    reach = float(cone_nn_radii(x, others, cone_directions(d), by_distance).max())
    window = _WINDOW_SCALE * reach
    hits = _probe_hits(x, others, model, int(probes), rng, by_distance, window)
    return _max_pairwise_distance(hits), math.sqrt(d) * reach


@dataclass(frozen=True, eq=False, kw_only=True)
class DiameterExperimentConfig(_Replicated):
    """Parameters of the diameter-scaling experiment over a grid of n."""

    n_grid: tuple[int, ...]
    t_grid: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "t_grid", tuple(float(t) for t in self.t_grid))
        if not self.n_grid or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be a nonempty increasing sequence")
        if not all(map(math.isfinite, self.t_grid)):
            raise ValueError("t_grid entries must be finite")
        # a lower and an upper estimate per replicate and grid entry
        self._check(self.n_grid, 2, 2 * len(self.n_grid), "counts must be positive (probes >= 2)")
        _check_elements("n_grid", self.n_grid[-1], self.density.dimension)
        if self.density.dimension > _DIAM_MAX_D:
            raise ValueError(
                f"diam needs dim <= {_DIAM_MAX_D}: there is no practical certified "
                f"cone cover of R^{self.density.dimension}"
            )


@dataclass(frozen=True, eq=False)
class DiameterResult:
    """Scaled diameter brackets per n, with quantiles and exceedance curves.

    scaled_lower / scaled_upper map n to the per-replicate values of
    n^(1/d) times the lower / upper diameter estimates.  quantiles maps n to
    {level: (lower_estimator_quantile, upper_estimator_quantile)}, and
    exceedance maps n to the empirical P{n^(1/d) diam >= t} per t in t_grid,
    evaluated on the upper estimator.
    """

    n_grid: tuple[int, ...]
    t_grid: tuple[float, ...]
    scaled_lower: dict[int, np.ndarray]
    scaled_upper: dict[int, np.ndarray]
    quantiles: dict[int, dict[float, tuple[float, float]]]
    exceedance: dict[int, np.ndarray]
    config: DiameterExperimentConfig


def _diam_block(args) -> np.ndarray:
    """The (lower, upper) diameter estimates of the given streams, as rows."""
    cfg, n, streams = args
    brackets = np.empty((2, len(streams)))
    for j, r in enumerate(streams):
        rng = RandomStream(cfg.seed, r)
        others = cfg.density.sample(rng, n - 1)
        brackets[:, j] = estimate_cell_diameter(cfg.x, others, cfg.density, cfg.probes, rng)
    return brackets


def run_diameter_experiment(config: DiameterExperimentConfig) -> DiameterResult:
    """Estimate the n^(-1/d) diameter scaling over the configured n grid.

    Replicate r of grid entry i uses stream (seed, i * replicates + r), so
    results do not depend on the worker count.
    """
    cfg = config
    scaled_lower, scaled_upper, quantiles, exceedance = {}, {}, {}, {}
    for n, (lows, ups) in zip(cfg.n_grid, _replicate(_diam_block, cfg, cfg.n_grid)):
        scale = n ** (1.0 / cfg.density.dimension)
        lows *= scale
        ups *= scale
        scaled_lower[n] = lows
        scaled_upper[n] = ups
        # order-statistic quantiles: upper estimates may be infinite and
        # interpolation across infinities is meaningless
        quantiles[n] = {
            q: (
                float(np.quantile(lows, q, method="inverted_cdf")),
                float(np.quantile(ups, q, method="inverted_cdf")),
            )
            for q in _QUANTILE_LEVELS
        }
        exceedance[n] = np.array([float(np.mean(ups >= t)) for t in cfg.t_grid])
    return DiameterResult(
        n_grid=cfg.n_grid, t_grid=cfg.t_grid, scaled_lower=scaled_lower,
        scaled_upper=scaled_upper, quantiles=quantiles, exceedance=exceedance, config=cfg,
    )
