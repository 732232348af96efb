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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import ndtri

from .geometry import Estimate, as_point
from .sampling import DensityModel, RandomStream, shard_ranges

__all__ = [
    "NNIndex",
    "estimate_cell_measure",
    "exact_cell_measure_1d",
    "probe_cell_fractions",
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
_CONE_SEED = 20260809

_QUANTILE_LEVELS = (0.5, 0.9, 0.99)

# elements of the (block, n, d) difference array built per block of queries
_BLOCK_ELEMENTS = 1 << 24


def _sq_dist_blocks(q: np.ndarray, pts: np.ndarray):
    """Yield (start, squared distances from a block of q's rows to every point)."""
    step = max(1, _BLOCK_ELEMENTS // pts.size)
    for lo in range(0, q.shape[0], step):
        block = q[lo : lo + step]
        yield lo, ((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)


class NNIndex:
    """Exact nearest-neighbor index with ties resolved to the smallest index.

    Both a brute-force and a kd-tree backend exist and answer identically;
    the kd-tree is the default, the brute force is the oracle.
    """

    def __init__(self, points, method: str = "kdtree"):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("at least one point is required")
        if pts.ndim != 2:
            raise ValueError("points must form an (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if method not in ("kdtree", "brute"):
            raise ValueError(f"unknown method {method!r}")
        self.points = pts
        self.method = method
        self._tree = cKDTree(pts) if method == "kdtree" else None

    def query(self, queries) -> np.ndarray:
        """Index of the exact nearest point for each query row."""
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        if q.shape[1] != self.points.shape[1]:
            raise ValueError("query dimension does not match the index")
        if self.method == "brute":
            return self._query_brute(q)
        return self._query_kdtree(q)

    def _query_brute(self, q: np.ndarray) -> np.ndarray:
        out = np.empty(q.shape[0], dtype=np.intp)
        for lo, d2 in _sq_dist_blocks(q, self.points):
            # argmin returns the first minimum, i.e. the smallest index
            out[lo : lo + d2.shape[0]] = np.argmin(d2, axis=1)
        return out

    def _query_kdtree(self, q: np.ndarray) -> np.ndarray:
        n = self.points.shape[0]
        if n == 1:
            return np.zeros(q.shape[0], dtype=np.intp)
        dist, idx = self._tree.query(q, k=2)
        nearest = idx[:, 0].astype(np.intp)
        for i in np.nonzero(dist[:, 0] == dist[:, 1])[0]:
            cand = np.asarray(self._tree.query_ball_point(q[i], dist[i, 0] * (1 + 1e-12)))
            d2 = ((self.points[cand] - q[i]) ** 2).sum(axis=1)
            nearest[i] = cand[d2 == d2.min()].min()
        return nearest


def _probe_hits(
    x: np.ndarray, others, model: DensityModel, probes: int, rng: RandomStream
) -> np.ndarray:
    """Draw probes from the model; return those whose nearest point among {x}
    plus `others` is x (index 0, so x wins every tie)."""
    pts = np.vstack([x[None, :], np.asarray(others, dtype=float).reshape(-1, x.size)])
    draws = model.sample(rng, probes)
    return draws[NNIndex(pts).query(draws) == 0]


def estimate_cell_measure(
    x, others, model: DensityModel, probes: int, rng: RandomStream
) -> Estimate:
    """Probe estimate of the measure of the cell centered at x.

    Draws `probes` points from the model and returns the fraction whose
    nearest neighbor among {x} plus `others` is x (ties to the smallest
    index, and x has index 0).  Unbiased given the point set.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    p = len(_probe_hits(as_point(x), others, model, int(probes), rng)) / probes
    return Estimate(value=p, stderr=math.sqrt(p * (1.0 - p) / probes), samples=int(probes))


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


def probe_cell_fractions(points, model: DensityModel, probes: int, rng: RandomStream) -> np.ndarray:
    """Probe fractions for every cell of the point set; they sum to one."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    idx = NNIndex(pts).query(model.sample(rng, int(probes)))
    return np.bincount(idx, minlength=pts.shape[0]) / probes


# ---------------------------------------------------------------------------
# cell-measure experiment


@dataclass(frozen=True, eq=False)
class CellExperimentConfig:
    """Parameters of a conditioned-cell measure experiment.

    `measure_mode` is "probe" (default, any dimension) or "exact"
    (one-dimensional models only: interval cell measure, no probe noise).
    """

    density: DensityModel
    x: np.ndarray | None = None
    n: int = 2000
    replicates: int = 2000
    probes: int = 5000
    k_max: int = 4
    seed: int = 0
    workers: int = 1
    measure_mode: str = "probe"

    def __post_init__(self):
        x = np.zeros(self.density.dimension) if self.x is None else as_point(self.x)
        object.__setattr__(self, "x", x)
        if min(self.n, self.replicates, self.probes, self.k_max, self.workers) < 1:
            raise ValueError("counts must be >= 1")
        if self.measure_mode not in ("probe", "exact"):
            raise ValueError(f"unknown measure_mode {self.measure_mode!r}")
        if self.measure_mode == "probe" and self.k_max > self.probes:
            raise ValueError("k_max cannot exceed probes (k distinct probes per tuple)")
        if self.measure_mode == "exact" and self.density.dimension != 1:
            raise ValueError("exact measure mode requires a one-dimensional model")
        if not self.density.support_contains(self.x):
            raise ValueError("conditioning point x lies outside the support")


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


def _cell_block(args):
    cfg, streams = args
    scaled = np.empty(len(streams))
    hits = np.empty(len(streams), dtype=np.intp) if cfg.measure_mode == "probe" else None
    for j, r in enumerate(streams):
        rng = RandomStream(cfg.seed, r)
        others = cfg.density.sample(rng, cfg.n - 1)
        if cfg.measure_mode == "exact":
            mu = exact_cell_measure_1d(cfg.x, others, cfg.density)
            scaled[j] = cfg.n * mu
        else:
            h = len(_probe_hits(cfg.x, others, cfg.density, cfg.probes, rng))
            hits[j] = h
            scaled[j] = cfg.n * h / cfg.probes
    return scaled, hits


def _map_blocks(fn, args, workers: int):
    """fn over args, in a pool when workers > 1; results come in task order."""
    if workers <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    with ProcessPoolExecutor(max_workers=min(workers, len(args))) as ex:
        return list(ex.map(fn, args))


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
    blocks = shard_ranges(cfg.replicates, cfg.workers)
    parts = _map_blocks(_cell_block, [(cfg, b) for b in blocks], cfg.workers)
    scaled = np.concatenate([p[0] for p in parts])
    hits = np.concatenate([p[1] for p in parts]) if cfg.measure_mode == "probe" else None

    moments: dict[int, float] = {}
    stderrs: dict[int, float] = {}
    R = cfg.replicates
    for k in range(1, cfg.k_max + 1):
        if cfg.measure_mode == "probe":
            per = float(cfg.n) ** k * _falling(hits.astype(float), k) / _falling(
                np.array(float(cfg.probes)), k
            )
        else:
            per = scaled**k
        moments[k] = float(per.mean())
        stderrs[k] = float(per.std(ddof=1) / math.sqrt(R)) if R > 1 else 0.0

    return CellExperimentResult(
        replicates=R,
        scaled_measures=scaled,
        hits=hits,
        empirical_moments=moments,
        moment_stderrs=stderrs,
        ecdf=np.sort(scaled),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# diameter machinery


def _sphere_lds(d: int, n: int, seed_key: int) -> np.ndarray:
    from scipy.stats import qmc

    gen = np.random.default_rng(
        np.random.SeedSequence(entropy=_CONE_SEED, spawn_key=(seed_key,))
    )
    u = qmc.Sobol(d, scramble=True, seed=gen).random(n)
    z = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@lru_cache(maxsize=None)
def cone_directions(d: int) -> np.ndarray:
    """Unit directions whose pi/4-aperture cones cover all of R^d.

    Every unit vector lies within angular distance pi/8 of some direction.
    d = 1 and d = 2 use the minimal analytic families; higher dimensions run
    a greedy cap cover over a low-discrepancy sphere point set, validated
    (and repaired if needed) against 10^5 random unit vectors.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif d == 2:
        ang = np.arange(8) * (math.pi / 4)
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        cand = _sphere_lds(d, 4096, 0)
        # cover the candidate set at a slightly shrunk radius so that points
        # between candidates still fall inside the full pi/8 caps
        cover = cand @ cand.T >= math.cos(0.92 * CONE_HALF_APERTURE)
        uncovered = np.ones(len(cand), dtype=bool)
        rows = []
        while uncovered.any():
            best = int(np.argmax(cover[:, uncovered].sum(axis=1)))
            rows.append(cand[best])
            uncovered &= ~cover[best]
        dirs = np.array(rows)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=_CONE_SEED, spawn_key=(d, 1)))
        )
        for _ in range(64):
            v = rng.standard_normal((100_000, d))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            covered = (v @ dirs.T >= _COS_CONE - _CONE_BOUNDARY_TOL).any(axis=1)
            if covered.all():
                break
            dirs = np.vstack([dirs, v[~covered][:1]])
        else:
            raise ValueError(f"no complete cone cover of R^{d} after 64 repair rounds")
    dirs.setflags(write=False)
    return dirs


def cone_nn_radii(x, others, directions) -> np.ndarray:
    """Per-cone distance from x to its nearest point, +inf for empty cones.

    A point belongs to every cone whose closed angular condition it meets;
    a point coinciding with x belongs to all cones at distance zero.
    """
    x = as_point(x)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    others = np.asarray(others, dtype=float).reshape(-1, x.size)
    if others.shape[0] == 0:
        return np.full(dirs.shape[0], math.inf)
    diff = others - x[None, :]
    dist = np.linalg.norm(diff, axis=1)
    safe = np.where(dist > 0.0, dist, 1.0)
    cos = (diff / safe[:, None]) @ dirs.T
    member = (cos >= _COS_CONE - _CONE_BOUNDARY_TOL) | (dist == 0.0)[:, None]
    radii = np.where(member, dist[:, None], math.inf)
    return radii.min(axis=0)


def _max_pairwise_distance(pts: np.ndarray) -> float:
    if pts.shape[0] < 2:
        return 0.0
    return math.sqrt(max(float(d2.max()) for _, d2 in _sq_dist_blocks(pts, pts)))


def estimate_cell_diameter(
    x, others, model: DensityModel, probes: int, rng: RandomStream
) -> tuple[float, float]:
    """Bracket the diameter of the cell centered at x.

    The lower estimate is the farthest-pair distance among probe points that
    land in the cell (0 when fewer than two do); the upper estimate is
    sqrt(d) times the largest per-cone nearest-neighbor distance, infinite
    whenever some cone holds no point.  lower <= upper always.
    """
    if probes < 2:
        raise ValueError("probes must be >= 2")
    x = as_point(x)
    d = x.size
    lower = _max_pairwise_distance(_probe_hits(x, others, model, int(probes), rng))
    radii = cone_nn_radii(x, others, cone_directions(d))
    upper = math.sqrt(d) * float(radii.max())
    return lower, upper


@dataclass(frozen=True, eq=False)
class DiameterExperimentConfig:
    """Parameters of the diameter-scaling experiment over a grid of n."""

    density: DensityModel
    n_grid: tuple[int, ...]
    t_grid: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    x: np.ndarray | None = None
    replicates: int = 2000
    probes: int = 5000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        x = np.zeros(self.density.dimension) if self.x is None else as_point(self.x)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "t_grid", tuple(float(t) for t in self.t_grid))
        if not self.n_grid or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be a nonempty increasing sequence")
        if min(*self.n_grid, self.replicates, self.workers) < 1 or self.probes < 2:
            raise ValueError("counts must be positive (probes >= 2)")
        if not self.density.support_contains(self.x):
            raise ValueError("conditioning point x lies outside the support")


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


def _diam_block(args):
    cfg, n, streams = args
    brackets = np.empty((2, len(streams)))  # lower and upper estimates
    for j, r in enumerate(streams):
        rng = RandomStream(cfg.seed, r)
        others = cfg.density.sample(rng, n - 1)
        brackets[:, j] = estimate_cell_diameter(cfg.x, others, cfg.density, cfg.probes, rng)
    return brackets


def run_diameter_experiment(config: DiameterExperimentConfig) -> DiameterResult:
    """Estimate the n^(-1/d) diameter scaling over the configured n grid.

    Replicate r of grid entry i uses stream (seed, i * replicates + r), so
    results do not depend on the worker count.  The blocks of every grid
    entry go through one pool.
    """
    cfg = config
    d = cfg.density.dimension
    R = cfg.replicates
    blocks = shard_ranges(R, cfg.workers)
    tasks = [(cfg, n, range(i * R + b.start, i * R + b.stop))
             for i, n in enumerate(cfg.n_grid) for b in blocks]
    parts = _map_blocks(_diam_block, tasks, cfg.workers)
    scaled_lower: dict[int, np.ndarray] = {}
    scaled_upper: dict[int, np.ndarray] = {}
    quantiles: dict[int, dict[float, tuple[float, float]]] = {}
    exceedance: dict[int, np.ndarray] = {}
    for i, n in enumerate(cfg.n_grid):
        lows, ups = np.concatenate(parts[i * len(blocks) : (i + 1) * len(blocks)], axis=1)
        scale = n ** (1.0 / d)
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
        n_grid=cfg.n_grid,
        t_grid=cfg.t_grid,
        scaled_lower=scaled_lower,
        scaled_upper=scaled_upper,
        quantiles=quantiles,
        exceedance=exceedance,
        config=cfg,
    )
