"""Seeded random streams, uniform sampling in balls, and density models.

A density model couples a sampler with a support test, its density and the
density's supremum over a ball; the uniform-ball and gaussian models also
evaluate the ball measure mu(B(x, r)) exactly.  scipy
(`scipy.special`) is imported by the gaussian measures only, so the moment
estimators and the cell experiments run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import as_point, ball_intersection_volumes, check_dim, row_sq_norms, unit_ball_volume

__all__ = [
    "MAX_WORKERS",
    "RandomStream",
    "DensityModel",
    "uniform_ball",
    "gaussian",
    "uniform_cube",
    "parse_density",
    "sample_unit_ball_batch",
]


class RandomStream:
    """Counter-based random stream addressed by (seed, stream_index).

    Streams with equal (seed, stream_index) produce identical sequences;
    distinct stream indices give statistically independent streams, which is
    what makes deterministic parallel estimation possible.  Each stream is
    single-owner: hand workers their own instances.  Seeds must be >= 0.
    """

    def __init__(self, seed: int, stream_index: int = 0):
        if stream_index < 0:
            raise ValueError("stream_index must be >= 0")
        self.seed = int(seed)
        self.stream_index = int(stream_index)
        self.position = 0
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_index,))
        self._gen = np.random.Generator(np.random.Philox(ss))

    def _count(self, size) -> int:
        if size is None:
            return 1
        return int(np.prod(size))

    def random(self, size=None):
        """Uniform [0, 1) draws; scalar when size is None."""
        self.position += self._count(size)
        return self._gen.random(size)

    def standard_normal(self, size=None):
        self.position += self._count(size)
        return self._gen.standard_normal(size)

    def binomial(self, trials: int, p: float) -> int:
        """One Bin(trials, p) draw."""
        self.position += 1
        return int(self._gen.binomial(trials, p))


# a process pool forks all of its workers at once, so the count is bounded
MAX_WORKERS = 64


def check_seed(seed) -> None:
    """Raise ValueError unless seed is an integer in [0, 2^64), as a config's is."""
    if int(seed) != seed or not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def shard_ranges(total: int, workers: int) -> list[range]:
    """Split range(total) into at most `workers` consecutive, nonempty ranges.

    Sizes come from divmod(total, workers): they differ by at most one, and
    the larger ones come first.  Every pooled path splits its work here
    before it starts a pool, so `workers` is checked against MAX_WORKERS.
    """
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be in [1, {MAX_WORKERS}]")
    base, extra = divmod(total, workers)
    ends = [i * base + min(i, extra) for i in range(min(workers, total) + 1)]
    return [range(lo, hi) for lo, hi in zip(ends, ends[1:])]


def sample_unit_ball_batch(d: int, n: int, rng: RandomStream) -> np.ndarray:
    """n points uniform in the unit ball: gaussian direction, radius U^(1/d)."""
    check_dim(d)
    g = rng.standard_normal((n, d))
    g /= np.sqrt(row_sq_norms(g))[:, None]
    return np.multiply(g, (rng.random(n) ** (1.0 / d))[:, None], out=g)


@dataclass(frozen=True)
class DensityModel:
    """Sampleable density with a support test, its density and the
    density's supremum over a ball.

    kind is one of "uniform-ball" (scale is the radius), "gaussian"
    (standard normal, scale 1), "uniform-cube" (scale is the side, centered
    at the origin); the cube has no ball-measure oracle.  Models are
    immutable and safe to share across workers.
    """

    kind: str
    dimension: int
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform-ball", "gaussian", "uniform-cube"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        check_dim(self.dimension)
        if self.kind == "gaussian" and self.scale != 1.0:
            raise ValueError("the gaussian density is standard: its scale must be 1")
        # squared distances at these scales stay normal doubles
        if not 1e-100 <= self.scale <= 1e100:
            name = "radius" if self.kind == "uniform-ball" else "side"
            raise ValueError(f"{self.kind} {name} must be in [1e-100, 1e100]")

    def sample(self, rng: RandomStream, size: int) -> np.ndarray:
        """Draw size points with this law; shape (size, d)."""
        n = int(size)
        d = self.dimension
        if self.kind == "uniform-ball":
            return self.scale * sample_unit_ball_batch(d, n, rng)
        if self.kind == "gaussian":
            return rng.standard_normal((n, d))
        return self.scale * (rng.random((n, d)) - 0.5)

    def _gap(self, points: np.ndarray) -> np.ndarray:
        """The distance from each row of an (m, d) array to the support, 0
        on it: the one rule of support_contains, pdf and pdf_max."""
        if self.kind == "uniform-ball":
            return np.maximum(np.sqrt(row_sq_norms(points)) - self.scale, 0.0)
        if self.kind == "uniform-cube":
            return np.sqrt(row_sq_norms(np.maximum(np.abs(points) - self.scale / 2, 0.0)))
        return np.zeros(len(points))

    def support_contains(self, x) -> bool:
        x = as_point(x)
        if x.size != self.dimension:
            raise ValueError("point dimension does not match the model")
        return bool(self._gap(x[None])[0] == 0.0)

    def _peak(self) -> float:
        """The density's largest value; 0 or inf beyond the range of a double."""
        d = self.dimension
        if self.kind == "gaussian":
            return (2.0 * math.pi) ** (-d / 2.0)
        unit = unit_ball_volume(d) if self.kind == "uniform-ball" else 1.0
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            return float(1.0 / (unit * np.float64(self.scale) ** d))

    def pdf(self, points) -> np.ndarray:
        """The density at each row of an (m, d) array of points."""
        pts = np.asarray(points, dtype=float).reshape(-1, self.dimension)
        if self.kind == "gaussian":
            return self._peak() * np.exp(-0.5 * row_sq_norms(pts))
        return np.where(self._gap(pts) == 0.0, self._peak(), 0.0)

    def pdf_max(self, center, radius: float) -> float:
        """The largest value of the density on the closed ball B(center, radius)."""
        center = as_point(center)
        if center.size != self.dimension:
            raise ValueError("center dimension does not match the model")
        if not radius >= 0:
            raise ValueError("radius must be >= 0")
        if self.kind == "gaussian":
            # distance from the origin to the ball
            gap = max(math.sqrt(row_sq_norms(center)) - radius, 0.0)
            return self._peak() * math.exp(-0.5 * gap * gap)
        return self._peak() if self._gap(center[None])[0] <= radius else 0.0

    def ball_measure_batch(self, center, radii) -> np.ndarray:
        """mu(B(center, r)) for an array of radii r; exact, and for the
        uniform-ball and gaussian models only."""
        center = as_point(center)
        if center.size != self.dimension:
            raise ValueError("center dimension does not match the model")
        radii = np.asarray(radii, dtype=float)
        if not np.all(radii >= 0):
            raise ValueError("radius must be >= 0")
        d = self.dimension
        if self.kind == "uniform-ball":
            support = unit_ball_volume(d) * self.scale**d
            dist = np.linalg.norm(center)
            finite = np.where(np.isfinite(radii), radii, 0.0)
            vals = ball_intersection_volumes(d, self.scale, finite, dist) / support
            return np.where(np.isfinite(radii), vals, 1.0)
        if self.kind == "gaussian":
            from scipy.special import gammainc, gammaln, xlogy

            # |X - c|^2 is central chi-square with d + 2J degrees of freedom,
            # J ~ Poisson(|c|^2 / 2): a mixture of regularized incomplete
            # gamma values with positive weights, taken in log space, keeps
            # its relative accuracy far in the tail.  Summed one J at a time,
            # so memory stays that of the radii however large |c| is.
            half = float(center @ center) / 2.0
            j = np.arange(int(half + 40.0 * math.sqrt(half) + 200.0))
            weights = np.exp(xlogy(j, half) - half - gammaln(j + 1.0))
            q = np.where(np.isfinite(radii), radii, 0.0) ** 2 / 2.0
            vals = sum(w * gammainc(d / 2.0 + k, q) for k, w in enumerate(weights) if w > 0.0)
            return np.where(np.isfinite(radii), vals, 1.0)
        raise ValueError(f"no ball-measure oracle for the {self.kind} density")

    def interval_measure(self, lo: float, hi: float) -> float:
        """Exact measure of the interval [lo, hi]; one-dimensional models only."""
        if self.dimension != 1:
            raise ValueError("interval_measure requires dimension 1")
        if lo > hi:
            raise ValueError("interval with lo > hi")
        if self.kind == "gaussian":
            from scipy.special import ndtr

            return float(ndtr(hi) - ndtr(lo))
        half = self.scale if self.kind == "uniform-ball" else self.scale / 2
        width = min(hi, half) - max(lo, -half)
        return max(width, 0.0) / (2 * half)


def uniform_ball(dimension: int, radius: float = 1.0) -> DensityModel:
    return DensityModel(kind="uniform-ball", dimension=dimension, scale=radius)


def gaussian(dimension: int) -> DensityModel:
    return DensityModel(kind="gaussian", dimension=dimension)


def uniform_cube(dimension: int, side: float = 1.0) -> DensityModel:
    return DensityModel(kind="uniform-cube", dimension=dimension, scale=side)


# the scaled density kinds of the spec grammar, by (kind, scale key)
_SCALED = {("uniform-ball", "r"): uniform_ball, ("uniform-cube", "side"): uniform_cube}


def parse_density(spec: str, dimension: int) -> DensityModel:
    """Build a model from a spec string.

    Grammar: ``uniform-ball:r=<real>``, ``gaussian``, ``uniform-cube:side=<real>``.
    """
    text = spec.strip()
    if text == "gaussian":
        return gaussian(dimension)
    kind, _, arg = text.partition(":")
    key, _, val = arg.partition("=")
    if (kind, key) in _SCALED and val:
        try:
            return _SCALED[kind, key](dimension, float(val))
        except ValueError:
            pass
    raise ValueError(
        f"bad density spec {spec!r}; expected uniform-ball:r=<real>, gaussian,"
        " or uniform-cube:side=<real>, with r and side in [1e-100, 1e100]"
    )

