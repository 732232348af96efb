"""Seeded random streams, uniform sampling in balls, and density models.

A density model couples a sampler with a ball-measure oracle mu(B(x, r));
uniform-ball and gaussian models evaluate it exactly, the uniform-cube model
numerically by randomized quasi Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr
from scipy.stats import chi2, ncx2, qmc

from .geometry import as_point, ball_intersection_volumes, unit_ball_volume

__all__ = [
    "RandomStream",
    "DensityModel",
    "uniform_ball",
    "gaussian",
    "uniform_cube",
    "parse_density",
    "sample_unit_ball_batch",
]

# randomized QMC budget for the cube ball-measure: 16 scrambles x 2^13 nodes
_QMC_REPLICATES = 16
_QMC_LOG2_NODES = 13
_QMC_SEED = 0x5EED_CB_E


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

    def __repr__(self):
        return (
            f"RandomStream(seed={self.seed}, stream_index={self.stream_index},"
            f" position={self.position})"
        )

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


def shard_ranges(total: int, workers: int) -> list[range]:
    """Split range(total) into at most `workers` consecutive, nonempty ranges.

    Sizes come from divmod(total, workers): they differ by at most one, and
    the larger ones come first.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    base, extra = divmod(total, workers)
    ends = [i * base + min(i, extra) for i in range(min(workers, total) + 1)]
    return [range(lo, hi) for lo, hi in zip(ends, ends[1:])]


def sample_unit_ball_batch(d: int, n: int, rng: RandomStream) -> np.ndarray:
    """n points uniform in the unit ball: gaussian direction, radius U^(1/d)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    g = rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * (rng.random(n) ** (1.0 / d))[:, None]


@dataclass(frozen=True)
class DensityModel:
    """Sampleable density with an exact-or-numeric ball-measure oracle.

    kind is one of "uniform-ball" (radius), "gaussian" (standard normal),
    "uniform-cube" (side, centered at the origin).  Models are immutable and
    safe to share across workers.
    """

    kind: str
    dimension: int
    radius: float = 1.0
    side: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform-ball", "gaussian", "uniform-cube"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if int(self.dimension) != self.dimension or self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if self.kind == "uniform-ball" and not 0 < self.radius < math.inf:
            raise ValueError("uniform-ball radius must be finite and > 0")
        if self.kind == "uniform-cube" and not 0 < self.side < math.inf:
            raise ValueError("uniform-cube side must be finite and > 0")

    def sample(self, rng: RandomStream, size: int) -> np.ndarray:
        """Draw size points with this law; shape (size, d)."""
        n = int(size)
        d = self.dimension
        if self.kind == "uniform-ball":
            return self.radius * sample_unit_ball_batch(d, n, rng)
        if self.kind == "gaussian":
            return rng.standard_normal((n, d))
        return self.side * (rng.random((n, d)) - 0.5)

    def support_contains(self, x) -> bool:
        x = as_point(x)
        if x.size != self.dimension:
            raise ValueError("point dimension does not match the model")
        if self.kind == "uniform-ball":
            return bool(np.linalg.norm(x) <= self.radius)
        if self.kind == "uniform-cube":
            return bool(np.all(np.abs(x) <= self.side / 2))
        return True

    def ball_measure_batch(self, center, radii) -> np.ndarray:
        """mu(B(center, r)) for an array of radii r (vectorized where exact)."""
        center = as_point(center)
        if center.size != self.dimension:
            raise ValueError("center dimension does not match the model")
        radii = np.asarray(radii, dtype=float)
        if not np.all(radii >= 0):
            raise ValueError("radius must be >= 0")
        d = self.dimension
        if self.kind == "uniform-ball":
            support = unit_ball_volume(d) * self.radius**d
            dist = np.linalg.norm(center)
            finite = np.where(np.isfinite(radii), radii, 0.0)
            vals = ball_intersection_volumes(d, self.radius, finite, dist) / support
            return np.where(np.isfinite(radii), vals, 1.0)
        if self.kind == "gaussian":
            nc = float(center @ center)
            q = np.where(np.isfinite(radii), radii, 0.0) ** 2
            vals = chi2.cdf(q, d) if nc == 0.0 else ncx2.cdf(q, d, nc)
            return np.where(np.isfinite(radii), vals, 1.0)
        scalars = [
            self._cube_measure(center, float(r))[0] if np.isfinite(r) else 1.0
            for r in np.atleast_1d(radii)
        ]
        out = np.array(scalars)
        return out if radii.ndim else out[0]

    def ball_measure_with_error(self, center, radius: float) -> tuple[float, float]:
        """Ball measure plus its numerical error estimate (0 for exact modes)."""
        if self.kind == "uniform-cube":
            if not radius >= 0:
                raise ValueError("radius must be >= 0")
            if not np.isfinite(radius):
                return 1.0, 0.0
            return self._cube_measure(as_point(center), float(radius))
        return float(self.ball_measure_batch(center, float(radius))), 0.0

    def _cube_measure(self, center: np.ndarray, radius: float) -> tuple[float, float]:
        # fraction of the cube inside the ball, over independently scrambled
        # Sobol replicates; the spread of replicate means is the error estimate.
        # The node set is fixed per dimension, which makes the estimate exactly
        # monotone in the radius.
        d = self.dimension
        means = np.empty(_QMC_REPLICATES)
        r2 = radius * radius
        for i in range(_QMC_REPLICATES):
            gen = np.random.default_rng(
                np.random.SeedSequence(entropy=_QMC_SEED, spawn_key=(i,))
            )
            pts = qmc.Sobol(d, scramble=True, seed=gen).random(2**_QMC_LOG2_NODES)
            pts = self.side * (pts - 0.5)
            means[i] = np.mean(((pts - center) ** 2).sum(axis=1) <= r2)
        value = float(means.mean())
        err = float(means.std(ddof=1) / math.sqrt(_QMC_REPLICATES))
        return value, err

    def interval_measure(self, lo: float, hi: float) -> float:
        """Exact measure of the interval [lo, hi]; one-dimensional models only."""
        if self.dimension != 1:
            raise ValueError("interval_measure requires dimension 1")
        if lo > hi:
            raise ValueError("interval with lo > hi")
        if self.kind == "gaussian":
            return float(ndtr(hi) - ndtr(lo))
        half = self.radius if self.kind == "uniform-ball" else self.side / 2
        width = min(hi, half) - max(lo, -half)
        return max(width, 0.0) / (2 * half)

    def spec_string(self) -> str:
        """Canonical density spec understood by parse_density."""
        if self.kind == "uniform-ball":
            return f"uniform-ball:r={self.radius:g}"
        if self.kind == "uniform-cube":
            return f"uniform-cube:side={self.side:g}"
        return "gaussian"


def uniform_ball(dimension: int, radius: float = 1.0) -> DensityModel:
    return DensityModel(kind="uniform-ball", dimension=dimension, radius=radius)


def gaussian(dimension: int) -> DensityModel:
    return DensityModel(kind="gaussian", dimension=dimension)


def uniform_cube(dimension: int, side: float = 1.0) -> DensityModel:
    return DensityModel(kind="uniform-cube", dimension=dimension, side=side)


def parse_density(spec: str, dimension: int) -> DensityModel:
    """Build a model from a spec string.

    Grammar: ``uniform-ball:r=<real>``, ``gaussian``, ``uniform-cube:side=<real>``.
    """
    text = spec.strip()
    if text == "gaussian":
        return gaussian(dimension)
    kind, _, arg = text.partition(":")
    try:
        if kind == "uniform-ball":
            key, _, val = arg.partition("=")
            if key != "r" or not val:
                raise ValueError
            return uniform_ball(dimension, float(val))
        if kind == "uniform-cube":
            key, _, val = arg.partition("=")
            if key != "side" or not val:
                raise ValueError
            return uniform_cube(dimension, float(val))
    except ValueError:
        pass
    raise ValueError(
        f"bad density spec {spec!r}; expected uniform-ball:r=<real>, gaussian,"
        " or uniform-cube:side=<real>"
    )

