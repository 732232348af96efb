import math

import numpy as np
import pytest
from scipy.stats import kstest

from vorlab import cellsim, cli, moments
from vorlab.sampling import (
    MAX_WORKERS,
    DensityModel,
    RandomStream,
    gaussian,
    parse_density,
    sample_unit_ball_batch,
    shard_ranges,
    uniform_ball,
    uniform_cube,
)

from oracles import (
    gaussian_ball_measure_mpmath,
    gaussian_ball_measure_poisson,
    gaussian_ball_measure_quad,
    lens_volume_quad,
)

GAUSS_D1_R1 = 0.6826894921370859  # erf(1/sqrt(2)), re-derived in its test


class TestRandomStream:
    def test_bit_identical_sequences(self):
        a = RandomStream(123, 4)
        b = RandomStream(123, 4)
        assert np.array_equal(a.random(1000), b.random(1000))
        assert np.array_equal(a.standard_normal(100), b.standard_normal(100))

    def test_distinct_streams_differ(self):
        a = RandomStream(123, 0)
        b = RandomStream(123, 1)
        assert not np.array_equal(a.random(100), b.random(100))

    def test_position_counts_draws(self):
        s = RandomStream(0)
        s.random(10)
        s.standard_normal((3, 4))
        s.random()
        assert s.position == 23
        # any shape numpy accepts counts its draws: a list, an array
        s.random([2, 3])
        s.standard_normal(np.array([2, 2]))
        assert s.position == 33

    def test_binomial(self):
        a, b = RandomStream(9, 1), RandomStream(9, 1)
        assert a.binomial(5000, 0.3) == b.binomial(5000, 0.3)
        assert a.position == 1
        assert (a.binomial(7, 0.0), a.binomial(7, 1.0)) == (0, 7)

    def test_negative_stream_index_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(0, -1)

    def test_negative_seed_rejected(self):
        # not silently an alias of seed + 2**64
        with pytest.raises(ValueError):
            RandomStream(-1)


class TestShardRanges:
    @pytest.mark.parametrize("total, workers", [(7, 3), (20_000, 3), (12, 4), (1, 1), (5, 64)])
    def test_consecutive_sizes_differ_by_at_most_one(self, total, workers):
        shards = shard_ranges(total, workers)
        assert [i for r in shards for i in r] == list(range(total))
        sizes = [len(r) for r in shards]
        assert sizes == sorted(sizes, reverse=True)  # larger shards first
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 1 and len(shards) == min(workers, total)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            shard_ranges(10, 0)
        with pytest.raises(ValueError, match="workers"):
            shard_ranges(5, 65)


class _NoPool:
    """A pool class that fails when constructed."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


# every library entry that takes a worker count, called with one too many
_TOO_MANY = MAX_WORKERS + 1
_WORKER_ENTRIES = {
    "CellExperimentConfig": lambda: cellsim.CellExperimentConfig(
        density=uniform_ball(2), replicates=1000, workers=_TOO_MANY),
    "DiameterExperimentConfig": lambda: cellsim.DiameterExperimentConfig(
        density=uniform_ball(2), n_grid=(10,), replicates=1000, workers=_TOO_MANY),
    "estimate_alpha_parallel": lambda: moments.estimate_alpha_parallel(
        2, 10**6, seed=0, workers=_TOO_MANY),
    "estimate_z_moment_parallel": lambda: moments.estimate_z_moment_parallel(
        2, 3, 10**6, inner=64, seed=0, workers=_TOO_MANY),
    "shard_pool": lambda: moments.shard_pool(_TOO_MANY, 10**6),
}


class TestWorkerBound:
    def test_one_bound_for_the_cli_and_the_library(self):
        assert MAX_WORKERS == cli.MAX_WORKERS == 64

    @pytest.mark.parametrize("entry", sorted(_WORKER_ENTRIES))
    def test_too_many_workers_rejected_before_any_pool(self, entry, monkeypatch):
        monkeypatch.setattr(moments, "ProcessPoolExecutor", _NoPool)
        monkeypatch.setattr(cellsim, "ProcessPoolExecutor", _NoPool)
        with pytest.raises(ValueError, match=f"workers must be in \\[1, {MAX_WORKERS}\\]"):
            _WORKER_ENTRIES[entry]()


# arguments that every library entry checks before it starts a pool
_CHECKED_BEFORE_POOL = {
    "z_moment-k1-samples": lambda: moments.estimate_z_moment_parallel(2, 1, -5, workers=2),
    "z_moment-k1-workers": lambda: moments.estimate_z_moment_parallel(2, 1, 10, workers=65),
    "z_moment-d0": lambda: moments.estimate_z_moment_parallel(0, 3, 100, 64, seed=1, workers=2),
    "z_moment-d436": lambda: moments.estimate_z_moment_parallel(
        436, 3, 100, 64, seed=1, workers=2),
    "z_moment-seed": lambda: moments.estimate_z_moment_parallel(
        2, 3, 100, 64, seed=-1, workers=2),
    "z_moment-stream": lambda: moments.estimate_z_moment_parallel(
        2, 3, 100, 64, seed=1, workers=2, stream_index=-1),
    "alpha-d0": lambda: moments.estimate_alpha_parallel(0, 100, seed=1, workers=2),
    "alpha-d436": lambda: moments.estimate_alpha_parallel(436, 100, seed=1, workers=2),
    "alpha-seed": lambda: moments.estimate_alpha_parallel(2, 100, seed=-1, workers=2),
    "alpha-seed-2**64": lambda: moments.estimate_alpha_parallel(2, 100, seed=2**64, workers=2),
    "CellExperimentConfig-seed": lambda: cellsim.CellExperimentConfig(
        uniform_ball(2), n=10, replicates=4, probes=10, seed=-1, workers=2),
    "DiameterExperimentConfig-seed": lambda: cellsim.DiameterExperimentConfig(
        uniform_ball(2), n_grid=(10,), replicates=4, probes=10, seed=-1, workers=2),
}


class TestCheckedBeforeAnyPool:
    @pytest.mark.parametrize("entry", sorted(_CHECKED_BEFORE_POOL))
    def test_bad_argument_rejected(self, entry, monkeypatch):
        monkeypatch.setattr(moments, "ProcessPoolExecutor", _NoPool)
        monkeypatch.setattr(cellsim, "ProcessPoolExecutor", _NoPool)
        with pytest.raises(ValueError):
            _CHECKED_BEFORE_POOL[entry]()


class TestSampleUnitBall:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_inside_ball(self, d):
        pts = sample_unit_ball_batch(d, 100_000, RandomStream(1, d))
        assert np.all(np.linalg.norm(pts, axis=1) <= 1.0)

    def test_radial_law(self):
        # ||Y||^d is uniform on [0, 1]
        for d in (1, 3):
            pts = sample_unit_ball_batch(d, 100_000, RandomStream(2, d))
            u = np.linalg.norm(pts, axis=1) ** d
            assert kstest(u, "uniform").statistic < 0.01

    def test_coordinate_symmetry(self):
        d = 3
        pts = sample_unit_ball_batch(d, 100_000, RandomStream(3))
        sigma = pts.std(axis=0) / math.sqrt(pts.shape[0])
        assert np.all(np.abs(pts.mean(axis=0)) <= 4 * sigma)

    def test_single_draw_shape(self):
        y = sample_unit_ball_batch(4, 1, RandomStream(4))
        assert y.shape == (1, 4) and np.linalg.norm(y) <= 1.0


class TestDensitySampling:
    def test_uniform_ball_support(self):
        m = uniform_ball(3, radius=2.0)
        pts = m.sample(RandomStream(5), 20_000)
        assert np.all(np.linalg.norm(pts, axis=1) <= 2.0)

    def test_uniform_cube_support(self):
        m = uniform_cube(2, side=1.0)
        pts = m.sample(RandomStream(6), 20_000)
        assert np.all(np.abs(pts) <= 0.5)

    def test_gaussian_mean(self):
        m = gaussian(1)
        pts = m.sample(RandomStream(7), 100_000)
        assert abs(pts.mean()) <= 4 / math.sqrt(100_000)

    def test_density_sample_single(self):
        y = uniform_ball(2).sample(RandomStream(8), 1)
        assert y.shape == (1, 2)

    def test_support_contains(self):
        assert uniform_ball(2).support_contains([0.5, 0.5])
        assert not uniform_ball(2).support_contains([1.0, 1.0])
        assert uniform_cube(2, side=2.0).support_contains([1.0, -1.0])
        assert gaussian(3).support_contains([10.0, 0.0, 0.0])


_MODELS = {"uniform-ball": lambda d: uniform_ball(d, radius=1.5), "gaussian": gaussian,
           "uniform-cube": lambda d: uniform_cube(d, side=2.0)}


def _nearest_peak_point(model: DensityModel, center, radius: float) -> np.ndarray:
    """A point of B(center, radius) where the density is largest: the point
    nearest the origin, or for the cube the point of the cube nearest center."""
    if model.kind == "uniform-cube":
        return np.clip(center, -model.scale / 2, model.scale / 2)
    norm = np.linalg.norm(center)
    return center * (1.0 - min(radius, norm) / norm)


def _support_tests_agree(model: DensityModel, points: np.ndarray) -> np.ndarray:
    """Check that support_contains(p), pdf(p) > 0 and pdf_max(p, 0) > 0 agree
    on every row p of points; the mask of the rows in the support."""
    inside = np.array([model.support_contains(p) for p in points])
    assert np.array_equal(model.pdf(points) > 0, inside)
    assert np.array_equal([model.pdf_max(p, 0.0) > 0 for p in points], inside)
    return inside


# |x| rounds to at most 1 through a BLAS dot, but not through row_sq_norms
_ON_THE_CIRCLE = [-0.2051315157116406, 0.9787344181451091]


class TestDensityPdf:
    # a point on the boundary lies in the support or not by a rounding, which
    # the support test, the density and its supremum must make alike
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_support_tests_agree_on_the_sphere(self, d):
        g = RandomStream(72, d).standard_normal((2000, d))
        sphere = g / np.linalg.norm(g, axis=1, keepdims=True)
        for radius in (1.0, 2.5):
            inside = _support_tests_agree(uniform_ball(d, radius), radius * sphere)
            assert 0 < inside.sum() < len(sphere)  # both roundings occur

    def test_support_tests_agree_on_a_known_point(self):
        assert not _support_tests_agree(uniform_ball(2), np.array([_ON_THE_CIRCLE])).any()

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_support_tests_agree_on_the_cube_faces(self, d):
        side = 0.7
        pts = side * (RandomStream(73, d).random((2000, d)) - 0.5)
        # one coordinate of each point on a face, then one ulp out of it
        rows, face = np.arange(len(pts)), np.arange(len(pts)) % d
        pts[rows, face] = np.where(rows % 2, side / 2, -side / 2)
        out = pts.copy()
        out[rows, face] = np.nextafter(pts[rows, face], np.sign(pts[rows, face]) * math.inf)
        model = uniform_cube(d, side)
        assert _support_tests_agree(model, pts).all()
        assert not _support_tests_agree(model, out).any()

    @pytest.mark.parametrize("kind", sorted(_MODELS))
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_pdf_max_bounds_pdf_and_is_attained(self, kind, d):
        m = _MODELS[kind](d)
        rng = RandomStream(70, d)
        for _ in range(20):
            center = 1.5 * m.sample(rng, 1)[0]
            radius = float(rng.random()) + 0.05
            peak = m.pdf_max(center, radius)
            pts = center + radius * sample_unit_ball_batch(d, 2000, rng)
            assert np.all(m.pdf(pts) <= peak)
            if peak > 0:
                best = _nearest_peak_point(m, center, radius)
                assert np.linalg.norm(best - center) <= radius * (1 + 1e-12)
                assert m.pdf(best)[0] == pytest.approx(peak, rel=1e-12)

    def test_pdf_max_away_from_the_support_is_zero(self):
        assert uniform_ball(2).pdf_max([3.0, 0.0], 1.5) == 0.0
        assert uniform_cube(2, side=2.0).pdf_max([2.0, 2.0], 1.4) == 0.0
        assert uniform_cube(2, side=2.0).pdf_max([2.0, 2.0], 1.5) == 0.25

    @pytest.mark.parametrize("kind", sorted(_MODELS))
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_pdf_integrates_to_one(self, kind, d):
        # uniform points of a ball holding all but 1e-6 of the mass
        reach = {"uniform-ball": 2.0, "gaussian": 6.0, "uniform-cube": math.sqrt(d) + 0.5}[kind]
        m = _MODELS[kind](d)
        vol = math.pi ** (d / 2) / math.gamma(d / 2 + 1) * reach**d
        vals = vol * m.pdf(reach * sample_unit_ball_batch(d, 200_000, RandomStream(71, d)))
        assert abs(vals.mean() - 1.0) <= 4 * vals.std(ddof=1) / math.sqrt(vals.size)


class TestDensityGrammar:
    @pytest.mark.parametrize(
        "bad",
        [
            "uniform-ball", "uniform-ball:radius=1", "cube:side=1", "gauss", "uniform-cube:side=",
            "uniform-ball:r=inf", "uniform-cube:side=inf",
            "uniform-ball:r=1e101", "uniform-cube:side=9e-101",
        ],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_density(bad, 2)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            DensityModel(kind="laplace", dimension=1)
        with pytest.raises(ValueError):
            uniform_ball(0)
        with pytest.raises(ValueError):
            uniform_cube(2, side=0.0)
        # the gaussian is standard: one scale field, which it may not ignore
        with pytest.raises(ValueError, match="scale must be 1"):
            DensityModel(kind="gaussian", dimension=2, scale=2.0)


class TestBallMeasure:
    def test_uniform_ball_similarity(self):
        # centered balls scale as r^d
        for d in (1, 2, 3, 6):
            m = uniform_ball(d)
            for r in (0.0, 0.25, 0.5, 1.0):
                assert m.ball_measure_batch(np.zeros(d), r) == pytest.approx(r**d, abs=1e-14)

    def test_huge_radius_is_one(self):
        for m in (uniform_ball(2), gaussian(2)):
            assert m.ball_measure_batch([0.1, 0.0], 1e9) == pytest.approx(1.0, abs=1e-9)
            assert m.ball_measure_batch([0.1, 0.0], math.inf) == 1.0

    def test_gaussian_d1_unit_radius(self):
        m = gaussian(1)
        got = m.ball_measure_batch([0.0], 1.0)
        oracle = gaussian_ball_measure_quad(1, 0.0, 1.0)
        assert oracle == pytest.approx(GAUSS_D1_R1, abs=1e-12)
        assert got == pytest.approx(GAUSS_D1_R1, abs=1e-10)

    def test_gaussian_off_center_vs_quadrature(self):
        for d, a, r in [(2, 0.7, 1.3), (3, 1.5, 0.8), (1, 0.4, 2.0)]:
            center = np.zeros(d)
            center[0] = a
            got = gaussian(d).ball_measure_batch(center, r)
            assert got == pytest.approx(gaussian_ball_measure_quad(d, a, r), abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("norm", [8.0, 12.0])
    def test_gaussian_far_tail_vs_poisson_mixture(self, d, norm):
        center = np.zeros(d)
        center[-1] = norm
        radii = np.array([0.5, 1.0, 2.0, 4.0, norm - 1.0, norm, norm + 2.0])
        got = gaussian(d).ball_measure_batch(center, radii)
        expected = [gaussian_ball_measure_poisson(d, norm, r) for r in radii]
        # relative: the smallest of these measures is about 1e-32
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("norm", [8.0, 12.0, 20.0, 30.0])
    def test_gaussian_far_tail_vs_mpmath(self, d, norm):
        center = np.zeros(d)
        center[0] = norm
        radii = np.array([0.5, 1.0, 2.0, 4.0, norm - 1.0, norm, norm + 2.0])
        got = gaussian(d).ball_measure_batch(center, radii)
        expected = [gaussian_ball_measure_mpmath(d, norm, r) for r in radii]
        # down to about 1e-193 at |x| = 30; ncx2.cdf gave 0 at |x| = 20, r = 1
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_uniform_ball_off_center_vs_quadrature(self):
        m = uniform_ball(3, radius=1.2)
        center = np.array([0.6, 0.0, 0.0])
        got = m.ball_measure_batch(center, 0.9)
        lens, err = lens_volume_quad(3, 1.2, 0.9, 0.6)
        support = 1.2**3 * 4 * math.pi / 3
        assert got == pytest.approx(lens / support, abs=max(1e-10, 10 * err))

    def test_negative_radius_rejected(self):
        for m in (uniform_ball(1), gaussian(1)):
            for bad in (-0.5, math.nan):
                with pytest.raises(ValueError):
                    m.ball_measure_batch([0.0], [0.5, bad])

    def test_monotone_in_radius_exact_models(self):
        rng = np.random.default_rng(20)
        for m in (uniform_ball(2), gaussian(2)):
            center = np.array([0.4, -0.1])
            for _ in range(30):
                r1, r2 = np.sort(rng.uniform(0, 2.5, 2))
                assert m.ball_measure_batch(center, r1) <= m.ball_measure_batch(center, r2)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cube_has_no_ball_measure(self, d):
        # the cube keeps its sampler and support test, which cell and diam use
        with pytest.raises(ValueError, match="uniform-cube"):
            uniform_cube(d, side=2.0).ball_measure_batch(np.zeros(d), [0.5, 1.0])


class TestProbabilityIntegralTransform:
    """mu(B(x, ||X - x||)) with X ~ mu is uniform on [0, 1]."""

    @pytest.mark.parametrize(
        "model,x",
        [
            (uniform_ball(2), [0.0, 0.0]),
            (uniform_ball(2), [0.4, -0.3]),
            (gaussian(2), [0.0, 0.0]),
            (gaussian(2), [0.7, 0.2]),
        ],
    )
    def test_pit_uniform(self, model, x):
        rng = RandomStream(21, {"uniform-ball": 0, "gaussian": 1}[model.kind])
        draws = model.sample(rng, 10_000)
        x = np.asarray(x)
        radii = np.linalg.norm(draws - x, axis=1)
        u = model.ball_measure_batch(x, radii)
        assert kstest(u, "uniform").statistic < 0.02
