import math

import numpy as np
import pytest
from scipy.stats import kstest

from vorlab.sampling import (
    DensityModel,
    RandomStream,
    gaussian,
    parse_density,
    sample_unit_ball_batch,
    shard_ranges,
    uniform_ball,
    uniform_cube,
)

from oracles import disk_square_overlap_quad, gaussian_ball_measure_quad, lens_volume_quad

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


class TestDensityGrammar:
    def test_round_trip(self):
        for spec, d in [("uniform-ball:r=1.5", 2), ("gaussian", 3), ("uniform-cube:side=2", 1)]:
            m = parse_density(spec, d)
            assert parse_density(m.spec_string(), d) == m

    @pytest.mark.parametrize(
        "bad",
        [
            "uniform-ball", "uniform-ball:radius=1", "cube:side=1", "gauss", "uniform-cube:side=",
            "uniform-ball:r=inf", "uniform-cube:side=inf",
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


class TestBallMeasure:
    def test_uniform_ball_similarity(self):
        # centered balls scale as r^d
        for d in (1, 2, 3, 6):
            m = uniform_ball(d)
            for r in (0.0, 0.25, 0.5, 1.0):
                assert m.ball_measure_batch(np.zeros(d), r) == pytest.approx(r**d, abs=1e-14)

    def test_huge_radius_is_one(self):
        for m in (uniform_ball(2), gaussian(2), uniform_cube(2)):
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

    def test_uniform_ball_off_center_vs_quadrature(self):
        m = uniform_ball(3, radius=1.2)
        center = np.array([0.6, 0.0, 0.0])
        got = m.ball_measure_batch(center, 0.9)
        lens, err = lens_volume_quad(3, 1.2, 0.9, 0.6)
        support = 1.2**3 * 4 * math.pi / 3
        assert got == pytest.approx(lens / support, abs=max(1e-10, 10 * err))

    def test_cube_d1_exact_interval(self):
        m = uniform_cube(1, side=2.0)
        v, err = m.ball_measure_with_error([0.3], 0.5)
        # interval [-0.2, 0.8] within [-1, 1] has measure 0.5
        assert v == pytest.approx(0.5, abs=max(4 * err, 1e-3))
        assert err > 0.0

    def test_cube_d2_vs_quadrature(self):
        m = uniform_cube(2, side=2.0)
        center = np.array([0.4, -0.2])
        v, err = m.ball_measure_with_error(center, 0.9)
        oracle = disk_square_overlap_quad(center, 0.9, 2.0) / 4.0
        assert v == pytest.approx(oracle, abs=max(4 * err, 1e-3))

    def test_negative_radius_rejected(self):
        for m in (uniform_ball(1), gaussian(1), uniform_cube(1)):
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

    def test_monotone_in_radius_cube(self):
        # fixed QMC node set makes the numeric estimate exactly monotone
        m = uniform_cube(2, side=2.0)
        center = np.array([0.3, 0.3])
        vals = m.ball_measure_batch(center, [0.2, 0.5, 0.9, 1.4, 2.5])
        assert np.all(np.diff(vals) >= 0)


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
