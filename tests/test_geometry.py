import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import betainc

from vorlab import geometry
from vorlab.geometry import (
    MAX_DIM,
    Ball,
    Estimate,
    _stats,
    ball_intersection_volume,
    ball_intersection_volumes,
    _exact_block_rows,
    exact_union_volumes,
    interval_union_length,
    row_sq_norms,
    two_ball_union_volume,
    union_volume_mc,
    union_volume_mc_values,
    unit_ball_volume,
)
from vorlab.sampling import RandomStream, sample_unit_ball_batch

import oracles
from oracles import (
    ball_volume_gamma,
    disk_union_area_chords,
    hit_or_miss_union,
    lens_volume_quad,
    random_rotation,
    two_disk_union_area_mpmath,
    union_volume_mc_values_reference,
)

# frozen closed forms, re-derived below against the quadrature oracle
LENS_D2 = 2 * math.pi / 3 - math.sqrt(3) / 2  # 1.2283696986087568
LENS_D3 = 5 * math.pi / 12  # 1.3089969389957472


class TestRowSqNorms:
    # below 8 columns the column loop adds left to right, numpy's own order
    # there; from 8 on numpy's pairwise sum is used, so every width matches
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 20, MAX_DIM])
    def test_equals_numpy_sum(self, d):
        rng = np.random.default_rng(d)
        for shape in ((3000, d), (4, 500, d)):
            v = rng.standard_normal(shape) * np.exp(rng.uniform(-20, 20, shape))
            got = row_sq_norms(v)
            want = (v * v).sum(axis=-1)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_strided_view(self):
        v = np.random.default_rng(9).standard_normal((1000, 6))[:, ::2]
        assert np.array_equal(row_sq_norms(v), (v * v).sum(axis=-1))
        # wide rows are summed in blocks of the first axis; a 1-d input is one row
        rng = np.random.default_rng(10)
        v = rng.standard_normal((2500, 40)) * 10.0 ** rng.uniform(-17, 17, (2500, 40))
        for w in (v[::3, ::2], v[0], v[:, 1:30].T):
            assert np.array_equal(row_sq_norms(w), (w * w).sum(axis=-1))

    def test_wide_rows_take_no_second_array(self):
        # at d = 8 a 2^16-point batch peaks at its 4.2 MB result and one
        # block of squares, not at twice the result
        rng = RandomStream(8)
        sample_unit_ball_batch(8, 16, rng)
        tracemalloc.start()
        try:
            sample_unit_ball_batch(8, 2**16, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestUnitBallVolume:
    def test_low_dimensions_exact(self):
        assert unit_ball_volume(1) == 2.0
        assert unit_ball_volume(2) == math.pi
        assert unit_ball_volume(4) == math.pi**2 / 2

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 30, 100, 200])
    def test_matches_gamma_formula(self, d):
        assert unit_ball_volume(d) == pytest.approx(ball_volume_gamma(d), rel=1e-13)

    @pytest.mark.parametrize("d", [0, -1, MAX_DIM + 1, 453])
    def test_rejects_bad_dimension(self, d):
        with pytest.raises(ValueError):
            unit_ball_volume(d)

    def test_normal_up_to_max_dim(self):
        assert unit_ball_volume(MAX_DIM) >= sys.float_info.min
        # pi^(d/2) / Gamma(d/2 + 1) in log space: Gamma overflows a double here
        log_v = MAX_DIM / 2 * math.log(math.pi) - math.lgamma(MAX_DIM / 2 + 1)
        assert unit_ball_volume(MAX_DIM) == pytest.approx(math.exp(log_v), rel=1e-11)


class TestBall:
    def test_volume_and_dimension(self):
        b = Ball([0.0, 0.0, 0.0], 2.0)
        assert b.dimension == 3
        assert b.volume == pytest.approx(8 * unit_ball_volume(3))

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            Ball([0.0], -0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Ball([math.nan], 1.0)
        with pytest.raises(ValueError):
            Ball([0.0], math.inf)


class TestIntersectionVolume:
    def test_identical_balls(self):
        for d in (1, 2, 3, 7):
            b = Ball(np.zeros(d), 1.0)
            assert ball_intersection_volume(b, b) == unit_ball_volume(d)

    def test_disjoint(self):
        a = Ball([0.0, 0.0], 1.0)
        b = Ball([3.0, 0.0], 1.5)
        assert ball_intersection_volume(a, b) == 0.0

    def test_lens_closed_forms(self):
        # spot values: equal unit balls at center distance one
        a2 = Ball([0.0, 0.0], 1.0)
        b2 = Ball([1.0, 0.0], 1.0)
        assert ball_intersection_volume(a2, b2) == pytest.approx(LENS_D2, abs=1e-10)
        a3 = Ball([0.0, 0.0, 0.0], 1.0)
        b3 = Ball([1.0, 0.0, 0.0], 1.0)
        assert ball_intersection_volume(a3, b3) == pytest.approx(LENS_D3, abs=1e-10)

    def test_lens_quadrature_oracle(self):
        val2, err2 = lens_volume_quad(2, 1.0, 1.0, 1.0)
        assert val2 == pytest.approx(LENS_D2, abs=max(1e-10, 10 * err2))
        val3, err3 = lens_volume_quad(3, 1.0, 1.0, 1.0)
        assert val3 == pytest.approx(LENS_D3, abs=max(1e-10, 10 * err3))

    def test_random_instances_match_quadrature(self):
        rng = np.random.default_rng(42)
        for d in (1, 2, 3, 4, 6):
            for _ in range(8):
                r1, r2 = rng.uniform(0.2, 2.0, 2)
                dist = rng.uniform(0.0, r1 + r2 + 0.5)
                a = Ball(np.zeros(d), r1)
                c = np.zeros(d)
                c[0] = dist
                b = Ball(c, r2)
                expected, err = lens_volume_quad(d, r1, r2, dist)
                got = ball_intersection_volume(a, b)
                assert got == pytest.approx(expected, abs=max(1e-9, 10 * err))

    def test_symmetry_and_rigid_motion_invariance(self):
        rng = np.random.default_rng(7)
        for d in (2, 3):
            for _ in range(10):
                c1, c2 = rng.standard_normal((2, d))
                r1, r2 = rng.uniform(0.3, 1.5, 2)
                a, b = Ball(c1, r1), Ball(c2, r2)
                base = ball_intersection_volume(a, b)
                assert ball_intersection_volume(b, a) == base
                rot = random_rotation(d, rng)
                shift = rng.standard_normal(d)
                am = Ball(rot @ c1 + shift, r1)
                bm = Ball(rot @ c2 + shift, r2)
                assert ball_intersection_volume(am, bm) == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_bounded_by_smaller_ball(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = rng.integers(1, 5)
            c1, c2 = rng.standard_normal((2, d))
            r1, r2 = rng.uniform(0.0, 2.0, 2)
            a, b = Ball(c1, r1), Ball(c2, r2)
            v = ball_intersection_volume(a, b)
            assert 0.0 <= v <= min(a.volume, b.volume) * (1 + 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ball_intersection_volume(Ball([0.0], 1.0), Ball([0.0, 0.0], 1.0))

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 25])
    def test_degenerate_pairs_batch_equals_scalar(self, d):
        # zero distances and radii, containment, tangency and disjoint pairs
        # in one batch: no warning, and each value is that of its own call
        r1 = np.array([0.0, 0.0, 1.0, 1.0, 0.5, 0.7, 1.0, 0.3, 1.2, 0.9])
        r2 = np.array([0.0, 1.0, 1.0, 0.4, 0.0, 0.2, 0.6, 0.3, 0.8, 0.5])
        s = np.array([0.0, 0.5, 0.0, 0.0, 2.0, 0.5, 1.6, 0.6, 0.9, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = ball_intersection_volumes(d, r1, r2, s)
            single = [float(ball_intersection_volumes(d, a, b, c)) for a, b, c in zip(r1, r2, s)]
            grid = ball_intersection_volumes(d, r1[:, None], r2[None, :], s[:, None])
        assert batch.shape == (10,) and grid.shape == (10, 10)
        assert batch.tolist() == single
        assert np.array_equal(np.diagonal(grid), batch)
        v = unit_ball_volume(d)
        assert batch[:4].tolist() == [0.0, 0.0, v, v * np.power(np.float64(0.4), d)]
        assert batch[4] == 0.0 and batch[6] == 0.0

    def test_high_dimension_stability(self):
        # the cap evaluation must stay finite and ordered up to d ~ 200
        d = 200
        dists = np.linspace(0.05, 1.95, 40)
        vols = ball_intersection_volumes(d, 1.0, 1.0, dists)
        assert np.all(np.isfinite(vols))
        assert np.all(np.diff(vols) <= 1e-15)
        assert vols[0] <= unit_ball_volume(d)


class TestCapKernel:
    """The elementary I_x((d+1)/2, 1/2) behind the cap volumes, against betainc."""

    # dense on a log scale from 1e-300 and on a linear scale up to 1
    X = np.unique(np.concatenate([
        np.logspace(-300, 0, 3001), np.logspace(-8, 0, 40001), np.linspace(0.0, 1.0, 40001),
    ]))

    # up to d = 20, one above the cut-over, where the caps call betainc
    @pytest.mark.parametrize("d", range(1, 21))
    def test_matches_betainc(self, d):
        ref = betainc((d + 1) / 2, 0.5, self.X)
        got = geometry._cap_fraction(d, self.X)
        tiny = np.finfo(float).tiny
        normal = ref >= tiny
        assert np.max(np.abs(got[normal] - ref[normal]) / ref[normal]) <= 1e-13
        # where the value underflows, both are 0 or subnormal
        assert np.all(np.abs(got[~normal] - ref[~normal]) <= tiny)

    @pytest.mark.parametrize("d", [2, 7, 20])
    def test_each_value_ignores_the_rest_of_the_batch(self, d):
        x = self.X[::97]
        alone = [geometry._cap_fraction(d, x[i:i + 1])[0] for i in range(x.size)]
        assert geometry._cap_fraction(d, x).tolist() == alone


def _pairs(d: int, n: int = 5000):
    """n (r1, r2, dist) pairs: random lenses, and in the first rows every
    degenerate case the branches must separate."""
    rng = np.random.default_rng(1000 + d)
    r1 = rng.exponential(1.0, n)
    r2 = rng.exponential(1.0, n)
    dist = rng.uniform(0.0, 1.2, n) * (r1 + r2)
    dist[0:10] = 0.0  # concentric
    r1[10:16] = 0.0  # a point ball, inside or outside the other
    r2[14:20] = 0.0
    r2[20:30] = r1[20:30]  # equal radii, some concentric
    dist[26:28] = 0.0
    dist[30:38] = r1[30:38] + r2[30:38]  # externally tangent
    dist[38:46] = np.abs(r1[38:46] - r2[38:46])  # internally tangent
    dist[46:54] = 0.5 * np.abs(r1[46:54] - r2[46:54])  # contained
    dist[54:62] = 2.0 * (r1[54:62] + r2[54:62])  # disjoint
    return r1, r2, dist


class TestKernelsMatchReference:
    """The blocked, in-place two-ball kernels against the whole-array
    reference of tests/oracles.py: the same floating-point operations, so
    equal bit for bit, on each branch of the cap kernel and for every
    input shape."""

    # every d of the elementary kernel, the betainc branch above d = 19
    @pytest.mark.parametrize("d", [*range(1, 22), 30])
    def test_batch(self, d):
        r1, r2, dist = _pairs(d)
        got = ball_intersection_volumes(d, r1, r2, dist)
        assert not np.any(np.isnan(got))
        assert np.array_equal(got, oracles.ball_intersection_volumes(d, r1, r2, dist))

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 20, 21])
    def test_scalar(self, d):
        r1, r2, dist = _pairs(d, 80)
        for a, b, c in zip(r1.tolist(), r2.tolist(), dist.tolist()):
            got = ball_intersection_volumes(d, a, b, c)
            assert got.shape == () and got == oracles.ball_intersection_volumes(d, a, b, c)

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 20, 21])
    def test_broadcast_grid(self, d):
        r1, r2, dist = _pairs(d, 64)
        grid = (r1[:16, None, None], r2[None, :16, None], dist[None, None, :])
        got = ball_intersection_volumes(d, *grid)
        assert got.shape == (16, 16, 64)
        assert np.array_equal(got, oracles.ball_intersection_volumes(d, *grid))
        # a scalar radius against a column of radii, as w_and_lens calls it
        col = (1.0, r2[:, None], dist[None, :8])
        assert np.array_equal(ball_intersection_volumes(d, *col),
                              oracles.ball_intersection_volumes(d, *col))

    @pytest.mark.parametrize("d", [2, 7, 20])
    def test_cap_fraction(self, d):
        x = TestCapKernel.X
        before = x.copy()
        assert np.array_equal(geometry._cap_fraction(d, x), oracles._cap_fraction(d, x))
        assert np.array_equal(x, before)  # the input is not written


class TestTwoBallUnion:
    def test_disjoint_adds(self):
        a = Ball([0.0, 0.0], 1.0)
        b = Ball([5.0, 0.0], 0.5)
        assert two_ball_union_volume(a, b) == a.volume + b.volume

    def test_nested_is_outer(self):
        a = Ball([0.0, 0.0, 0.0], 2.0)
        b = Ball([0.5, 0.0, 0.0], 0.5)
        assert two_ball_union_volume(a, b) == a.volume

    def test_d1_interval_union(self):
        # [0, 2] union [-1, 0] has length 3
        a = Ball([1.0], 1.0)
        b = Ball([-0.5], 0.5)
        assert two_ball_union_volume(a, b) == pytest.approx(3.0, abs=1e-15)

    def test_between_max_and_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            d = rng.integers(1, 5)
            a = Ball(rng.standard_normal(d), rng.uniform(0.1, 2))
            b = Ball(rng.standard_normal(d), rng.uniform(0.1, 2))
            u = two_ball_union_volume(a, b)
            assert max(a.volume, b.volume) - 1e-12 <= u <= a.volume + b.volume + 1e-12


class TestEstimateOf:
    """The one rule from a sample's (count, mean, M2) to an estimate."""

    def test_numpy_mean_and_stderr_bit_for_bit(self):
        x = 5.0 + 3.0 * np.random.default_rng(15).standard_normal(1001)
        est = Estimate.of(_stats(x))
        assert est == Estimate(float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size)), x.size)

    def test_one_value(self):
        assert Estimate.of(_stats(np.array([2.5]))) == Estimate(2.5, 0.0, 1)

    def test_constant_sample_is_exact(self):
        # numpy's mean of seven 0.1s is not 0.1
        x = np.full(7, 0.1)
        assert float(x.mean()) != 0.1
        assert Estimate.of(_stats(x)) == Estimate(0.1, 0.0, 7)

    @pytest.mark.parametrize("x", [[math.inf], [math.inf] * 3, [1.0, math.inf, 2.0],
                                   [math.inf, 0.5]])
    def test_infinite_mean_has_infinite_stderr(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = Estimate.of(_stats(np.array(x)))
        assert est == Estimate(math.inf, math.inf, len(x))


class _NearOne:
    """A stream whose uniforms all read as the largest double below 1, so
    that every draw comes from the last ball, at the edge of its radius;
    it takes the same draws from the wrapped stream as that stream would."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, size=None):
        return np.full(np.shape(self.rng.random(size)), 1.0 - 2.0**-53)

    def standard_normal(self, size=None):
        return self.rng.standard_normal(size)


class TestUnionKernelBits:
    """The coordinate-column union kernel takes the draws of the row form
    (tests/oracles.py) and leaves its stream where the row form leaves it.
    It returns the row form's bits, except that from d = 8 on it sums the
    squares of a row left to right where the row form sums them pairwise:
    that can move only a draw within a few ulps of a ball's surface."""

    @staticmethod
    def run_both(centers, radii, samples, seed, wrap=lambda rng: rng):
        """The kernel's values and the row form's, from the same stream."""
        a, b = RandomStream(seed), RandomStream(seed)
        got = union_volume_mc_values(centers, radii, samples, wrap(a))
        want = union_volume_mc_values_reference(centers, radii, samples, wrap(b))
        assert a.random() == b.random()
        return got, want

    def assert_same(self, centers, radii, samples, seed, wrap=lambda rng: rng):
        got, want = self.run_both(centers, radii, samples, seed, wrap)
        assert np.array_equal(got, want)
        return want

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 20, 60, 129])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_random_rows(self, d, k):
        rng = np.random.default_rng(100 * d + k)
        centers = rng.uniform(-0.6, 0.6, (5, k, d))
        if d > 20:  # so that the balls still meet
            centers /= math.sqrt(d)
        radii = rng.uniform(0.05, 1.0, (5, k))
        radii[0] = 0.0
        want = self.assert_same(centers, radii, 257, d + k)
        assert np.all(want[0] == 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 20])
    def test_nested_pair(self, d):
        centers = np.zeros((1, 2, d))
        centers[0, 1, 0] = 0.1
        want = self.assert_same(centers, np.array([[1.0, 0.8]]), 400, 30 + d)
        # draws in the inner ball meet both balls, the others one
        assert set(np.unique(want * 2.0 / want.max())) == {1.0, 2.0}

    @pytest.mark.parametrize("d", [2, 3, 8, 20])
    def test_draws_on_the_boundary(self, d):
        # two equal balls, every draw at the edge of the second: rounding
        # puts some of them outside the first, and keeps them in the second.
        # Below d = 8 the kernel rounds as the row form; above, which draws
        # fall outside may differ, but each counts once or twice
        centers = np.tile(np.linspace(-0.7, 0.4, d), (1, 2, 1))
        radii = np.full((1, 2), 0.37)
        got, want = self.run_both(centers, radii, 1000, 40 + d, _NearOne)
        total = 2 * Ball(centers[0, 0], 0.37).volume
        if d < 8:
            assert np.array_equal(got, want)
        assert np.all((got == total) | (got == total / 2))
        assert np.any(got == total) and np.any(got == total / 2)


class TestUnionVolumeMC:
    def test_single_ball_exact_zero_variance(self):
        b = Ball([0.3, -0.2], 1.7)
        est = union_volume_mc([b], 500, RandomStream(0))
        assert est.value == b.volume
        assert est.stderr == 0.0
        values = union_volume_mc_values(
            b.center[None, None, :], np.array([[b.radius]]), 500, RandomStream(1)
        )[0]
        assert np.all(values == values[0])

    def test_two_balls_vs_exact(self):
        a = Ball([0.0, 0.0, 0.0], 1.0)
        b = Ball([0.8, 0.3, 0.0], 0.9)
        est = union_volume_mc([a, b], 40000, RandomStream(2))
        exact = two_ball_union_volume(a, b)
        assert abs(est.value - exact) <= 4 * est.stderr

    def test_d1_three_intervals_vs_sweep(self):
        balls = [Ball([0.0], 1.0), Ball([1.5], 0.7), Ball([-2.0], 0.4)]
        est = union_volume_mc(balls, 40000, RandomStream(3))
        exact = interval_union_length(
            [(b.center[0] - b.radius, b.center[0] + b.radius) for b in balls]
        )
        assert abs(est.value - exact) <= 4 * est.stderr

    def test_vs_hit_or_miss_oracle(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            centers = rng.uniform(-1, 1, (3, d))
            radii = rng.uniform(0.3, 1.0, 3)
            balls = [Ball(c, r) for c, r in zip(centers, radii)]
            est = union_volume_mc(balls, 60000, RandomStream(6))
            oracle, oracle_se = hit_or_miss_union(centers, radii, 200000, np.random.default_rng(7))
            assert abs(est.value - oracle) <= 4 * math.hypot(est.stderr, oracle_se)

    def test_zero_radius_only(self):
        balls = [Ball([0.0, 0.0], 0.0), Ball([1.0, 1.0], 0.0)]
        est = union_volume_mc(balls, 100, RandomStream(8))
        assert est.value == 0.0 and est.stderr == 0.0

    def test_monotone_under_added_ball(self):
        # nested lists with common random numbers: expectation can only grow
        a = Ball([0.0, 0.0], 1.0)
        b = Ball([1.2, 0.0], 0.8)
        c = Ball([-1.0, 0.5], 0.6)
        small = union_volume_mc([a, b], 30000, RandomStream(9))
        big = union_volume_mc([a, b, c], 30000, RandomStream(9))
        assert big.value >= small.value - 4 * math.hypot(small.stderr, big.stderr)

    def test_one_chunk_is_the_plain_mean_and_std(self):
        # up to one chunk of draws, the estimate is numpy's mean and
        # std(ddof=1) / sqrt(m) of the same draws, bit for bit
        balls = [Ball([0.0, 0.0], 1.0), Ball([0.9, 0.2], 0.7), Ball([-0.4, 0.6], 0.5)]
        m = 5000
        est = union_volume_mc(balls, m, RandomStream(10))
        values = union_volume_mc_values(
            np.stack([b.center for b in balls])[None], np.array([[b.radius for b in balls]]),
            m, RandomStream(10),
        )[0]
        assert est.value == float(values.mean())
        assert est.stderr == float(values.std(ddof=1) / math.sqrt(m))

    def test_constant_draws_exact_across_chunks(self):
        for d in (3, 20, 200):
            b = Ball(np.linspace(-0.2, 0.3, d), 1.3)
            m = 3 * min(geometry._MC_CHUNK, geometry._MC_COORDS // d) + 5
            est = union_volume_mc([b], m, RandomStream(11))
            assert (est.value, est.stderr, est.samples) == (b.volume, 0.0, m)

    @pytest.mark.parametrize("d", [2, 4, 20, 200])
    def test_chunks_bound_draws_and_coordinates(self, monkeypatch, d):
        # up to d = 4 a chunk is _MC_CHUNK draws; above, _MC_COORDS coordinates
        calls = []

        def recording(centers, radii, samples, rng):
            calls.append(samples)
            return union_volume_mc_values(centers, radii, samples, rng)

        monkeypatch.setattr(geometry, "union_volume_mc_values", recording)
        balls = [Ball(np.zeros(d), 1.0), Ball(np.full(d, 0.5 / math.sqrt(d)), 0.8)]
        union_volume_mc(balls, 70_000, RandomStream(13))
        chunk = geometry._MC_CHUNK if d <= 4 else geometry._MC_COORDS // d
        assert calls == [chunk] * (70_000 // chunk) + [70_000 % chunk] * (70_000 % chunk > 0)

    def test_memory_bounded_in_samples(self):
        # one call for all 1e6 draws would hold about 96 bytes per draw
        balls = [Ball([1.0, 0.0], 1.0), Ball([-0.3, 0.2], 0.4), Ball([0.1, 0.5], 0.5)]
        tracemalloc.start()
        try:
            est = union_volume_mc(balls, 1_000_000, RandomStream(12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6
        assert est.samples == 1_000_000 and est.stderr > 0.0

    def test_memory_bounded_in_dimension(self):
        # at d = 200 one chunk of _MC_CHUNK draws would hold 105 MB of points
        balls = [Ball(np.zeros(200), 1.0), Ball(np.full(200, 0.01), 1.0)]
        tracemalloc.start()
        try:
            est = union_volume_mc(balls, 1 << 16, RandomStream(14))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6
        assert est.samples == 1 << 16 and est.stderr > 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            union_volume_mc([], 10, RandomStream(0))
        with pytest.raises(ValueError):
            union_volume_mc([Ball([0.0], 1.0), Ball([0.0, 0.0], 1.0)], 10, RandomStream(0))


class TestIntervalUnionLength:
    def test_examples(self):
        assert interval_union_length([(0, 1)]) == 1.0
        assert interval_union_length([(0, 1), (0.5, 2)]) == 2.0
        assert interval_union_length([(0, 1), (2, 3)]) == 2.0

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            interval_union_length([(1.0, 0.0)])

    def test_random_properties(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            k = rng.integers(1, 8)
            lo = rng.uniform(-5, 5, k)
            hi = lo + rng.uniform(0, 3, k)
            ivals = list(zip(lo, hi))
            total = interval_union_length(ivals)
            assert max(hi - lo) - 1e-12 <= total <= (hi - lo).sum() + 1e-12
            shuffled = [ivals[i] for i in rng.permutation(k)]
            assert interval_union_length(shuffled) == total


# degenerate disk sets: (centers, radii)
_DEGENERATE_DISKS = {
    "nested": ([[0.0, 0.0], [0.2, 0.1], [0.5, 0.0]], [1.0, 0.5, 0.3]),
    "coincident": ([[0.3, 0.2], [0.3, 0.2], [1.0, 0.2]], [0.8, 0.8, 0.6]),
    "tangent-outside": ([[0.0, 0.0], [1.5, 0.0], [0.0, 1.25]], [1.0, 0.5, 0.25]),
    "tangent-inside": ([[0.0, 0.0], [0.5, 0.0], [-0.25, 0.3]], [1.0, 0.5, 0.6]),
    # every circle of an order-k configuration passes through the origin
    "through-one-point": ([[1.0, 0.0], [0.0, 0.6], [-0.4, 0.0], [0.3, -0.4]],
                          [1.0, 0.6, 0.4, 0.5]),
    "zero-radius": ([[0.0, 0.0], [0.5, 0.0], [3.0, 0.0]], [1.0, 0.0, 0.0]),
}


def _random_disks(rng, k):
    """k disks that overlap in chains: centers in [-1, 1]^2, radii in [0.2, 1]."""
    return rng.uniform(-1.0, 1.0, (k, 2)), rng.uniform(0.2, 1.0, k)


class TestExactUnionVolumes:
    def test_two_disks_match_two_ball_union(self):
        rng = np.random.default_rng(80)
        c, r = rng.uniform(-1.0, 1.0, (2000, 2, 2)), rng.uniform(0.01, 1.0, (2000, 2))
        got = exact_union_volumes(c, r)
        exact = [two_disk_union_area_mpmath(a, ra, b, rb) for (a, b), (ra, rb) in zip(c, r)]
        assert np.allclose(got, exact, rtol=1e-14, atol=0.0)
        # the two-cap formula itself is off by up to 1.0e-13 here (against
        # the 40-digit lens), where a cap is thin: x = 1 - (h/r)^2 cancels
        caps = [two_ball_union_volume(Ball(a, ra), Ball(b, rb)) for (a, b), (ra, rb) in zip(c, r)]
        assert np.allclose(got, caps, rtol=2e-13, atol=0.0)

    def test_d1_matches_interval_sweep(self):
        rng = np.random.default_rng(81)
        for k in range(1, 7):
            c, r = rng.uniform(-1.0, 1.0, (200, k, 1)), rng.uniform(0.0, 1.0, (200, k))
            r[:, 0] = 0.0  # a point interval in every set
            got = exact_union_volumes(c, r)
            for g, cs, rs in zip(got, c[..., 0], r):
                assert g == pytest.approx(interval_union_length(zip(cs - rs, cs + rs)),
                                          rel=0.0, abs=4e-15)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_random_sets_match_chord_oracle(self, k):
        rng = np.random.default_rng(82 + k)
        for _ in range(4):
            c, r = _random_disks(rng, k)
            area, bound = disk_union_area_chords(c, r)
            assert abs(exact_union_volumes([c], [r])[0] - area) <= bound

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_random_sets_match_mixture_estimator(self, k):
        rng = np.random.default_rng(90 + k)
        for i in range(4):
            c, r = _random_disks(rng, k)
            est = union_volume_mc([Ball(a, b) for a, b in zip(c, r)], 1 << 16,
                                  RandomStream(91, 10 * k + i))
            assert abs(exact_union_volumes([c], [r])[0] - est.value) <= 4 * est.stderr

    @pytest.mark.parametrize("case", sorted(_DEGENERATE_DISKS))
    def test_degenerate_sets(self, case):
        c, r = (np.array(v, dtype=float) for v in _DEGENERATE_DISKS[case])
        got = exact_union_volumes([c], [r])[0]
        area, bound = disk_union_area_chords(c, r)
        assert abs(got - area) <= bound
        est = union_volume_mc([Ball(a, b) for a, b in zip(c, r)], 1 << 16, RandomStream(92))
        # coincident and nested sets can leave every draw the same value
        assert abs(got - est.value) <= 4 * est.stderr + 1e-12 * got

    def test_closed_values(self):
        # a disk with a copy of itself and a disk inside it; two disjoint
        # unit disks with a zero disk between them
        assert exact_union_volumes([[[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]],
                                   [[1.0, 1.0, 0.5]])[0] == pytest.approx(math.pi, rel=1e-15)
        assert exact_union_volumes([[[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]]],
                                   [[1.0, 1.0, 0.0]])[0] == pytest.approx(2 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("d", [1, 2])
    def test_blocks_give_each_set_its_own_value(self, d):
        # more sets than one block holds; each set's value is that of the
        # set alone, bit for bit
        k = 4
        rng = np.random.default_rng(93)
        n = 2 * _exact_block_rows(k) + 5
        c, r = rng.uniform(-1.0, 1.0, (n, k, d)), rng.uniform(0.0, 1.0, (n, k))
        got = exact_union_volumes(c, r)
        assert np.array_equal(got, [exact_union_volumes(a[None], b[None])[0]
                                    for a, b in zip(c, r)])

    def test_memory_bounded_in_sets(self):
        # 20000 sets of 6 disks: one (sets, k, 2k + 1) temporary of the
        # whole batch would be 12.5 MB; a block's is 64 KiB
        rng = np.random.default_rng(94)
        c, r = rng.uniform(-1.0, 1.0, (20000, 6, 2)), rng.uniform(0.2, 1.0, (20000, 6))
        tracemalloc.start()
        try:
            exact_union_volumes(c, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_rejects_d3(self):
        with pytest.raises(ValueError, match="d <= 2"):
            exact_union_volumes(np.zeros((1, 3, 3)), np.ones((1, 3)))
