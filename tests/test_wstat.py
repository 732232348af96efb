import math

import numpy as np
import pytest
from scipy.stats import kstest

from vorlab.geometry import Ball, interval_union_length, union_volume_mc
from vorlab.moments import estimate_z_moment_parallel
from vorlab.sampling import RandomStream, sample_unit_ball_batch
from vorlab.wstat import sample_w_batch, w_and_lens, wk_exact_values, wk_mc_values

from oracles import sample_w_batch_reference


class TestWGivenCenter:
    def test_d1_right_half_is_one(self):
        # the random ball is swallowed by the fixed one for y >= 0
        assert w_and_lens([[0.5], [0.25]])[0].tolist() == [1.0, 1.0]

    def test_d1_left_half_is_one_plus_u(self):
        w = w_and_lens([[-0.5], [-0.8]])[0]
        assert w[0] == 1.5
        assert w[1] == pytest.approx(1.8, abs=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_zero_center_is_one(self, d):
        assert w_and_lens(np.zeros((1, d)))[0][0] == 1.0

    def test_matches_batch_formula(self):
        # each row's value does not depend on the batch it is evaluated in,
        # and the sampler is the kernel applied to its own center draws,
        # followed by their mirrors (-y1, y2, y3)
        ys = sample_unit_ball_batch(3, 100, RandomStream(31))
        ys = np.concatenate((ys, ys * [-1.0, 1.0, 1.0]))
        batch = w_and_lens(ys)[0]
        rows = np.array([w_and_lens(y[None, :])[0][0] for y in ys])
        assert np.array_equal(batch, rows)
        assert np.array_equal(batch, sample_w_batch(3, 200, RandomStream(31))[:, 0])

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_lens_column_closes_the_control(self, d):
        # W + L = 1 + |Y|^d: column 1 is the lens volume left out of W; at
        # d >= 2 the last 1000 rows are mirrors, of the norms of the first
        ys = sample_unit_ball_batch(d, 2000 if d == 1 else 1000, RandomStream(41, d))
        w, lens = sample_w_batch(d, 2000, RandomStream(41, d)).T
        u = np.resize(np.linalg.norm(ys, axis=1) ** d, 2000)
        assert np.allclose(lens, 1.0 + u - w, rtol=0.0, atol=1e-14)
        assert np.all(lens >= 0.0)


class TestSampleW:
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_range(self, d):
        w = sample_w_batch(d, 50_000, RandomStream(32, d))[:, 0]
        assert np.all(w >= 1.0)
        assert np.all(w <= 2.0)

    def test_d1_law(self):
        w = sample_w_batch(1, 100_000, RandomStream(33))[:, 0]
        p_one = np.mean(w == 1.0)
        assert abs(p_one - 0.5) < 0.01
        cond = w[w > 1.0] - 1.0
        assert kstest(cond, "uniform").statistic < 0.02

    def test_mirrors_keep_the_law(self):
        # a mirrored row has the law of an independent draw
        w = sample_w_batch(2, 100_000, RandomStream(46))[50_000:, 0]
        plain = w_and_lens(sample_unit_ball_batch(2, 50_000, RandomStream(47)))[0]
        assert kstest(w, plain).statistic < 0.02

    def test_scalar_draw(self):
        draw = sample_w_batch(2, 1, RandomStream(34))
        assert draw.shape == (1, 2) and 1.0 <= draw[0, 0] <= 2.0


class TestSamplerMatchesReference:
    # blocks of rows, partial ones included, give the unblocked values bit
    # for bit and leave the stream where the unblocked sampler leaves it;
    # at d >= 2 the rows are mirrored pairs, and an odd n ends unpaired
    @pytest.mark.parametrize("n", [1, 2, 5, 8191, 8193, 2**16 - 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 20, 21])
    def test_equals_unblocked(self, d, n):
        rng, ref_rng = RandomStream(70, d), RandomStream(70, d)
        got = sample_w_batch(d, n, rng)
        assert got.shape == (n, 2)
        assert np.array_equal(got, sample_w_batch_reference(d, n, ref_rng))
        assert rng.random() == ref_rng.random()


class TestSampleWk:
    """Order-k union volumes: exact for k <= 2, mixture Monte Carlo beyond."""

    def test_k1_exact(self):
        e = estimate_z_moment_parallel(3, 1, outer=10)
        assert e.value == 1.0 and e.stderr == 0.0

    def test_k2_exact(self):
        # order 2 is the exact two-ball sampler
        w = sample_w_batch(2, 1, RandomStream(35))[:, 0]
        assert 1.0 <= w[0] <= 2.0

    def test_k3_d1_fixed_centers_vs_interval_sweep(self):
        # centers -0.5 and -0.8: union [0,2] u [-1,0] u [-1.6,0] has length 3.6,
        # so the normalized volume is 1.8
        balls = [Ball([1.0], 1.0), Ball([-0.5], 0.5), Ball([-0.8], 0.8)]
        sweep = interval_union_length([(0.0, 2.0), (-1.0, 0.0), (-1.6, 0.0)])
        assert sweep == pytest.approx(3.6, abs=1e-15)
        est = union_volume_mc(balls, 40_000, RandomStream(36))
        assert abs(est.value / 2.0 - 1.8) <= 4 * est.stderr / 2.0

    @pytest.mark.parametrize("d,k", [(1, 3), (2, 3), (2, 4), (3, 5)])
    def test_value_below_cap(self, d, k):
        values = wk_mc_values(d, k, 1, 2048, RandomStream(37, k))[0]
        value = values.mean()
        stderr = values.std(ddof=1) / math.sqrt(values.size)
        assert 1.0 - 4 * stderr <= value <= 2.0**d + 4 * stderr

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sample_w_batch(0, 1, RandomStream(0))
        with pytest.raises(ValueError):
            wk_mc_values(1, 3, 1, 0, RandomStream(0))


class TestCoupledMonotonicity:
    def test_shared_draws_nondecreasing_in_k(self):
        # growing the same center set can only grow the union
        rng = RandomStream(38)
        d = 2
        ys = sample_unit_ball_batch(d, 3, rng)
        w2 = w_and_lens(ys[:1])[0][0]
        assert 1.0 <= w2
        prev = w2
        for k in (3, 4):
            balls = [Ball(np.eye(d)[0], 1.0)] + [
                Ball(y, float(np.linalg.norm(y))) for y in ys[: k - 1]
            ]
            est = union_volume_mc(balls, 20_000, RandomStream(39, k))
            wk = est.value / math.pi
            assert wk >= prev - 4 * est.stderr / math.pi
            prev = wk


class TestWkMCValues:
    def test_row_means_match_single_estimates(self):
        vals = wk_mc_values(2, 3, 50, 1024, RandomStream(40))
        assert vals.shape == (50, 1024)
        means = vals.mean(axis=1)
        assert np.all(means > 0.5)
        assert np.all(means < 4.0 + 1e-9)

    def test_rejects_low_k(self):
        with pytest.raises(ValueError):
            wk_mc_values(2, 2, 5, 100, RandomStream(0))


class TestWkExactValues:
    @pytest.mark.parametrize("d", [1, 2])
    def test_same_draws_and_bounds_as_mc(self, d):
        # the same configurations and star bounds as wk_mc_values, whose row
        # means scatter about the exact values
        a, b = RandomStream(42, d), RandomStream(42, d)
        sa, sb = np.empty(30), np.empty(30)
        w = wk_exact_values(d, 4, 30, a, out=sa)
        vals = wk_mc_values(d, 4, 30, 4096, b, out=sb)
        assert np.array_equal(sa, sb)
        assert np.all((1.0 <= w) & (w <= sa * (1 + 1e-12)))
        se = vals.std(axis=1, ddof=1) / math.sqrt(vals.shape[1])
        assert np.all(np.abs(vals.mean(axis=1) - w) <= 4 * se + 1e-12)

    def test_d1_closed_form(self):
        # every interval holds 0, so the union is [min(0, 2 min y), max(2, 2 max y)]
        w = wk_exact_values(1, 5, 500, RandomStream(43))
        y = sample_unit_ball_batch(1, 500 * 4, RandomStream(43)).reshape(500, 4)
        want = np.maximum(1.0, y.max(axis=1)) - np.minimum(0.0, y.min(axis=1))
        assert np.allclose(w, want, rtol=0.0, atol=1e-15)

    def test_rejects_low_k(self):
        with pytest.raises(ValueError):
            wk_exact_values(2, 2, 5, RandomStream(0))
