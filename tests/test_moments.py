import math
import tracemalloc
from dataclasses import fields
from functools import reduce

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import gamma as gamma_dist

from vorlab import moments
from vorlab.geometry import (
    _NO_STATS, Ball, Estimate, _merge, _stats, interval_union_length, union_volume_mc,
    unit_ball_volume,
)
from vorlab.moments import (
    MAX_FACTORIAL_K,
    MomentBounds,
    alpha_bounds,
    estimate_alpha_parallel,
    estimate_z_moment_parallel,
    z_cdf_d1,
    z_moment_bounds,
    z_moment_closed_form_d1,
)
from vorlab.sampling import RandomStream, sample_unit_ball_batch, uniform_ball
from vorlab.wstat import DEFAULT_INNER_SAMPLES, sample_w_batch, w_and_lens, wk_mc_values
from vorlab.cellsim import CellExperimentConfig, run_cell_experiment

from oracles import (
    sample_w_batch_reference, star_mean_d1_mpmath, wk_mc_values_sk, z_mgf_bounds,
    zmoment_sums_first_block, zmoment_sums_plain, zmoment_sums_sk_control,
)
from test_acceptance import ALPHA_D2, ALPHA_D3


@pytest.fixture
def multilevel(monkeypatch):
    """The k >= 3 estimator through its multilevel body at every d, as it
    ran at d <= 2 before W_k was exact there: the d = 1 closed forms are
    that body's exact unbiasedness oracle."""
    monkeypatch.setattr(moments, "_zmoment_sums", moments._zmoment_multilevel)


class TestAlphaClosedFormD1:
    def test_elementary_integral(self):
        # 1 + int_0^1 du / (1 + u)^2 = 3/2
        val, _ = integrate.quad(lambda u: 1.0 / (1.0 + u) ** 2, 0.0, 1.0)
        assert 1.0 + val == pytest.approx(1.5, abs=1e-12)

    def test_monte_carlo_self_check(self):
        est = estimate_alpha_parallel(1, 200_000, seed=50)
        assert abs(est.value - 1.5) <= 4 * est.stderr


class TestEstimateAlpha:
    def test_lands_in_sane_range(self):
        for d in (1, 2, 5):
            est = estimate_alpha_parallel(d, 50_000, seed=51, stream_index=d)
            assert 1.0 - 4 * est.stderr <= est.value <= 2.0 + 4 * est.stderr
            assert est.samples == 50_000
            assert est.stderr > 0.0

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            estimate_alpha_parallel(1, 1, seed=0)

    @pytest.mark.parametrize("seed", range(20))
    def test_never_below_one(self, seed):
        # the excess over the control is nonnegative draw by draw
        assert estimate_alpha_parallel(20, 50, seed=seed).value >= 1.0

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    def test_agrees_with_plain_mean(self, d):
        n = 200_000
        est = estimate_alpha_parallel(d, n, seed=57, stream_index=d)
        x = 2.0 / w_and_lens(sample_unit_ball_batch(d, n, RandomStream(58, d)))[0] ** 2
        plain, plain_se = x.mean(), x.std(ddof=1) / math.sqrt(n)
        assert abs(est.value - plain) <= 4 * math.hypot(est.stderr, plain_se)

    def test_control_variate_cuts_the_stderr(self):
        # on the same draws at d=2, the per-draw variance is about 0.23 for
        # plain 2/W^2 and about 0.12 for the excess
        n = 100_000
        est = estimate_alpha_parallel(2, n, seed=59)
        x = 2.0 / sample_w_batch(2, n, RandomStream(59))[:, 0] ** 2
        assert est.stderr <= 0.8 * x.std(ddof=1) / math.sqrt(n)

    def test_memory_bounded_in_samples(self):
        tracemalloc.start()
        try:
            est = estimate_alpha_parallel(2, 1_000_000, seed=60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        assert est.samples == 1_000_000

    @pytest.mark.parametrize("d, bound", [(2, 6e6), (8, 12e6)])
    def test_chunk_memory_is_the_draws_and_blocks(self, d, bound):
        # three chunks of 2^16 draws hold the centers, the (W, L) pairs and
        # the excess at chunk length; every other temporary is block-sized
        tracemalloc.start()
        try:
            moments._alpha_sums((d, 3 * 2**16, 1, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("count", [5, 2**16 + 8193])
    @pytest.mark.parametrize("d", [1, 2, 21])
    def test_excess_matches_unblocked(self, d, count):
        # the excess formed block by block equals the whole-chunk formula:
        # numpy's (count, mean, M2) of each chunk of the unblocked reference,
        # of its draws at d = 1 and of its `count` pair means at d >= 2,
        # where row j of a chunk of m draws pairs with its mirror, row m/2 + j
        draws = count if d == 1 else 2 * count
        rng = RandomStream(71, d)
        acc = _NO_STATS
        left = draws
        while left:
            m = min(moments._W_CHUNK, left)
            left -= m
            w, lens = sample_w_batch_reference(d, m, rng).T
            a = w + lens
            e = 2.0 * lens * (a + w) / (w * a) ** 2
            if d > 1:
                e = 0.5 * (e[: m // 2] + e[m // 2 :])
            mean = e.mean()
            acc = _merge(acc, (e.size, mean, np.square(e - mean).sum()))
        assert moments._alpha_sums((d, draws, 71, d)) == acc
        assert acc[0] == count

    def test_stderr_is_calibrated_at_d2(self):
        # z = (estimate - alpha(2)) / stderr over fixed seeds has mean 0 and
        # sd 1 only if the stderr is that of the iid pair means: taking the
        # 2n draws of n mirrored pairs as independent would overstate it
        # about 1.5x at d = 2 (pair correlation -0.58), for an sd near 0.65
        z = np.array([(e.value - ALPHA_D2) / e.stderr for e in
                      (estimate_alpha_parallel(2, 100_000, seed=s) for s in range(200))])
        assert abs(z.mean()) <= 0.2
        assert 0.8 <= z.std(ddof=1) <= 1.2

    def test_d3_reference(self):
        est = estimate_alpha_parallel(3, 1_000_000, seed=83)
        assert abs(est.value - ALPHA_D3) <= 4 * est.stderr

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("samples", [2, 3, 7, 10_001])
    def test_samples_round_up_to_pairs(self, samples, workers, monkeypatch):
        # at d >= 2 `samples` rounds up to whole mirrored pairs, and to at
        # least two pairs, so that the pair means have a standard error;
        # the count reports the draws taken, as does the k = 2 moment's
        taken = []

        def counting(d, n, rng):
            taken.append(n)
            return sample_w_batch(d, n, rng)

        if workers == 1:  # the pool's workers would count in their own memory
            monkeypatch.setattr(moments, "sample_w_batch", counting)
        want = 2 * max(2, -(-samples // 2))
        for est in (estimate_alpha_parallel(2, samples, seed=82, workers=workers),
                    estimate_z_moment_parallel(2, 2, samples, seed=82, workers=workers)):
            assert est.samples == want
            assert math.isfinite(est.stderr) and est.stderr > 0.0
        assert sum(taken) == (2 * want if workers == 1 else 0)

    def test_d1_takes_samples_as_given(self):
        est = estimate_alpha_parallel(1, 7, seed=82, workers=3)
        assert est.samples == 7 and math.isfinite(est.stderr) and est.stderr > 0.0

    def test_shards_start_at_stream_index(self):
        # the two shards run on streams 3 and 4 and merge in that order;
        # each averages 7500 mirrored pairs of draws
        est = estimate_alpha_parallel(2, 30_000, seed=52, workers=2, stream_index=3)
        n, mean, m2 = _merge(*(moments._alpha_sums((2, 15_000, 52, i)) for i in (3, 4)))
        assert (est.value, est.samples, n) == (1.0 + mean, 30_000, 15_000)
        assert est.stderr == Estimate.of((n, mean, m2)).stderr

    def test_parallel_reproducible_and_consistent(self):
        a = estimate_alpha_parallel(1, 40_000, seed=53, workers=3)
        b = estimate_alpha_parallel(1, 40_000, seed=53, workers=3)
        assert a.value == b.value and a.stderr == b.stderr
        c = estimate_alpha_parallel(1, 40_000, seed=53, workers=1)
        assert abs(a.value - c.value) <= 4 * math.hypot(a.stderr, c.stderr)


class TestAlphaBounds:
    def test_d1_capped_at_two(self):
        b = alpha_bounds(1)
        assert b.lower == 1.0 and b.upper == 2.0

    def test_envelope_formula(self):
        # the exponential term exceeds 1 up to d = 12, so the global cap of 2
        # binds there; beyond that the exponential envelope takes over
        assert alpha_bounds(10).upper == 2.0
        assert alpha_bounds(14).upper == pytest.approx(1.0 + 6.0 * 0.75**7, rel=1e-15)

    def test_limit_is_one(self):
        assert alpha_bounds(400).upper == pytest.approx(1.0, abs=1e-20)

    def test_monotone_envelope(self):
        uppers = [alpha_bounds(d).upper for d in range(1, 30)]
        assert all(a >= b for a, b in zip(uppers, uppers[1:]))


class TestZMomentClosedFormD1:
    def test_values(self):
        assert z_moment_closed_form_d1(1) == 1.0
        assert z_moment_closed_form_d1(2) == 1.5  # equals the d=1 second moment
        assert z_moment_closed_form_d1(4) == 7.5

    def test_gamma_moment_oracle(self):
        # E[((E1 + E2)/2)^k] with E1 + E2 ~ Gamma(2, 1)
        for k in (1, 2, 3, 4, 6):
            oracle = gamma_dist(2).moment(k) / 2.0**k
            assert z_moment_closed_form_d1(k) == pytest.approx(oracle, rel=1e-9)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            z_moment_closed_form_d1(MAX_FACTORIAL_K + 1)


class TestZMomentBounds:
    def test_examples(self):
        b = z_moment_bounds(1, 2)
        assert (b.lower, b.upper) == (0.5, 2.0)
        for d in (1, 3, 10):
            b1 = z_moment_bounds(d, 1)
            assert b1.lower == pytest.approx(2.0**-d) and b1.upper == 1.0

    def test_overflow(self):
        with pytest.raises(OverflowError):
            z_moment_bounds(1, 21)

    def test_bounds_ordered(self):
        with pytest.raises(ValueError):
            MomentBounds(2.0, 1.0)


class TestEstimateZMoment:
    def test_k1_exactly_one(self):
        est = estimate_z_moment_parallel(5, 1, outer=100, seed=54)
        assert est.value == 1.0 and est.stderr == 0.0

    def test_k2_matches_alpha(self):
        for d in (1, 2):
            za = estimate_z_moment_parallel(d, 2, outer=100_000, seed=55, stream_index=d)
            al = estimate_alpha_parallel(d, 100_000, seed=56, stream_index=d)
            assert abs(za.value - al.value) <= 4 * math.hypot(za.stderr, al.stderr)

    def test_k2_d2_passes_the_benchmark_check(self):
        # the zmoments-d2 benchmark workload's k = 2 row: 1024 outer draws
        # at vorlab seed 1000 S + j, which its zmoments.k2_reference check
        # requires within 4 stderr of ALPHA_D2.  A seed that fails here is
        # one on which that check fails.  The worst of these, 5102, lies at
        # -3.61 stderr
        for seed in (1000 * s + j for s in range(1, 11) for j in range(200)):
            est = estimate_z_moment_parallel(2, 2, 1024, 4096, seed, 1)
            assert abs(est.value - ALPHA_D2) <= 4 * est.stderr, seed

    def test_k3_d1_closed_form(self):
        est = estimate_z_moment_parallel(1, 3, outer=4000, inner=1024, seed=57)
        assert abs(est.value - 3.0) <= 4 * est.stderr

    def test_small_cap_richardson_is_unbiased(self, multilevel):
        # plug-in bias at a cap of 64 inner draws would be visible; counting
        # the top level's correction twice cancels it
        est = estimate_z_moment_parallel(1, 3, outer=8000, inner=64, seed=58)
        assert abs(est.value - 3.0) <= 4 * est.stderr

    def test_top_level_doubling_cancels_truncation_bias(self, multilevel):
        # at a cap of 64 the truncated estimator without the doubled top-level
        # correction is about 8 stderr high here
        est = estimate_z_moment_parallel(1, 4, outer=100_000, inner=64, seed=58, stream_index=14)
        assert abs(est.value - 7.5) <= 4 * est.stderr

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_unbiased_against_d1_closed_form(self, k, multilevel):
        # 3x the precision of the criterion-06 fixture (15000 draws): the
        # multilevel draws have up to 1.64x the jackknife's variance at d=1
        est = estimate_z_moment_parallel(1, k, outer=225_000, seed=58, stream_index=k)
        assert abs(est.value - z_moment_closed_form_d1(k)) <= 4 * est.stderr

    @pytest.mark.parametrize("inner", [2, 3, 31, 32, 63, 64, 4095, 4096, 1 << 20])
    def test_levels_fit_the_cap(self, inner):
        m0, p = moments._levels(inner)
        top = m0 << p.size  # inner draws of the top level
        assert 1 <= m0 <= moments._M0 and top <= inner < 2 * top
        assert p.sum() == pytest.approx(1.0, abs=1e-15) and np.all(np.diff(p) < 0)

    def test_level_calls_bounded(self, monkeypatch, multilevel):
        # the points cap binds at d = 2, the coordinates cap at d = 20 and 200
        calls = []

        def recording(d, k, n, m, rng, **kwargs):
            calls.append((n, m))
            return wk_mc_values(d, k, n, m, rng, **kwargs)

        monkeypatch.setattr(moments, "wk_mc_values", recording)
        monkeypatch.setattr(moments, "_POINTS_PER_CALL", 128)
        monkeypatch.setattr(moments, "_COORDS_PER_CALL", 1280)
        for d in (2, 20, 200):
            calls.clear()
            estimate_z_moment_parallel(d, 3, outer=300, inner=256, seed=65)
            assert sum(n for n, _ in calls) == 300
            assert all(1 <= n and n * m <= max(128, m) for n, m in calls)
            assert all(n * m * d <= max(1280, m * d) for n, m in calls)

    def test_within_sandwich(self):
        for d, k in [(1, 3), (2, 3), (3, 4)]:
            est = estimate_z_moment_parallel(d, k, outer=2000, inner=512, seed=59, stream_index=k)
            b = z_moment_bounds(d, k)
            assert b.lower - 4 * est.stderr <= est.value <= b.upper + 4 * est.stderr

    def test_shards_start_at_stream_index(self, multilevel):
        est = estimate_z_moment_parallel(1, 3, outer=1000, inner=256, seed=60, workers=2,
                                         stream_index=1)
        n, mean, m2 = _merge(*(moments._zmoment_sums((1, 3, 500, 256, 60, i)) for i in (1, 2)))
        assert (est.value, est.samples) == (moments._star_mean(1, 3) + mean, n)
        assert est.stderr == Estimate.of((n, mean, m2)).stderr

    def test_parallel_workers_reproducible(self, multilevel):
        a = estimate_z_moment_parallel(1, 3, outer=600, inner=128, seed=63, workers=2)
        b = estimate_z_moment_parallel(1, 3, outer=600, inner=128, seed=63, workers=2)
        assert a.value == b.value and a.stderr == b.stderr
        assert abs(a.value - 3.0) <= 6 * a.stderr

    def test_multilevel_worker_invariance(self, multilevel):
        a = estimate_z_moment_parallel(2, 4, outer=400, seed=64, workers=2)
        b = estimate_z_moment_parallel(2, 4, outer=400, seed=64, workers=2)
        assert (a.value, a.stderr, a.samples) == (b.value, b.stderr, b.samples)
        # one worker runs the single shard in the calling process
        one = estimate_z_moment_parallel(2, 4, outer=400, seed=64, workers=1)
        n, mean, _ = moments._zmoment_sums((2, 4, 400, DEFAULT_INNER_SAMPLES, 64, 0))
        assert (one.value, one.samples, n) == (moments._star_mean(2, 4) + mean, 400, 400)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_z_moment_parallel(1, 2, outer=1, seed=0)
        with pytest.raises(ValueError):
            estimate_z_moment_parallel(1, 3, outer=10, inner=1, seed=0)
        with pytest.raises(ValueError):
            estimate_z_moment_parallel(1, 3, outer=10, inner=moments.MAX_INNER_SAMPLES + 1,
                                       seed=0)
        with pytest.raises(OverflowError):
            estimate_z_moment_parallel(1, 30, outer=10, seed=0)


def _sums_stderr(sums):
    return Estimate.of(sums).stderr


class TestExactWk:
    """At d <= 2 the k >= 3 estimator takes W_k exact (wstat.wk_exact_values)
    and no inner draws; the multilevel body runs above d = 2 only."""

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_d1_closed_form(self, k):
        est = estimate_z_moment_parallel(1, k, outer=225_000, seed=58, stream_index=k)
        assert abs(est.value - z_moment_closed_form_d1(k)) <= 4 * est.stderr

    @pytest.mark.parametrize("k", [3, 4])
    def test_d2_agrees_with_multilevel(self, k):
        exact = moments._zmoment_exact((2, k, 20_000, DEFAULT_INNER_SAMPLES, 77, k))
        ml = moments._zmoment_multilevel((2, k, 20_000, DEFAULT_INNER_SAMPLES, 77, 10 + k))
        assert abs(exact[1] - ml[1]) <= 4 * math.hypot(_sums_stderr(exact), _sums_stderr(ml))

    @pytest.mark.parametrize("d", [1, 2])
    def test_takes_no_inner_draws(self, d, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("inner draws at d <= 2")

        monkeypatch.setattr(moments, "wk_mc_values", fail)
        # inner is checked, but has no effect
        a = estimate_z_moment_parallel(d, 3, outer=500, inner=2, seed=78)
        assert a == estimate_z_moment_parallel(d, 3, outer=500, inner=1 << 20, seed=78)
        with pytest.raises(ValueError):
            estimate_z_moment_parallel(d, 3, outer=500, inner=1, seed=78)

    def test_shards_start_at_stream_index(self):
        est = estimate_z_moment_parallel(2, 3, outer=1000, seed=60, workers=2, stream_index=1)
        n, mean, m2 = _merge(*(moments._zmoment_exact((2, 3, 500, DEFAULT_INNER_SAMPLES, 60, i))
                               for i in (1, 2)))
        assert (est.value, est.samples) == (moments._star_mean(2, 3) + mean, n)
        assert est.stderr == Estimate.of((n, mean, m2)).stderr

    def test_memory_does_not_grow_with_outer(self):
        # draws and values come in blocks; 60000 outer draws would fill a
        # 480 kB array, half the peak at 2000
        peaks = []
        for outer in (2000, 60_000):
            tracemalloc.start()
            try:
                moments._zmoment_exact((2, 3, outer, DEFAULT_INNER_SAMPLES, 79, 0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]


class TestMomentControl:
    """The star control k! / (1 + sum V_i)^k of the k >= 3 estimator, and
    the control k! / S_k^k that it replaced, against the plain estimator
    (both in tests/oracles.py) on the same draws."""

    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_control_mean_is_one(self, d, k):
        # the replaced control k! / S_k^k, from the oracle copy of wk_mc_values
        s = np.empty(20_000)
        wk_mc_values_sk(d, k, s.size, 1, RandomStream(66, 10 * d + k), out=s)
        c = math.factorial(k) / s**k
        assert abs(c.mean() - 1.0) <= 4 * c.std(ddof=1) / math.sqrt(c.size)

    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_control_mean_is_c_k(self, d, k):
        b = np.empty(20_000)
        wk_mc_values(d, k, b.size, 1, RandomStream(66, 10 * d + k), out=b)
        c = math.factorial(k) / b**k
        assert abs(c.mean() - moments._star_mean(d, k)) <= 4 * c.std(ddof=1) / math.sqrt(c.size)

    def test_out_keeps_the_values_and_draws(self):
        a, b, c = RandomStream(67), RandomStream(67), RandomStream(67)
        s, sk = np.full(40, np.nan), np.full(40, np.nan)
        plain = wk_mc_values(3, 4, 40, 64, a)
        assert np.array_equal(wk_mc_values(3, 4, 40, 64, b, out=s), plain)
        assert np.array_equal(wk_mc_values_sk(3, 4, 40, 64, c, out=sk), plain)
        assert a.random() == b.random() == c.random()
        assert np.all((s >= 1.0) & (s <= 4.0))
        # the star bound and every mixture value are at most the sum of the
        # ball volumes
        assert np.all(s <= sk * (1 + 1e-12))
        assert np.all(plain.mean(axis=1) <= sk * (1 + 1e-12))

    @pytest.mark.parametrize("seed", [7, 8])
    def test_cuts_the_stderr_at_d8(self, seed):
        # the variance falls about 22x here, a stderr ratio near 0.21
        args = (8, 3, 4000, DEFAULT_INNER_SAMPLES, seed, 1)
        assert _sums_stderr(moments._zmoment_multilevel(args)) <= 0.3 * _sums_stderr(
            zmoment_sums_plain(args))

    @pytest.mark.parametrize("k", [3, 4])
    def test_agrees_with_plain_at_d2(self, k):
        args = (2, k, 4000, DEFAULT_INNER_SAMPLES, 68, k)
        new, plain = moments._zmoment_multilevel(args), zmoment_sums_plain(args)
        assert new[0] == plain[0] == 4000
        assert abs(moments._star_mean(2, k) + new[1] - plain[1]) <= 4 * math.hypot(
            _sums_stderr(new), _sums_stderr(plain))


class TestBlockBase:
    """The base term of the k >= 3 estimator averages f over every block of
    m0 inner draws, against the first block alone (tests/oracles.py) on the
    same draws."""

    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("d, k", [(2, 4), (8, 3)])
    def test_cuts_the_stderr(self, d, k, seed):
        # the variance fell 2.2-2.4x on these draws (stderr ratio 0.65-0.68)
        args = (d, k, 4000, DEFAULT_INNER_SAMPLES, seed, 2)
        assert _sums_stderr(moments._zmoment_multilevel(args)) <= 0.95 * _sums_stderr(
            zmoment_sums_first_block(args))

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_d1_closed_form(self, k, multilevel):
        est = estimate_z_moment_parallel(1, k, outer=20_000, seed=69, stream_index=k)
        assert abs(est.value - z_moment_closed_form_d1(k)) <= 4 * est.stderr

    @pytest.mark.parametrize("k", [3, 4])
    def test_agrees_with_first_block_at_d2(self, k):
        args = (2, k, 4000, DEFAULT_INNER_SAMPLES, 70, k)
        new, old = moments._zmoment_multilevel(args), zmoment_sums_first_block(args)
        assert new[0] == old[0] == 4000
        assert abs(new[1] - old[1]) <= 4 * math.hypot(_sums_stderr(new), _sums_stderr(old))


class TestStarMean:
    """C_k(d), the exact mean of the star control, from the product rule."""

    @pytest.mark.parametrize("k", range(3, MAX_FACTORIAL_K + 1))
    def test_d1_against_mpmath(self, k):
        assert moments._star_mean(1, k) == pytest.approx(star_mean_d1_mpmath(k), rel=1e-13)

    def test_d1_closed_values(self):
        assert moments._star_mean(1, 3) == pytest.approx(23 / 8, rel=1e-14)
        assert moments._star_mean(1, 4) == pytest.approx(20 / 3, rel=1e-14)

    def test_c2_is_alpha(self):
        assert abs(moments._star_mean(2, 2) - ALPHA_D2) <= 1e-9
        assert abs(moments._star_mean(3, 2) - ALPHA_D3) <= 1e-11

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 20, 100, 435])
    def test_doubling_the_nodes(self, d):
        # plain Gauss-Legendre in r misses C_3 by 1.6e-3 at d = 435
        counts = (moments._R_NODES, moments._THETA_NODES, moments._T_NODES)
        for k in range(2, MAX_FACTORIAL_K + 1):
            fine = moments._star_mean(d, k, *(2 * n for n in counts))
            rel = 1e-9 if k <= 6 else 1e-7
            assert moments._star_mean(d, k) == pytest.approx(fine, rel=rel)

    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    def test_against_two_ball_draws(self, d):
        # V = W - 1 from the exact two-ball sampler, k - 1 of them per draw
        n = 20_000
        v = sample_w_batch(d, 5 * n, RandomStream(72, d))[:, 0] - 1.0
        for k in range(3, 7):
            c = math.factorial(k) / (1.0 + v[: n * (k - 1)].reshape(n, k - 1).sum(axis=1)) ** k
            se = c.std(ddof=1) / math.sqrt(n)
            assert abs(c.mean() - moments._star_mean(d, k)) <= 4 * se

    def test_cached_per_dimension(self):
        assert moments._star_table(5) is moments._star_table(5)
        v, w = moments._star_table(5)
        assert v.shape == w.shape == (moments._R_NODES * moments._THETA_NODES,)
        assert w.sum() == pytest.approx(1.0, abs=1e-14) and np.all(v >= -1e-15)


def _star_configs(d, k, n, seed):
    """The star bounds that wk_mc_values writes for n configurations, with
    the centers of their k - 1 random balls, replayed from the same stream."""
    bound = np.empty(n)
    wk_mc_values(d, k, n, 1, RandomStream(seed, d), out=bound)
    y = sample_unit_ball_batch(d, n * (k - 1), RandomStream(seed, d)).reshape(n, k - 1, d)
    return bound, y


class TestStarControl:
    """The k >= 3 estimator with the star control, against the one with the
    control k! / S_k^k (tests/oracles.py) on the same draws."""

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_bounds_exact_at_d1(self, k):
        bound, y = _star_configs(1, k, 200, 73)
        for b, ys in zip(bound, y[..., 0]):
            w = interval_union_length([(0.0, 2.0), *((c - abs(c), c + abs(c)) for c in ys)]) / 2
            assert w <= b * (1 + 1e-12)
            assert b <= (1.0 + np.abs(ys).sum()) * (1 + 1e-12)

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("k", [3, 4])
    def test_bounds_at_d2_d5(self, d, k):
        bound, y = _star_configs(d, k, 20, 74)
        v = unit_ball_volume(d)
        rng = RandomStream(75, d)
        for b, ys in zip(bound, y):
            r = np.sqrt((ys * ys).sum(axis=1))
            assert b <= (1.0 + (r**d).sum()) * (1 + 1e-12)
            balls = [Ball(np.eye(d)[0], 1.0), *(Ball(c, rc) for c, rc in zip(ys, r))]
            est = union_volume_mc(balls, 20_000, rng)
            assert est.value / v <= b + 4 * est.stderr / v

    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("d, k", [(2, 3), (2, 4), (8, 3), (8, 4)])
    def test_cuts_the_stderr(self, d, k, seed):
        # the stderr ratio was 0.44-0.62 on these draws
        args = (d, k, 4000, DEFAULT_INNER_SAMPLES, seed, 3)
        assert _sums_stderr(moments._zmoment_multilevel(args)) <= 0.75 * _sums_stderr(
            zmoment_sums_sk_control(args))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_agrees_with_sk_control(self, d):
        for k in (3, 4):
            args = (d, k, 4000, DEFAULT_INNER_SAMPLES, 76, k)
            new, old = moments._zmoment_multilevel(args), zmoment_sums_sk_control(args)
            assert abs(moments._star_mean(d, k) + new[1] - 1.0 - old[1]) <= 4 * math.hypot(
                _sums_stderr(new), _sums_stderr(old))


def _offset_shard(args):
    """(count, mean, M2) of one shard of values 1e9 + u, with u on a 1/8 grid."""
    seed, size = args
    return _stats(1e9 + np.random.default_rng(seed).integers(0, 64, size) / 8.0)


class TestShardMerge:
    def test_values_far_from_zero_keep_their_stderr(self):
        shards = [(s, 1000 + s) for s in range(4)]
        est = Estimate.of(reduce(_merge, map(_offset_shard, shards), _NO_STATS))
        u = np.concatenate(
            [np.random.default_rng(s).integers(0, 64, n) / 8.0 for s, n in shards]
        )
        assert est.samples == u.size
        assert est.value == pytest.approx(1e9 + u.mean(), rel=1e-15)
        assert est.stderr == pytest.approx(u.std(ddof=1) / math.sqrt(u.size), rel=1e-9)
        # the sum-of-squares variance s2/n - mean^2 cancels on these values
        x = 1e9 + u
        naive = max(float(np.sum(x * x)) / x.size - float(x.mean()) ** 2, 0.0)
        assert math.sqrt(naive / (x.size - 1)) != pytest.approx(est.stderr, rel=0.1)


class TestZCdfD1:
    def test_edge_values(self):
        assert z_cdf_d1(0.0) == 0.0
        assert z_cdf_d1(-1.0) == 0.0
        assert z_cdf_d1(math.inf) == 1.0

    def test_matches_gamma_cdf(self):
        zs = np.linspace(0.01, 6.0, 50)
        assert np.allclose(z_cdf_d1(zs), gamma_dist(2).cdf(2 * zs), atol=1e-12)

    def test_mean_via_tail_integral(self):
        val, _ = integrate.quad(lambda z: 1.0 - z_cdf_d1(z), 0.0, 60.0)
        assert val == pytest.approx(1.0, abs=1e-9)


class TestZMgfBounds:
    def test_near_zero(self):
        b = z_mgf_bounds(1e-12, 3)
        assert b.lower == pytest.approx(1.0, abs=1e-11)
        assert b.upper == pytest.approx(1.0, abs=1e-11)

    def test_d1_midpoint(self):
        b = z_mgf_bounds(0.5, 1)
        assert b.lower == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert b.upper == pytest.approx(2.0, rel=1e-15)

    def test_upper_unbounded_beyond_one(self):
        b = z_mgf_bounds(1.5, 2)
        assert b.lower == pytest.approx(1.6, rel=1e-15)
        assert b.upper == math.inf

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            z_mgf_bounds(0.0, 1)
        with pytest.raises(ValueError):
            z_mgf_bounds(-1.0, 1)

    def test_empirical_mgf_inside_envelope(self):
        # simulated scaled cell measures respect the envelope for s in {1/4, 1/2}
        res1 = run_cell_experiment(
            CellExperimentConfig(
                density=uniform_ball(1), n=2000, replicates=2000, probes=100,
                seed=61, measure_mode="exact",
            )
        )
        res2 = run_cell_experiment(
            CellExperimentConfig(
                density=uniform_ball(2), n=1000, replicates=1500, probes=10_000, seed=62,
            )
        )
        for res, d in ((res1, 1), (res2, 2)):
            z = res.scaled_measures
            for s in (0.25, 0.5):
                vals = np.exp(s * z)
                mean = vals.mean()
                se = vals.std(ddof=1) / math.sqrt(len(vals))
                b = z_mgf_bounds(s, d)
                assert b.lower - 4 * se <= mean <= b.upper + 4 * se


class TestEstimateDataclass:
    def test_fields(self):
        # one estimate type, shared with the volume estimator
        assert [f.name for f in fields(Estimate)] == ["value", "stderr", "samples"]
        e = estimate_alpha_parallel(1, 100, seed=3)
        assert isinstance(e, Estimate) and e.samples == 100
