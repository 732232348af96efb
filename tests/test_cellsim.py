import math
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from vorlab import cellsim
from vorlab.cellsim import (
    _BLOCK_ELEMENTS,
    CONE_HALF_APERTURE,
    CellExperimentConfig,
    DiameterExperimentConfig,
    NNIndex,
    _max_pairwise_distance,
    cone_directions,
    cone_nn_radii,
    estimate_cell_diameter,
    estimate_cell_measure,
    exact_cell_measure_1d,
    probe_cell_fractions,
    run_cell_experiment,
    run_diameter_experiment,
)
from vorlab.sampling import RandomStream, gaussian, uniform_ball, uniform_cube

from oracles import d1_cell_interval


class TestNNIndex:
    def test_single_point(self):
        idx = NNIndex([[0.0, 0.0]])
        assert np.all(idx.query([[3.0, 1.0], [0.0, 0.0]]) == 0)

    def test_query_at_data_points(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((50, 2))
        for method in ("brute", "kdtree"):
            got = NNIndex(pts, method).query(pts)
            assert np.array_equal(got, np.arange(50))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_kdtree_equals_brute(self, d):
        rng = np.random.default_rng(d)
        pts = rng.standard_normal((1000, d))
        queries = rng.standard_normal((1000, d))
        bi = NNIndex(pts, "brute").query(queries)
        ki = NNIndex(pts, "kdtree").query(queries)
        assert np.array_equal(bi, ki)

    def test_duplicate_ties_to_smaller_index(self):
        pts = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        queries = np.array([[0.1, 0.0], [0.9, 1.0], [0.0, 0.0]])
        for method in ("brute", "kdtree"):
            got = NNIndex(pts, method).query(queries)
            assert got.tolist() == [1, 0, 1]

    def test_equidistant_tie(self):
        # query exactly between two points resolves to the smaller index
        pts = np.array([[1.0], [-1.0]])
        for method in ("brute", "kdtree"):
            assert NNIndex(pts, method).query([[0.0]]).tolist() == [0]

    def test_brute_memory_bounded_per_block(self):
        # blocks are sized by n * d, so a (block, n, d) difference array
        # never exceeds the block budget, whatever d is
        pts = np.random.default_rng(6).standard_normal((2000, 8))
        for run in (lambda: NNIndex(pts, "brute").query(pts), lambda: _max_pairwise_distance(pts)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * _BLOCK_ELEMENTS * 8

    def test_repeated_runs_identical(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((200, 2))
        q = rng.standard_normal((500, 2))
        a = NNIndex(pts).query(q)
        b = NNIndex(pts).query(q)
        assert np.array_equal(a, b)

    def test_errors(self):
        with pytest.raises(ValueError):
            NNIndex(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            NNIndex([[0.0]], method="octree")
        with pytest.raises(ValueError):
            NNIndex([[0.0, 0.0]]).query([[0.0]])


class TestEstimateCellMeasure:
    def test_no_others_is_one(self):
        est = estimate_cell_measure([0.0, 0.0], np.zeros((0, 2)), uniform_ball(2), 500, RandomStream(1))
        assert est.value == 1.0 and est.stderr == 0.0

    def test_d1_quarter_cell(self):
        # uniform on [-1, 1]: the cell of 0 against {0.5, -0.5} is (-1/4, 1/4)
        m = uniform_ball(1)
        probes = 20_000
        est = estimate_cell_measure([0.0], [[0.5], [-0.5]], m, probes, RandomStream(2))
        assert est.samples == probes
        assert abs(est.value - 0.25) <= 4 * math.sqrt(0.25 * 0.75 / probes)

    def test_partition_sums_to_one(self):
        rng = RandomStream(3)
        m = gaussian(2)
        pts = m.sample(rng, 40)
        frac = probe_cell_fractions(pts, m, 5000, RandomStream(4))
        # hit counts partition the probes exactly
        assert frac.sum() == pytest.approx(1.0, abs=1e-12)
        assert int(round(frac.sum() * 5000)) == 5000

    def test_matches_exact_1d_oracle(self):
        m = uniform_ball(1)
        rng = RandomStream(5)
        others = m.sample(rng, 30)
        mu = exact_cell_measure_1d([0.1], others, m)
        probes = 50_000
        est = estimate_cell_measure([0.1], others, m, probes, RandomStream(6))
        assert abs(est.value - mu) <= 4 * math.sqrt(mu * (1 - mu) / probes)

    def test_unconditioned_mean_is_one(self):
        # with a random center the exact identity E[n mu(S_1)] = 1 holds at
        # every finite n, and the probe estimator inherits it unbiasedly
        m = uniform_ball(1)
        n, reps, probes = 50, 400, 200
        vals = np.empty(reps)
        for r in range(reps):
            rng = RandomStream(7, r)
            pts = m.sample(rng, n)
            est = estimate_cell_measure(pts[0], pts[1:], m, probes, rng)
            vals[r] = n * est.value
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - 1.0) <= 4 * se

    @pytest.mark.parametrize("d", [2, 3])
    def test_copies_of_x_in_others_change_nothing(self, d):
        # x has index 0 and wins every tie, so copies of it own no probe
        m = uniform_ball(d)
        x = np.full(d, 0.1)
        others = m.sample(RandomStream(20, d), 60)
        with_copies = np.vstack([others[:30], x, others[30:], x])
        a = estimate_cell_measure(x, others, m, 4000, RandomStream(21, d))
        b = estimate_cell_measure(x, with_copies, m, 4000, RandomStream(21, d))
        assert a == b
        assert a.value > 0.0


class TestExactCellMeasure1D:
    def test_midpoints_against_oracle(self):
        m = uniform_ball(1)
        others = np.array([0.5, -0.5, 0.9])
        lo, hi = d1_cell_interval(0.0, others)
        assert (lo, hi) == (-0.25, 0.25)
        assert exact_cell_measure_1d([0.0], others, m) == pytest.approx(0.25)

    def test_unbounded_side_clips_to_support(self):
        m = uniform_ball(1)
        assert exact_cell_measure_1d([0.0], [[-0.5]], m) == pytest.approx(0.625)

    def test_duplicates_of_x_ignored(self):
        m = uniform_ball(1)
        assert exact_cell_measure_1d([0.2], [[0.2], [0.6]], m) == pytest.approx(
            exact_cell_measure_1d([0.2], [[0.6]], m)
        )

    def test_gaussian_interval(self):
        m = gaussian(1)
        got = exact_cell_measure_1d([0.0], [[1.0], [-1.0]], m)
        assert got == pytest.approx(2 * 0.19146246127401312, abs=1e-9)  # Phi(.5)-Phi(-.5)

    def test_requires_d1(self):
        with pytest.raises(ValueError):
            exact_cell_measure_1d([0.0, 0.0], np.zeros((0, 2)), uniform_ball(2))


class TestRunCellExperiment:
    def test_probe_mode_moments_and_shapes(self):
        cfg = CellExperimentConfig(
            density=uniform_ball(1), n=300, replicates=400, probes=2000, seed=8, k_max=3
        )
        res = run_cell_experiment(cfg)
        assert res.scaled_measures.shape == (400,)
        assert res.hits.shape == (400,)
        assert np.array_equal(res.ecdf, np.sort(res.scaled_measures))
        assert res.empirical_moments[1] == pytest.approx(1.0, abs=5 * res.moment_stderrs[1])
        assert set(res.empirical_moments) == {1, 2, 3}

    def test_exact_mode_matches_probe_mode_law(self):
        for n in (500, 1):
            base = dict(density=uniform_ball(1), n=n, replicates=600, probes=4000, seed=9)
            probe = run_cell_experiment(CellExperimentConfig(**base))
            exact = run_cell_experiment(CellExperimentConfig(**base, measure_mode="exact"))
            for k in (1, 2):
                diff = abs(probe.empirical_moments[k] - exact.empirical_moments[k])
                tol = 4 * math.hypot(probe.moment_stderrs[k], exact.moment_stderrs[k])
                assert diff <= tol
            if n == 1:
                # a lone center owns the whole support
                assert np.all(probe.scaled_measures == 1.0)
                assert np.all(exact.scaled_measures == 1.0)

    def test_worker_invariance(self):
        # (7, 3) splits unevenly: blocks of 3, 2 and 2 replicates
        for replicates, workers in ((120, 4), (7, 3)):
            base = dict(density=uniform_ball(2), n=150, replicates=replicates, probes=400, seed=10)
            one = run_cell_experiment(CellExperimentConfig(**base, workers=1))
            many = run_cell_experiment(CellExperimentConfig(**base, workers=workers))
            assert np.array_equal(one.scaled_measures, many.scaled_measures)
            assert np.array_equal(one.hits, many.hits)
            assert one.empirical_moments == many.empirical_moments

    def test_moment_convergence_with_n(self):
        # the larger-n run must be at least as close to the limit for k = 1, 2
        targets = {1: 1.0, 2: 1.5}
        runs = {}
        for n, seed in ((500, 11), (5000, 12)):
            runs[n] = run_cell_experiment(
                CellExperimentConfig(
                    density=uniform_ball(1), n=n, replicates=1500, probes=100,
                    seed=seed, measure_mode="exact", k_max=2,
                )
            )
        for k, target in targets.items():
            d_small = abs(runs[500].empirical_moments[k] - target)
            d_large = abs(runs[5000].empirical_moments[k] - target)
            slack = 2 * math.hypot(runs[500].moment_stderrs[k], runs[5000].moment_stderrs[k])
            assert d_large <= d_small + slack

    def test_x_outside_support_rejected(self):
        with pytest.raises(ValueError):
            CellExperimentConfig(density=uniform_ball(2), x=[2.0, 0.0])

    def test_exact_mode_requires_d1(self):
        with pytest.raises(ValueError):
            CellExperimentConfig(density=uniform_ball(2), measure_mode="exact")


class TestConeDirections:
    def test_d1_two_half_lines(self):
        dirs = cone_directions(1)
        assert sorted(dirs.ravel().tolist()) == [-1.0, 1.0]

    def test_d2_eight_directions_cover(self):
        dirs = cone_directions(2)
        assert dirs.shape == (8, 2)
        # angular sweep: every direction on the circle is within pi/8 of a ray
        sweep = np.linspace(0, 2 * math.pi, 10_001)
        vecs = np.column_stack([np.cos(sweep), np.sin(sweep)])
        cos_gap = (vecs @ dirs.T).max(axis=1)
        assert np.all(np.arccos(np.clip(cos_gap, -1, 1)) <= CONE_HALF_APERTURE + 1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_validation_no_uncovered(self, d):
        dirs = cone_directions(d)
        rng = np.random.default_rng(100 + d)
        v = rng.standard_normal((100_000, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        covered = (v @ dirs.T >= math.cos(CONE_HALF_APERTURE) - 1e-12).any(axis=1)
        assert covered.all()

    def test_incomplete_cover_raises(self, monkeypatch):
        # one candidate direction leaves the greedy cover far too small for
        # 64 repair rounds to complete at d = 4
        sphere_lds = cellsim._sphere_lds
        monkeypatch.setattr(cellsim, "_sphere_lds", lambda d, n, key: sphere_lds(d, 1, key))
        cone_directions.cache_clear()
        try:
            with pytest.raises(ValueError, match="cone cover"):
                cone_directions(4)
        finally:
            cone_directions.cache_clear()

    def test_cached_and_read_only(self):
        dirs = cone_directions(3)
        assert cone_directions(3) is dirs
        with pytest.raises(ValueError):
            dirs[0, 0] = 2.0


class TestConeNNRadii:
    def test_empty_is_infinite(self):
        radii = cone_nn_radii([0.0, 0.0], np.zeros((0, 2)), cone_directions(2))
        assert np.all(np.isinf(radii))

    def test_d1_example(self):
        radii = cone_nn_radii([0.0], [[0.3], [-0.7]], cone_directions(1))
        assert radii.tolist() == [0.3, 0.7]

    def test_boundary_point_in_adjacent_cones(self):
        # a point at angle pi/8 sits on the closed boundary of two cones
        dirs = cone_directions(2)
        p = [math.cos(math.pi / 8), math.sin(math.pi / 8)]
        radii = cone_nn_radii([0.0, 0.0], [p], dirs)
        assert radii[0] == pytest.approx(1.0)
        assert radii[1] == pytest.approx(1.0)
        assert np.all(np.isinf(radii[2:]))

    def test_duplicate_of_center_everywhere_at_zero(self):
        radii = cone_nn_radii([0.5, 0.5], [[0.5, 0.5]], cone_directions(2))
        assert np.all(radii == 0.0)


class TestEstimateCellDiameter:
    def test_d1_symmetric_pair(self):
        lo, up = estimate_cell_diameter(
            [0.0], [[0.5], [-0.5]], uniform_ball(1), 20_000, RandomStream(13)
        )
        assert up == 0.5
        assert 0.45 <= lo <= 0.5

    def test_no_others_unbounded_above(self):
        m = uniform_ball(2)
        lo, up = estimate_cell_diameter([0.0, 0.0], np.zeros((0, 2)), m, 500, RandomStream(14))
        assert math.isinf(up)
        assert lo <= 2.0  # support diameter

    def test_lower_below_upper(self):
        m = gaussian(2)
        for r in range(10):
            rng = RandomStream(15, r)
            others = m.sample(rng, 40)
            lo, up = estimate_cell_diameter([0.0, 0.0], others, m, 2000, rng)
            assert lo <= up

    def test_probe_floor(self):
        with pytest.raises(ValueError):
            estimate_cell_diameter([0.0], [[0.5]], uniform_ball(1), 1, RandomStream(0))


@pytest.fixture(scope="module")
def result():
    cfg = DiameterExperimentConfig(
        density=uniform_ball(1), n_grid=(200, 400), t_grid=(0.5, 1.0, 2.0, 4.0),
        replicates=300, probes=500, seed=16,
    )
    return run_diameter_experiment(cfg)


class TestRunDiameterExperiment:
    def test_exceedance_decreasing_in_t(self, result):
        for n in result.n_grid:
            exc = result.exceedance[n]
            assert np.all(np.diff(exc) <= 0)

    def test_lower_quantiles_below_upper(self, result):
        for n in result.n_grid:
            for q, (lo, up) in result.quantiles[n].items():
                assert lo <= up

    def test_replicate_brackets_ordered(self, result):
        for n in result.n_grid:
            assert np.all(result.scaled_lower[n] <= result.scaled_upper[n])

    def test_d1_upper_mean_matches_gap_oracle(self, result):
        # in one dimension the cone bound is the larger of the two one-sided
        # nearest-neighbor gaps; simulate those gaps directly as the oracle
        n = 400
        gen = np.random.default_rng(17)
        oracle_vals = np.empty(4000)
        for i in range(4000):
            pts = gen.uniform(-1, 1, n - 1)
            pos = pts[pts > 0]
            neg = pts[pts < 0]
            right = pos.min() if pos.size else math.inf
            left = -neg.max() if neg.size else math.inf
            oracle_vals[i] = n * max(left, right)
        got = result.scaled_upper[n]
        se = math.hypot(
            got.std(ddof=1) / math.sqrt(len(got)),
            oracle_vals.std(ddof=1) / math.sqrt(len(oracle_vals)),
        )
        assert abs(got.mean() - oracle_vals.mean()) <= 4 * se

    @pytest.mark.parametrize("d", [1, 2])
    def test_worker_invariance(self, d):
        # (7, 3) splits unevenly: blocks of 3, 2 and 2 replicates per entry
        for replicates, workers in ((60, 4), (7, 3)):
            base = dict(
                density=uniform_ball(d), n_grid=(1, 100, 200), replicates=replicates,
                probes=100, seed=18,
            )
            one = run_diameter_experiment(DiameterExperimentConfig(**base, workers=1))
            many = run_diameter_experiment(DiameterExperimentConfig(**base, workers=workers))
            for n in (1, 100, 200):
                assert np.array_equal(one.scaled_upper[n], many.scaled_upper[n])
                assert np.array_equal(one.scaled_lower[n], many.scaled_lower[n])
            # with no other points every cone is empty
            assert np.all(np.isinf(one.scaled_upper[1]))

    def test_one_pool_per_run(self, monkeypatch):
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cellsim, "ProcessPoolExecutor", CountingPool)
        cfg = DiameterExperimentConfig(
            density=uniform_ball(2), n_grid=(1, 20, 40), replicates=6, probes=20, seed=22,
            workers=2,
        )
        result = run_diameter_experiment(cfg)
        assert len(pools) == 1
        assert all(len(result.scaled_upper[n]) == 6 for n in cfg.n_grid)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiameterExperimentConfig(density=uniform_ball(1), n_grid=(200, 100))
        with pytest.raises(ValueError):
            DiameterExperimentConfig(density=uniform_ball(1), n_grid=())


class TestTieDeterminism:
    def test_same_seed_same_assignments(self):
        m = uniform_cube(2, side=2.0)
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
        a = probe_cell_fractions(pts, m, 2000, RandomStream(19))
        b = probe_cell_fractions(pts, m, 2000, RandomStream(19))
        assert np.array_equal(a, b)
        assert a[1] == 0.0  # duplicate always loses to index 0
