import math
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from vorlab import cellsim
from vorlab.cellsim import (
    _BLOCK_ELEMENTS,
    _CERT_BLOCK,
    _CERT_NEIGHBORS,
    _DIAM_MAX_D,
    CONE_HALF_APERTURE,
    CellExperimentConfig,
    DiameterExperimentConfig,
    NNIndex,
    _max_pairwise_distance,
    cone_directions,
    cone_nn_radii,
    estimate_cell_diameter,
    exact_cell_measure_1d,
    run_cell_experiment,
    run_diameter_experiment,
)
from vorlab.sampling import RandomStream, gaussian, uniform_ball, uniform_cube

import cone_cover
from oracles import (
    cone_nn_radii_brute,
    d1_cell_interval,
    greedy_cap_cover_quadratic,
    max_pairwise_distance_quadratic,
)


class TestNNIndex:
    def test_single_point(self):
        idx = NNIndex([[0.0, 0.0]])
        assert np.all(idx.query([[3.0, 1.0], [0.0, 0.0]]) == 0)

    def test_query_at_data_points(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((50, 2))
        assert np.array_equal(NNIndex(pts).query(pts), np.arange(50))

    def test_duplicate_ties_to_smaller_index(self):
        pts = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        queries = np.array([[0.1, 0.0], [0.9, 1.0], [0.0, 0.0]])
        assert NNIndex(pts).query(queries).tolist() == [1, 0, 1]

    def test_equidistant_tie(self):
        # query exactly between two points resolves to the smaller index
        pts = np.array([[1.0], [-1.0]])
        assert NNIndex(pts).query([[0.0]]).tolist() == [0]

    @pytest.mark.parametrize("d", [2, 8])
    def test_brute_memory_bounded_per_block(self, d):
        # blocks are sized by n * d, so a (block, n, d) difference array, and
        # the copy of its squares that row_sq_norms makes above 7 columns,
        # never exceed the block budget, whatever d is
        pts = np.random.default_rng(6).standard_normal((2000, d))
        for run in (lambda: NNIndex(pts).query(pts), lambda: _max_pairwise_distance(pts)):
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
            NNIndex([[0.0, math.nan]])
        with pytest.raises(ValueError):
            NNIndex([[0.0, 0.0]]).query([[0.0]])


def _member_matches_brute(x, others, draws) -> np.ndarray:
    """_cell_member's mask, checked against NNIndex on the whole point set."""
    x = np.asarray(x, dtype=float)
    others = np.asarray(others, dtype=float).reshape(-1, x.size)
    got = cellsim._cell_member(x, others, draws)
    want = NNIndex(np.vstack([x[None, :], others])).query(draws) == 0
    assert np.array_equal(got, want)
    return got


def _ulp_shifts(points: np.ndarray) -> np.ndarray:
    """points, and copies moved one ulp down and one ulp up in every coordinate."""
    return np.vstack([points, np.nextafter(points, -math.inf), np.nextafter(points, math.inf)])


_DENSITIES = {"uniform-ball": uniform_ball, "gaussian": gaussian,
              "uniform-cube": lambda d: uniform_cube(d, side=2.0)}


class TestCellMember:
    """The certified-neighbour membership test against the brute force."""

    @pytest.mark.parametrize("density", sorted(_DENSITIES))
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_equals_brute(self, d, density):
        m = _DENSITIES[density](d)
        hits = 0
        for n in (1, 10, 300):  # n - 1 below and above _CERT_NEIGHBORS
            for r in range(3):
                rng = RandomStream(40 + d, 10 * n + r)
                x = m.sample(rng, 1)[0] if r else np.zeros(d)
                hits += _member_matches_brute(x, m.sample(rng, n - 1), m.sample(rng, 3000)).sum()
        assert hits > 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_probes_on_and_beside_bisectors(self, d):
        # probes on the bisector of x and each of its neighbours, up to the
        # rounding of the midpoint, and one ulp to either side: the brute
        # force's own rounding decides them, and ties go to x
        rng = np.random.default_rng(50 + d)
        x = rng.uniform(-0.5, 0.5, d)
        others = x + rng.uniform(-0.2, 0.2, (60, d))
        along = rng.standard_normal((len(others), 20, d))
        axis = others - x
        along -= (along @ axis[:, :, None]) * axis[:, None, :] / (axis**2).sum(axis=1)[:, None, None]
        on = ((x + others) / 2)[:, None, :] + 0.05 * along
        draws = _ulp_shifts(on.reshape(-1, d))
        inside = _member_matches_brute(x, others, draws)
        assert 0 < inside.sum() < len(draws)

    def test_exact_bisector_tie_goes_to_x(self):
        # (0.5 - 0)^2 == (0.5 - 1)^2 exactly; one ulp either side decides
        x = np.zeros(1)
        draws = np.array([[0.5], [np.nextafter(0.5, 0.0)], [np.nextafter(0.5, 1.0)]])
        assert _member_matches_brute(x, [[1.0]], draws).tolist() == [True, True, False]

    @pytest.mark.parametrize("copies", [2, 40])
    def test_copies_of_x(self, copies):
        # copies of x tie with it everywhere and lose every tie; 40 of them
        # fill the prefilter's neighbour set with points that reject nothing
        m = uniform_ball(3)
        rng = RandomStream(60, copies)
        x = np.full(3, 0.2)
        others = np.vstack([m.sample(rng, 100), np.tile(x, (copies, 1))])
        draws = np.vstack([m.sample(rng, 3000), x, others[:5]])
        assert _member_matches_brute(x, others, draws)[-6]  # the probe at x

    def test_near_copy_of_x(self):
        # a neighbour 1e-12 from x: whether a probe at distance 1 is nearer
        # to it than to x is below the brute force's rounding when the probe
        # is almost equidistant, and the prefilter must leave those probes
        # to it
        x = np.array([0.1, -0.2, 0.3])
        y = x + np.array([1e-12, 0.0, 0.0])
        rng = np.random.default_rng(61)
        draws = rng.standard_normal((4000, 3))
        draws /= np.linalg.norm(draws, axis=1, keepdims=True)
        draws[:, 0] = rng.uniform(-1e-6, 1e-6, 4000)  # nearly equidistant
        draws += x
        inside = _member_matches_brute(x, y[None, :], draws)
        assert 0 < inside.sum() < len(draws)

    def test_neighbour_just_beyond_twice_the_probe_distance(self):
        # y is 2p up to an ulp: its squared distance from x rounds to more
        # than 4 |p - x|^2, yet the brute force's rounding puts it nearer to
        # p than x, so the exact check must still see it
        p = np.array([0.970806197416207, 1.3382465221691346, 0.2937521225919658])
        y = np.array([1.941612394832414, 2.676493044338269, 0.5875042451839317])
        assert (y**2).sum() > 4.0 * (p**2).sum()
        assert _member_matches_brute(np.zeros(3), y[None, :], p[None, :]).tolist() == [False]

    def test_no_others(self):
        draws = uniform_ball(2).sample(RandomStream(62), 100)
        assert _member_matches_brute(np.zeros(2), np.zeros((0, 2)), draws).all()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_x_on_uniform_ball_boundary(self, d):
        m = uniform_ball(d)
        x = np.zeros(d)
        x[0] = 1.0
        rng = RandomStream(63, d)
        assert _member_matches_brute(x, m.sample(rng, 199), m.sample(rng, 5000)).any()

    @pytest.mark.parametrize("d", [2, 3])
    def test_gaussian_x_far_out(self, d):
        m = gaussian(d)
        x = np.zeros(d)
        x[-1] = 6.0
        rng = RandomStream(64, d)
        # few gaussian probes reach the cell; the shifted ones fill it
        draws = np.vstack([m.sample(rng, 4000), x + m.sample(rng, 1000)])
        assert _member_matches_brute(x, m.sample(rng, 1999), draws).any()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_order_of_ties_does_not_matter(self, d):
        # copies and sign flips around x tie in distance, also across the
        # prefilter's 32 nearest; ties in input order and in reverse input
        # order give the same hits and the same cone radii
        pts = uniform_ball(d).sample(RandomStream(67, d), 500)
        others = np.vstack([pts, -pts, pts[:100]])
        x = np.zeros(d)
        rel, dist2, order = cellsim._by_distance(x, others)
        forward = np.argsort(dist2, kind="stable")
        backward = dist2.size - 1 - np.argsort(dist2[::-1], kind="stable")
        assert not np.array_equal(forward, backward)
        assert np.array_equal(dist2[forward], dist2[backward])
        draws = uniform_ball(d).sample(RandomStream(68, d), 3000)
        dirs = cone_directions(d)
        want = _member_matches_brute(x, others, draws)
        radii = _radii_match_brute(x, others, d)
        assert want.any()
        for o in (forward, backward):
            assert np.array_equal(cellsim._cell_member(x, others, draws, (rel, dist2, o)), want)
            assert np.array_equal(cone_nn_radii(x, others, dirs, (rel, dist2, o)), radii)

    def test_prefilter_memory_bounded(self):
        # 2 * 10^5 probes: the (neighbours, probes) product alone would take
        # 51 MB; blocks keep the peak near the size of the returned mask
        m = uniform_ball(3)
        others = m.sample(RandomStream(65), 1999)
        draws = m.sample(RandomStream(66), 200_000)
        tracemalloc.start()
        try:
            cellsim._cell_member(np.zeros(3), others, draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= draws.shape[0] + 4 * _CERT_NEIGHBORS * _CERT_BLOCK * 8


def _hit_fraction(x, others, model, probes, rng) -> float:
    """Fraction of `probes` model draws whose nearest point among {x} plus
    `others` is x: the probe estimate of the cell measure that `cell` takes."""
    return len(cellsim._probe_hits(np.asarray(x, dtype=float), others, model, probes, rng)) / probes


class TestEstimateCellMeasure:
    def test_no_others_is_one(self):
        m = uniform_ball(2)
        assert _hit_fraction([0.0, 0.0], np.zeros((0, 2)), m, 500, RandomStream(1)) == 1.0

    def test_d1_quarter_cell(self):
        # uniform on [-1, 1]: the cell of 0 against {0.5, -0.5} is (-1/4, 1/4)
        m = uniform_ball(1)
        probes = 20_000
        p = _hit_fraction([0.0], [[0.5], [-0.5]], m, probes, RandomStream(2))
        assert abs(p - 0.25) <= 4 * math.sqrt(0.25 * 0.75 / probes)

    def test_matches_exact_1d_oracle(self):
        m = uniform_ball(1)
        rng = RandomStream(5)
        others = m.sample(rng, 30)
        mu = exact_cell_measure_1d([0.1], others, m)
        probes = 50_000
        p = _hit_fraction([0.1], others, m, probes, RandomStream(6))
        assert abs(p - mu) <= 4 * math.sqrt(mu * (1 - mu) / probes)

    def test_unconditioned_mean_is_one(self):
        # with a random center the exact identity E[n mu(S_1)] = 1 holds at
        # every finite n, and the probe estimator inherits it unbiasedly
        m = uniform_ball(1)
        n, reps, probes = 50, 400, 200
        vals = np.empty(reps)
        for r in range(reps):
            rng = RandomStream(7, r)
            pts = m.sample(rng, n)
            vals[r] = n * _hit_fraction(pts[0], pts[1:], m, probes, rng)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - 1.0) <= 4 * se

    @pytest.mark.parametrize("d", [2, 3])
    def test_copies_of_x_in_others_change_nothing(self, d):
        # x has index 0 and wins every tie, so copies of it own no probe
        m = uniform_ball(d)
        x = np.full(d, 0.1)
        others = m.sample(RandomStream(20, d), 60)
        with_copies = np.vstack([others[:30], x, others[30:], x])
        a = cellsim._probe_hits(x, others, m, 4000, RandomStream(21, d))
        b = cellsim._probe_hits(x, with_copies, m, 4000, RandomStream(21, d))
        assert np.array_equal(a, b)
        assert len(a) > 0


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

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_random_validation_no_uncovered(self, d):
        dirs = cone_directions(d)
        rng = np.random.default_rng(100 + d)
        v = rng.standard_normal((100_000, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        covered = (v @ dirs.T >= math.cos(CONE_HALF_APERTURE) - 1e-12).any(axis=1)
        assert covered.all()

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_shipped_covers_match_builder(self, d):
        assert np.array_equal(cone_directions(d), cone_cover.build_cone_directions(d))

    def test_table_covers_every_diam_dimension(self):
        with np.load(cellsim._COVER_TABLE, allow_pickle=False) as table:
            assert sorted(table.files) == [f"d{d}" for d in range(3, _DIAM_MAX_D + 1)]

    def test_table_is_package_data(self):
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
        assert cellsim._COVER_TABLE.name in package_data["vorlab"]

    @pytest.mark.parametrize("d", [6, 7])
    def test_no_cover_raises_at_once(self, d):
        with pytest.raises(ValueError, match="cone cover"):
            cone_directions(d)

    def test_incomplete_cover_raises(self, monkeypatch):
        # one candidate direction, and one added vector per repair round,
        # leave the cover far too small for 64 repair rounds at d = 4
        sphere_lds = cone_cover._sphere_lds
        monkeypatch.setattr(cone_cover, "_sphere_lds", lambda d, n, key: sphere_lds(d, 1, key))
        monkeypatch.setattr(cone_cover, "_greedy_cover", lambda cand: cand[:1])
        with pytest.raises(ValueError, match="cone cover"):
            cone_cover.build_cone_directions(4)

    # the sphere point set of the first cover, and random unit vectors like
    # the holes that repair rounds cover
    @pytest.mark.parametrize("d, points", [(3, "sphere"), (4, "sphere"), (5, "sphere"),
                                           (4, "random")])
    def test_greedy_cover_matches_quadratic_oracle(self, d, points):
        if points == "sphere":
            # the oracle recounts a (4096, 4096) matrix per pick, about 9 s at
            # d = 4 and most of a minute at d = 5, where
            # test_shipped_covers_match_builder already pins the 4096-point
            # cover bit for bit
            cand = cone_cover._sphere_lds(d, 4096 if d == 3 else 1024, 0)
        else:
            cand = np.random.default_rng(7).standard_normal((3000, d))
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        got = cone_cover._greedy_cover(cand)
        assert np.array_equal(got, greedy_cap_cover_quadratic(cand, CONE_HALF_APERTURE))

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_no_deep_holes_left(self, d):
        assert len(cone_cover._deep_holes(cone_directions(d))) == 0

    def test_deep_holes_found_where_a_direction_is_missing(self):
        dirs = cone_directions(3)[1:]
        holes = cone_cover._deep_holes(dirs)
        assert len(holes) > 0
        assert np.allclose(np.linalg.norm(holes, axis=1), 1.0)
        assert np.all((holes @ dirs.T).max(axis=1) < math.cos(CONE_HALF_APERTURE))

    def test_build_memory_bounded(self):
        tracemalloc.start()
        try:
            cone_cover.build_cone_directions(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20

    def test_cached_and_read_only(self):
        dirs = cone_directions(3)
        assert cone_directions(3) is dirs
        with pytest.raises(ValueError):
            dirs[0, 0] = 2.0


def _radii_match_brute(x, others, d: int) -> np.ndarray:
    """cone_nn_radii, checked bit for bit against the every-point, every-cone oracle."""
    dirs = cone_directions(d)
    got = cone_nn_radii(x, others, dirs)
    cut = math.cos(CONE_HALF_APERTURE) - cellsim._CONE_BOUNDARY_TOL
    assert np.array_equal(got, cone_nn_radii_brute(x, others, dirs, cut))
    return got


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

    @pytest.mark.parametrize("n_others", [0, 1, 50, 1999])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_equals_brute(self, d, n_others):
        m = uniform_ball(d)
        rng = RandomStream(70 + d, n_others)
        for x in (np.zeros(d), m.sample(rng, 1)[0]):
            _radii_match_brute(x, m.sample(rng, n_others), d)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_equal_distance_ties(self, d):
        # sign flips of points around the origin have exactly equal
        # distances; 3 copies of each spread every tie over walk blocks
        pts = uniform_ball(d).sample(RandomStream(75, d), 30)
        flips = np.vstack([pts, -pts, pts * np.where(np.arange(d) % 2, -1.0, 1.0)])
        _radii_match_brute(np.zeros(d), np.repeat(flips, 3, axis=0), d)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_duplicates_of_x(self, d):
        m = uniform_ball(d)
        rng = RandomStream(76, d)
        x = 0.5 * m.sample(rng, 1)[0]
        others = np.vstack([m.sample(rng, 300), np.repeat(x[None, :], 2, axis=0)])
        assert np.all(_radii_match_brute(x, others, d) == 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_half_space_walks_every_point(self, d):
        # the cones around -e1 stay empty, so the radii are found only by a
        # pass over every point
        pts = uniform_ball(d).sample(RandomStream(77, d), 1999)
        pts[:, 0] = np.abs(pts[:, 0])
        radii = _radii_match_brute(np.zeros(d), pts, d)
        assert np.isinf(radii).any() and np.isfinite(radii).any()


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

    @pytest.mark.parametrize("density", sorted(_DENSITIES))
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_equals_its_parts(self, d, density):
        # one shared nearest-first order gives the same bracket as the cone
        # radii and the probe hits in the window they certify, computed on
        # their own on the same streams
        m = _DENSITIES[density](d)
        x = np.zeros(d)
        for n in (1, 60, 1500):
            others = m.sample(RandomStream(80 + d, n), n - 1)
            got = estimate_cell_diameter(x, others, m, 1000, RandomStream(81 + d, n))
            radii = cone_nn_radii(x, others, cone_directions(d))
            window = cellsim._WINDOW_SCALE * float(radii.max())
            hits = cellsim._probe_hits(x, others, m, 1000, RandomStream(81 + d, n), window=window)
            want = (max_pairwise_distance_quadratic(hits), math.sqrt(d) * float(radii.max()))
            assert got == want

    def test_copy_of_x_empties_the_window(self):
        # every cone radius is 0, so the window and the bracket are empty
        m = uniform_ball(2)
        x = np.array([0.3, -0.1])
        others = np.vstack([m.sample(RandomStream(23), 50), x])
        assert estimate_cell_diameter(x, others, m, 1000, RandomStream(24)) == (0.0, 0.0)


class TestMaxPairwiseDistance:
    """The pruned farthest pair against the pass over every pair."""

    @pytest.mark.parametrize("shape", ["ball", "sphere", "grid", "offset"])
    def test_equals_quadratic_oracle(self, shape):
        rng = np.random.default_rng(90)
        for _ in range(40):
            d = int(rng.integers(1, 11))
            pts = rng.standard_normal((int(rng.integers(0, 600)), d))
            if shape == "sphere":  # every point as far from the centroid as any
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            elif shape == "grid":  # ties, and duplicates of whole rows
                pts = np.round(pts, 1)
                pts = np.vstack([pts, pts[: len(pts) // 2]])
            elif shape == "offset":  # far from the origin, spread 1e-3
                pts = 1e6 + 1e-3 * pts
            assert _max_pairwise_distance(pts) == max_pairwise_distance_quadratic(pts)

    def test_every_probe_a_hit_stays_small(self):
        # with n = 1 every probe hits: 5000 of them at d = 3 once took a
        # (1118, 5000, 3) block
        pts = uniform_ball(3).sample(RandomStream(91), 5000)
        tracemalloc.start()
        try:
            got = _max_pairwise_distance(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * cellsim._PAIR_ELEMENTS * 8 + 4 * pts.nbytes
        assert got == max_pairwise_distance_quadratic(pts)


def _window(x, others, d: int) -> float:
    return cellsim._WINDOW_SCALE * float(cone_nn_radii(x, others, cone_directions(d)).max())


def _boundary_point(density: str, d: int) -> np.ndarray:
    """x on the support's boundary; for the gaussian, far in its tail."""
    x = np.zeros(d)
    x[0] = 3.0 if density == "gaussian" else 1.0
    return x


class TestProbeWindow:
    """Probes drawn only in the ball B(x, R) that the cone radii certify."""

    @pytest.mark.parametrize("density", sorted(_DENSITIES))
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_certificate_holds_every_plain_hit(self, d, density):
        m = _DENSITIES[density](d)
        finite = 0
        # at d = 5 (1023 cones) the cells of n <= 2000 mostly have an empty cone
        grid = (1, 20, 200, 2000) + ((20_000,) if d == 5 else ())
        for i, x in enumerate([np.zeros(d), np.full(d, 0.5 / math.sqrt(d)),
                               _boundary_point(density, d)]):
            for n in grid:
                rng = RandomStream(92 + d, 10 * n + i)
                others = m.sample(rng, n - 1)
                window = _window(x, others, d)
                hits = cellsim._probe_hits(x, others, m, 20_000, rng)
                assert np.all(np.linalg.norm(hits - x, axis=1) <= window)
                finite += math.isfinite(window) and len(hits) > 0
        assert finite > 0

    @pytest.mark.parametrize(
        "model, x, n",
        # x = (0.8, 0): most windows are finite, a third of them reach past the
        # support, and closer to the boundary the outer cones are mostly empty
        [(uniform_ball(2), np.array([0.8, 0.0]), 300), (gaussian(3), np.zeros(3), 200)],
        ids=["ball-d2-boundary", "gauss-d3"],
    )
    def test_same_law_as_plain_probes(self, model, x, n):
        # per replicate: one sample of the other points, and the hit count and
        # farthest hit pair of a plain and of a windowed pass on streams of
        # their own; the paired differences have mean 0
        d = x.size
        diffs, finite = [], 0
        for r in range(400):
            others = model.sample(RandomStream(93, r), n - 1)
            window = _window(x, others, d)
            finite += math.isfinite(window)
            row = []
            for stream, w in ((94, math.inf), (95, window)):
                hits = cellsim._probe_hits(x, others, model, 3000, RandomStream(stream, r),
                                           window=w)
                row.append((len(hits), _max_pairwise_distance(hits)))
            diffs.append(np.subtract(*row))
        diffs = np.array(diffs)
        se = diffs.std(axis=0, ddof=1) / math.sqrt(len(diffs))
        assert np.all(np.abs(diffs.mean(axis=0)) <= 4 * se)
        assert finite >= 250

    @pytest.mark.parametrize(
        "model, x, window",
        [(gaussian(3), np.array([1.0, 0.0, 0.0]), 1.0),
         (uniform_ball(2), np.array([0.8, 0.0]), 0.5),
         (uniform_cube(2, side=2.0), np.array([0.9, 0.9]), 0.3)],
        ids=["gauss-d3", "ball-d2", "cube-d2"],
    )
    def test_thinned_probes_have_the_law_of_plain_ones(self, model, x, window):
        # with no other point every probe hits, so the windowed pass returns
        # the thinned draws; they and the plain probes that land in the
        # window (where the density varies, or the support ends) share a law
        counts, found = [], {math.inf: [], window: []}
        for r in range(100):
            row = []
            for stream, w in ((99, math.inf), (100, window)):
                hits = cellsim._probe_hits(x, np.zeros((0, x.size)), model, 2000,
                                           RandomStream(stream, r), window=w)
                hits = hits[np.linalg.norm(hits - x, axis=1) <= window]
                found[w].append(hits)
                row.append(len(hits))
            counts.append(row[0] - row[1])
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(np.mean(counts)) <= 4 * se
        plain, thinned = (np.concatenate(found[w]) for w in (math.inf, window))
        for a, b in ((np.linalg.norm(plain - x, axis=1), np.linalg.norm(thinned - x, axis=1)),
                     (plain[:, 0], thinned[:, 0])):
            assert ks_2samp(a, b).pvalue > 1e-3

    def test_empty_window_draws_no_hits(self):
        m = uniform_ball(2)
        rng = RandomStream(96)
        hits = cellsim._probe_hits(np.zeros(2), m.sample(rng, 10), m, 1000, rng, window=0.0)
        assert hits.shape == (0, 2)

    @pytest.mark.parametrize("density", sorted(_DENSITIES))
    def test_window_holding_all_mass_draws_plainly(self, density):
        # vol(B(x, 10)) times the density's peak is at least 1
        m = _DENSITIES[density](2)
        x = np.array([0.1, 0.2])
        others = m.sample(RandomStream(97), 30)
        plain = cellsim._probe_hits(x, others, m, 2000, RandomStream(98))
        wide = cellsim._probe_hits(x, others, m, 2000, RandomStream(98), window=10.0)
        draws = m.sample(RandomStream(98), 2000)
        assert np.array_equal(wide, plain)
        assert np.array_equal(plain, draws[NNIndex(np.vstack([x, others])).query(draws) == 0])


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
        with pytest.raises(ValueError, match="cone cover"):
            DiameterExperimentConfig(density=uniform_ball(6), n_grid=(100,))
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="t_grid"):
                DiameterExperimentConfig(density=uniform_ball(1), n_grid=(100,), t_grid=(1.0, t))
