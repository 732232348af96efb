"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is also part of the default test run.
"""

import math
import time

import numpy as np
import pytest

from vorlab import cli
from vorlab.cellsim import (
    CellExperimentConfig,
    DiameterExperimentConfig,
    run_cell_experiment,
    run_diameter_experiment,
)
from vorlab.geometry import (
    Ball,
    ball_intersection_volume,
    interval_union_length,
    two_ball_union_volume,
    union_volume_mc,
)
from vorlab.moments import (
    estimate_alpha_parallel,
    estimate_z_moment_parallel,
    z_cdf_d1,
    z_moment_bounds,
    z_moment_closed_form_d1,
)
from vorlab.sampling import RandomStream, gaussian, uniform_ball

from oracles import ks_statistic, lens_volume_quad

ALPHA_D2 = 1.2801760409267
ALPHA_D3 = 1.179032437845
LENS_D2 = 2 * math.pi / 3 - math.sqrt(3) / 2
LENS_D3 = 5 * math.pi / 12


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="session")
def alpha_grid():
    """alpha estimates for d = 1..15 at one million samples each."""
    return {
        d: estimate_alpha_parallel(d, 1_000_000, seed=101 + d, workers=1)
        for d in range(1, 16)
    }


@pytest.fixture(scope="session")
def z2_estimates():
    return {
        d: estimate_z_moment_parallel(d, 2, outer=400_000, seed=230, stream_index=d)
        for d in (1, 2, 3)
    }


@pytest.fixture(scope="session")
def zk_estimates():
    out = {}
    for d in (1, 2, 3):
        outer = 15_000 if d == 1 else 8_000
        for k in (3, 4):
            out[(d, k)] = estimate_z_moment_parallel(
                d, k, outer=outer, inner=4096, seed=240 + d, stream_index=k
            )
    return out


@pytest.fixture(scope="session")
def cell_d1_probe():
    t0 = time.perf_counter()
    res = run_cell_experiment(
        CellExperimentConfig(
            density=uniform_ball(1), x=[0.0], n=2000, replicates=2000,
            probes=5000, seed=301, k_max=2,
        )
    )
    return res, time.perf_counter() - t0


@pytest.fixture(scope="session")
def cell_d1_exact():
    res = run_cell_experiment(
        CellExperimentConfig(
            density=uniform_ball(1), x=[0.0], n=2000, replicates=2000,
            probes=5000, seed=301, k_max=2, measure_mode="exact",
        )
    )
    return res


@pytest.fixture(scope="session")
def cell_d2():
    return run_cell_experiment(
        CellExperimentConfig(
            density=uniform_ball(2), x=[0.0, 0.0], n=2000, replicates=6000,
            probes=5000, seed=302, k_max=2,
        )
    )


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_alpha_d1():
    cfg = cli.parse_config("command=alpha dim=1 samples=1e6 seed=111 workers=1")
    t0 = time.perf_counter()
    row = cli.run(cfg)[0]
    elapsed = time.perf_counter() - t0
    err = abs(row.estimate - 1.5)
    ok = err <= 4 * row.stderr and 3e-4 <= row.stderr <= 8e-4 and elapsed < 10.0
    report(
        1, "alpha(1) = 3/2",
        ok,
        f"est={row.estimate:.6f} err={err:.2e} 4se={4 * row.stderr:.2e} t={elapsed:.1f}s",
    )


def test_criterion_02_alpha_d2():
    cfg = cli.parse_config("command=alpha dim=2 samples=1e7 seed=112 workers=1")
    t0 = time.perf_counter()
    row = cli.run(cfg)[0]
    elapsed = time.perf_counter() - t0
    err = abs(row.estimate - ALPHA_D2)
    tol = max(4 * row.stderr, 5e-4)
    ok = err <= tol and elapsed < 180.0
    report(2, "alpha(2) reference", ok, f"est={row.estimate:.8f} err={err:.2e} tol={tol:.2e} t={elapsed:.0f}s")


def test_criterion_03_alpha_d3():
    cfg = cli.parse_config("command=alpha dim=3 samples=1e7 seed=113 workers=1")
    row = cli.run(cfg)[0]
    err = abs(row.estimate - ALPHA_D3)
    tol = max(4 * row.stderr, 5e-4)
    report(3, "alpha(3) reference", err <= tol, f"est={row.estimate:.8f} err={err:.2e} tol={tol:.2e}")


def test_criterion_04_envelope(alpha_grid):
    worst = ""
    ok = True
    for d, est in alpha_grid.items():
        upper = min(2.0, 1.0 + 6.0 * 0.75 ** (d / 2))
        lo_ok = est.value >= 1.0 - 4 * est.stderr
        hi_ok = est.value <= upper + 4 * est.stderr
        if not (lo_ok and hi_ok):
            ok = False
            worst = f"d={d} est={est.value:.5f} envelope=(1,{upper:.4f})"
    report(4, "envelope 1..min(2, 1+6(3/4)^(d/2)) for d=1..15", ok, worst or "all inside")


def test_criterion_05_z2_consistency(alpha_grid, z2_estimates):
    ok = True
    details = []
    for d in (1, 2, 3):
        z1 = estimate_z_moment_parallel(d, 1, outer=10, seed=0)
        if not (z1.value == 1.0 and z1.stderr == 0.0):
            ok = False
        za, al = z2_estimates[d], alpha_grid[d]
        gap = abs(za.value - al.value)
        tol = 4 * math.hypot(za.stderr, al.stderr)
        details.append(f"d={d} gap={gap:.2e} tol={tol:.2e}")
        if gap > tol:
            ok = False
    report(5, "z-moment k=2 equals alpha; k=1 exact", ok, "; ".join(details))


def test_criterion_06_d1_closed_forms(z2_estimates, zk_estimates):
    ok = True
    details = []
    for k in (2, 3, 4):
        est = z2_estimates[1] if k == 2 else zk_estimates[(1, k)]
        target = z_moment_closed_form_d1(k)
        err = abs(est.value - target)
        details.append(f"k={k} err={err:.3e} 4se={4 * est.stderr:.3e}")
        if err > 4 * est.stderr:
            ok = False
    report(6, "d=1 moments (k+1)!/2^k", ok, "; ".join(details))


def test_criterion_07_sandwich(z2_estimates, zk_estimates):
    ok = True
    worst = ""
    for d in (1, 2, 3):
        checks = {1: (1.0, 0.0), 2: (z2_estimates[d].value, z2_estimates[d].stderr)}
        for k in (3, 4):
            est = zk_estimates[(d, k)]
            checks[k] = (est.value, est.stderr)
        for k, (value, stderr) in checks.items():
            b = z_moment_bounds(d, k)
            if not (b.lower - 4 * stderr <= value <= b.upper + 4 * stderr):
                ok = False
                worst = f"d={d} k={k} value={value:.4f} bounds=({b.lower:.4g},{b.upper:.4g})"
    report(7, "sandwich k!/2^(dk) <= E[Z^k] <= k!", ok, worst or "all inside")


def test_criterion_08_cell_experiment_d1(cell_d1_probe, cell_d1_exact):
    probe, elapsed = cell_d1_probe
    m1 = probe.empirical_moments[1]
    m2 = probe.empirical_moments[2]
    ks_exact = ks_statistic(cell_d1_exact.ecdf, z_cdf_d1)
    ks_probe = ks_statistic(probe.ecdf, z_cdf_d1)
    ok = (
        abs(m1 - 1.0) <= 0.05
        and abs(m2 - 1.5) <= 0.075
        and ks_exact < 0.05
        and elapsed < 300.0
    )
    report(
        8, "d=1 cell: mean, second moment, KS to limit law",
        ok,
        f"m1={m1:.4f} m2={m2:.4f} KS(exact measure)={ks_exact:.4f} "
        f"[probe-noise ECDF KS={ks_probe:.3f}] t={elapsed:.0f}s",
    )


def test_criterion_09_cell_experiment_d2(cell_d2):
    m2 = cell_d2.empirical_moments[2]
    tol = 0.07 * ALPHA_D2
    err = abs(m2 - ALPHA_D2)
    report(
        9, "d=2 cell second moment vs 1.28018",
        err <= tol,
        f"m2={m2:.4f} err={err:.4f} tol={tol:.4f} se={cell_d2.moment_stderrs[2]:.4f}",
    )


def test_criterion_10_union_mc_vs_oracles():
    failures = 0
    total = 0
    samples = 20_000
    for d, count in ((1, 34), (2, 33), (3, 33)):
        for i in range(count):
            rng = RandomStream(400 + d, i)
            k = 3 if d == 1 else 2
            centers = rng.random((k, d)) * 2.0 - 1.0
            radii = 0.1 + 0.9 * rng.random(k)
            balls = [Ball(c, r) for c, r in zip(centers, radii)]
            if d == 1:
                oracle = interval_union_length(
                    [(c[0] - r, c[0] + r) for c, r in zip(centers, radii)]
                )
            else:
                oracle = two_ball_union_volume(*balls)
            est = union_volume_mc(balls, samples, rng)
            total += 1
            if est.stderr > 0.0:
                if abs(est.value - oracle) > 4 * est.stderr:
                    failures += 1
            else:
                # zero-variance run: no draw saw an overlap, so the sample
                # stderr is degenerate; the exact zero-count bound says the
                # unobserved overlap mass can be at most ln(100)/samples of
                # the total at 99% confidence
                scale = sum(b.volume for b in balls)
                if abs(est.value - oracle) > (math.log(100.0) / samples) * scale:
                    failures += 1
    report(10, "union MC vs exact oracles (100 instances)", failures == 0,
           f"{total - failures}/{total} consistent")


def test_criterion_11_lens_spot_checks():
    got2 = ball_intersection_volume(Ball([0.0, 0.0], 1.0), Ball([1.0, 0.0], 1.0))
    got3 = ball_intersection_volume(
        Ball([0.0, 0.0, 0.0], 1.0), Ball([1.0, 0.0, 0.0], 1.0)
    )
    err2 = abs(got2 - LENS_D2)
    err3 = abs(got3 - LENS_D3)
    quad2, _ = lens_volume_quad(2, 1.0, 1.0, 1.0)
    quad3, _ = lens_volume_quad(3, 1.0, 1.0, 1.0)
    ok = (
        err2 <= 1e-10 and err3 <= 1e-10
        and abs(quad2 - LENS_D2) <= 1e-8 and abs(quad3 - LENS_D3) <= 1e-8
    )
    report(11, "lens closed forms to 1e-10", ok, f"err(d2)={err2:.1e} err(d3)={err3:.1e}")


def test_criterion_12_diameter_scaling():
    res = run_diameter_experiment(
        DiameterExperimentConfig(
            density=uniform_ball(1), x=[0.0], n_grid=(1000, 10000),
            t_grid=(1.0, 2.0, 3.0, 4.0), replicates=400, probes=5000, seed=303,
        )
    )
    med_small = res.quantiles[1000][0.5][1]
    med_large = res.quantiles[10000][0.5][1]
    ratio = med_small / med_large
    monotone = all(np.all(np.diff(res.exceedance[n]) <= 0) for n in res.n_grid)
    ok = 0.67 <= ratio <= 1.5 and monotone
    report(
        12, "d=1 diameter scaling",
        ok,
        f"medians n*diam: {med_small:.3f} vs {med_large:.3f} ratio={ratio:.3f}; "
        f"exceedance monotone={monotone}",
    )


def test_criterion_13_determinism(tmp_path):
    specs = {
        "alpha": "command=alpha dim=1 samples=30000 seed=13",
        "zmoments": "command=zmoments dim=1 k_max=3 samples=1000 inner_samples=256 seed=13",
        "cell": "command=cell dim=1 n=300 replicates=200 probes=500 seed=13",
        "diam": "command=diam dim=1 n_grid=100,200 t_grid=1,2 replicates=80 probes=200 seed=13",
        "unionvol-check": "command=unionvol-check dim=2 replicates=10 samples=5000 seed=13",
    }
    ok = True
    details = []
    for name, text in specs.items():
        cfg = cli.parse_config(text)
        first = _rows_text(cli.run(cfg))
        second = _rows_text(cli.run(cfg))
        if first != second:
            ok = False
            details.append(f"{name} not reproducible")
    r1 = cli.run(cli.parse_config("command=alpha dim=2 samples=200000 seed=14 workers=1"))[0]
    r4 = cli.run(cli.parse_config("command=alpha dim=2 samples=200000 seed=14 workers=4"))[0]
    gap = abs(r1.estimate - r4.estimate)
    tol = 4 * math.hypot(r1.stderr, r4.stderr)
    if gap > tol:
        ok = False
    details.append(f"workers 1 vs 4 gap={gap:.2e} tol={tol:.2e}")
    cell1 = run_cell_experiment(
        CellExperimentConfig(density=uniform_ball(1), n=300, replicates=200, probes=400, seed=15)
    )
    cell4 = run_cell_experiment(
        CellExperimentConfig(
            density=uniform_ball(1), n=300, replicates=200, probes=400, seed=15, workers=4
        )
    )
    if not np.array_equal(cell1.scaled_measures, cell4.scaled_measures):
        ok = False
        details.append("cell replicates depend on worker count")
    report(13, "determinism and worker invariance", ok, "; ".join(details))


def _rows_text(rows) -> str:
    return "\n".join(
        ",".join(
            cli._format_value(v)
            for v in (r.command, r.d, r.k, r.n, r.estimate, r.stderr,
                      r.lower_bound, r.upper_bound, r.seed, r.samples)
        )
        for r in rows
    )


def test_criterion_14_probability_integral_transform():
    ok = True
    details = []
    cases = [
        (uniform_ball(2), [0.0, 0.0], 0),
        (uniform_ball(2), [0.3, -0.2], 1),
        (gaussian(2), [0.0, 0.0], 2),
        (gaussian(2), [0.3, -0.2], 3),
    ]
    for model, x, idx in cases:
        rng = RandomStream(500, idx)
        draws = model.sample(rng, 10_000)
        x = np.asarray(x)
        u = model.ball_measure_batch(x, np.linalg.norm(draws - x, axis=1))
        ks = ks_statistic(u, lambda t: np.clip(t, 0.0, 1.0))
        details.append(f"{model.kind}@{x.tolist()}: KS={ks:.4f}")
        if ks >= 0.02:
            ok = False
    report(14, "probability integral transform uniform", ok, "; ".join(details))
