"""The benchmark's tracer wraps vorlab attributes by name.

`perfbench/tracer.py` looks up functions, methods and pool classes of
vorlab's modules by attribute name and replaces them with timed wrappers.
A renamed or deleted attribute makes `install()` raise, and a function the
program no longer calls leaves its layer without spans; either breaks every
traced benchmark run.  These tests run a small traced CLI invocation through
`perfbench/launch.py`, as the benchmark does, and check the spans it wrote.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_CASES = {
    "diam": (
        ["diam", "--dim", "3", "--n-grid", "50,100", "--replicates", "4", "--probes", "200",
         "--workers", "2"],
        {"cellsim.NNIndex.build", "cellsim.NNIndex.query", "cellsim.cone_directions",
         "cellsim.cone_nn_radii", "cellsim.estimate_cell_diameter", "cellsim.task",
         "cellsim.run_diameter_experiment", "sampling.DensityModel.sample",
         "sampling.sample_unit_ball_batch", "cli.run", "cli.write_csv"},
    ),
    "cell": (
        ["cell", "--dim", "2", "--n", "50", "--replicates", "4", "--probes", "200"],
        {"cellsim.NNIndex.build", "cellsim.NNIndex.query", "cellsim.task",
         "cellsim.run_cell_experiment", "cli.run"},
    ),
    "cell-pool": (
        ["cell", "--dim", "2", "--n", "50", "--replicates", "4", "--probes", "200",
         "--workers", "2"],
        {"cellsim.task", "cellsim.run_cell_experiment", "cli.run"},
    ),
    "alpha": (
        ["alpha", "--dim", "2", "--samples", "2e4", "--workers", "2"],
        {"moments.estimate", "moments.task", "wstat.sample_w_batch",
         "geometry.ball_intersection_volumes", "cli.run"},
    ),
    # at d = 3, where W_k is not exact, k = 3 takes inner draws
    "zmoments": (
        ["zmoments", "--dim", "3", "--k-max", "3", "--samples", "16", "--inner-samples", "64"],
        {"moments.estimate", "moments.task", "wstat.wk_mc_values",
         "geometry.union_volume_mc_values", "cli.run"},
    ),
}


def _trace(argv, tmp_path):
    """The records of one traced CLI run."""
    trace = tmp_path / "trace.jsonl"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "launch.py"), str(tmp_path / "stamp"), str(trace),
         "0", "--", *argv, "--output", str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in trace.read_text().splitlines()]


@pytest.mark.parametrize("command", sorted(_CASES))
def test_traced_run_records_every_layer(command, tmp_path):
    argv, layers = _CASES[command]
    spans = {r["name"] for r in _trace(argv, tmp_path) if r["kind"] == "span"}
    assert layers <= spans, sorted(layers - spans)


def test_alpha_sampler_spans_count_every_draw(tmp_path):
    # the tracer counts the rows of sample_w_batch's result as draws, so the
    # sampler must return one row per draw over both workers' chunks
    argv, _ = _CASES["alpha"]
    draws = [r["draws"] for r in _trace(argv, tmp_path)
             if r["kind"] == "span" and r["name"] == "wstat.sample_w_batch"]
    assert draws and sum(draws) == int(float(argv[argv.index("--samples") + 1]))


def test_zmoment_task_holds_the_level_calls(tmp_path):
    # of the case's k = 1..3, only k = 3 runs moments._zmoment_sums; its
    # level calls of wk_mc_values must record below its task span
    argv, _ = _CASES["zmoments"]
    spans = {r["id"]: r for r in _trace(argv, tmp_path) if r["kind"] == "span"}
    level_calls = [r for r in spans.values() if r["name"] == "wstat.wk_mc_values"]
    assert level_calls
    assert all(spans[r["parent"]]["name"] == "moments.task" for r in level_calls)


@pytest.mark.parametrize("command, layer", [
    ("diam", "cellsim"), ("cell-pool", "cellsim"), ("alpha", "moments"),
])
def test_pooled_run_records_its_pool(command, layer, tmp_path):
    # perfbench/layers.py finds a layer's pools by their records and counts
    # the worker time of the "<layer>.task" spans that carry a pool's id
    argv, _ = _CASES[command]
    records = _trace(argv, tmp_path)
    (pool,) = [r for r in records if r["kind"] == "pool"]
    assert pool["layer"] == layer
    tasks = [r for r in records if r["kind"] == "span" and r["name"] == f"{layer}.task"]
    assert tasks and all(r.get("pool") == pool["id"] for r in tasks)
