"""End-to-end benchmark of the vorlab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--workload NAME]

Each workload is one fixed `vorlab` command.  A run drives it in a closed
loop with one client: a fresh CLI process at a time, the next one started
when the previous exits.  Before the loop an untimed set-up-only invocation
fills the bytecode and page caches.  Each cycle of the loop is one timed
invocation followed by one set-up-only invocation, so that set-up samples
are spread over the run like the timed ones; a further cycle starts only
if, at the median cycle time so far, it ends within --seconds.  Cycle j
uses vorlab seed 1000 * --seed + j.

Every invocation's CSV is checked (see `check`); an invocation fails on a
nonzero exit, a timeout or a failed check.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The metric names and units are those of BENCHMARK.json.

--trace 0 reports the end-to-end metrics (medians over the loop):
  wall_s       process spawn to exit;
  setup_s      spawn until vorlab is imported and the config parsed;
  cpu_s        user + system time of the process and its pool workers;
  tta_s        time to the workload's stated accuracy eps on its headline
               rows: setup_s + (wall_s - setup_s) * (stderr / eps)^2, with
               stderr^2 averaged over the rows and the loop's invocations;
  peak_rss_mb  largest resident set of any process in the tree.
failed / attempted is the failure fraction.

--trace 1 runs each loop seed twice, untraced then traced (no set-up-only
invocations), and reports the per-layer metrics (medians over the traced
invocations), with trace.overhead_s = traced wall_s - untraced wall_s.
The two CSVs of a seed must match byte for byte, elapsed_ms aside.

BLAS is pinned to one thread per process, so a workers=2 run keeps at most
two busy threads.  --smoke runs each workload once at a tiny size through
the same code and asserts that every metric is emitted with its unit and
every output check ran.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402

# alpha(2) to 13 digits; the README's reference value for d = 2
ALPHA_D2 = 1.2801760409267
CSV_HEADER = "command,d,k,n,estimate,stderr,lower_bound,upper_bound,seed,samples,elapsed_ms"
# the whole run, set-up and every invocation, ends within this many seconds
RUN_LIMIT_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_spec() -> dict:
    """BENCHMARK.json: the one list of workloads, metrics and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(spec: dict, trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, in report order."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    size_flag: str
    size: str
    smoke_size: str
    # k, or n, of the CSV rows whose mean squared stderr sets tta_s ("" for alpha)
    headline: tuple[str, ...]
    eps: float


WORKLOADS = {
    "alpha-d2": Workload(
        ("alpha", "--dim", "2", "--workers", "2"), "--samples", "4e6", "2e4", ("",), 1e-4),
    "zmoments-d2": Workload(
        ("zmoments", "--dim", "2", "--k-max", "4", "--inner-samples", "4096", "--workers", "1"),
        "--samples", "1024", "16", ("4",), 0.05),
    "diam-d3": Workload(
        ("diam", "--dim", "3", "--n-grid", "500,1000,2000", "--probes", "5000",
         "--workers", "2"),
        # all three rows: 180 replicates a row leave one row's variance
        # estimate too noisy for the bound on tta_s
        "--replicates", "180", "4", ("500", "1000", "2000"), 0.025),
}


@dataclass
class Invocation:
    seed: int
    traced: bool
    setup_only: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    csv: str
    stderr: str
    import_s: float = math.nan
    parse_s: float = math.nan
    setup_s: float = math.nan
    headline_var: float = math.nan
    layer: dict = field(default_factory=dict)
    top_self: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Runner:
    """Spawns CLI processes for one run and checks what they print."""

    def __init__(self, workload: Workload, size: str, workdir: str, deadline: float):
        self.workload = workload
        self.size = size
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, **BLAS_ENV)
        self.env.pop("PYTHONPATH", None)
        self.count = 0
        self.reference: dict[int, str] = {}
        self.checks_ran: set[str] = set()

    def spawn(self, seed: int, traced: bool = False, setup_only: bool = False) -> Invocation:
        self.count += 1
        tag = os.path.join(self.workdir, str(self.count))
        stamp, trace = tag + ".stamp", tag + ".trace" if traced else "-"
        argv = [sys.executable, os.path.join(HERE, "launch.py"), stamp, trace,
                "1" if setup_only else "0", "--", *self.workload.args,
                self.workload.size_flag, self.size, "--seed", str(seed)]
        with open(tag + ".out", "w+b") as out, open(tag + ".err", "w+b") as err:
            spawned = time.monotonic_ns()
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.workdir, start_new_session=True)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the invocation before leaving
                _kill_group(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            _kill_group(proc.pid)  # no worker may outlive its invocation
            out.seek(0)
            err.seek(0)
            inv = Invocation(seed, traced, setup_only, wall, usage.ru_utime + usage.ru_stime,
                             usage.ru_maxrss / 1024.0, proc.returncode,
                             out.read().decode(), err.read().decode())
        if inv.returncode != 0:
            inv.problems.append(f"exit code {inv.returncode}: {inv.stderr.strip()[-300:]}")
            return inv
        with open(stamp, encoding="utf-8") as fh:
            imported, parsed = (int(t) for t in fh.read().split())
        inv.import_s = (imported - spawned) * 1e-9
        inv.parse_s = (parsed - imported) * 1e-9
        inv.setup_s = (parsed - spawned) * 1e-9
        if not setup_only:
            inv.problems.extend(self.check(inv))
        if traced and not inv.problems:
            records = layers.load(trace)
            inv.layer = layers.metrics(records, proc.pid, inv.import_s, inv.parse_s)
            inv.top_self = layers.largest_self_times(records)
        return inv

    def check(self, inv: Invocation) -> list[str]:
        """Output checks; returns the problems found."""
        problems = []

        def expect(name, ok, what):
            self.checks_ran.add(name)
            if not ok:
                problems.append(f"{name}: {what}")

        lines = inv.csv.splitlines()
        expect("csv.header", bool(lines) and lines[0] == CSV_HEADER, "unexpected header")
        if problems:
            return problems
        rows = list(csv.DictReader(io.StringIO(inv.csv)))
        command = self.workload.args[0]
        expect("csv.rows", bool(rows) and all(r["command"] == command for r in rows),
               "no rows or wrong command")
        if problems:
            return problems
        est = {r["k"] or r["n"]: (float(r["estimate"]), float(r["stderr"])) for r in rows}

        def near(key, ref):
            value, se = est[key]
            return abs(value - ref) <= 4.0 * se

        if command == "alpha":
            value = est[""][0]
            expect("alpha.reference", near("", ALPHA_D2), f"{value} vs {ALPHA_D2}")
            # alpha_bounds(2): 1 <= alpha <= min(2, 1 + 6 (3/4)^(d/2))
            expect("alpha.envelope", 1.0 <= value <= min(2.0, 1.0 + 6.0 * 0.75), str(value))
        elif command == "zmoments":
            expect("zmoments.k1_exact", est["1"] == (1.0, 0.0), str(est["1"]))
            expect("zmoments.k2_reference", near("2", ALPHA_D2), str(est["2"]))
            for k in range(1, 5):
                # z_moment_bounds(2, k): k!/2^(2k) <= E[Z^k] <= k!
                kf = math.factorial(k)
                expect("zmoments.sandwich", kf / 4.0**k <= est[str(k)][0] <= kf,
                       f"k={k}: {est[str(k)]}")
        else:
            for r in rows:
                expect("diam.bracket", float(r["lower_bound"]) <= float(r["upper_bound"]),
                       f"n={r['n']}")
                expect("diam.finite", math.isfinite(float(r["estimate"])), f"n={r['n']}")
        inv.headline_var = _mean([est[key][1] ** 2 for key in self.workload.headline])
        # every column but elapsed_ms is deterministic in (config, seed, workers)
        body = "\n".join(line.rsplit(",", 1)[0] for line in lines)
        ref = self.reference.setdefault(inv.seed, body)
        expect("csv.identical", body == ref, f"seed {inv.seed} differs between invocations")
        return problems


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _median(values):
    return statistics.median(values) if values else math.nan


def _mean(values):
    return statistics.fmean(values) if values else math.nan


def provenance(workload: str, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"), "blas": blas, "blas_env": BLAS_ENV,
        "start_method": multiprocessing.get_start_method(), "commit": commit,
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, units: dict[str, str],
                  smoke: bool = False) -> tuple[dict, set[str]]:
    """One run of a workload, reporting the metrics of `units`.

    Returns (result object, names of checks that ran).
    """
    started = time.monotonic()
    workload = WORKLOADS[name]
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        runner = Runner(workload, workload.smoke_size if smoke else workload.size, workdir,
                        started + RUN_LIMIT_S)
        invs = [runner.spawn(1000 * seed, setup_only=True)]  # warm-up, not measured
        loop: list[Invocation] = []
        cycles: list[float] = []
        loop_end = time.monotonic() + seconds
        j = 0
        while not any(i.failed for i in invs + loop):
            cycle_start = time.monotonic()
            loop.append(runner.spawn(1000 * seed + j))
            loop.append(runner.spawn(1000 * seed + j, traced=trace, setup_only=not trace))
            j += 1
            cycles.append(time.monotonic() - cycle_start)
            if time.monotonic() + statistics.median(cycles) > loop_end:
                break
        invs += loop
        plain = [i for i in loop if not i.traced and not i.setup_only]
        setups = [i.setup_s for i in loop if not i.traced]
        failed = [i for i in invs if i.failed]
        for i in failed:
            print(f"FAILED seed={i.seed}: {'; '.join(i.problems)}", file=sys.stderr)

        if trace:
            traced = [i for i in loop if i.traced]
            metrics = {m: _median([i.layer[m] for i in traced if i.layer])
                       for m in units if m != "trace.overhead_s"}
            metrics["trace.overhead_s"] = (_median([i.wall_s for i in traced])
                                           - _median([i.wall_s for i in plain]))
        else:
            wall = _median([i.wall_s for i in plain])
            setup = _median(setups)
            variance = _mean([i.headline_var for i in plain if not i.failed])
            metrics = {
                "wall_s": wall,
                "setup_s": setup,
                "cpu_s": _median([i.cpu_s for i in plain]),
                "tta_s": setup + (wall - setup) * variance / workload.eps ** 2,
                "peak_rss_mb": _median([i.rss_mb for i in plain]),
            }
        print(f"# {name}: {len(plain)} timed invocations, {len(setups)} set-up samples, "
              f"{len(failed)}/{len(invs)} failed", file=sys.stderr)
        for i in plain:
            print(f"#   seed={i.seed} wall_s={i.wall_s:.3f} setup_s={i.setup_s:.3f} "
                  f"cpu_s={i.cpu_s:.3f} rss_mb={i.rss_mb:.1f} "
                  f"stderr={math.sqrt(i.headline_var):.6g}", file=sys.stderr)
        for i in loop:
            if i.traced:
                print(f"#   traced seed={i.seed} wall_s={i.wall_s:.3f} largest self_s: "
                      + ", ".join(f"{n}={t:.3f}" for n, t in i.top_self), file=sys.stderr)
        result = {
            "correct": not failed,
            "attempted": len(invs),
            "failed": len(failed),
            "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
        }
        return result, runner.checks_ran
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run's directory is still there
            pass


# the output checks each workload must run on every invocation
CHECKS = {
    "alpha-d2": {"alpha.reference", "alpha.envelope"},
    "zmoments-d2": {"zmoments.k1_exact", "zmoments.k2_reference", "zmoments.sandwich"},
    "diam-d3": {"diam.bracket", "diam.finite"},
}
COMMON_CHECKS = {"csv.header", "csv.rows", "csv.identical"}


def smoke(names) -> None:
    """Each workload once at a tiny size, untraced and traced; raises on a gap."""
    spec = load_spec()
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]}, sorted(WORKLOADS)
    for name in names:
        ran = set()
        for trace in (False, True):
            units = metric_units(spec, trace)
            result, checks = run_benchmark(name, seed=1, seconds=0.0, trace=trace, units=units,
                                           smoke=True)
            ran |= checks
            assert result["correct"] and result["failed"] == 0, (name, result)
            assert {m: v["unit"] for m, v in result["metrics"].items()} == units, (name, result)
            assert all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in result["metrics"].values()), (name, result)
        missing = (CHECKS[name] | COMMON_CHECKS) - ran
        assert not missing, (name, missing)
        print(f"smoke {name}: ok", file=sys.stderr)


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, one invocation per workload, assert every metric")
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "vorlab", "cli.py")):
        print(f"perfbench: no vorlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.smoke:
        smoke([args.workload] if args.workload else list(WORKLOADS))
        return 0
    if args.workload is None:
        p.error("--workload is required")
    print("# provenance " + json.dumps(provenance(args.workload, args.seed)))
    trace = bool(args.trace)
    result, _ = run_benchmark(args.workload, args.seed, args.seconds, trace,
                              metric_units(spec, trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
