"""Golden CSVs: fixed CLI configs whose output must not change by a byte.

Each case runs `vorlab.cli.main` on its arguments and compares the CSV, with
the `elapsed_ms` column stripped, to `tests/golden/<case>.csv`.  A change
that is meant to alter outputs regenerates the files with

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

which writes the named cases only, or every case when none is named.  For
each row that moved it prints the old and new estimate and stderr, and
|new - old| / hypot(old stderr, new stderr); the change says why they moved.
"""

import csv
import math
import sys
from pathlib import Path

import pytest

from vorlab.cli import main

GOLDEN = Path(__file__).with_name("golden")

_DIAM_GRIDS = {2: "1,30,300", 3: "1,50,1000", 4: "1,100,4000", 5: "1,200,20000"}
_DENSITIES = {"ball": "uniform-ball:r=1", "gauss": "gaussian", "cube": "uniform-cube:side=2"}

CASES = {
    # the five configs of criterion 13 in tests/test_acceptance.py
    "c13-alpha": ["alpha", "--dim", "1", "--samples", "30000", "--seed", "13"],
    "c13-zmoments": ["zmoments", "--dim", "1", "--k-max", "3", "--samples", "1000",
                     "--inner-samples", "256", "--seed", "13"],
    "c13-cell": ["cell", "--dim", "1", "--n", "300", "--replicates", "200", "--probes", "500",
                 "--seed", "13"],
    "c13-diam": ["diam", "--dim", "1", "--n-grid", "100,200", "--t-grid", "1,2",
                 "--replicates", "80", "--probes", "200", "--seed", "13"],
    "c13-unionvol-check": ["unionvol-check", "--dim", "2", "--replicates", "10",
                           "--samples", "5000", "--seed", "13"],
    # the perfbench workload commands at their smoke sizes
    "bench-alpha-d2": ["alpha", "--dim", "2", "--workers", "2", "--samples", "2e4", "--seed", "7"],
    "bench-zmoments-d2": ["zmoments", "--dim", "2", "--k-max", "4", "--inner-samples", "4096",
                          "--workers", "1", "--samples", "16", "--seed", "7"],
    "bench-diam-d3": ["diam", "--dim", "3", "--n-grid", "500,1000,2000", "--probes", "5000",
                      "--workers", "2", "--replicates", "4", "--seed", "7"],
    # diam at every dimension with a cone cover, for each density; the last
    # grid entry is large enough for most upper estimates to be finite
    **{
        f"diam-d{d}-{name}": ["diam", "--dim", str(d), "--density", spec, "--n-grid", grid,
                              "--replicates", "3", "--probes", "2000", "--seed", str(20 + d)]
        for d, grid in _DIAM_GRIDS.items()
        for name, spec in _DENSITIES.items()
    },
    **{
        f"cell-d3-{name}": ["cell", "--dim", "3", "--density", spec, "--n", "500",
                            "--replicates", "20", "--probes", "2000", "--seed", "31"]
        for name, spec in _DENSITIES.items()
    },
    # from 8 coordinates row_sq_norms hands the squares of a row to numpy,
    # which adds them pairwise
    "alpha-d8": ["alpha", "--dim", "8", "--samples", "2e4", "--seed", "41"],
    # the cap kernel's branches: at d = 3 the odd-d recurrence over several
    # chunks and a partial one, at d = 5 a longer recurrence, and at d = 21
    # and 60 long recurrences and series (written when scipy's betainc
    # computed the caps above d = 19; the kernel reproduces them byte for byte)
    "alpha-d3": ["alpha", "--dim", "3", "--samples", "2e5", "--workers", "2", "--seed", "43"],
    "alpha-d5": ["alpha", "--dim", "5", "--samples", "2e4", "--seed", "45"],
    "alpha-d21": ["alpha", "--dim", "21", "--samples", "2e4", "--seed", "61"],
    "alpha-d60": ["alpha", "--dim", "60", "--samples", "2e4", "--seed", "63"],
    "zmoments-d8": ["zmoments", "--dim", "8", "--k-max", "3", "--samples", "200",
                    "--inner-samples", "256", "--seed", "41"],
    "zmoments-d60": ["zmoments", "--dim", "60", "--k-max", "3", "--samples", "64",
                     "--inner-samples", "64", "--seed", "67"],
    # k = 3 sharded over a shared pool of 3 workers: with W_k exact (d = 2),
    # and by the multilevel estimator (d = 3)
    "zmoments-pool": ["zmoments", "--dim", "2", "--k-max", "3", "--samples", "40",
                      "--inner-samples", "64", "--workers", "3", "--seed", "17"],
    "zmoments-pool-d3": ["zmoments", "--dim", "3", "--k-max", "3", "--samples", "40",
                         "--inner-samples", "64", "--workers", "3", "--seed", "17"],
    "cell-d8": ["cell", "--dim", "8", "--n", "500", "--replicates", "20", "--probes", "2000",
                "--seed", "41"],
}


def _strip_elapsed(text: str) -> str:
    """The CSV without its last column, elapsed_ms."""
    return "".join(line.rpartition(",")[0] + "\n" for line in text.splitlines())


def _csv(argv, path: Path) -> str:
    assert main([*argv, "--output", str(path)]) == 0
    return _strip_elapsed(path.read_text(encoding="utf-8"))


def _moved_rows(old: str, new: str) -> list[str]:
    """One line for each row of the CSV `new` that differs from the same row
    of `old`: its k and n, both estimates and stderrs, and z, the change in
    the estimate over the hypot of the two stderrs."""
    old_rows, new_rows = (list(csv.DictReader(t.splitlines())) for t in (old, new))
    if len(old_rows) != len(new_rows):
        return [f"  {len(old_rows)} -> {len(new_rows)} rows"]
    lines = []
    for a, b in zip(old_rows, new_rows):
        if a == b:
            continue
        (ea, sa), (eb, sb) = ((float(r["estimate"]), float(r["stderr"])) for r in (a, b))
        if sa or sb:
            z = abs(eb - ea) / math.hypot(sa, sb)
        else:
            z = math.inf if ea != eb else 0.0
        row = " ".join(f"{key}={b[key]}" for key in ("k", "n") if b[key])
        lines.append(f"  {row}: {ea:.12g} +- {sa:.3g} -> {eb:.12g} +- {sb:.3g}, z = {z:.2f}")
    return lines


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    want = (GOLDEN / f"{case}.csv").read_text(encoding="utf-8")
    assert _csv(CASES[case], tmp_path / "out.csv") == want


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden cases: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in names:
            path = GOLDEN / f"{case}.csv"
            old = path.read_text(encoding="utf-8") if path.exists() else ""
            new = _csv(CASES[case], Path(tmp) / "out.csv")
            path.write_text(new, encoding="utf-8")
            print(f"wrote {case}", file=sys.stderr)
            for line in _moved_rows(old, new):
                print(line, file=sys.stderr)
