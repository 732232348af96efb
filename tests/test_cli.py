import ast
import csv
import io
import math
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import vorlab
from vorlab import cli, moments
from vorlab.geometry import MAX_DIM
from vorlab.cli import (
    COMMANDS,
    CSV_HEADER,
    MAX_WORKERS,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    main,
    parse_config,
    render_config,
    run,
    write_csv,
)


def _strip_elapsed(csv_text: str) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in csv_text.strip().splitlines()]


def rows_from_csv(text: str) -> list[ResultRow]:
    """Parse write_csv output back into rows (inverse modulo 12-digit rounding)."""
    # keyed by the annotation text of each ResultRow field
    parse = {"str": str, "int": int, "float": float, "int | None": lambda v: int(v) if v else None}
    return [
        ResultRow(**{f.name: parse[f.type](rec[f.name]) for f in fields(ResultRow)})
        for rec in csv.DictReader(io.StringIO(text))
    ]


def _csv_text(rows) -> str:
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        write_csv(rows, None)
    return buf.getvalue()


# cell configs whose zero estimates were once written as -0, and the k of
# those estimates: a falling factorial with a zero factor may be -0
_ZERO_CELLS = [
    (["cell", "--dim", "2", "--density", "gaussian", "--x", "30,0", "--n", "20", "--probes", "50",
      "--replicates", "3"], [1, 2, 3, 4]),
    (["cell", "--dim", "1", "--n", "5", "--probes", "4", "--replicates", "2", "--x", "0.99"],
     [2, 3, 4]),
]


class TestParseConfig:
    def test_alpha_example_with_defaults(self):
        cfg = parse_config("command=alpha dim=2 samples=1000000 seed=7")
        assert cfg.command == "alpha"
        assert cfg.dim == 2
        assert cfg.samples == 1_000_000
        assert cfg.seed == 7
        # documented defaults
        assert cfg.workers == 1
        assert cfg.probes == 5000
        assert cfg.replicates == 2000

    def test_scientific_counts(self):
        cfg = parse_config("command=alpha dim=1 samples=1e6")
        assert cfg.samples == 1_000_000

    def test_counts_above_2_53_stay_exact(self):
        # a float would round both to the nearest even integer
        cfg = parse_config("command=cell replicates=18014398509481987")
        assert cfg.replicates == 18014398509481987
        args = cli.build_parser().parse_args(["alpha", "--samples", "9007199254740993"])
        assert cli._config_from_args(args).samples == 9007199254740993

    def test_dim_zero_names_key(self):
        with pytest.raises(ConfigError, match="dim"):
            parse_config("command=alpha dim=0")

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match="line 2.*frobs"):
            parse_config("command=alpha\nfrobs=3")

    def test_bad_density_spec(self):
        with pytest.raises(ConfigError, match="density"):
            parse_config("command=cell density=uniform-ball")

    def test_density_round_trips_grammar(self):
        cfg = parse_config("command=cell dim=2 density=uniform-ball:r=1")
        from vorlab.sampling import parse_density

        model = parse_density(cfg.density, cfg.dim)
        assert model.kind == "uniform-ball" and model.scale == 1.0

    def test_missing_command(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config("dim=2")

    def test_bad_token(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("command=alpha dim")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# experiment\ncommand=alpha\n\ndim=3  # trailing\n")
        assert cfg.dim == 3

    def test_x_forms(self):
        assert parse_config("command=cell x=origin").x is None
        assert parse_config("command=cell x=0.5,-0.25").x == (0.5, -0.25)
        with pytest.raises(ConfigError, match="x"):
            parse_config("command=cell x=a,b")

    def test_grids(self):
        cfg = parse_config("command=diam n_grid=100,1000 t_grid=0.5,1,2")
        assert cfg.n_grid == (100, 1000)
        assert cfg.t_grid == (0.5, 1.0, 2.0)

    def test_seed_range(self):
        assert parse_config("command=alpha seed=0").seed == 0
        assert parse_config(f"command=alpha seed={2**64 - 1}").seed == 2**64 - 1
        for bad in (-1, 2**64):
            with pytest.raises(ConfigError, match="seed"):
                parse_config(f"command=alpha seed={bad}")

    def test_workers_cap(self):
        # the cap is fixed, not the core count of the machine reading the config
        assert parse_config(f"command=alpha workers={MAX_WORKERS}").workers == MAX_WORKERS
        with pytest.raises(ConfigError, match="workers"):
            parse_config(f"command=alpha workers={MAX_WORKERS + 1}")
        with pytest.raises(ConfigError, match="workers"):
            parse_config("command=alpha workers=1e5")

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listing = re.search(r"Keys:(.*?)\.", readme, re.S).group(1)
        assert re.findall(r"`(\w+)`", listing) == [f.name for f in fields(ExperimentConfig)]

    def test_readme_names_the_package_root(self):
        # the root holds the library quick start's names and nothing else
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        names = set(re.findall(r"\bvl\.(\w+)", readme))
        assert names == set(vorlab.__all__) - {"__version__"}
        assert all(hasattr(vorlab, name) for name in vorlab.__all__)


class TestRenderRoundTrip:
    @pytest.mark.parametrize(
        "cfg",
        [
            ExperimentConfig(command="alpha", dim=3, samples=12345, seed=9),
            ExperimentConfig(command="cell", dim=2, density="gaussian", x=(0.25, -1.5), n=77),
            ExperimentConfig(
                command="diam", dim=1, n_grid=(10, 20, 40), t_grid=(0.1, 0.7), workers=4
            ),
            ExperimentConfig(command="unionvol-check", dim=2, replicates=5, output="out.csv"),
            ExperimentConfig(command="zmoments", dim=2, probes=300, inner_samples=64, k_max=6),
        ],
    )
    def test_round_trip(self, cfg):
        assert parse_config(render_config(cfg)) == cfg

    @pytest.mark.parametrize("output", ["my dir/o.csv", "out#1.csv"])
    def test_refuses_what_the_grammar_cannot_hold(self, output):
        # the grammar has no quoting: a space splits the pair, a # starts a comment
        with pytest.raises(ValueError, match="key 'output'"):
            render_config(ExperimentConfig(command="alpha", output=output))


class TestRunCommands:
    def test_alpha_row_carries_bounds(self):
        cfg = parse_config("command=alpha dim=1 samples=20000 seed=1")
        rows = run(cfg)
        assert len(rows) == 1
        r = rows[0]
        assert (r.lower_bound, r.upper_bound) == (1.0, 2.0)
        assert abs(r.estimate - 1.5) <= 6 * r.stderr

    def test_zmoments_rows_with_sandwich(self):
        cfg = parse_config(
            "command=zmoments dim=1 k_max=4 samples=1500 inner_samples=256 seed=2"
        )
        rows = run(cfg)
        assert [r.k for r in rows] == [1, 2, 3, 4]
        for r in rows:
            kf = math.factorial(r.k)
            assert r.lower_bound == pytest.approx(kf / 2.0**r.k)
            assert r.upper_bound == pytest.approx(float(kf))
            assert r.lower_bound - 4 * r.stderr <= r.estimate <= r.upper_bound + 4 * r.stderr

    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_samples_column_counts_mirrored_draws(self, workers, capsys):
        # at d >= 2 alpha and the zmoments k = 2 row draw mirrored pairs:
        # 3 samples round up to two pairs, 4 draws; the other rows take 3
        for command in (["alpha"], ["zmoments", "--k-max", "3", "--inner-samples", "64"]):
            argv = [*command, "--dim", "2", "--samples", "3", "--workers", workers]
            assert main(argv) == 0
            rows = rows_from_csv(capsys.readouterr().out)
            assert [(r.k, r.samples) for r in rows] == (
                [(None, 4)] if command == ["alpha"] else [(1, 3), (2, 4), (3, 3)])
            assert all(math.isfinite(r.stderr) for r in rows)
            assert all(r.stderr > 0.0 for r in rows if r.k != 1)

    def test_cell_rows(self):
        cfg = parse_config(
            "command=cell dim=1 n=200 replicates=150 probes=500 k_max=2 seed=3"
        )
        rows = run(cfg)
        assert [r.k for r in rows] == [1, 2]
        assert all(r.n == 200 for r in rows)

    @pytest.mark.parametrize("argv, zero_ks", _ZERO_CELLS)
    def test_cell_zero_estimate_is_zero(self, argv, zero_ks, capsys):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        estimates = {int(line.split(",")[2]): line.split(",")[4] for line in lines}
        assert [k for k, v in estimates.items() if v == "0"] == zero_ks

    @pytest.mark.filterwarnings("error")
    def test_diam_rows(self):
        cfg = parse_config(
            "command=diam dim=1 n_grid=1,100,200 t_grid=1,2 replicates=60 probes=100 seed=4"
        )
        rows = run(cfg)
        assert [r.n for r in rows] == [1, 100, 200]
        for r in rows:
            assert r.lower_bound <= r.upper_bound or math.isinf(r.upper_bound)
        # at n = 1 every cone is empty: the mean and its stderr are infinite
        assert math.isinf(rows[0].estimate) and math.isinf(rows[0].stderr)
        assert all(math.isfinite(r.stderr) for r in rows[1:])

    @pytest.mark.parametrize("dim", [4, 5])
    def test_diam_high_dim_exit_zero(self, dim, capsys):
        code = main(["diam", "--dim", str(dim), "--n-grid", "50,100", "--replicates", "2",
                     "--probes", "100", "--workers", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert [r.n for r in rows_from_csv("\n".join(lines))] == [50, 100]

    def test_diam_dim6_is_config_error(self, capsys):
        # rejected when the config is read, before any cone cover is built
        start = time.monotonic()
        code = main(["diam", "--dim", "6", "--n-grid", "50,100", "--replicates", "2",
                     "--probes", "100"])
        assert code == 2
        assert time.monotonic() - start < 5.0
        assert "cone cover" in capsys.readouterr().err

    def test_zmoments_one_pool_per_run(self, monkeypatch, capsys):
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(moments, "ProcessPoolExecutor", CountingPool)
        code = main(["zmoments", "--dim", "2", "--k-max", "4", "--samples", "17",
                     "--inner-samples", "64", "--workers", "2"])
        assert code == 0
        assert len(pools) == 1
        assert [r.k for r in rows_from_csv(capsys.readouterr().out)] == [1, 2, 3, 4]

    def test_zmoments_at_max_dim(self, capsys):
        # the star control's rule and the union kernel at d = MAX_DIM
        code = main(["zmoments", "--dim", str(MAX_DIM), "--k-max", "3", "--samples", "64"])
        assert code == 0
        rows = rows_from_csv(capsys.readouterr().out)
        assert [r.k for r in rows] == [1, 2, 3]
        assert all(math.isfinite(r.estimate) and math.isfinite(r.stderr) for r in rows)

    def test_unionvol_check_agreement_flag(self):
        for dim in (1, 2):
            cfg = parse_config(
                f"command=unionvol-check dim={dim} replicates=20 samples=20000 seed=5"
            )
            rows = run(cfg)
            assert len(rows) == 20
            inside = [r.lower_bound <= r.estimate <= r.upper_bound for r in rows]
            assert all(inside)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 60, 200, MAX_DIM])
    def test_unionvol_check_draws_vary(self, dim, capsys):
        # every instance overlaps without nesting, so no row's draws are
        # constant and its bounds, the oracle +- 4 stderr, do not collapse;
        # above d = 8 too, where the lens and the volumes would otherwise
        # vanish
        argv = ["unionvol-check", "--dim", str(dim), "--replicates", "50", "--samples", "2000"]
        assert main(argv) == 0
        rows = rows_from_csv(capsys.readouterr().out)
        assert len(rows) == 50
        for r in rows:
            assert r.stderr > 0.0
            assert r.lower_bound < (r.lower_bound + r.upper_bound) / 2 < r.upper_bound
            assert r.lower_bound <= r.estimate <= r.upper_bound


class TestWriteCsv:
    def test_header_exact(self):
        assert _csv_text([]).splitlines()[0] == CSV_HEADER

    def test_empty_rows_header_only(self):
        assert _csv_text([]) == CSV_HEADER + "\n"

    def test_single_row_two_lines(self):
        rows = run(parse_config("command=alpha dim=1 samples=5000 seed=6"))
        assert len(_csv_text(rows).splitlines()) == 2

    def test_blank_k_and_n(self):
        rows = run(parse_config("command=alpha dim=1 samples=5000 seed=6"))
        line = _csv_text(rows).splitlines()[1]
        fields = line.split(",")
        assert fields[2] == "" and fields[3] == ""

    def test_infinity_literal(self):
        row = ResultRow(
            command="diam", d=1, k=None, n=10, estimate=math.inf, stderr=0.0,
            lower_bound=0.0, upper_bound=math.inf, seed=0, samples=1, elapsed_ms=1.0,
        )
        text = _csv_text([row])
        assert ",inf," in text

    def test_reparse_round_trip(self):
        rows = run(parse_config("command=zmoments dim=2 k_max=3 samples=800 inner_samples=128 seed=7"))
        parsed = rows_from_csv(_csv_text(rows))
        assert len(parsed) == len(rows)
        for a, b in zip(parsed, rows):
            assert a.command == b.command and a.k == b.k and a.d == b.d
            assert a.estimate == pytest.approx(b.estimate, rel=1e-11)
            assert a.samples == b.samples

    def test_writes_file(self, tmp_path):
        out = tmp_path / "r.csv"
        rows = run(parse_config("command=alpha dim=1 samples=5000 seed=8"))
        write_csv(rows, str(out))
        assert out.read_text().startswith(CSV_HEADER)


class TestDeterminism:
    def test_rerun_identical_minus_elapsed(self):
        cfg = parse_config("command=alpha dim=1 samples=30000 seed=9")
        a = _csv_text(run(cfg))
        b = _csv_text(run(cfg))
        assert _strip_elapsed(a) == _strip_elapsed(b)

    def test_worker_counts_agree_statistically(self):
        r1 = run(parse_config("command=alpha dim=1 samples=40000 seed=10 workers=1"))[0]
        r4 = run(parse_config("command=alpha dim=1 samples=40000 seed=10 workers=4"))[0]
        assert abs(r1.estimate - r4.estimate) <= 4 * math.hypot(r1.stderr, r4.stderr)


class TestMainEntry:
    def test_success_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        code = main(["alpha", "--dim", "1", "--samples", "5000", "--seed", "1",
                     "--output", str(out)])
        assert code == 0
        assert out.exists()

    def test_stdout_when_no_output(self, capsys):
        code = main(["alpha", "--dim", "1", "--samples", "5000", "--seed", "1"])
        assert code == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_config_error_exit_two(self, capsys):
        assert main(["alpha", "--dim", "0"]) == 2
        assert "dim" in capsys.readouterr().err

    # bounds of the key table: rejected when the config is read, before any
    # sampling, and named by key
    @pytest.mark.parametrize("argv, key", [
        (["alpha", "--samples", "1"], "samples"),
        (["zmoments", "--k-max", "3", "--inner-samples", "1"], "inner_samples"),
        (["zmoments", "--k-max", "21"], "k_max"),
        (["cell", "--k-max", "21"], "k_max"),
        (["unionvol-check", "--samples", "1"], "samples"),
        (["zmoments", "--k-max", "3", "--inner-samples", "1e9"], "inner_samples"),
        (["alpha", "--dim", "453"], "dim"),
        (["zmoments", "--dim", "600"], "dim"),
        (["alpha", "--samples", "2e6", "--output", "/nonexistent/dir/a.csv"], "output"),
        (["diam", "--t-grid", "nan,inf"], "t_grid"),
        (["alpha", "--x", "nan,1"], "x"),
        (["cell", "--dim", "1", "--n", "2", "--probes", "4", "--replicates", "1e12"],
         "replicates"),
        (["diam", "--dim", "1", "--n-grid", "2", "--probes", "2", "--replicates", "1e9"],
         "replicates"),
    ])
    def test_key_bounds_exit_two(self, argv, key, capsys):
        start = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - start < 5.0
        assert f"key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("density", ["uniform-ball:r=inf", "uniform-cube:side=inf"])
    def test_infinite_density_parameter_is_config_error(self, density, capsys):
        code = main(["cell", "--dim", "2", "--density", density, "--n", "50",
                     "--replicates", "10", "--probes", "50"])
        assert code == 2
        assert "density" in capsys.readouterr().err

    # a scale whose square leaves the normal doubles would square every
    # distance to inf or 0 and report nonsense; the bounds themselves run
    @pytest.mark.parametrize("command", ["cell", "diam"])
    @pytest.mark.parametrize("density, code", [
        ("uniform-ball:r=1e200", 2), ("uniform-cube:side=1e-200", 2),
        ("uniform-ball:r=1e-100", 0), ("uniform-cube:side=1e100", 0),
    ])
    def test_density_scale_is_bounded(self, command, density, code, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([command, "--dim", "3", "--density", density, "--n", "50", "--n-grid", "50",
                     "--replicates", "3", "--probes", "100", "--output", str(out)]) == code
        if code:
            assert "key 'density'" in capsys.readouterr().err and not out.exists()
        else:
            assert "nan" not in out.read_text()

    # the library's ValueError is wrapped once; the x check is not wrapped again
    @pytest.mark.parametrize("command", ["cell", "diam"])
    def test_x_dimension_error_line(self, command, capsys):
        assert main([command, "--dim", "2", "--x", "0.1"]) == 2
        assert capsys.readouterr().err == (
            "vorlab: config error: line 0: key 'x': has 1 coordinates for dim=2\n"
        )

    def test_unknown_command_is_config_error(self, tmp_path, capsys):
        # command= in a file is checked by the same parser as the positional
        f = tmp_path / "cfg.txt"
        f.write_text("command=foo dim=2\n")
        assert main(["--config", str(f)]) == 2
        assert "line 1: key 'command': unknown command 'foo'" in capsys.readouterr().err

    def test_missing_config_file_is_config_error(self, capsys):
        assert main(["--config", "/nonexistent/config.txt"]) == 2
        assert "key 'config'" in capsys.readouterr().err

    # argparse's own errors: main returns 2 and names the argument, rather
    # than argparse raising SystemExit
    @pytest.mark.parametrize("argv, named", [
        (["alpha", "--frobs", "3"], "unrecognized arguments: --frobs 3"),
        (["alpha", "--dim"], "argument --dim: expected one argument"),
        (["alpha", "zmoments"], "unrecognized arguments: zmoments"),
        (["alpha", "--s", "3"], "ambiguous option: --s could match --samples, --seed"),
    ], ids=["unknown-flag", "missing-value", "extra-positional", "ambiguous-flag"])
    def test_argparse_error_exit_two(self, argv, named, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"vorlab: config error: {named}\n"

    def test_unambiguous_prefix_is_its_flag(self, capsys):
        assert main(["alpha", "--sam", "5000", "--dim", "1", "--se", "3"]) == 0
        (row,) = rows_from_csv(capsys.readouterr().out)
        assert (row.samples, row.seed) == (5000, 3)

    def test_runtime_error_exit_three(self, monkeypatch, capsys):
        # the config is valid, so only the run itself can fail
        def fail(config):
            raise RuntimeError("the run failed")

        monkeypatch.setitem(cli._RUNNERS, "alpha", fail)
        assert main(["alpha", "--dim", "1", "--samples", "5000"]) == 3
        assert "the run failed" in capsys.readouterr().err

    def test_output_directory_is_config_error(self, tmp_path, capsys):
        start = time.monotonic()
        assert main(["alpha", "--samples", "2e6", "--output", str(tmp_path)]) == 2
        assert time.monotonic() - start < 1.0
        assert "key 'output'" in capsys.readouterr().err

    # sample arrays beyond the element budget: rejected before any sampling
    @pytest.mark.parametrize("argv, key", [
        (["cell", "--n", "1e12"], "n"),
        (["cell", "--probes", "1e12"], "probes"),
        (["diam", "--probes", "1e12"], "probes"),
        (["diam", "--n-grid", "10,1e12"], "n_grid"),
        (["cell", "--dim", "8", "--n", "1e7"], "n"),
    ])
    def test_sample_arrays_bounded_exit_two(self, argv, key, capsys):
        start = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - start < 1.0
        assert f"key '{key}'" in capsys.readouterr().err

    def test_alpha_at_max_dim_exit_zero(self, capsys):
        assert main(["alpha", "--dim", str(MAX_DIM), "--samples", "200"]) == 0
        row = rows_from_csv(capsys.readouterr().out)[0]
        assert row.d == MAX_DIM and math.isfinite(row.estimate)

    def test_x_outside_support_is_config_error(self, capsys):
        code = main(["cell", "--dim", "2", "--x", "3,3", "--n", "50",
                     "--replicates", "10", "--probes", "50"])
        assert code == 2
        assert "support" in capsys.readouterr().err

    @pytest.mark.parametrize("dim,x", [(1, "1"), (2, "1,0"), (3, "0,0,-1")])
    def test_x_on_support_boundary_exit_zero(self, dim, x, capsys):
        code = main(["cell", "--dim", str(dim), "--x", x, "--n", "50",
                     "--replicates", "5", "--probes", "100"])
        assert code == 0
        rows = rows_from_csv(capsys.readouterr().out)
        assert [r.k for r in rows] == [1, 2, 3, 4]
        assert all(r.estimate >= 0.0 and math.isfinite(r.stderr) for r in rows)

    def test_x_dimension_mismatch(self, capsys):
        code = main(["cell", "--dim", "2", "--x", "0.5", "--n", "50",
                     "--replicates", "10", "--probes", "50"])
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("command=alpha dim=2 samples=5000 seed=3\n")
        out = tmp_path / "o.csv"
        code = main(["--config", str(f), "--output", str(out)])
        assert code == 0
        row = rows_from_csv(out.read_text())[0]
        assert row.d == 2 and row.seed == 3

    def test_subcommand_overrides_config_command(self, tmp_path, capsys):
        f = tmp_path / "cfg.txt"
        f.write_text("command=alpha dim=1 samples=5000\n")
        code = main(["zmoments", "--config", str(f), "--k-max", "2",
                     "--samples", "500", "--inner-samples", "64"])
        assert code == 0
        assert "zmoments" in capsys.readouterr().out

    def test_flag_before_subcommand_is_kept(self, capsys):
        assert main(["--dim", "3", "alpha", "--samples", "100"]) == 0
        (row,) = rows_from_csv(capsys.readouterr().out)
        assert (row.command, row.d, row.samples) == ("alpha", 3, 100)

    @pytest.mark.parametrize("argv, dim", [
        (["--dim", "3", "alpha", "--samples", "100", "--dim", "2"], 2),
        (["--dim", "2", "--dim", "3", "alpha", "--samples", "100"], 3),
    ])
    def test_later_flag_wins(self, argv, dim, capsys):
        assert main(argv) == 0
        assert rows_from_csv(capsys.readouterr().out)[0].d == dim

    @pytest.mark.parametrize("argv", [["--help"], ["alpha", "--help"]])
    def test_help_lists_the_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        text = capsys.readouterr().out
        for key in ("config", *cli._FLAG_KEYS):
            assert "--" + key.replace("_", "-") in text
        assert all(name in text for name in COMMANDS)

    def test_unknown_command_names_its_key(self, capsys):
        # checked by the command key's parser, as command=foo in a file is
        assert main(["foo"]) == 2
        assert "key 'command'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key, value", [
        (["cell", "--dim", "2", "--x", "-0.5,0.25", "--n", "50", "--replicates", "4",
          "--probes", "200"], "x", (-0.5, 0.25)),
        (["diam", "--dim", "2", "--t-grid", "-1,2", "--n-grid", "20,40", "--replicates", "4",
          "--probes", "200"], "t_grid", (-1.0, 2.0)),
    ])
    def test_negative_flag_value(self, argv, key, value, capsys):
        # a value that starts with a minus sign needs no --flag=value form
        args = cli.build_parser().parse_args(argv)
        assert getattr(cli._config_from_args(args), key) == value
        assert main(argv) == 0
        spaced = _strip_elapsed(capsys.readouterr().out)
        flag = "--" + key.replace("_", "-")
        i = argv.index(flag)
        joined = argv[:i] + [f"{flag}={argv[i + 1]}"] + argv[i + 2:]
        assert main(joined) == 0
        assert _strip_elapsed(capsys.readouterr().out) == spaced


def _python(code: str, argv: list[str]) -> str:
    """Run code in a fresh interpreter that imports this vorlab; its stdout."""
    src = str(Path(vorlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_readme_quick_start_runs():
    # the library quick start, verbatim, so that it cannot rot unseen
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    lines = _python(block, []).splitlines()
    assert len(lines) == 2 and lines[1].startswith("{1: ")


# argv per case id; cell and diam run with each density and a pool of two
_NO_SCIPY_RUNS = {
    "alpha": ["alpha", "--dim", "2", "--samples", "2e4", "--workers", "2"],
    "zmoments": ["zmoments", "--dim", "2", "--k-max", "4", "--samples", "16",
                 "--inner-samples", "64"],
    "unionvol-check": ["unionvol-check", "--dim", "3", "--replicates", "3", "--samples", "1000"],
    # large d, whose caps once imported scipy.special
    "alpha-d21": ["alpha", "--dim", "21", "--samples", "2e4", "--workers", "2"],
    "zmoments-d60": ["zmoments", "--dim", "60", "--k-max", "3", "--samples", "16",
                     "--inner-samples", "64"],
    "unionvol-check-d435": ["unionvol-check", "--dim", "435", "--replicates", "2",
                            "--samples", "1000"],
    **{
        f"{argv[0]}-{density.split(':')[0]}": [*argv, "--density", density, "--workers", "2"]
        for argv in (["cell", "--dim", "2", "--n", "50", "--replicates", "4", "--probes", "200"],
                     ["diam", "--dim", "3", "--n-grid", "1,50,100", "--replicates", "4",
                      "--probes", "200"])
        for density in ("uniform-ball:r=1", "gaussian", "uniform-cube:side=2")
    },
}


class TestScipyImports:
    """Only the gaussian measures load scipy, and only scipy.special; no
    command reaches them, at any d."""

    def test_src_imports_only_scipy_special(self):
        src = Path(vorlab.__file__).resolve().parent
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                found += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"
                          and n.split(".")[:2] != ["scipy", "special"]]
        assert found == []

    @pytest.mark.parametrize("argv", list(_NO_SCIPY_RUNS.values()), ids=list(_NO_SCIPY_RUNS))
    def test_commands_load_no_scipy(self, argv):
        # a blocker, not a look at sys.modules, so that the imports of forked
        # pool workers, which inherit it, are checked too; numpy.polynomial
        # (3.5 ms of import) is refused as well, so that the star control's
        # Gauss rules stay off the start-up path
        code = ("import sys\n"
                "class NoScipy:\n"
                "    def find_spec(self, name, path=None, target=None):\n"
                "        if name.split('.')[0] == 'scipy' or name.startswith('numpy.polynomial'):\n"
                "            raise ImportError(f'blocked import: {name}')\n"
                "sys.meta_path.insert(0, NoScipy())\n"
                "from vorlab import cli\n"
                "sys.exit(cli.main(sys.argv[1:]))")
        _python(code, argv)


def _fuzz_values(d: int, tmp_path: Path) -> dict[str, list[str]]:
    """A few valid, boundary and invalid values of each config key at
    dimension d; budgets stay tiny."""
    zeros = ["0"] * (d - 1)
    return {
        "dim": ["0", str(MAX_DIM + 1), "2.5"],
        "density": ["uniform-ball:r=1", "gaussian", "uniform-cube:side=2",
                    "uniform-ball:r=1e-100", "uniform-ball:r=0", "cauchy"],
        "x": ["origin", ",".join(["1", *zeros]), ",".join(["30", *zeros]),
              ",".join(["0"] * (d + 1)), "nan"],
        "n": ["1", "2", "20", "0"],
        "replicates": ["1", "3", "0"],
        "probes": ["1", "50", "0"],
        "samples": ["2", "64", "1", "1e400"],
        "inner_samples": ["2", "16", "1", str(moments.MAX_INNER_SAMPLES + 1)],
        "k_max": ["1", "4", str(moments.MAX_FACTORIAL_K), "0"],
        "n_grid": ["1,5", "5,20", "0,5", ""],
        "t_grid": ["0.5,1", "1", "inf", "a"],
        "seed": ["0", str(2**64 - 1), str(2**64), "-1"],
        "workers": ["1", "2", "0", str(MAX_WORKERS + 1)],
        "output": [str(tmp_path / "out.csv"), str(tmp_path), str(tmp_path / "missing" / "out.csv")],
    }


class TestFuzz:
    """A seeded fuzz through cli.main: every command at each of DIMS with a
    tiny budget, then with two keys of the key table set to values drawn
    from _fuzz_values.  Every run exits 0 or 2, no CSV cell reads -0, and no
    unionvol-check row of 64 draws or more has stderr 0 and an estimate
    outside its bounds, the oracle +- 4 stderr (a row of one or two draws
    may well be constant)."""

    DIMS = (1, 2, 3, 8, 60, 435)
    BUDGETS = {
        "alpha": {"samples": "64"},
        "zmoments": {"samples": "16", "inner_samples": "16", "k_max": "3"},
        "cell": {"n": "20", "replicates": "3", "probes": "50"},
        "diam": {"n_grid": "5,20", "replicates": "2", "probes": "50"},
        "unionvol-check": {"replicates": "3", "samples": "64"},
    }

    @staticmethod
    def argv(command: str, keys: dict) -> list[str]:
        return [command, *(a for k, v in keys.items() for a in ("--" + k.replace("_", "-"), v))]

    def test_exit_codes_and_cells(self, tmp_path, capsys):
        rng = np.random.default_rng(27)
        runs = [argv for argv, _ in _ZERO_CELLS]
        for command in COMMANDS:
            for d in self.DIMS:
                values = _fuzz_values(d, tmp_path)
                assert set(values) == set(cli._FLAG_KEYS)
                budget = {"dim": str(d), **self.BUDGETS[command]}
                runs.append(self.argv(command, budget))
                for _ in range(16):
                    keys = dict(budget)
                    for key in rng.choice(sorted(values), 2, replace=False):
                        keys[key] = values[key][rng.integers(len(values[key]))]
                    runs.append(self.argv(command, keys))
        out = tmp_path / "out.csv"
        for argv in runs:
            code = main(argv)
            captured = capsys.readouterr()
            assert code in (0, 2), (argv, captured.err)
            if code == 0:
                text = out.read_text() if out.exists() else captured.out
                out.unlink(missing_ok=True)
                lines = text.splitlines()
                assert lines[0] == CSV_HEADER and len(lines) > 1, argv
                assert not any("-0" in line.split(",") for line in lines[1:]), (argv, text)
                for r in rows_from_csv(text):
                    if r.command == "unionvol-check" and r.samples >= 64 and r.stderr == 0.0:
                        assert r.lower_bound <= r.estimate <= r.upper_bound, (argv, text)


class TestCommandsTuple:
    def test_all_runners_present(self):
        from vorlab.cli import _RUNNERS

        assert set(_RUNNERS) == set(COMMANDS)
