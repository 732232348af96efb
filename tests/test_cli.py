import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

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
    rows_from_csv,
    run,
    write_csv,
)


def _strip_elapsed(csv_text: str) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in csv_text.strip().splitlines()]


def _csv_text(rows) -> str:
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        write_csv(rows, None)
    return buf.getvalue()


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
        assert model.kind == "uniform-ball" and model.radius == 1.0

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
        ],
    )
    def test_round_trip(self, cfg):
        assert parse_config(render_config(cfg)) == cfg


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

    def test_cell_rows(self):
        cfg = parse_config(
            "command=cell dim=1 n=200 replicates=150 probes=500 k_max=2 seed=3"
        )
        rows = run(cfg)
        assert [r.k for r in rows] == [1, 2]
        assert all(r.n == 200 for r in rows)

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

    def test_unionvol_check_agreement_flag(self):
        for dim in (1, 2):
            cfg = parse_config(
                f"command=unionvol-check dim={dim} replicates=20 samples=20000 seed=5"
            )
            rows = run(cfg)
            assert len(rows) == 20
            inside = [r.lower_bound <= r.estimate <= r.upper_bound for r in rows]
            assert all(inside)


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

    @pytest.mark.parametrize("density", ["uniform-ball:r=inf", "uniform-cube:side=inf"])
    def test_infinite_density_parameter_is_config_error(self, density, capsys):
        code = main(["cell", "--dim", "2", "--density", density, "--n", "50",
                     "--replicates", "10", "--probes", "50"])
        assert code == 2
        assert "density" in capsys.readouterr().err

    def test_unknown_command_is_config_error(self, capsys):
        assert main(["--config", "/nonexistent/config.txt"]) == 2

    def test_runtime_error_exit_three(self, capsys):
        code = main(["alpha", "--dim", "1", "--samples", "5000",
                     "--output", "/nonexistent-dir/x.csv"])
        assert code == 3

    def test_x_outside_support_is_config_error(self, capsys):
        code = main(["cell", "--dim", "2", "--x", "3,3", "--n", "50",
                     "--replicates", "10", "--probes", "50"])
        assert code == 2
        assert "support" in capsys.readouterr().err

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


class TestCommandsTuple:
    def test_all_runners_present(self):
        from vorlab.cli import _RUNNERS

        assert set(_RUNNERS) == set(COMMANDS)
