"""Batch front end: flat key=value configs, experiment dispatch, CSV output.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import cellsim, geometry, moments, sampling

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "ConfigError",
    "CSV_HEADER",
    "COMMANDS",
    "parse_config",
    "render_config",
    "run",
    "write_csv",
    "rows_from_csv",
    "main",
]

COMMANDS = ("alpha", "zmoments", "cell", "diam", "unionvol-check")

# a process pool forks all of its workers at once, so the count is bounded
MAX_WORKERS = 64

# per-command default sample budgets (alpha draws are cheap and exact; the
# others pay for nested sampling per draw)
_SAMPLES_DEFAULT = {"alpha": 1_000_000, "zmoments": 10_000, "unionvol-check": 20_000}
_REPLICATES_DEFAULT = {"unionvol-check": 100}


class ConfigError(ValueError):
    """Raised for malformed configuration input; names the key and line."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: the unit of reproducibility for the batch CLI."""

    command: str
    dim: int = 1
    density: str = "uniform-ball:r=1"
    x: tuple[float, ...] | None = None  # None means the origin
    n: int = 2000
    replicates: int = 2000
    probes: int = 5000
    samples: int = 1_000_000
    inner_samples: int = 4096
    k_max: int = 4
    n_grid: tuple[int, ...] = (1000, 10000)
    t_grid: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    seed: int = 0
    workers: int = 1
    output: str | None = None


@dataclass(frozen=True)
class ResultRow:
    """One CSV row; k and n are blank where the command has no such axis."""

    command: str
    d: int
    k: int | None
    n: int | None
    estimate: float
    stderr: float
    lower_bound: float
    upper_bound: float
    seed: int
    samples: int
    elapsed_ms: float


CSV_HEADER = ",".join(f.name for f in fields(ResultRow))
# every key but command, which the subcommand sets, is also a flag
_FLAG_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "command")


def _parse_count(key: str, value: str, line: int) -> int:
    try:
        v = float(value)
    except ValueError:
        raise ConfigError(f"line {line}: key '{key}': not a number: {value!r}") from None
    if not v.is_integer() or v < 1:
        raise ConfigError(f"line {line}: key '{key}': expected a positive count, got {value!r}")
    return int(v)


def _parse_x(value: str, line: int) -> tuple[float, ...] | None:
    if value == "origin":
        return None
    try:
        return tuple(float(t) for t in value.split(","))
    except ValueError:
        raise ConfigError(
            f"line {line}: key 'x': expected 'origin' or comma-separated reals, got {value!r}"
        ) from None


_COUNT_KEYS = {
    "dim", "n", "replicates", "probes", "samples", "inner_samples", "k_max", "workers",
}


def _apply_key(out: dict, key: str, value: str, line: int) -> None:
    if key == "command":
        if value not in COMMANDS:
            raise ConfigError(f"line {line}: key 'command': unknown command {value!r}")
        out[key] = value
    elif key in _COUNT_KEYS:
        out[key] = _parse_count(key, value, line)
        if key == "workers" and out[key] > MAX_WORKERS:
            raise ConfigError(f"line {line}: key 'workers': at most {MAX_WORKERS}, got {value!r}")
    elif key == "seed":
        try:
            out[key] = int(value)
        except ValueError:
            raise ConfigError(f"line {line}: key 'seed': not an integer: {value!r}") from None
        if not 0 <= out[key] < 1 << 64:
            raise ConfigError(f"line {line}: key 'seed': must be in [0, 2**64), got {value!r}")
    elif key == "density":
        try:
            sampling.parse_density(value, dimension=1)
        except ValueError as e:
            raise ConfigError(f"line {line}: key 'density': {e}") from None
        out[key] = value
    elif key == "x":
        out[key] = _parse_x(value, line)
    elif key == "n_grid":
        out[key] = tuple(_parse_count("n_grid", t, line) for t in value.split(","))
    elif key == "t_grid":
        try:
            out[key] = tuple(float(t) for t in value.split(","))
        except ValueError:
            raise ConfigError(f"line {line}: key 't_grid': expected comma-separated reals") from None
    elif key == "output":
        out[key] = value
    else:
        raise ConfigError(f"line {line}: unknown key {key!r}")


def _build_config(mapping: dict) -> ExperimentConfig:
    if "command" not in mapping:
        raise ConfigError("line 0: key 'command': missing (give a subcommand or command=...)")
    command = mapping["command"]
    mapping.setdefault("samples", _SAMPLES_DEFAULT.get(command, 1_000_000))
    mapping.setdefault("replicates", _REPLICATES_DEFAULT.get(command, 2000))
    return ExperimentConfig(**mapping)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key=value document (whitespace separated, # comments)."""
    return _build_config(parse_config_mapping(text))


def render_config(config: ExperimentConfig) -> str:
    """Canonical key=value text; parse_config(render_config(c)) == c."""
    lines = [f"command={config.command}"]
    for f in fields(config):
        if f.name in ("command", "output"):
            continue
        v = getattr(config, f.name)
        if f.name == "x":
            v = "origin" if v is None else ",".join(repr(t) for t in v)
        elif f.name in ("n_grid", "t_grid"):
            v = ",".join(repr(t) if isinstance(t, float) else str(t) for t in v)
        lines.append(f"{f.name}={v}")
    if config.output is not None:
        lines.append(f"output={config.output}")
    return "\n".join(lines) + "\n"


def _density_model(config: ExperimentConfig) -> sampling.DensityModel:
    return sampling.parse_density(config.density, config.dim)


def _x_array(config: ExperimentConfig) -> np.ndarray | None:
    if config.x is None:
        return None
    x = np.asarray(config.x, dtype=float)
    if x.size != config.dim:
        raise ConfigError(f"line 0: key 'x': has {x.size} coordinates for dim={config.dim}")
    return x


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def _run_alpha(config: ExperimentConfig) -> list[ResultRow]:
    t0 = time.perf_counter()
    est = moments.estimate_alpha_parallel(config.dim, config.samples, config.seed, config.workers)
    elapsed = _ms_since(t0)
    b = moments.alpha_bounds(config.dim)
    return [
        ResultRow(
            command="alpha", d=config.dim, k=None, n=None,
            estimate=est.value, stderr=est.stderr,
            lower_bound=b.lower, upper_bound=b.upper,
            seed=config.seed, samples=est.samples, elapsed_ms=elapsed,
        )
    ]


def _run_zmoments(config: ExperimentConfig) -> list[ResultRow]:
    rows = []
    # one pool for every k; it forks its workers when k = 2 first uses it
    with moments.shard_pool(config.workers, config.samples) as pool:
        for k in range(1, config.k_max + 1):
            t0 = time.perf_counter()
            est = moments.estimate_z_moment_parallel(
                config.dim, k, config.samples, config.inner_samples, config.seed,
                config.workers, pool,
            )
            elapsed = _ms_since(t0)
            b = moments.z_moment_bounds(config.dim, k)
            rows.append(
                ResultRow(
                    command="zmoments", d=config.dim, k=k, n=None,
                    estimate=est.value, stderr=est.stderr,
                    lower_bound=b.lower, upper_bound=b.upper,
                    seed=config.seed, samples=est.samples, elapsed_ms=elapsed,
                )
            )
    return rows


def _run_cell(config: ExperimentConfig) -> list[ResultRow]:
    t0 = time.perf_counter()
    try:
        cell_cfg = cellsim.CellExperimentConfig(
            density=_density_model(config), x=_x_array(config), n=config.n,
            replicates=config.replicates, probes=config.probes, k_max=config.k_max,
            seed=config.seed, workers=config.workers,
        )
    except ValueError as e:
        raise ConfigError(f"line 0: {e}") from None
    result = cellsim.run_cell_experiment(cell_cfg)
    elapsed = _ms_since(t0)
    rows = []
    for k in range(1, config.k_max + 1):
        b = moments.z_moment_bounds(config.dim, k)
        rows.append(
            ResultRow(
                command="cell", d=config.dim, k=k, n=config.n,
                estimate=result.empirical_moments[k], stderr=result.moment_stderrs[k],
                lower_bound=b.lower, upper_bound=b.upper,
                seed=config.seed, samples=config.replicates, elapsed_ms=elapsed,
            )
        )
    return rows


def _run_diam(config: ExperimentConfig) -> list[ResultRow]:
    t0 = time.perf_counter()
    try:
        diam_cfg = cellsim.DiameterExperimentConfig(
            density=_density_model(config), n_grid=config.n_grid, t_grid=config.t_grid,
            x=_x_array(config), replicates=config.replicates, probes=config.probes,
            seed=config.seed, workers=config.workers,
        )
    except ValueError as e:
        raise ConfigError(f"line 0: {e}") from None
    result = cellsim.run_diameter_experiment(diam_cfg)
    elapsed = _ms_since(t0)
    rows = []
    for n in config.n_grid:
        ups = result.scaled_upper[n]
        mean = float(np.mean(ups))
        if math.isinf(mean):
            stderr = math.inf  # np.std of infinite values is nan
        else:
            stderr = float(np.std(ups, ddof=1) / math.sqrt(len(ups))) if len(ups) > 1 else 0.0
        rows.append(
            ResultRow(
                command="diam", d=config.dim, k=None, n=n,
                estimate=mean, stderr=stderr,
                lower_bound=result.quantiles[n][0.5][0],
                upper_bound=result.quantiles[n][0.5][1],
                seed=config.seed, samples=config.replicates, elapsed_ms=elapsed,
            )
        )
    return rows


def _run_unionvol_check(config: ExperimentConfig) -> list[ResultRow]:
    d = config.dim
    rows = []
    for i in range(1, config.replicates + 1):
        t0 = time.perf_counter()
        rng = sampling.RandomStream(config.seed, i)
        if d == 1:
            # three random intervals, exact sweep oracle
            centers = rng.random((3, 1)) * 2.0 - 1.0
            radii = 0.1 + 0.9 * rng.random(3)
            balls = [geometry.Ball(c, r) for c, r in zip(centers, radii)]
            oracle = geometry.interval_union_length(
                [(c[0] - r, c[0] + r) for c, r in zip(centers, radii)]
            )
        else:
            # two random balls, exact two-cap oracle
            centers = rng.random((2, d)) * 2.0 - 1.0
            radii = 0.1 + 0.9 * rng.random(2)
            balls = [geometry.Ball(c, r) for c, r in zip(centers, radii)]
            oracle = geometry.two_ball_union_volume(*balls)
        mc = geometry.union_volume_mc(balls, config.samples, rng)
        rows.append(
            ResultRow(
                command="unionvol-check", d=d, k=i, n=None,
                estimate=mc.value, stderr=mc.stderr,
                lower_bound=oracle - 4.0 * mc.stderr,
                upper_bound=oracle + 4.0 * mc.stderr,
                seed=config.seed, samples=mc.samples, elapsed_ms=_ms_since(t0),
            )
        )
    return rows


_RUNNERS = {
    "alpha": _run_alpha,
    "zmoments": _run_zmoments,
    "cell": _run_cell,
    "diam": _run_diam,
    "unionvol-check": _run_unionvol_check,
}


def run(config: ExperimentConfig) -> list[ResultRow]:
    """Dispatch the configured command; rows are deterministic given
    (config, seed, workers) apart from elapsed_ms."""
    return _RUNNERS[config.command](config)


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def write_csv(rows, path: str | None) -> None:
    """Write rows (dispatch order) under the fixed header; None path is stdout."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in rows:
        buf.write(",".join(_format_value(getattr(r, f.name)) for f in fields(ResultRow)) + "\n")
    text = buf.getvalue()
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def rows_from_csv(text: str) -> list[ResultRow]:
    """Parse write_csv output back into rows (inverse modulo 12-digit rounding)."""
    # keyed by the annotation text of each ResultRow field
    parse = {"str": str, "int": int, "float": float, "int | None": lambda v: int(v) if v else None}
    return [
        ResultRow(**{f.name: parse[f.type](rec[f.name]) for f in fields(ResultRow)})
        for rec in csv.DictReader(io.StringIO(text))
    ]


def _add_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="key=value config file")
    for key in _FLAG_KEYS:
        p.add_argument("--" + key.replace("_", "-"), dest=key)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vorlab",
        description="Voronoi cell-measure experiments with CSV output",
    )
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        _add_flags(sub.add_parser(name))
    _add_flags(parser)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    mapping: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"line 0: key 'config': cannot read {args.config!r}: {e}") from None
        file_cfg = parse_config_mapping(text)
        mapping.update(file_cfg)
    if args.command:
        mapping["command"] = args.command
    for key in _FLAG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            _apply_key(mapping, key, value, 0)
    return _build_config(mapping)


def parse_config_mapping(text: str) -> dict:
    """Raw key->value mapping of a config document (validation included)."""
    mapping: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        for token in body.split():
            key, sep, value = token.partition("=")
            if not sep or not key:
                raise ConfigError(f"line {lineno}: expected key=value, got {token!r}")
            _apply_key(mapping, key, value, lineno)
    return mapping


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        rows = run(config)
        write_csv(rows, config.output)
    except ConfigError as e:
        print(f"vorlab: config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - boundary of the process
        print(f"vorlab: error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
