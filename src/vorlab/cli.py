"""Batch front end: flat key=value configs, experiment dispatch, CSV output.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import re
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from functools import partial

import numpy as np

from . import cellsim, geometry, moments, sampling, wstat
from .sampling import MAX_WORKERS

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
    "main",
]

COMMANDS = ("alpha", "zmoments", "cell", "diam", "unionvol-check")

# per-command default sample budgets (alpha draws are cheap and exact; the
# others pay for nested sampling per draw)
_SAMPLES_DEFAULT = {"alpha": 1_000_000, "zmoments": 10_000, "unionvol-check": 20_000}
_REPLICATES_DEFAULT = {"unionvol-check": 100}


class ConfigError(ValueError):
    """Raised for malformed configuration input; names the key and line."""


# parsers of the config keys' values; each raises ValueError on a bad value


def _count(value: str, lo: int = 1, hi: float = math.inf) -> int:
    try:
        v = int(value)  # exact at any size
    except ValueError:
        f = float(value)  # counts accept scientific notation
        v = int(f) if f.is_integer() else None
    if v is None or not lo <= v <= hi:
        raise ValueError(f"expected a whole number in [{lo}, {hi}], got {value!r}")
    return v


def _seed(value: str) -> int:
    sampling.check_seed(v := int(value))
    return v


def _command(value: str) -> str:
    if value not in COMMANDS:
        raise ValueError(f"unknown command {value!r}")
    return value


def _density(value: str) -> str:
    sampling.parse_density(value, dimension=1)
    return value


def _output(value: str) -> str:
    if os.path.isdir(value):
        raise ValueError(f"{value!r} is a directory")
    folder = os.path.dirname(os.path.abspath(value))
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ValueError(f"directory {folder!r} is missing or not writable")
    return value


def _real(value: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite real, got {value!r}")
    return v


def _tuple(value: str, item=_real) -> tuple:
    return tuple(item(t) for t in value.split(","))


def _point(value: str) -> tuple[float, ...] | None:
    return None if value == "origin" else _tuple(value)


def _key(parse, default=MISSING):
    """A config key: its default and the parser of its value."""
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: the unit of reproducibility for the batch CLI.

    Each field is a config key, and its metadata holds the key's parser.
    """

    command: str = _key(_command)
    dim: int = _key(partial(_count, hi=geometry.MAX_DIM), 1)
    density: str = _key(_density, "uniform-ball:r=1")
    x: tuple[float, ...] | None = _key(_point, None)  # None means the origin
    n: int = _key(_count, 2000)
    replicates: int = _key(_count, 2000)
    probes: int = _key(_count, 5000)
    samples: int = _key(partial(_count, lo=2), 1_000_000)
    inner_samples: int = _key(partial(_count, lo=2, hi=moments.MAX_INNER_SAMPLES),
                              wstat.DEFAULT_INNER_SAMPLES)
    k_max: int = _key(partial(_count, hi=moments.MAX_FACTORIAL_K), 4)
    n_grid: tuple[int, ...] = _key(partial(_tuple, item=_count), (1000, 10000))
    t_grid: tuple[float, ...] = _key(_tuple, (0.5, 1.0, 2.0, 4.0))
    seed: int = _key(_seed, 0)
    workers: int = _key(partial(_count, hi=MAX_WORKERS), 1)
    output: str | None = _key(_output, None)


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
_PARSERS = {f.name: f.metadata["parse"] for f in fields(ExperimentConfig)}
# every key but command, which the positional sets, is also a flag
_FLAG_KEYS = tuple(key for key in _PARSERS if key != "command")


def _apply_key(out: dict, key: str, value: str, line: int) -> None:
    if key not in _PARSERS:
        raise ConfigError(f"line {line}: unknown key {key!r}")
    try:
        out[key] = _PARSERS[key](value)
    except ValueError as e:
        raise ConfigError(f"line {line}: key {key!r}: {e}") from None


def _build_config(mapping: dict) -> ExperimentConfig:
    if "command" not in mapping:
        raise ConfigError("line 0: key 'command': missing (give a subcommand or command=...)")
    command = mapping["command"]
    for key, per_command in (("samples", _SAMPLES_DEFAULT), ("replicates", _REPLICATES_DEFAULT)):
        mapping.setdefault(key, per_command.get(command, getattr(ExperimentConfig, key)))
    return ExperimentConfig(**mapping)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key=value document (whitespace separated, # comments)."""
    return _build_config(parse_config_mapping(text))


def render_config(config: ExperimentConfig) -> str:
    """Canonical key=value text; parse_config(render_config(c)) == c. A value
    with whitespace or # has no such text: it raises ValueError naming its key."""
    lines = []
    for f in fields(config):
        v = getattr(config, f.name)
        if f.name == "x" and v is None:
            v = "origin"
        if isinstance(v, tuple):
            v = ",".join(repr(t) for t in v)
        if v is not None:
            if re.search(r"[\s#]", v := str(v)):
                raise ValueError(f"key {f.name!r}: {v!r} contains whitespace or '#'")
            lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


def _experiment(cls, config: ExperimentConfig, **keys):
    """The library config (cls) of a cell or diam run; its ValueError is a ConfigError."""
    x = None if config.x is None else np.asarray(config.x, dtype=float)
    if x is not None and x.size != config.dim:
        raise ConfigError(f"line 0: key 'x': has {x.size} coordinates for dim={config.dim}")
    try:
        return cls(
            density=sampling.parse_density(config.density, config.dim), x=x,
            replicates=config.replicates, probes=config.probes, seed=config.seed,
            workers=config.workers, **keys,
        )
    except ValueError as e:
        raise ConfigError(f"line 0: {e}") from None


def _row(config: ExperimentConfig, est, bounds, elapsed, k=None, n=None) -> ResultRow:
    """One CSV row: est is a geometry.Estimate, bounds is (lower, upper)."""
    return ResultRow(config.command, config.dim, k, n, est.value, est.stderr, *bounds,
                     config.seed, est.samples, elapsed)


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def _run_alpha(config: ExperimentConfig) -> list[ResultRow]:
    t0 = time.perf_counter()
    est = moments.estimate_alpha_parallel(config.dim, config.samples, config.seed, config.workers)
    elapsed = _ms_since(t0)
    b = moments.alpha_bounds(config.dim)
    return [_row(config, est, (b.lower, b.upper), elapsed)]


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
            rows.append(_row(config, est, (b.lower, b.upper), elapsed, k=k))
    return rows


def _run_cell(config: ExperimentConfig) -> list[ResultRow]:
    t0 = time.perf_counter()
    result = cellsim.run_cell_experiment(
        _experiment(cellsim.CellExperimentConfig, config, n=config.n, k_max=config.k_max)
    )
    elapsed = _ms_since(t0)
    rows = []
    for k in range(1, config.k_max + 1):
        b = moments.z_moment_bounds(config.dim, k)
        est = geometry.Estimate(result.empirical_moments[k], result.moment_stderrs[k],
                                config.replicates)
        rows.append(_row(config, est, (b.lower, b.upper), elapsed, k, config.n))
    return rows


def _run_diam(config: ExperimentConfig) -> list[ResultRow]:
    t0 = time.perf_counter()
    result = cellsim.run_diameter_experiment(
        _experiment(cellsim.DiameterExperimentConfig, config, n_grid=config.n_grid,
                    t_grid=config.t_grid)
    )
    elapsed = _ms_since(t0)
    rows = []
    for n in config.n_grid:
        est = geometry.Estimate.of(geometry._stats(result.scaled_upper[n]))
        # the medians of the scaled lower and upper estimates
        rows.append(_row(config, est, result.quantiles[n][0.5], elapsed, n=n))
    return rows


def _run_unionvol_check(config: ExperimentConfig) -> list[ResultRow]:
    d = config.dim
    rows = []
    for i in range(1, config.replicates + 1):
        t0 = time.perf_counter()
        rng = sampling.RandomStream(config.seed, i)
        m = 3 if d <= 2 else 2  # three random intervals or disks, or two random balls
        radii = [0.1 + 0.9 * rng.random()]
        centers = [rng.random(d) * 2.0 - 1.0]
        for _ in range(1, m):
            # each next ball has 1/2 to 2 times the volume of the one before
            # it, and its center lies in a uniform direction at a distance
            # uniform in (|r0 - r1|, |r0 - r1| + min(r0, r1)): the balls meet,
            # neither holds the other, and their lens holds enough of the
            # smaller ball that the mixture draws vary
            r0, r1 = radii[-1], radii[-1] * (0.5 + 1.5 * rng.random()) ** (1.0 / d)
            dist = abs(r0 - r1) + min(r0, r1) * rng.random()
            g = rng.standard_normal(d)
            radii.append(r1)
            centers.append(centers[-1] + dist * g / np.linalg.norm(g))
        balls = [geometry.Ball(c, r) for c, r in zip(centers, radii)]
        if d <= 2:  # exact sweep or boundary-arc oracle
            oracle = float(geometry.exact_union_volumes([centers], [radii])[0])
        else:  # exact two-cap oracle
            oracle = geometry.two_ball_union_volume(*balls)
        mc = geometry.union_volume_mc(balls, config.samples, rng)
        bounds = (oracle - 4.0 * mc.stderr, oracle + 4.0 * mc.stderr)
        rows.append(_row(config, mc, bounds, _ms_since(t0), k=i))
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise ArgumentError instead of exiting:
    unknown and ambiguous flags and leftover arguments included."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    # an argument not given sets nothing, so a flag may come before or after
    # the command; _command checks it, as choices would also check SUPPRESS
    parser = _Parser(
        prog="vorlab",
        description="Voronoi cell-measure experiments with CSV output",
        argument_default=argparse.SUPPRESS,
    )
    # a token such as -0.5,0.25 is a value, not a flag (no flag starts -digit)
    parser._negative_number_matcher = re.compile(r"^-\.?\d")
    parser.add_argument("command", nargs="?", metavar="{" + ",".join(COMMANDS) + "}")
    parser.add_argument("--config", metavar="FILE", help="key=value config file")
    for key in _FLAG_KEYS:
        parser.add_argument("--" + key.replace("_", "-"), dest=key)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config of the given command and flags over the --config file's keys."""
    given = vars(args)
    mapping: dict = {}
    if "config" in given:
        path = given["config"]
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"line 0: key 'config': cannot read {path!r}: {e}") from None
        mapping.update(parse_config_mapping(text))
    for key in _PARSERS:
        if key in given:
            _apply_key(mapping, key, given[key], 0)
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
    try:  # argparse's errors, leftover arguments included, are config errors
        config = _config_from_args(build_parser().parse_args(argv))
        rows = run(config)
        write_csv(rows, config.output)
    except (ConfigError, argparse.ArgumentError) as e:
        print(f"vorlab: config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - boundary of the process
        print(f"vorlab: error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
