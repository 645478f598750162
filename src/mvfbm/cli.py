"""Command-line front end for the simulation and experiment harness.

One executable, five commands selected with ``--command``:

* ``simulate``    -- run one interacting ensemble, export the trajectory
* ``convergence`` -- strong-error ladder against a fine reference mesh
* ``chaos``       -- distance-to-reference trend over particle counts
* ``moments``     -- moment stability across a mesh ladder
* ``fbm-check``   -- empirical covariance audit of the Davies-Harte drivers

Every option is one ``RunConfig`` field, set by a flag or by a line of a
flat ``key = value`` config file (``--config``); both are parsed and
checked alike, explicit flags override file values and unknown keys are
rejected.  A run that succeeds writes ``report.csv``, ``report.json``,
``config.echo`` and optionally ``plot.svg`` into its own directory under
``--outdir``; a run that fails creates no directory.

Exit codes: 0 success, 1 numerical failure, 2 configuration failure
(``ConfigError``, ``RegimeViolation`` or ``StudyArgumentError``).  Any other
exception is a defect and propagates as itself.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .fbm import CirculantEmbeddingError, UniformMesh
from .model import PRESET_NAMES, RegimeViolation, preset_by_name
from .reports import Report, SimulateReport, render_loglog_svg
from .simulator import (
    SNAPSHOT_POLICIES,
    NumericalBlowup,
    SimulationConfig,
    run,
    write_trajectory_csv,
)
from .study import (
    StudyArgumentError,
    chaos_study,
    covariance_check,
    moment_bound_check,
    strong_error_study,
)

__all__ = ["main", "parse_config", "dispatch", "ConfigError", "RunConfig"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration; names the offending key."""


# --------------------------------------------------------------------------
# Commands: each runs its study and returns the report and an optional plot.
# --------------------------------------------------------------------------


def _simulate(config: RunConfig) -> tuple[Report, str | None]:
    started = time.perf_counter()
    model, mesh = _model_for(config), UniformMesh(config.horizon, config.steps)
    sim = SimulationConfig(model, config.hurst, mesh, config.particles, config.seed)
    record = run(sim, snapshots=config.snapshots)
    trajectory = io.StringIO()
    write_trajectory_csv(record, trajectory)
    report = SimulateReport(
        model=config.model, hurst=config.hurst, particles=config.particles, steps=config.steps,
        terminal_mean=float(record.terminal.mean()), terminal_std=float(record.terminal.std()),
        trajectory_csv=trajectory.getvalue(), wall_time=time.perf_counter() - started,
    )
    return report, None


def _convergence(config: RunConfig) -> tuple[Report, str | None]:
    report = strong_error_study(
        _model_for(config), config.hurst, config.particles, config.replications, config.deltas,
        config.reference_delta, config.seed, config.horizon, config.workers,
    )
    if not config.emit_plot or report.exact_scheme:
        return report, None
    deltas, errors = zip(*report.points)
    title = f"Terminal RMS error vs step size (H={config.hurst})"
    return report, render_loglog_svg(deltas, errors, report.slope, config.hurst, title)


def _chaos(config: RunConfig) -> tuple[Report, str | None]:
    report = chaos_study(
        _model_for(config), config.hurst, UniformMesh(config.horizon, config.steps),
        config.particle_counts, config.replications, config.theta, config.seed,
        workers=config.workers,
    )
    positive = [(float(n), d) for n, d, _ in report.points if d > 0]
    if not config.emit_plot or len(positive) < 2:
        return report, None
    counts, distances = zip(*positive)
    title = f"Distance to reference vs particle count (H={config.hurst})"
    svg = render_loglog_svg(counts, distances, None, -0.5, title, "log2(N)", "log2(distance)")
    return report, svg


def _moments(config: RunConfig) -> tuple[Report, str | None]:
    report = moment_bound_check(
        _model_for(config), config.hurst, config.deltas, config.particles, config.order,
        config.seed, config.horizon,
    )
    return report, None


def _fbm_check(config: RunConfig) -> tuple[Report, str | None]:
    report = covariance_check(config.hurst, config.steps, config.paths, config.seed, config.horizon)
    return report, None


_COMMAND_RUNNERS = {
    "simulate": _simulate,
    "convergence": _convergence,
    "chaos": _chaos,
    "moments": _moments,
    "fbm-check": _fbm_check,
}
COMMANDS = tuple(_COMMAND_RUNNERS)

_DESK_DELTAS = (2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8)

# Defaults each profile puts under the flags and file values.
_PROFILE_SETTINGS = {
    "desk": {"deltas": _DESK_DELTAS},
    # Full-scale profile: finer reference mesh and the larger ensemble.
    "paper-fig1": {
        "particles": 1000,
        "replications": 100,
        "deltas": _DESK_DELTAS,
        "reference_delta": 2.0**-12,
    },
}

# --------------------------------------------------------------------------
# Options: value parsers, and one RunConfig field per option.
# --------------------------------------------------------------------------


def _number(text: str) -> float:
    """A finite real float, or ``base^exponent`` such as ``2^-10``."""
    base, caret, exponent = text.strip().partition("^")
    try:
        value = float(base) ** float(exponent) if caret else float(base)
    except ArithmeticError:  # 0^-1, 10^400
        value = math.nan
    if not isinstance(value, float) or not math.isfinite(value):  # -4^0.5 is complex
        raise ValueError("not a finite real number")
    return value


def _numbers(text: str) -> tuple[float, ...]:
    values = tuple(_number(t) for t in text.split(",") if t.strip())
    if not values:
        raise ValueError("empty list")
    return values


def _integers(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t.strip())


def _boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered not in ("true", "false", "1", "0", "yes", "no"):
        raise ValueError("not a boolean")
    return lowered in ("true", "1", "yes")


# Range checks: (predicate on the parsed value, what it requires).
_POSITIVE = (lambda x: x > 0, "must be positive")
_AT_LEAST_1 = (lambda x: x >= 1, "must be >= 1")
_AT_LEAST_2 = (lambda x: x >= 2, "must be >= 2")


def _option(default, parse, help: str, choices=None, valid=None):
    return field(default=default, metadata=dict(parse=parse, help=help, choices=choices, valid=valid))


@dataclass
class RunConfig:
    """One run's resolved options.

    Each field is one option: its flag and config-file key are the field
    name with dashes, and its metadata holds the value parser, the help
    text, the allowed choices and the range check.
    """

    command: str = _option(MISSING, str, "what to run", COMMANDS)
    model: str = _option("mean-deviation", str, "model preset (default mean-deviation)", PRESET_NAMES)
    xi: float = _option(1.0, _number, "constant diffusion scale (mean-reverting preset)")
    rate: float = _option(1.0, _number, "mean-reversion rate (mean-reverting preset)")
    initial: float = _option(1.0, _number, "initial state value (default 1)")
    initial_spread: float = _option(
        0.0, _number, "stddev of Gaussian initial data (default 0)",
        valid=(lambda s: s >= 0, "must be >= 0"),
    )
    hurst: float = _option(
        0.7, _number, "Hurst index in (0, 1)",
        valid=(lambda h: 0.0 < h < 1.0, "must be in the open interval (0, 1)"),
    )
    horizon: float = _option(1.0, _number, "time horizon T (default 1)", valid=_POSITIVE)
    steps: int = _option(128, int, "mesh steps for simulate/chaos/fbm-check", valid=_AT_LEAST_1)
    deltas: tuple[float, ...] = _option(
        (), _numbers, "comma list of step sizes, e.g. 2^-5,2^-6 (convergence/moments)",
        valid=(lambda ds: all(d > 0 for d in ds), "must be positive"),
    )
    reference_delta: float = _option(
        2.0**-10, _number, "reference step size, e.g. 2^-10 (convergence)", valid=_POSITIVE
    )
    particles: int = _option(200, int, "particles per ensemble", valid=_AT_LEAST_1)
    replications: int = _option(50, int, "Monte Carlo replications", valid=_AT_LEAST_1)
    particle_counts: tuple[int, ...] = _option(
        (50, 100, 200, 400), _integers, "comma list of ensemble sizes (chaos)",
        valid=(lambda ns: len(ns) >= 1 and all(n >= 1 for n in ns), "must be >= 1 each"),
    )
    theta: float = _option(2.0, _number, "transport cost exponent >= 2 (chaos)", valid=_AT_LEAST_2)
    order: float = _option(4.0, _number, "moment order q >= 2 (moments)", valid=_AT_LEAST_2)
    paths: int = _option(10_000, int, "sample paths (fbm-check)", valid=_AT_LEAST_2)
    seed: int = _option(2024, int, "master seed", valid=(lambda s: s >= 0, "must be >= 0"))
    snapshots: str = _option("terminal", str, "trajectory retention (simulate)", SNAPSHOT_POLICIES)
    workers: int = _option(1, int, "parallel workers for replications", valid=_AT_LEAST_1)
    outdir: str = _option("runs", str, "output directory root (default runs/)")
    label: str = _option("", str, "run directory name (default <command>-<timestamp>)")
    emit_plot: bool = _option(False, _boolean, "write plot.svg")
    profile: str = _option("desk", str, "parameter profile (default desk)", tuple(_PROFILE_SETTINGS))


_FIELDS = {f.name: f for f in fields(RunConfig)}
# The flag and config-file key of each field: its name with dashes.
_FIELD_FOR_KEY = {name.replace("_", "-"): name for name in _FIELDS}


def _convert(name: str, text: str) -> object:
    """A flag or file value, parsed by its field's parser."""
    try:
        return _FIELDS[name].metadata["parse"](text)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {name.replace('_', '-')}: {text!r} ({exc})") from None


def _check(name: str, value: object) -> None:
    """Reject a value outside its field's choices or range."""
    key, meta = name.replace("_", "-"), _FIELDS[name].metadata
    if meta["choices"] is not None and value not in meta["choices"]:
        choices = ", ".join(meta["choices"])
        raise ConfigError(f"invalid value for {key}: {value!r} (choose from {choices})")
    if meta["valid"] is not None and not meta["valid"][0](value):
        raise ConfigError(f"invalid value for {key}: {value} ({meta['valid'][1]})")


def _read_config_file(path: str) -> dict[str, object]:
    values: dict[str, object] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_FOR_KEY:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if _FIELD_FOR_KEY[key] in values:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is set twice")
        values[_FIELD_FOR_KEY[key]] = _convert(_FIELD_FOR_KEY[key], value)
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvfbm",
        description="Interacting-particle Euler simulation driven by fractional Brownian motion.",
    )
    parser.add_argument("--config", metavar="FILE", help="flat key = value config file; flags override it")
    for key, name in _FIELD_FOR_KEY.items():
        meta = _FIELDS[name].metadata
        if meta["parse"] is _boolean:  # a bare switch
            parser.add_argument(f"--{key}", action="store_const", const="true", help=meta["help"])
        else:
            parser.add_argument(f"--{key}", choices=meta["choices"], help=meta["help"])
    return parser


def parse_config(argv: list[str]) -> RunConfig:
    namespace = _build_parser().parse_args(argv)
    merged = _read_config_file(namespace.config) if namespace.config else {}
    merged.update(  # explicit flags win
        (name, _convert(name, text))
        for name, text in vars(namespace).items()
        if name != "config" and text is not None
    )
    for name, value in merged.items():
        _check(name, value)
    for name, value in _PROFILE_SETTINGS[merged.get("profile", _FIELDS["profile"].default)].items():
        merged.setdefault(name, value)
    if "command" not in merged:
        raise ConfigError("missing required field: command")
    return RunConfig(**merged)  # type: ignore[arg-type]


def _echo_config(config: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        lines.append(f"{f.name.replace('_', '-')} = {value}")
    return "\n".join(lines) + "\n"


def _run_directory(config: RunConfig) -> Path:
    """``<outdir>/<label>``, or a new ``<command>-<timestamp>[-n]`` when no label is set."""
    if config.label:
        directory = Path(config.outdir) / config.label
        directory.mkdir(parents=True, exist_ok=True)
        return directory
    stamp = f"{config.command}-{time.strftime('%Y%m%d-%H%M%S')}"
    directory, n = Path(config.outdir) / stamp, 1
    while True:
        try:
            directory.mkdir(parents=True)
            return directory
        except FileExistsError:  # an earlier run in the same second
            n += 1
            directory = Path(config.outdir) / f"{stamp}-{n}"


def _model_for(config: RunConfig):
    return preset_by_name(
        config.model,
        xi=config.xi,
        rate=config.rate,
        initial=config.initial,
        initial_spread=config.initial_spread,
    )


# Every file a run may write into its directory.
_ARTIFACT_NAMES = ("config.echo", "report.csv", "report.json", "plot.svg")


def dispatch(config: RunConfig) -> int:
    """Run the configured command, then write its artifacts; returns exit code 0.

    The run directory is created only once the command has returned, so a
    run that fails leaves no directory behind.  A run that reuses a
    directory first removes every artifact an earlier run left there.
    """
    report, plot = _COMMAND_RUNNERS[config.command](config)
    artifacts = {"report.csv": report.to_csv(), "report.json": report.to_json()}
    if plot is not None:
        artifacts["plot.svg"] = plot
    directory = _run_directory(config)
    for name in _ARTIFACT_NAMES:  # a reused --label directory may hold an earlier run's files
        (directory / name).unlink(missing_ok=True)
    (directory / "config.echo").write_text(_echo_config(config))
    for name, text in artifacts.items():
        (directory / name).write_text(text)
    print(f"{report.summary()} -> {', '.join(str(directory / name) for name in artifacts)}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        _build_parser().print_usage(sys.stderr)
        return 2
    try:
        return dispatch(parse_config(argv))
    except (ConfigError, RegimeViolation, StudyArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalBlowup, CirculantEmbeddingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
