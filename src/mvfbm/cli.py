"""Command-line front end for the simulation and experiment harness.

One executable, five commands selected with ``--command``:

* ``simulate``    -- run one interacting ensemble, export the trajectory
* ``convergence`` -- strong-error ladder against a fine reference mesh
* ``chaos``       -- distance-to-reference trend over particle counts
* ``moments``     -- moment stability across a mesh ladder
* ``fbm-check``   -- empirical covariance audit of the Davies-Harte drivers

Every option is one ``RunConfig`` field, set by a flag or by a line of a
flat ``key = value`` config file (``--config``), parsed alike.  A flag is
``--key value`` or ``--key=value``, its value the next word unless that word
starts with ``--``; a bare ``--emit-plot`` reads ``true`` and a repeated
flag's last value wins.  Flags override file values; any other word, an
abbreviated flag included, is rejected, and ``--help`` lists every flag.
The library checks each range, before any draw, in the call that reads the
value, so an option the command does not read is not range-checked.  A run
that succeeds writes ``report.csv``, ``report.json``, ``config.echo``
and optionally ``plot.svg`` into its own directory under ``--outdir``; a
run that fails creates no directory.

Exit codes: 0 success, 1 numerical failure (``NumericalBlowup``,
``CirculantEmbeddingError`` or ``NonFiniteError``), 2 configuration failure
(an ``ArgumentError``, raised by the check that rejects the argument: a
library range check, ``ConfigError`` for option text, a config file or a
run directory, ``RegimeViolation`` for a model outside its regime; or a
run whose arrays cannot be allocated, ``MemoryError``).  Any other
exception, a bare ``ValueError`` included, is a defect and propagates as
itself.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ArgumentError
from .fbm import CirculantEmbeddingError, UniformMesh
from .model import PRESET_NAMES, preset_by_name
from .reports import NonFiniteError, Report, SimulateReport, render_loglog_svg
from .simulator import SNAPSHOT_POLICIES, NumericalBlowup, SimulationConfig, run
from .study import chaos_study, covariance_check, moment_bound_check, strong_error_study

__all__ = ["main", "parse_config", "dispatch", "ConfigError", "RunConfig"]


class ConfigError(ArgumentError):
    """Option text that does not parse, with its key named, a config file that cannot be
    read, or a run directory that cannot be written."""


# --------------------------------------------------------------------------
# Commands: each runs its study and returns the report and an optional plot.
# --------------------------------------------------------------------------


def _simulate(config: RunConfig) -> tuple[Report, str | None]:
    sim = SimulationConfig(_model_for(config), config.hurst, _mesh(config), config.particles,
                           config.seed)
    record = run(sim, snapshots=config.snapshots)
    with np.errstate(over="ignore"):  # the report rejects a statistic that overflowed
        mean, std = float(record.terminal.mean()), float(record.terminal.std())
    report = SimulateReport(
        model=config.model, hurst=config.hurst, particles=config.particles, steps=config.steps,
        terminal_mean=mean, terminal_std=std, record=record,
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
        _model_for(config), config.hurst, _mesh(config),
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

# Defaults each profile puts under the flags and file values.
_PROFILE_SETTINGS = {
    "desk": {},
    # Full-scale profile: finer reference mesh and the larger ensemble.
    "paper-fig1": {
        "particles": 1000,
        "replications": 100,
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


def _list(item):
    """The parser of a nonempty comma list of ``item`` values."""
    def parse(text: str) -> tuple:
        values = tuple(item(t) for t in text.split(",") if t.strip())
        if not values:
            raise ValueError("empty list")
        return values
    return parse


def _boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered not in ("true", "false", "1", "0", "yes", "no"):
        raise ValueError("not a boolean")
    return lowered in ("true", "1", "yes")


def _one_of(choices: tuple[str, ...]):
    """The parser of an option whose value is one of ``choices``."""
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"choose from {', '.join(choices)}")
        return text
    return parse


def _label(text: str) -> str:
    """One directory directly under the outdir: never a parent or the outdir itself."""
    if text in (".", "..") or Path(text).name != text:
        raise ValueError("must name one directory")
    return text


def _option(default, parse, help: str):
    return field(default=default, metadata=dict(parse=parse, help=help))


@dataclass
class RunConfig:
    """One run's resolved options.

    Each field is one option: its flag and config-file key are the field
    name with dashes, and its metadata holds the value parser, which checks
    form and choices, and the help text.  The library checks ranges.
    """

    command: str = _option(MISSING, _one_of(COMMANDS), f"what to run: {', '.join(COMMANDS)}")
    model: str = _option("mean-deviation", _one_of(PRESET_NAMES),
                         f"model preset: {', '.join(PRESET_NAMES)} (default mean-deviation)")
    xi: float = _option(1.0, _number, "constant diffusion scale (mean-reverting preset)")
    rate: float = _option(1.0, _number, "mean-reversion rate (mean-reverting preset)")
    initial: float = _option(1.0, _number, "initial state value (default 1)")
    initial_spread: float = _option(0.0, _number, "stddev of Gaussian initial data (default 0)")
    hurst: float = _option(0.7, _number, "Hurst index in (0, 1)")
    horizon: float = _option(1.0, _number, "time horizon T (default 1)")
    steps: int = _option(128, int, "mesh steps for simulate/chaos/fbm-check")
    deltas: tuple[float, ...] = _option(
        (2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8), _list(_number),
        "comma list of step sizes, e.g. 2^-5,2^-6 (convergence/moments)",
    )
    reference_delta: float = _option(2.0**-10, _number, "reference step size, e.g. 2^-10 (convergence)")
    particles: int = _option(200, int, "particles per ensemble")
    replications: int = _option(50, int, "Monte Carlo replications")
    particle_counts: tuple[int, ...] = _option((50, 100, 200, 400), _list(int),
                                               "comma list of ensemble sizes (chaos)")
    theta: float = _option(2.0, _number, "transport cost exponent >= 2 (chaos)")
    order: float = _option(4.0, _number, "moment order q >= 2 (moments)")
    paths: int = _option(10_000, int, "sample paths (fbm-check)")
    seed: int = _option(2024, int, "master seed")
    snapshots: str = _option("terminal", _one_of(SNAPSHOT_POLICIES),
                             f"trajectory retention (simulate): {', '.join(SNAPSHOT_POLICIES)}")
    workers: int = _option(1, int, "parallel worker processes for replications, at most the usable "
                           "cores; each process's driver sampler uses its usable cores")
    outdir: str = _option("runs", str, "output directory root (default runs/)")
    label: str = _option("", _label, "run directory name under outdir (default <command>-<timestamp>)")
    emit_plot: bool = _option(False, _boolean, "write plot.svg")
    profile: str = _option("desk", _one_of(tuple(_PROFILE_SETTINGS)),
                           f"parameter profile: {', '.join(_PROFILE_SETTINGS)} (default desk)")


_FIELDS = {f.name: f for f in fields(RunConfig)}
# The flag and config-file key of each field: its name with dashes.
_FIELD_FOR_KEY = {name.replace("_", "-"): name for name in _FIELDS}


def _convert(name: str, text: str) -> object:
    """A flag or file value, parsed by its field's parser: the one check of a value at parse time."""
    try:
        return _FIELDS[name].metadata["parse"](text)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {name.replace('_', '-')}: {text!r} ({exc})") from None


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


# Each field's key with two dashes, and --config.
_FLAGS = {f"--{key}": name for key, name in _FIELD_FOR_KEY.items()} | {"--config": "config"}


def _flag_values(argv: list[str]):
    """The ``(field, text)`` pair of each flag of ``argv``, in order; any
    other word is rejected.  The grammar is in the module docstring."""
    i = 0
    while i < len(argv):
        flag, equals, text = argv[i].partition("=")
        if flag not in _FLAGS:
            raise ConfigError(f"unknown option {argv[i]!r}")
        name, i = _FLAGS[flag], i + 1
        if not equals:
            if i < len(argv) and not argv[i].startswith("--"):
                text, i = argv[i], i + 1
            elif name != "config" and _FIELDS[name].metadata["parse"] is _boolean:
                text = "true"
            else:
                raise ConfigError(f"option {flag} needs a value")
        yield name, text


def _help() -> str:
    """The usage text: one line per flag, from the RunConfig table."""
    helps = {"--config": "flat key = value config file; flags override it"}
    helps |= {flag: _FIELDS[name].metadata["help"] for flag, name in _FLAGS.items() if name in _FIELDS}
    width = max(map(len, helps))
    return ("usage: mvfbm --command COMMAND [--key value | --key=value ...]\n"
            "Interacting-particle Euler simulation driven by fractional Brownian motion.\n\n"
            + "".join(f"  {flag:<{width}}  {text}\n" for flag, text in helps.items()))


def parse_config(argv: list[str]) -> RunConfig:
    flags = dict(_flag_values(argv))  # a repeated flag's last value wins
    merged = _read_config_file(flags.pop("config")) if "config" in flags else {}
    merged.update((name, _convert(name, text)) for name, text in flags.items())  # explicit flags win
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


def _mesh(config: RunConfig) -> UniformMesh:
    return UniformMesh(config.horizon, config.steps)


def _model_for(config: RunConfig):
    return preset_by_name(config.model, xi=config.xi, rate=config.rate,
                          initial=config.initial, initial_spread=config.initial_spread)


# Every file a run may write into its directory.
_ARTIFACT_NAMES = ("config.echo", "report.csv", "report.json", "plot.svg")


def dispatch(config: RunConfig) -> int:
    """Run the configured command, then write its artifacts; returns exit code 0.

    The command's wall time, from its start to its report and plot, is
    measured here once and written to ``report.json`` alone.  The run
    directory is created only once the command has returned, so a run that
    fails leaves no directory behind.  A run that reuses a directory first
    removes every artifact an earlier run left there.  A directory or file
    that cannot be written raises ``ConfigError``.
    """
    start = time.perf_counter()
    report, plot = _COMMAND_RUNNERS[config.command](config)
    wall_time = time.perf_counter() - start
    artifacts = {"report.csv": report.to_csv(), "report.json": report.to_json(wall_time)}
    if plot is not None:
        artifacts["plot.svg"] = plot
    try:
        directory = _run_directory(config)
        for name in _ARTIFACT_NAMES:  # a reused --label directory may hold an earlier run's files
            (directory / name).unlink(missing_ok=True)
        (directory / "config.echo").write_text(_echo_config(config))
        for name, text in artifacts.items():
            (directory / name).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write the run directory under {config.outdir}: {exc}") from exc
    print(f"{report.summary()} -> {', '.join(str(directory / name) for name in artifacts)}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        sys.stderr.write(_help())
        return 2
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_help())
        return 0
    try:
        return dispatch(parse_config(argv))
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy names the allocation that this host cannot hold
        print(f"error: the configured run does not fit in memory: {exc}", file=sys.stderr)
        return 2
    except (NumericalBlowup, CirculantEmbeddingError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
