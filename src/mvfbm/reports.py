"""Report containers and CSV / JSON / SVG serialization.

CSV files open with ``# schema_version=1`` and a ``# key=value`` metadata
block, then a header row and data rows.  Floats are written with ``repr``
(shortest round-trip form) so identical results serialize to identical
bytes.  A report is a pure value of its inputs; the one volatile number,
the command's wall time, is passed to ``to_json`` and never enters the CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, ClassVar, Iterable, Sequence

if TYPE_CHECKING:
    from .simulator import TrajectoryRecord

__all__ = [
    "Report",
    "ConvergenceReport",
    "ChaosReport",
    "MomentReport",
    "CovarianceCheckReport",
    "SimulateReport",
    "NonFiniteError",
    "SCHEMA_VERSION",
    "render_csv",
    "render_json",
    "render_loglog_svg",
]

SCHEMA_VERSION = 1


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_csv(metadata: dict, columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [f"# schema_version={SCHEMA_VERSION}"]
    for key, value in metadata.items():
        lines.append(f"# {key}={_fmt(value)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


class NonFiniteError(RuntimeError):
    """A report, or a quantity it is computed from, would hold a number that
    is not finite; names the report and the field."""


def _non_finite(value) -> list[float]:
    """The floats in ``value`` (a number or nested tuples) that are not finite."""
    if isinstance(value, tuple):
        return [bad for v in value for bad in _non_finite(v)]
    return [value] if isinstance(value, float) and not math.isfinite(value) else []


@dataclass(frozen=True)
class Report:
    """Base of every report: CSV and JSON are rendered from the dataclass fields.

    The CSV metadata block and the JSON mirror hold ``report`` (the class's
    ``KIND``) and every field but ``points``, in field order; tuples are
    ``;``-joined in the CSV and lists in the JSON.  The ``points`` rows
    become the CSV data rows under ``COLUMNS`` and a list of objects in the
    JSON.  A report holds no timing: ``to_json`` is given the wall time and
    alone writes it, as ``wall_time_seconds``.
    A report holds finite numbers only: building one with a NaN or an
    infinity raises NonFiniteError.
    """

    KIND: ClassVar[str] = ""
    COLUMNS: ClassVar[tuple[str, ...]] = ()
    NOT_METADATA: ClassVar[tuple[str, ...]] = ("points",)

    def __post_init__(self) -> None:
        for f in fields(self):
            bad = _non_finite(getattr(self, f.name))
            if bad:
                raise NonFiniteError(f"{self.KIND} report field {f.name!r} holds {bad[0]}")

    def _named_values(self) -> dict:
        """``report`` and every field not in ``NOT_METADATA``, in field order."""
        named = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in self.NOT_METADATA}
        return {"report": self.KIND, **named}

    def metadata(self) -> dict:
        return {
            name: ";".join(repr(v) for v in value) if isinstance(value, tuple) else value
            for name, value in self._named_values().items()
        }

    def to_csv(self) -> str:
        return render_csv(self.metadata(), self.COLUMNS, self.points)

    def to_json(self, wall_time: float) -> str:
        payload = {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in self._named_values().items()
        }
        if self.COLUMNS:
            payload["points"] = [dict(zip(self.COLUMNS, row)) for row in self.points]
        payload["wall_time_seconds"] = wall_time
        return render_json(payload)


@dataclass(frozen=True)
class ConvergenceReport(Report):
    """Strong-error ladder: per-step-size RMS terminal error plus fitted slope."""

    KIND = "convergence"
    COLUMNS = ("delta", "rms_error")

    model: str
    hurst: float
    horizon: float
    particles: int
    replications: int
    reference_delta: float
    seed: int
    points: tuple[tuple[float, float], ...]  # (delta, rms_error), delta decreasing
    slope: float | None
    slope_stderr: float | None
    exact_scheme: bool

    def metadata(self) -> dict:
        meta = super().metadata()
        if self.exact_scheme:  # the JSON keeps the null slope
            meta["slope"] = meta["slope_stderr"] = "exact"
        return meta

    def summary(self) -> str:
        if self.exact_scheme:
            return (
                f"convergence model={self.model} H={self.hurst}: scheme exact; "
                "slope undefined"
            )
        return (
            f"convergence model={self.model} H={self.hurst} N={self.particles} "
            f"M={self.replications}: slope={self.slope:.4f} (stderr {self.slope_stderr:.4f})"
        )


@dataclass(frozen=True)
class ChaosReport(Report):
    """Distance-to-reference trend as the particle count grows."""

    KIND = "chaos"
    COLUMNS = ("particles", "distance", "stderr")

    model: str
    hurst: float
    horizon: float
    steps: int
    replications: int
    theta: float
    estimator: str  # "1d-exact" or "coupling-bound"
    reference_particles: int
    seed: int
    points: tuple[tuple[int, float, float], ...]  # (N, distance, stderr), N increasing
    non_increasing: bool

    def summary(self) -> str:
        trend = "non-increasing" if self.non_increasing else "NOT non-increasing"
        return (
            f"chaos model={self.model} H={self.hurst} Ns={[n for n, _, _ in self.points]}: "
            f"distance trend {trend}"
        )


@dataclass(frozen=True)
class MomentReport(Report):
    """Empirical moment stability across a refining mesh ladder."""

    KIND = "moments"
    COLUMNS = ("delta", "max_moment", "terminal_moment")

    model: str
    hurst: float
    horizon: float
    particles: int
    order: float
    seed: int
    points: tuple[tuple[float, float, float], ...]  # (delta, max_moment, terminal_moment)
    ratios: tuple[float, ...]  # successive refinement ratios of max moments
    passed: bool

    def summary(self) -> str:
        verdict = "stable" if self.passed else "UNSTABLE"
        return (
            f"moments model={self.model} H={self.hurst} q={self.order}: "
            f"refinement ratios {verdict}"
        )


@dataclass(frozen=True)
class CovarianceCheckReport(Report):
    """Entrywise z-scores of the empirical increment covariance, per lag."""

    KIND = "fbm-check"
    COLUMNS = ("lag", "expected_cov", "empirical_cov", "max_abs_z")

    hurst: float
    steps: int
    paths: int
    seed: int
    points: tuple[tuple[int, float, float, float], ...]  # (lag, expected, empirical, max|z|)
    max_abs_z: float

    def summary(self) -> str:
        return (
            f"fbm-check H={self.hurst} n={self.steps} paths={self.paths}: "
            f"max covariance deviation {self.max_abs_z:.2f} standard errors"
        )


@dataclass(frozen=True)
class SimulateReport(Report):
    """Terminal statistics of one ensemble run; its CSV is the trajectory export."""

    KIND = "simulate"
    NOT_METADATA = ("record",)

    model: str
    hurst: float
    particles: int
    steps: int
    terminal_mean: float
    terminal_std: float
    record: TrajectoryRecord = field(repr=False, compare=False)

    def to_csv(self) -> str:
        """Every retained snapshot: header k,t,particle,component_1..d."""
        record = self.record
        dimension = record.terminal.shape[1]
        columns = ["k", "t", "particle"] + [f"component_{j + 1}" for j in range(dimension)]
        rows = (
            [k, float(record.mesh.node(k)), i, *state]
            for k, states in zip(record.snapshot_indices, record.snapshots)
            for i, state in enumerate(states.tolist())
        )
        return render_csv({}, columns, rows)

    def summary(self) -> str:
        return (
            f"simulate model={self.model} H={self.hurst} N={self.particles} "
            f"steps={self.steps}: terminal mean {self.terminal_mean:.6f}"
        )


# --------------------------------------------------------------------------
# Minimal self-contained SVG log-log chart (no plotting dependency).
# --------------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 480
_MARGIN = 60.0


def _ticks(lo: float, hi: float) -> list[float]:
    """Multiples of a whole step in [lo, hi].  The plot pads each axis so that
    hi - lo >= 1, and the step is at most the span, so there is at least one."""
    span = hi - lo
    step = max(1.0, round(span / 5.0))
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9:
        out.append(t)
        t += step
    return out


def render_loglog_svg(
    xs: Sequence[float],
    ys: Sequence[float],
    fitted_slope: float | None,
    reference_slope: float | None,
    title: str,
    x_label: str = "log2(delta)",
    y_label: str = "log2(error)",
) -> str:
    """Log-log scatter with fitted and reference lines, as standalone SVG."""
    lx = [math.log2(x) for x in xs]
    ly = [math.log2(y) for y in ys]
    x_lo, x_hi = min(lx), max(lx)
    y_lo, y_hi = min(ly), max(ly)
    x_pad = 0.5 + 0.05 * (x_hi - x_lo)
    y_pad = 0.5 + 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x: float) -> float:
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_SVG_W - 2 * _MARGIN)

    def py(y: float) -> float:
        return _SVG_H - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_SVG_H - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.1f}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_SVG_H - _MARGIN}" '
        f'stroke="black"/>'
    )
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(t):.1f}" y1="{_SVG_H - _MARGIN}" x2="{px(t):.1f}" '
            f'y2="{_SVG_H - _MARGIN + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(t):.1f}" y="{_SVG_H - _MARGIN + 20}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_MARGIN - 5}" y1="{py(t):.1f}" x2="{_MARGIN}" y2="{py(t):.1f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{py(t):.1f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif" dominant-baseline="middle">{t:g}</text>'
        )
    parts.append(
        f'<text x="{_SVG_W / 2:.1f}" y="{_SVG_H - 12}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_SVG_H / 2:.1f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {_SVG_H / 2:.1f})">{y_label}</text>'
    )

    mean_x = sum(lx) / len(lx)
    mean_y = sum(ly) / len(ly)
    for slope, color, dash, label in (
        (fitted_slope, "#d62728", "", "fit"),
        (reference_slope, "#2ca02c", ' stroke-dasharray="6 4"', "reference"),
    ):
        if slope is None:
            continue
        y1 = mean_y + slope * (x_lo + x_pad / 2 - mean_x)
        y2 = mean_y + slope * (x_hi - x_pad / 2 - mean_x)
        parts.append(
            f'<line x1="{px(x_lo + x_pad / 2):.1f}" y1="{py(y1):.1f}" '
            f'x2="{px(x_hi - x_pad / 2):.1f}" y2="{py(y2):.1f}" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>'
        )
        parts.append(
            f'<text x="{px(x_hi - x_pad / 2) - 4:.1f}" y="{py(y2) - 6:.1f}" text-anchor="end" '
            f'font-size="11" fill="{color}" font-family="sans-serif">'
            f"{label} slope {slope:.3f}</text>"
        )
    for x, y in zip(lx, ly):
        parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="4" fill="#1f77b4"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
