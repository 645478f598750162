"""Serialization formats: CSV framing, JSON mirror, SVG output."""

import json
import math
import xml.etree.ElementTree as ET

import pytest

from mvfbm.reports import (
    ConvergenceReport,
    NonFiniteError,
    SCHEMA_VERSION,
    render_csv,
    render_json,
    render_loglog_svg,
)


def _report(**overrides):
    base = dict(
        model="mean-reverting",
        hurst=0.3,
        horizon=1.0,
        particles=20,
        replications=4,
        reference_delta=2.0**-7,
        seed=7,
        points=((0.125, 0.05), (0.0625, 0.026)),
        slope=0.94,
        slope_stderr=0.01,
        exact_scheme=False,
    )
    base.update(overrides)
    return ConvergenceReport(**base)


def test_csv_framing():
    text = render_csv({"a": 1, "b": 2.5}, ("x", "y"), [(1.0, 2.0), (3.0, 4.0)])
    lines = text.splitlines()
    assert lines[0] == f"# schema_version={SCHEMA_VERSION}"
    assert lines[1] == "# a=1"
    assert lines[2] == "# b=2.5"
    assert lines[3] == "x,y"
    assert lines[4] == "1.0,2.0"
    assert text.endswith("\n")


def test_float_repr_roundtrip():
    value = 0.1 + 0.2
    text = render_csv({}, ("v",), [(value,)])
    parsed = float(text.splitlines()[-1])
    assert parsed == value  # repr is shortest round-trip form


def test_convergence_csv_excludes_wall_time():
    report = _report()
    assert "wall" not in report.to_csv()
    payload = json.loads(report.to_json(1.23))
    assert payload["wall_time_seconds"] == 1.23


def test_convergence_csv_stable_across_wall_time():
    report = _report()
    fast = json.loads(report.to_json(0.5))
    slow = json.loads(report.to_json(99.0))
    assert fast.pop("wall_time_seconds") == 0.5
    assert slow.pop("wall_time_seconds") == 99.0
    assert fast == slow
    assert report.to_csv() == _report().to_csv()


def test_exact_scheme_summary():
    report = _report(exact_scheme=True, slope=None, slope_stderr=None)
    assert "scheme exact" in report.summary()
    assert "# slope=exact" in report.to_csv()


def test_json_sorted_and_parseable():
    payload = json.loads(render_json({"b": 1, "a": [1, 2]}))
    assert payload == {"a": [1, 2], "b": 1}


def test_json_rejects_nan():
    with pytest.raises(ValueError):
        render_json({"a": math.nan})


@pytest.mark.parametrize(
    "overrides,field",
    [({"slope": math.inf}, "slope"), ({"points": ((0.125, 0.05), (0.0625, math.nan))}, "points")],
)
def test_report_rejects_non_finite_numbers(overrides, field):
    with pytest.raises(NonFiniteError, match=f"convergence report field '{field}'"):
        _report(**overrides)


def test_svg_well_formed_and_annotated():
    svg = render_loglog_svg(
        [0.125, 0.0625, 0.03125],
        [0.05, 0.026, 0.0138],
        fitted_slope=0.93,
        reference_slope=0.7,
        title="check",
    )
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    text = svg
    assert "fit slope 0.930" in text
    assert "reference slope 0.700" in text
    assert text.count("<circle") == 3


def test_svg_without_reference_line():
    svg = render_loglog_svg([4, 8], [0.1, 0.05], fitted_slope=None, reference_slope=None, title="t")
    ET.fromstring(svg)
    assert "<circle" in svg and "slope" not in svg.split("</text>")[0]
