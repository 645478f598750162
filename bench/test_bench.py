"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py      # from the root of a checkout

The worker-count test runs ``conv-fig1-w2`` twice (about 15 s together).
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layertrace  # noqa: E402
import run  # noqa: E402

ROOT = BENCH_DIR.parent


@pytest.fixture(scope="module")
def fig1_reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    two = run.invoke(ROOT, "conv-fig1-w2", run.DEFAULT_SEED, out, "workers-2")
    one = run.invoke(ROOT, "conv-fig1-w2", run.DEFAULT_SEED, out, "workers-1", workers=1)
    assert two.ok and one.ok, two.problems + one.problems
    return two.report_csv(), one.report_csv()


def test_conv_fig1_w2_report_is_byte_identical_at_one_worker(fig1_reports):
    two, one = fig1_reports
    assert two == one


def test_golden_check_admits_round_off_and_catches_a_changed_draw(fig1_reports):
    text = fig1_reports[0].decode()
    assert run.report_problems(text, run.DEFAULT_SEED, "conv-fig1-w2") == []
    value = run.observed_values(text)["rms_error"][0]
    for perturbed, expect_problem in ((math.nextafter(value, math.inf), False),
                                      (value * (1 + 1e-6), True)):
        changed = text.replace(repr(value), repr(perturbed), 1)
        assert changed != text
        problems = run.report_problems(changed, run.DEFAULT_SEED, "conv-fig1-w2")
        assert bool(problems) == expect_problem, problems


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, None, "study", 0.0, 10.0, 0),
        (1, 0, "simulator.run", 1.0, 9.0, 0),
        (2, 1, "simulator.em_step", 2.0, 5.0, 0),
        (3, 2, "model.drift", 3.0, 4.0, 0),
        (4, 1, "fbm.sample", 5.0, 6.0, 0),
    ]
    assert layertrace.self_times(spans) == [2.0, 4.0, 2.0, 1.0, 1.0]


def test_refuses_to_run_without_the_program(tmp_path):
    result = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "conv-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
