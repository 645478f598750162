"""The benchmark's tracer still finds the layer entry points it wraps.

``bench/layertrace.py`` patches module and class attributes of ``mvfbm`` by
name; a rename under ``src/`` would leave a traced count at zero without
failing the library's own tests.  Each case runs one tiny traced CLI
invocation through ``bench/invoke.py`` from the root of the checkout and
checks the traced work counts against the work the configuration asks for.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _tree(directory: Path) -> dict:
    return {str(p.relative_to(directory)): p.stat().st_mtime_ns for p in directory.rglob("*")}


@pytest.mark.parametrize(
    "cli_args",
    [
        ["--command", "fbm-check", "--steps", "16", "--paths", "20"],
        ["--command", "convergence", "--particles", "8", "--replications", "3", "--workers", "2"],
        [
            "--command", "chaos", "--initial-spread", "0.5", "--particle-counts", "4,8",
            "--replications", "3", "--steps", "16", "--workers", "2",
        ],
    ],
    ids=["fbm-check", "convergence-two-workers", "chaos-two-workers"],
)
def test_traced_invocation_counts_the_configured_work(tmp_path, cli_args):
    before = _tree(BENCH)
    result_file = tmp_path / "result.json"
    command = [
        sys.executable, str(BENCH / "invoke.py"), "--result", str(result_file),
        "--trace-dir", str(tmp_path / "trace"), "--",
        *cli_args, "--outdir", str(tmp_path / "runs"), "--label", "traced",
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave no bytecode under bench/
    child = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    result = json.loads(result_file.read_text())
    assert result["exit_code"] == 0
    layers, work = result["layers"], result["work"]
    assert layers["fbm.fgn_samples"] == work["fgn_samples"] > 0
    assert layers["simulator.particle_steps"] == work["particle_steps"]
    assert layers["fbm.fft_bytes"] > 0
    if "chaos" in cli_args:  # one distance per replication per particle count
        assert layers["measure.distance_calls"] == 2 * 3
    assert (tmp_path / "trace" / "spans.jsonl").stat().st_size > 0
    assert _tree(BENCH) == before
