"""mvfbm benchmark: real CLI invocations, end-to-end metrics, traced layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every invocation is a fresh interpreter
running ``mvfbm.cli.main`` on the workload's arguments plus ``--seed N`` (see
``invoke.py``).  Invocations repeat until ``S`` seconds have passed; each
report is checked, and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0``: the end-to-end metrics ``wall_s``, ``setup_s`` and
  ``peak_rss_mb``.  The throughputs ``fgn_samples_per_s`` and
  ``particle_steps_per_s`` (where it applies) and ``failed_frac`` are
  printed above that line.
* ``--trace 1``: untraced and traced invocations alternate; the metrics are
  the per-layer numbers of the traced ones (see ``layertrace.py``) plus the
  tracing overhead.

Outputs, spans and a run record (machine, seed, samples, work bases) go to
``.bench_out/<workload>/``.  Why each workload exists, and which layer
should move which metric where, is in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_FILE = BENCH_DIR / "golden.json"

# BENCHMARK.json lists all of these but chaos-desk, which stays runnable by name
# (see NOTES.md for why it is not a gated workload).
WORKLOADS = {
    "conv-desk": [
        "--command", "convergence", "--model", "mean-reverting", "--hurst", "0.3", "--emit-plot",
        "--workers", "1",
    ],
    "chaos-desk": [
        "--command", "chaos", "--model", "mean-deviation", "--initial-spread", "0.5",
        "--hurst", "0.7", "--workers", "1",
    ],
    "fbm-check-1024": [
        "--command", "fbm-check", "--hurst", "0.3", "--steps", "1024", "--paths", "2000",
    ],
    "conv-fig1-w2": [
        "--command", "convergence", "--profile", "paper-fig1", "--replications", "8",
        "--model", "mean-deviation", "--initial-spread", "0.5", "--hurst", "0.7", "--workers", "2",
    ],
}

# The seed whose reports were recorded in golden.json (the CLI's default seed).
DEFAULT_SEED = 2024
# Golden comparison admits round-off (an FFT rewrite moves values by ~1e-16
# relative) but not a changed draw (which moves them by ~1e-2).
GOLDEN_REL_TOL = 1e-9
GOLDEN_ABS_TOL = 1e-12
# fbm-check at n = 1024 tests n(n+1)/2 ~ 5e5 covariance entries; a sound
# sampler's largest |z| stays near 5 (Bonferroni at 1e-6 gives ~7).  Above
# this limit the sampled law is wrong.
MAX_ABS_Z_LIMIT = 8.0

MIN_INVOCATIONS = 3
# An invocation takes under 10 s on two cores; the limit keeps a run that hangs,
# even with its minimum of invocations and the warm-up, within 180 s.
INVOCATION_TIMEOUT_S = 40.0

COUNT_METRICS = (
    "simulator.run_calls", "simulator.em_step_calls", "simulator.particle_steps",
    "model.drift_calls", "model.diffusion_calls", "streams.generator_calls",
    "fbm.sampler_builds", "fbm.sample_calls", "fbm.fgn_samples", "fbm.fft_bytes",
    "measure.empirical_measures", "measure.distance_calls",
)
LAYER_UNITS = {  # the per-layer metrics of BENCHMARK.json
    "cli.parse_s": "s", "cli.dispatch_self_s": "s", "study.self_s": "s",
    "simulator.run_calls": "count", "simulator.em_step_calls": "count",
    "simulator.particle_steps": "count",
    "model.drift_calls": "count", "model.diffusion_calls": "count",
    "streams.generator_calls": "count", "streams.generator_s": "s",
    "fbm.sampler_builds": "count", "fbm.setup_s": "s", "fbm.sample_calls": "count",
    "fbm.sample_self_s": "s", "fbm.fgn_samples": "count", "fbm.fft_bytes": "bytes-computed",
    "measure.empirical_measures": "count", "measure.distance_calls": "count",
    "reports.render_s": "s", "reports.bytes_written": "bytes",
    "trace.overhead_frac": "ratio", "trace.unattributed_s": "s",
}
# Printed by a traced run and kept in its record, not in BENCHMARK.json.  The
# times are exactly 0 on a workload that never enters the layer (simulator and
# model on fbm-check-1024, the diffusion on conv-desk, distances outside
# chaos-desk), and a time that reads the same on every run is no measurement.
PRINTED_LAYER_METRICS = {
    "simulator.run_s": "s", "simulator.self_s": "s", "simulator.em_step_self_s": "s",
    "model.drift_s": "s", "model.diffusion_s": "s", "measure.distance_s": "s",
    "trace.simulator_model_share": "ratio", "trace.fbm_streams_share": "ratio",
}


class Invocation:
    """One finished child process and what it reported."""

    def __init__(self, exit_code: int, result: "dict | None", stderr: str, run_dir: Path) -> None:
        self.result = result
        self.run_dir = run_dir
        self.problems: list[str] = []
        if exit_code != 0 or result is None:
            self.problems.append(f"invoke.py exited {exit_code}: {stderr.strip()[-400:]}")
        elif result.get("exit_code", 0) != 0:
            self.problems.append(f"mvfbm exited {result['exit_code']}: {stderr.strip()[-400:]}")
        # Timings of a run that finished count even when its report is wrong.
        self.ran = not self.problems

    @property
    def ok(self) -> bool:
        return not self.problems

    def report_csv(self) -> bytes:
        return (self.run_dir / "report.csv").read_bytes()


def invoke(root: Path, workload: str, seed: int, out: Path, label: str,
           setup_only: bool = False, trace: bool = False, workers: "int | None" = None) -> Invocation:
    """Run ``invoke.py`` in a fresh interpreter and wait for it and its children."""
    argv = WORKLOADS[workload] + ["--seed", str(seed), "--outdir", str(out / "runs"), "--label", label]
    if workers is not None:
        argv += ["--workers", str(workers)]  # the last flag wins
    result_file = out / f"{label}.json"
    command = [sys.executable, str(BENCH_DIR / "invoke.py"), "--result", str(result_file)]
    if setup_only:
        command.append("--setup-only")
    if trace:
        command += ["--trace-dir", str(out / f"trace-{label}")]
    spawned = time.monotonic()
    child = subprocess.Popen(command + ["--"] + argv, cwd=root, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = child.communicate(timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # pool workers share the session
        _, stderr = child.communicate()
        stderr += f"\ntimed out after {INVOCATION_TIMEOUT_S} s"
    result = None
    if child.returncode == 0 and result_file.exists():
        result = json.loads(result_file.read_text())
        result["setup_s"] = result["parsed_at"] - spawned
    return Invocation(child.returncode, result, stderr, out / "runs" / label)


def parse_report(text: str) -> tuple[dict, dict]:
    """Split a report.csv into its ``# key=value`` metadata and its columns."""
    metadata, lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            metadata[key] = value
        elif line and not line.startswith("#"):
            lines.append(line.split(","))
    header, rows = lines[0], lines[1:]
    columns = {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}
    return metadata, columns


def observed_values(text: str) -> dict[str, list[float]]:
    """The numbers a report stands for, keyed by what they are."""
    metadata, columns = parse_report(text)
    kind = metadata["report"]
    if kind == "convergence":
        return {"rms_error": columns["rms_error"], "slope": [float(metadata["slope"])]}
    if kind == "chaos":
        return {"distance": columns["distance"], "stderr": columns["stderr"]}
    if kind == "fbm-check":
        return {"empirical_cov": columns["empirical_cov"], "max_abs_z": columns["max_abs_z"],
                "max_abs_z_all": [float(metadata["max_abs_z"])]}
    raise ValueError(f"unexpected report kind {kind!r}")


def report_problems(text: str, seed: int, workload: str) -> list[str]:
    """Checks that hold at any seed, plus the golden comparison at the default seed."""
    values = observed_values(text)
    problems = [f"{key} has a non-finite value" for key, column in values.items()
                if not all(math.isfinite(v) for v in column)]
    for key in ("rms_error", "distance"):
        if key in values and min(values[key]) <= 0.0:
            problems.append(f"{key} is not positive: {min(values[key])}")
    if "max_abs_z_all" in values and values["max_abs_z_all"][0] >= MAX_ABS_Z_LIMIT:
        problems.append(f"max |z| {values['max_abs_z_all'][0]} >= limit {MAX_ABS_Z_LIMIT}")
    if seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN_FILE.read_text())["workloads"][workload]
        for key, expected in golden.items():
            got = values[key]
            bad = len(got) != len(expected) or not all(
                math.isclose(g, e, rel_tol=GOLDEN_REL_TOL, abs_tol=GOLDEN_ABS_TOL)
                for g, e in zip(got, expected)
            )
            if bad:
                problems.append(f"{key} differs from the golden values of seed {DEFAULT_SEED}")
    return problems


def check_invocations(invocations: list[Invocation], seed: int, workload: str) -> list[str]:
    """Mark failed invocations; return problems that concern the run as a whole."""
    reference = None
    for inv in invocations:
        if not inv.ran:
            continue
        try:
            report = inv.report_csv()
        except OSError as exc:
            inv.problems.append(f"no report.csv: {exc}")
            continue
        try:
            inv.problems += report_problems(report.decode(), seed, workload)
        except (KeyError, IndexError, ValueError) as exc:
            inv.problems.append(f"unreadable report.csv: {exc!r}")
        if reference is None:
            reference = report
        elif report != reference:
            inv.problems.append("report.csv differs from the first invocation of this seed")
        work = inv.result["work"]
        layers = inv.result.get("layers")
        if layers is not None:
            for counted, base in (("simulator.particle_steps", "particle_steps"),
                                  ("fbm.fgn_samples", "fgn_samples")):
                if layers[counted] != work[base]:
                    inv.problems.append(f"traced {counted} {layers[counted]} != {base} {work[base]}")
    traced = [inv.result["layers"] for inv in invocations if inv.ran and "layers" in inv.result]
    return [f"count {name} differs between traced invocations" for name in COUNT_METRICS
            if len({layers[name] for layers in traced}) > 1]


def _blas_threads() -> "int | None":
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def machine_record(root: Path) -> dict:
    import numpy

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def repeat(seconds: float, minimum: int, step) -> None:
    """Call ``step`` at least ``minimum`` times, then while one more call is
    expected to end within ``seconds`` of the start."""
    started = time.monotonic()
    done = 0
    while True:
        step()
        done += 1
        elapsed = time.monotonic() - started
        if done >= minimum and elapsed * (done + 1) / done > seconds:
            return


class NoResult(RuntimeError):
    """No invocation of a run finished, so there is nothing to measure."""


def _finished(invocations: list[Invocation]) -> list[Invocation]:
    good = [inv for inv in invocations if inv.ran]
    if not good:
        raise NoResult("; ".join(p for inv in invocations for p in inv.problems))
    return good


def measure_end_to_end(root, workload, seed, seconds, out):
    invoke(root, workload, seed, out, "warmup", setup_only=True)  # compiles src/ bytecode
    setups, invocations = [], []

    def step():
        # A set-up-only process before each invocation doubles the set-up
        # samples and, unlike the invocations, starts after one has settled.
        setups.append(invoke(root, workload, seed, out, f"setup-{len(setups)}", setup_only=True))
        invocations.append(invoke(root, workload, seed, out, f"inv-{len(invocations)}"))

    repeat(seconds, MIN_INVOCATIONS, step)
    run_problems = check_invocations(invocations, seed, workload)
    run_problems += [p for s in setups for p in s.problems]

    good = [inv.result for inv in _finished(invocations)]
    samples = {"wall_s": [r["wall_s"] for r in good],
               "setup_s": [s.result["setup_s"] for s in setups if s.ran] + [r["setup_s"] for r in good],
               "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in good]}
    wall = statistics.median(samples["wall_s"])
    work = good[0]["work"]
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
    }
    # The throughputs divide a fixed work base by wall_s, so they move exactly
    # as wall_s does; they are printed and recorded, not gated a second time.
    extra = {"failed_frac": (sum(not inv.ok for inv in invocations) / len(invocations), "ratio"),
             "fgn_samples_per_s": (work["fgn_samples"] / wall, "1/s")}
    if work["particle_steps"]:
        extra["particle_steps_per_s"] = (work["particle_steps"] / wall, "1/s")
    return invocations, run_problems, metrics, extra, samples, work


def measure_layers(root, workload, seed, seconds, out):
    invoke(root, workload, seed, out, "warmup", setup_only=True)
    invocations, traced = [], []

    def pair():
        invocations.append(invoke(root, workload, seed, out, f"inv-{len(invocations)}"))
        traced.append(invoke(root, workload, seed, out, f"traced-{len(traced)}", trace=True))

    repeat(seconds, 1, pair)
    everything = invocations + traced
    run_problems = check_invocations(everything, seed, workload)
    good_traced = [inv.result for inv in _finished(traced)]
    good_untraced = [inv.result for inv in _finished(invocations)]
    samples = {"traced_wall_s": [r["wall_s"] for r in good_traced],
               "untraced_wall_s": [r["wall_s"] for r in good_untraced],
               "trace_processes": [r["trace_processes"] for r in good_traced]}
    traced_wall = statistics.median(samples["traced_wall_s"])
    untraced_wall = statistics.median(samples["untraced_wall_s"])

    def layer(name):
        if name in COUNT_METRICS:  # identical in every traced invocation, or a run problem
            return good_traced[0]["layers"][name]
        return statistics.median(r["layers"][name] for r in good_traced)

    metrics = {name: (layer(name), unit) for name, unit in LAYER_UNITS.items()
               if name != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    extra = {"failed_frac": (sum(not inv.ok for inv in everything) / len(everything), "ratio"),
             "traced_wall_s": (traced_wall, "s"), "untraced_wall_s": (untraced_wall, "s")}
    extra.update({name: (layer(name), unit) for name, unit in PRINTED_LAYER_METRICS.items()})
    return everything, run_problems, metrics, extra, samples, good_traced[0]["work"]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="mvfbm benchmark (see bench/NOTES.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mvfbm" / "cli.py").is_file():
        print(f"error: {root} has no src/mvfbm; run from the root of an mvfbm checkout",
              file=sys.stderr)
        return 2
    out = root / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    measure = measure_layers if args.trace else measure_end_to_end
    try:
        invocations, run_problems, metrics, extra, samples, work = measure(
            root, args.workload, args.seed, args.seconds, out
        )
    except NoResult as exc:
        print(f"error: no invocation finished: {exc}", file=sys.stderr)
        return 1
    failed = sum(not inv.ok for inv in invocations)
    correct = failed == 0 and not run_problems

    record = {
        "workload": args.workload, "argv": WORKLOADS[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine_record(root),
        "work_base": work, "invocations": len(invocations), "failed": failed,
        "problems": run_problems + [p for inv in invocations for p in inv.problems],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "samples": samples,
    }
    (out / "record.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"invocations {len(invocations)}  failed {failed}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    print(f"  work base: {work}")
    print(f"  machine: {json.dumps(record['machine'])}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")
    print(f"  record: {out / 'record.json'}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
