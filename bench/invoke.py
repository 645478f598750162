"""One benchmark invocation of the mvfbm command line, in a fresh interpreter.

    python3 bench/invoke.py --result FILE [--setup-only] [--trace-dir DIR] -- CLI_ARGS...

Run from the root of a checkout; ``src/`` of that checkout is imported, never
an installed copy.  The result file receives one JSON object:

* ``parsed_at``: ``time.monotonic()`` once ``mvfbm.cli`` is imported and the
  arguments are parsed.  The monotonic clock is shared by all processes of the
  machine, so the caller subtracts its own start stamp to get the set-up time,
  interpreter start included.
* ``work``: the particle-steps and fGn samples the parsed configuration asks
  for, the bases of the throughput ratios.
* ``exit_code``, ``wall_s`` (from entering ``mvfbm.cli.main`` until it returns,
  after the report files are written) and ``peak_rss_kb`` (largest resident
  set of this process or of any pool worker it waited for).
* with ``--trace-dir``: the per-layer metrics of :mod:`layertrace`; the spans
  themselves go to ``DIR/spans.jsonl``.
"""

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

SOURCE = Path.cwd() / "src"


def work_base(config) -> dict:
    """Particle-steps and fGn samples implied by a parsed ``RunConfig``.

    Summed over every mesh, replication and ensemble; the d = 1 presets draw
    one fGn sample per particle and fine step.
    """
    if config.command == "convergence":
        fine = round(config.horizon / config.reference_delta)
        factors = {round(d / config.reference_delta) for d in config.deltas} | {1}
        steps = sum(fine // f for f in factors)
        ensembles = config.replications * config.particles
        return {"particle_steps": ensembles * steps, "fgn_samples": ensembles * fine}
    if config.command == "chaos":
        particles = 4 * max(config.particle_counts) + config.replications * sum(config.particle_counts)
        return {"particle_steps": particles * config.steps, "fgn_samples": particles * config.steps}
    if config.command == "fbm-check":
        return {"particle_steps": 0, "fgn_samples": config.paths * config.steps}
    raise ValueError(f"no work base for command {config.command!r}")


def _peak_rss_kb() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children)


def _write_spans(path: Path, run_id: str, spans: list, worker_records: list) -> None:
    with open(path, "w") as out:
        for pid, batch in [(os.getpid(), spans)] + [(r["pid"], r["spans"]) for r in worker_records]:
            for span_id, parent, name, start, end, units in batch:
                out.write(json.dumps({
                    "run": run_id, "pid": pid, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end, "units": units,
                }) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(SOURCE))
    import mvfbm.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SOURCE.resolve()):
        raise SystemExit(f"mvfbm imported from {cli.__file__}, not from {SOURCE}")
    config = cli.parse_config(argv)
    result = {"parsed_at": time.monotonic(), "work": work_base(config)}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace_dir:
        import layertrace

        args.trace_dir.mkdir(parents=True, exist_ok=True)
        tracer = layertrace.Tracer(args.trace_dir.name, args.trace_dir)
        layertrace.install(tracer)

    started = time.perf_counter()
    exit_code = cli.main(argv)
    result["wall_s"] = time.perf_counter() - started
    result["exit_code"] = exit_code
    result["peak_rss_kb"] = _peak_rss_kb()

    if tracer is not None:
        records = tracer.worker_records()
        counters = Counter(tracer.counters)
        for record in records:
            counters.update(record["counters"])
        result["layers"] = layertrace.layer_metrics(
            tracer.spans, [r["spans"] for r in records], counters, result["wall_s"]
        )
        run_dir = Path(config.outdir) / config.label
        result["layers"]["reports.bytes_written"] = sum(f.stat().st_size for f in run_dir.iterdir())
        result["trace_processes"] = 1 + len({r["pid"] for r in records})
        _write_spans(args.trace_dir / "spans.jsonl", tracer.run_id, tracer.spans, records)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
