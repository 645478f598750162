"""Span tracer that wraps mvfbm's layer entry points from the outside.

Nothing under ``src/`` is edited: :func:`install` replaces the module and
class attributes that callers look up (``mvfbm.simulator.em_step``,
``mvfbm.study.run_coupled_meshes``, ``StreamKey.generator``,
``CirculantSampler.sample_ensemble``, ...) with wrappers that record one
span per call.  A span is ``(id, parent, name, start, end, units)``; the
layer is the part of ``name`` before the first dot.  Spans stay in memory
and are written out once the invocation ends.

Process-pool workers are forked from the traced process, so they inherit the
wrapped attributes.  After a fork the tracer starts an empty span list, and
each time a worker closes its outermost span it appends that batch to
``<worker_dir>/worker-<pid>.jsonl``; pool workers leave through ``os._exit``,
so nothing may wait for interpreter exit.  Worker spans have no parent in
the traced process: the study span that waits for the pool keeps the wait
as its own self time.

One tracer serves one benchmark invocation process, which is why the active
tracer is a module attribute: the wrapped model coefficients are pickled
into pool workers and must find the worker's tracer without carrying it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

__all__ = ["Tracer", "TracedCoefficient", "install", "self_times", "layer_metrics"]

_active: "Tracer | None" = None


class Tracer:
    def __init__(self, run_id: str, worker_dir: Path) -> None:
        self.run_id = run_id
        self.worker_dir = worker_dir
        self.in_worker = False
        self._reset()

    def _reset(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end, units)
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0

    def after_fork(self) -> None:
        self.in_worker = True
        self._reset()

    def call(self, name: str, fn, args, kwargs, units=None):
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, units(*args) if units else 0))
            if self.in_worker and not stack:
                self._flush_worker()

    def wrap(self, name: str, fn, units=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, units)

        return traced

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _flush_worker(self) -> None:
        record = {"pid": os.getpid(), "spans": self.spans, "counters": dict(self.counters)}
        with open(self.worker_dir / f"worker-{os.getpid()}.jsonl", "a") as out:
            out.write(json.dumps(record) + "\n")
        self._reset()

    def worker_records(self) -> list[dict]:
        """Batches the pool workers wrote, in file order."""
        records = []
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            records.extend(json.loads(line) for line in path.read_text().splitlines())
        return records


class TracedCoefficient:
    """Picklable stand-in for a model coefficient that records a span per call."""

    def __init__(self, name: str, fn) -> None:
        self.name = name
        self.fn = fn

    def __call__(self, *args):
        return _active.call(self.name, self.fn, args, {})


def _particles(ensemble, *_):
    return ensemble.states.shape[0]


def fft_bytes(sampler, dimension: int, paths: int) -> int:
    """Computed, not measured: complex input plus output of each 2m-point FFT block."""
    half = getattr(sampler, "_half_size", None)
    return 0 if half is None else dimension * paths * 2 * half * 16 * 2


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point that the CLI workloads reach."""
    global _active
    _active = tracer
    os.register_at_fork(after_in_child=tracer.after_fork)

    import mvfbm.cli as cli
    import mvfbm.fbm as fbm
    import mvfbm.measure as measure
    import mvfbm.reports as reports
    import mvfbm.simulator as simulator
    import mvfbm.streams as streams
    import mvfbm.study as study

    def sample_units(sampler, dimension, paths):
        tracer.counters["fbm.fft_bytes"] += fft_bytes(sampler, dimension, len(paths))
        return len(paths) * sampler.mesh.steps * dimension

    def patch(owner, attr, name, units=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), units))

    patch(cli, "parse_config", "cli.parse")
    patch(cli, "dispatch", "cli.dispatch")
    for attr in ("strong_error_study", "chaos_study", "moment_bound_check", "covariance_check"):
        patch(cli, attr, "study")
    patch(cli, "render_loglog_svg", "reports.render")
    for cls in (reports.ConvergenceReport, reports.ChaosReport, reports.MomentReport,
                reports.CovarianceCheckReport):
        for attr in ("to_csv", "to_json", "summary"):
            patch(cls, attr, "reports.render")
    patch(study, "run", "simulator.run")
    patch(study, "run_coupled_meshes", "simulator.run")
    patch(simulator, "em_step", "simulator.em_step", _particles)
    patch(study, "increment_covariance_matrix", "fbm.covariance")
    for cls in (fbm.CirculantSampler, fbm.CholeskySampler):
        patch(cls, "__init__", "fbm.setup")
        patch(cls, "sample_ensemble", "fbm.sample", sample_units)
    patch(streams.StreamKey, "generator", "streams.generator")
    patch(study, "wasserstein_1d_exact", "measure.distance")
    patch(study, "coupled_upper_bound", "measure.distance")
    measure.EmpiricalMeasure.__init__ = tracer.count(
        "measure.empirical_measures", measure.EmpiricalMeasure.__init__
    )

    model_for = cli._model_for

    def traced_model_for(config):
        model = model_for(config)
        diffusion = model.diffusion
        if hasattr(diffusion, "fn"):
            diffusion = dataclasses.replace(
                diffusion, fn=TracedCoefficient("model.diffusion", diffusion.fn)
            )
        return dataclasses.replace(
            model, drift=TracedCoefficient("model.drift", model.drift), diffusion=diffusion
        )

    cli._model_for = traced_model_for


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus that of its direct children.

    Spans of one process nest strictly (one thread, no overlap between
    siblings), so the part of a span that its children cover is the sum of
    their durations.
    """
    index = {span[0]: i for i, span in enumerate(spans)}
    own = [span[4] - span[3] for span in spans]
    for span in spans:
        if span[1] is not None:
            own[index[span[1]]] -= span[4] - span[3]
    return own


def layer_metrics(main_spans, worker_spans, counters, wall_s: float) -> dict:
    """Per-layer counts and times of one traced invocation.

    ``worker_spans`` is one span list per pool-worker batch; their times add
    to the layer totals as busy time, so on a pool workload a layer can be
    busy for longer than the wall time.  ``counters`` sums the counts of the
    traced process and every worker.  The two shares divide a layer pair's
    self time by the self time of all layers together.
    """
    count = Counter()
    total = defaultdict(float)
    own = defaultdict(float)
    units = Counter()
    main_self = 0.0
    for batch_index, spans in enumerate([main_spans, *worker_spans]):
        for span, self_s in zip(spans, self_times(spans)):
            name = span[2]
            count[name] += 1
            total[name] += span[4] - span[3]
            own[name] += self_s
            units[name] += span[5]
            if batch_index == 0:
                main_self += self_s
    layer_self = defaultdict(float)
    for name, value in own.items():
        layer_self[name.split(".", 1)[0]] += value
    busy = sum(layer_self.values())
    return {
        "cli.parse_s": total["cli.parse"],
        "cli.dispatch_self_s": own["cli.dispatch"],
        "study.self_s": own["study"],
        "simulator.run_calls": count["simulator.run"],
        "simulator.run_s": total["simulator.run"],
        "simulator.self_s": own["simulator.run"],
        "simulator.em_step_calls": count["simulator.em_step"],
        "simulator.em_step_self_s": own["simulator.em_step"],
        "simulator.particle_steps": units["simulator.em_step"],
        "model.drift_calls": count["model.drift"],
        "model.drift_s": total["model.drift"],
        "model.diffusion_calls": count["model.diffusion"],
        "model.diffusion_s": total["model.diffusion"],
        "streams.generator_calls": count["streams.generator"],
        "streams.generator_s": total["streams.generator"],
        "fbm.sampler_builds": count["fbm.setup"],
        "fbm.setup_s": total["fbm.setup"],
        "fbm.sample_calls": count["fbm.sample"],
        "fbm.sample_self_s": own["fbm.sample"],
        "fbm.fgn_samples": units["fbm.sample"],
        "fbm.fft_bytes": counters["fbm.fft_bytes"],
        "measure.empirical_measures": counters["measure.empirical_measures"],
        "measure.distance_calls": count["measure.distance"],
        "measure.distance_s": total["measure.distance"],
        "reports.render_s": total["reports.render"],
        "trace.unattributed_s": wall_s - main_self,
        "trace.simulator_model_share": (layer_self["simulator"] + layer_self["model"]) / busy,
        "trace.fbm_streams_share": (layer_self["fbm"] + layer_self["streams"]) / busy,
    }
