"""Experiment harness: convergence, chaos, moment, and driver covariance studies.

Replications run in batches, and a batch is a ``SimulationConfig`` whose
``replications`` range names its replications: one simulator run advances
all of them together.  Batches fan out over processes when ``workers > 1``;
a batch returns only its terminal states, or its blow-up, and the study
reduces them in the main process in replication order.  So a report is a
pure function of its seed and parameters, independent of batch size,
worker count or scheduling.

Study-level stream layout under the master key.  A run roots its
replication m at ``child(m)`` of the seed it is given, so a study only
picks seeds.  Convergence and moments pass the master key, so replication
m is ``child(m)``.  Chaos passes ``child(0)`` to its reference run, so the
reference ensemble is ``child(0, 0)``; ``child(1, a)`` to the runs at the
a-th particle count, so run m is ``child(1, a, m)``; and draws run m's
subsample from ``child(2, a, m)``.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from typing import Sequence

import numpy as np

from .fbm import HurstParameter, UniformMesh, increment_covariance_matrix, make_sampler
from .measure import EmpiricalMeasure, coupled_upper_bound, wasserstein_1d_exact
from .model import ModelSpec
from .reports import ChaosReport, ConvergenceReport, CovarianceCheckReport, MomentReport
from .simulator import NumericalBlowup, SimulationConfig, run, run_coupled_meshes
from .streams import StreamKey

__all__ = [
    "StudyArgumentError",
    "fit_loglog_slope",
    "strong_error_study",
    "chaos_study",
    "moment_bound_check",
    "covariance_check",
    "EXACT_SCHEME_ATOL",
]

# RMS errors at or below this are treated as exact reproduction (floating
# summation order is the only difference between nested drift-free runs).
EXACT_SCHEME_ATOL = 1e-12

# Absolute floor when comparing chaos distances: differences below this are
# floating-point hash, not signal.
_TREND_ATOL = 1e-12

# Bytes of fine drivers one batch of replications may hold (desk convergence:
# 10 replications of 200 particles x 1024 steps; paper-fig1: 1).  Sets speed
# and memory only: reports do not depend on it.
_BATCH_BYTES = 16 * 2**20


class StudyArgumentError(ValueError):
    """A study argument, or the mesh ladder it asks for, is rejected before any run."""


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of log2(error) against log2(delta).

    Returns (slope, stderr); the stderr comes from the residual variance and
    is zero for an exact two-point or collinear fit.
    """
    if len(points) < 2:
        raise StudyArgumentError(f"slope fit needs at least 2 points, got {len(points)}")
    deltas = np.array([p[0] for p in points], dtype=float)
    errors = np.array([p[1] for p in points], dtype=float)
    if np.any(deltas <= 0.0) or np.any(errors <= 0.0):
        raise StudyArgumentError("slope fit requires strictly positive deltas and errors")
    x = np.log2(deltas)
    y = np.log2(errors)
    x_center = x - x.mean()
    sxx = float(x_center @ x_center)
    if sxx == 0.0:
        raise StudyArgumentError("slope fit requires at least two distinct deltas")
    slope = float(x_center @ (y - y.mean())) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    residuals = y - (intercept + slope * x)
    dof = len(points) - 2
    stderr = math.sqrt(float(residuals @ residuals) / dof / sxx) if dof > 0 else 0.0
    return slope, stderr


def _ladder(deltas: Sequence[float], fine_delta: float,
            horizon: float) -> tuple[list[float], UniformMesh, list[int]]:
    """The deltas coarse to fine, the fine mesh, and each delta's factor on it."""
    steps = int(round(horizon / fine_delta))
    if steps < 1 or not math.isclose(steps * fine_delta, horizon, rel_tol=1e-12):
        raise StudyArgumentError(f"delta {fine_delta} does not divide the horizon {horizon}")
    deltas = sorted((float(d) for d in deltas), reverse=True)
    factors = [int(round(d / fine_delta)) for d in deltas]
    for i, (delta, factor) in enumerate(zip(deltas, factors)):
        if (factor < 1 or steps % factor
                or not math.isclose(factor * fine_delta, delta, rel_tol=1e-12)):
            raise StudyArgumentError(
                f"delta {delta} is not an integer multiple of reference delta {fine_delta} "
                f"that divides the horizon {horizon}"
            )
        if factor in factors[:i]:
            raise StudyArgumentError(f"delta {delta} is repeated: give each delta once")
    return deltas, UniformMesh(horizon, steps), factors


def _batches(config: SimulationConfig, replications: int, workers: int) -> list[SimulationConfig]:
    """The config once per batch of consecutive replications: each batch's
    drivers fit the byte budget, and there is at least one batch per worker."""
    fit = _BATCH_BYTES // (config.particles * config.mesh.steps * config.model.dimension * 8)
    size = max(1, min(fit, -(-replications // workers)))
    return [
        replace(config, replications=range(lo, min(lo + size, replications)))
        for lo in range(0, replications, size)
    ]


def _batch_terminals(factors: Sequence[int],
                     config: SimulationConfig) -> "list[np.ndarray] | NumericalBlowup":
    """The batch's terminal states on each factor's mesh, or its blow-up."""
    try:
        records = run_coupled_meshes(config, factors, snapshots="terminal")
    except NumericalBlowup as exc:
        return exc
    return [records[f].terminal for f in factors]


def _run_batches(configs: Sequence[SimulationConfig], factors: Sequence[int],
                 workers: int) -> list[list[np.ndarray]]:
    """The terminal states of each batch per factor, in batch order.

    Batch tasks return their blow-up rather than raise it, so every batch
    runs and the study names the same failure however replications are
    batched or spread over workers: the finest mesh first, then the smallest
    particle count, step and replication.
    """
    task = partial(_batch_terminals, tuple(factors))
    # a forked pool starts all of its workers at once: start no more than there are batches
    workers = min(workers, len(configs))
    if workers <= 1:
        results = [task(config) for config in configs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, configs))  # input order == output order
    failures = [
        ((-exc.mesh_steps, config.particles, exc.step, exc.replication), exc)
        for config, exc in zip(configs, results) if isinstance(exc, NumericalBlowup)
    ]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def strong_error_study(
    model: ModelSpec,
    hurst: "float | HurstParameter",
    particles: int,
    replications: int,
    deltas: Sequence[float],
    reference_delta: float,
    seed: int,
    horizon: float = 1.0,
    workers: int = 1,
) -> ConvergenceReport:
    """Terminal RMS error against a shared-driver fine-mesh reference run.

    For each replication the drivers are generated once on the reference
    mesh and restricted to every coarse mesh; the RMS over particles and
    replications of |Y^(delta)_T - Y^(ref)_T| is reported per delta together
    with the fitted log-log slope.  A scheme that reproduces the reference
    exactly at every delta is flagged instead of fitted.
    """
    if replications < 2:
        raise StudyArgumentError(f"need at least 2 replications, got {replications}")
    deltas, fine_mesh, factors = _ladder(deltas, reference_delta, horizon)
    if 1 in factors:
        raise StudyArgumentError(f"delta {reference_delta} is the reference delta: its error is 0")
    if len(factors) < 2:
        raise StudyArgumentError(f"a slope needs at least two distinct deltas, got {deltas}")
    root = StreamKey.coerce(seed)
    config = SimulationConfig(model, hurst, fine_mesh, particles, root)
    started = time.perf_counter()
    batches = _batches(config, replications, workers)
    # per factor, per replication in order: the sum over particles of squared terminal gaps
    sums: list[list[float]] = [[] for _ in factors]
    for reference, *coarse in _run_batches(batches, [1, *factors], workers):
        for per_rep, terminal in zip(sums, coarse):
            gaps = np.linalg.norm(terminal - reference, axis=1)
            per_rep.extend(float(g @ g) for g in gaps.reshape(-1, particles))
    total = particles * replications
    rms = [math.sqrt(sum(per_rep) / total) for per_rep in sums]
    points = tuple(zip(deltas, rms))
    exact = all(e <= EXACT_SCHEME_ATOL for e in rms)
    slope = stderr = None
    if not exact:
        slope, stderr = fit_loglog_slope(points)
    return ConvergenceReport(
        model=model.name,
        hurst=config.hurst.value,
        horizon=horizon,
        particles=particles,
        replications=replications,
        reference_delta=reference_delta,
        seed=root.seed,
        points=points,
        slope=slope,
        slope_stderr=stderr,
        exact_scheme=exact,
        wall_time=time.perf_counter() - started,
    )


def chaos_study(
    model: ModelSpec,
    hurst: "float | HurstParameter",
    mesh: UniformMesh,
    particle_counts: Sequence[int],
    replications: int,
    theta: float,
    seed: int,
    workers: int = 1,
) -> ChaosReport:
    """Distance of terminal empirical laws to a large-ensemble reference.

    The mean-field law is proxied by one independent run with
    4 * max(particle_counts) particles; each run at count N is compared to a
    fresh same-size subsample of the reference.  The distance follows from
    the dimension: the exact W_theta by sorted matching in d = 1, the
    identity-coupling upper bound in d > 1.  The verdict is whether the mean
    distances are non-increasing within one combined standard error at each
    consecutive pair.
    """
    counts = [int(n) for n in particle_counts]
    if len(counts) < 2:
        raise StudyArgumentError(f"a trend needs at least two particle counts, got {counts}")
    if replications < 1:
        raise StudyArgumentError(f"need at least 1 replication, got {replications}")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise StudyArgumentError(f"particle counts must be strictly increasing, got {counts}")
    if theta < 2.0:
        raise StudyArgumentError(f"transport order theta must be >= 2, got {theta}")
    root = StreamKey.coerce(seed)
    reference_count = 4 * max(counts)
    template = SimulationConfig(model, hurst, mesh, reference_count, root.child(0))
    if model.dimension == 1:
        estimator, distance = "1d-exact", wasserstein_1d_exact
    else:
        estimator, distance = "coupling-bound", coupled_upper_bound
    started = time.perf_counter()
    reference = run(template, snapshots="terminal").terminal
    batches = [
        batch
        for a, count in enumerate(counts)
        for batch in _batches(replace(template, particles=count, seed=root.child(1, a)),
                              replications, workers)
    ]
    distances: dict[int, list[float]] = {count: [] for count in counts}
    for batch, (terminal,) in zip(batches, _run_batches(batches, [1], workers)):
        a, count = counts.index(batch.particles), batch.particles
        blocks = terminal.reshape(len(batch.replications), count, -1)
        for rep, states in zip(batch.replications, blocks):
            pick = root.child(2, a, rep).generator().choice(
                reference_count, size=count, replace=False
            )
            distances[count].append(
                distance(EmpiricalMeasure(states), EmpiricalMeasure(reference[pick]), theta)
            )
    points = []
    for count, values in distances.items():
        block = np.array(values)
        stderr = float(block.std(ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
        points.append((count, float(block.mean()), stderr))
    non_increasing = all(
        nxt_mean <= mean + math.hypot(se, nxt_se) + _TREND_ATOL
        for (_, mean, se), (_, nxt_mean, nxt_se) in zip(points, points[1:])
    )
    return ChaosReport(
        model=model.name,
        hurst=template.hurst.value,
        horizon=mesh.horizon,
        steps=mesh.steps,
        replications=replications,
        theta=float(theta),
        estimator=estimator,
        reference_particles=reference_count,
        seed=root.seed,
        points=tuple(points),
        non_increasing=non_increasing,
        wall_time=time.perf_counter() - started,
    )


def moment_bound_check(
    model: ModelSpec,
    hurst: "float | HurstParameter",
    deltas: Sequence[float],
    particles: int,
    order: float,
    seed: int,
    horizon: float = 1.0,
) -> MomentReport:
    """Empirical q-th moment stability under mesh refinement.

    Runs the whole ladder on shared drivers (one fine driver set restricted
    to each mesh), records the max-over-snapshots moment per mesh, and
    passes when each successive refinement ratio stays within [0.8, 1.25].
    """
    if order < 2.0:
        raise StudyArgumentError(f"moment order must be >= 2, got {order}")
    hurst = HurstParameter.coerce(hurst)
    ladder, fine_mesh, factors = _ladder(deltas, min(deltas), horizon)
    if len(factors) < 2:
        raise StudyArgumentError(f"a refinement ratio needs at least two distinct deltas, got {ladder}")
    root = StreamKey.coerce(seed)
    started = time.perf_counter()
    config = SimulationConfig(model, hurst, fine_mesh, particles, root)
    records = run_coupled_meshes(config, factors, snapshots="thin")
    points = []
    for delta, factor in zip(ladder, factors):
        record = records[factor]
        moments = [
            float(np.mean(np.linalg.norm(states, axis=1) ** order))
            for states in record.snapshots
        ]
        points.append((delta, max(moments), moments[-1]))  # the thin plan keeps step n last
    # the origin is a fixed point of the scheme on every mesh or on none: 0 -> 0 is ratio 1
    ratios = tuple(
        1.0 if coarse == fine == 0.0 else fine / coarse
        for (_, coarse, _), (_, fine, _) in zip(points, points[1:])
    )
    passed = all(0.8 <= r <= 1.25 for r in ratios)
    return MomentReport(
        model=model.name,
        hurst=hurst.value,
        horizon=horizon,
        particles=particles,
        order=float(order),
        seed=root.seed,
        points=tuple(points),
        ratios=ratios,
        passed=passed,
        wall_time=time.perf_counter() - started,
    )


def covariance_check(
    hurst: "float | HurstParameter",
    steps: int,
    paths: int,
    seed: int,
    horizon: float = 1.0,
) -> CovarianceCheckReport:
    """Entrywise z-scores of the sampled increment covariance, per lag.

    The standard error of each raw second-moment entry follows from the
    Gaussian product-moment identity Var(xy) = C_xx * C_yy + C_xy^2; on the
    Toeplitz covariance it depends on the lag only.  Besides the sample,
    the check holds one n x n matrix, the empirical second moments, and
    reads one diagonal of it per lag: the matrix is exactly symmetric, so
    lag -k repeats lag k.
    """
    hurst = HurstParameter.coerce(hurst)
    mesh = UniformMesh(horizon, steps)
    root = StreamKey.coerce(seed)
    started = time.perf_counter()
    gamma = increment_covariance_matrix(hurst, mesh)[0].copy()
    stderr = np.sqrt((gamma[0] * gamma[0] + gamma**2) / paths)
    generator = make_sampler(hurst, mesh)
    streams = [root.child(p) for p in range(paths)]
    increments = generator.sample_ensemble(1, streams)[:, :, 0]
    empirical = increments.T @ increments
    del increments
    empirical /= paths
    points = []
    for lag in range(steps):
        diagonal = np.diagonal(empirical, lag)
        z = np.abs(diagonal - gamma[lag]) / stderr[lag]
        points.append((lag, float(gamma[lag]), float(diagonal.mean()), float(z.max())))
    return CovarianceCheckReport(
        hurst=hurst.value,
        steps=steps,
        paths=paths,
        seed=root.seed,
        points=tuple(points),
        max_abs_z=float(np.max([point[3] for point in points])),
        wall_time=time.perf_counter() - started,
    )
