"""Experiment harness: convergence, chaos, moment, and sampler studies.

Replications run in batches: one simulator run advances every replication
of a batch together.  Batches fan out over processes when ``workers > 1``
and results are always aggregated in replication order, so a report is a
pure function of its seed and parameters, independent of batch size,
worker count or scheduling.

Study-level stream layout under the master key: ``child(m)`` roots
replication m of a convergence study; chaos studies use ``child(0, 0)``
for the reference ensemble, ``child(1, a, m)`` for run m at the a-th
particle count, ``child(2, a, m)`` for the matching subsample draws.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .fbm import HurstParameter, UniformMesh, increment_covariance_matrix, make_sampler
from .measure import EmpiricalMeasure, coupled_upper_bound, wasserstein_1d_exact
from .model import ModelSpec
from .reports import ChaosReport, ConvergenceReport, CovarianceCheckReport, MomentReport
from .simulator import NumericalBlowup, SimulationConfig, run, run_coupled_meshes
from .streams import StreamKey

__all__ = [
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


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of log2(error) against log2(delta).

    Returns (slope, stderr); the stderr comes from the residual variance and
    is zero for an exact two-point or collinear fit.
    """
    if len(points) < 2:
        raise ValueError(f"slope fit needs at least 2 points, got {len(points)}")
    deltas = np.array([p[0] for p in points], dtype=float)
    errors = np.array([p[1] for p in points], dtype=float)
    if np.any(deltas <= 0.0) or np.any(errors <= 0.0):
        raise ValueError("slope fit requires strictly positive deltas and errors")
    x = np.log2(deltas)
    y = np.log2(errors)
    x_center = x - x.mean()
    sxx = float(x_center @ x_center)
    if sxx == 0.0:
        raise ValueError("slope fit requires at least two distinct deltas")
    slope = float(x_center @ (y - y.mean())) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    residuals = y - (intercept + slope * x)
    dof = len(points) - 2
    stderr = math.sqrt(float(residuals @ residuals) / dof / sxx) if dof > 0 else 0.0
    return slope, stderr


def _factor_for(delta: float, reference_delta: float) -> int:
    factor = int(round(delta / reference_delta))
    if factor < 1 or not math.isclose(factor * reference_delta, delta, rel_tol=1e-12):
        raise ValueError(
            f"delta {delta} is not an integer multiple of reference delta {reference_delta}"
        )
    return factor


def _steps_for(horizon: float, delta: float) -> int:
    steps = int(round(horizon / delta))
    if steps < 1 or not math.isclose(steps * delta, horizon, rel_tol=1e-12):
        raise ValueError(f"delta {delta} does not divide the horizon {horizon}")
    return steps


def _map_in_order(task: Callable, args: Sequence, workers: int) -> list:
    # a forked pool starts all of its workers at once: start no more than there are tasks
    workers = min(workers, len(args))
    if workers <= 1:
        return [task(a) for a in args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, args))  # input order == output order


def _batches(replications: int, particles: int, steps: int, dimension: int,
             workers: int) -> list[range]:
    """Consecutive replication ranges within the driver budget, at least one per worker."""
    fit = _BATCH_BYTES // (particles * steps * dimension * 8)
    size = max(1, min(fit, -(-replications // workers)))
    return [range(lo, min(lo + size, replications)) for lo in range(0, replications, size)]


def _raise_earliest(failures: Sequence[tuple[tuple, NumericalBlowup]]) -> None:
    """Raise the blow-up with the smallest key, if any batch returned one.

    Batch tasks return their blow-up rather than raise it, so every batch
    runs and the study names the same failure however replications are
    batched or spread over workers.
    """
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def _convergence_batch(args) -> "list[tuple[float, ...]] | NumericalBlowup":
    """Per replication of the batch: sum over particles of squared terminal gaps, per factor."""
    model, hurst, fine_mesh, particles, sampler, root, reps, factors = args
    config = SimulationConfig(model, hurst, fine_mesh, particles, root, sampler, replications=reps)
    try:
        records = run_coupled_meshes(config, factors, snapshots="terminal")
    except NumericalBlowup as exc:
        return exc
    reference = records[1].terminal
    sums = []
    for f in factors:
        gaps = np.linalg.norm(records[f].terminal - reference, axis=1)
        sums.append([float(g @ g) for g in gaps.reshape(len(reps), particles)])
    return list(zip(*sums))


def strong_error_study(
    model: ModelSpec,
    hurst: "float | HurstParameter",
    particles: int,
    replications: int,
    deltas: Sequence[float],
    reference_delta: float,
    seed: int,
    horizon: float = 1.0,
    sampler: str = "circulant",
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
        raise ValueError(f"need at least 2 replications, got {replications}")
    hurst = HurstParameter.coerce(hurst)
    deltas = sorted((float(d) for d in deltas), reverse=True)
    factors = [_factor_for(d, reference_delta) for d in deltas]
    fine_mesh = UniformMesh(horizon, _steps_for(horizon, reference_delta))
    for f in factors:
        if fine_mesh.steps % f != 0:
            raise ValueError(f"factor {f} does not divide {fine_mesh.steps} reference steps")
    root = StreamKey.coerce(seed)
    started = time.perf_counter()
    tasks = [
        (model, hurst, fine_mesh, particles, sampler, root, reps, factors)
        for reps in _batches(replications, particles, fine_mesh.steps, model.dimension, workers)
    ]
    batches = _map_in_order(_convergence_batch, tasks, workers)
    # meshes run finest first, then each batch stops at its first failing step
    _raise_earliest([
        ((-exc.mesh_steps, exc.step, exc.replication), exc)
        for exc in batches if isinstance(exc, NumericalBlowup)
    ])
    per_rep = [rep for batch in batches for rep in batch]
    total = particles * replications
    rms = [math.sqrt(sum(rep_sums[i] for rep_sums in per_rep) / total) for i in range(len(factors))]
    points = tuple(zip(deltas, rms))
    exact = all(e <= EXACT_SCHEME_ATOL for e in rms)
    slope = stderr = None
    if not exact:
        slope, stderr = fit_loglog_slope(points)
    return ConvergenceReport(
        model=model.name,
        hurst=hurst.value,
        horizon=horizon,
        particles=particles,
        replications=replications,
        reference_delta=reference_delta,
        sampler=sampler,
        seed=root.seed,
        points=points,
        slope=slope,
        slope_stderr=stderr,
        exact_scheme=exact,
        wall_time=time.perf_counter() - started,
    )


def _chaos_batch(args) -> "list[float] | NumericalBlowup":
    """Per replication of the batch: distance from its terminal law to a fresh reference subsample."""
    model, hurst, mesh, sampler, root, size_index, reps, count, reference, theta, estimator = args
    config = SimulationConfig(
        model, hurst, mesh, count, root.child(1, size_index), sampler, replications=reps
    )
    try:
        terminal = run(config, snapshots="terminal").terminal
    except NumericalBlowup as exc:
        return exc
    distance = wasserstein_1d_exact if estimator == "1d-exact" else coupled_upper_bound
    out = []
    for rep, states in zip(reps, terminal.reshape(len(reps), count, -1)):
        pick = root.child(2, size_index, rep).generator().choice(
            reference.shape[0], size=count, replace=False
        )
        out.append(distance(EmpiricalMeasure(states), EmpiricalMeasure(reference[pick]), theta))
    return out


def chaos_study(
    model: ModelSpec,
    hurst: "float | HurstParameter",
    mesh: UniformMesh,
    particle_counts: Sequence[int],
    replications: int,
    theta: float,
    seed: int,
    sampler: str = "circulant",
    estimator: str = "1d-exact",
    workers: int = 1,
) -> ChaosReport:
    """Distance of terminal empirical laws to a large-ensemble reference.

    The mean-field law is proxied by one independent run with
    4 * max(particle_counts) particles; each run at count N is compared to a
    fresh same-size subsample of the reference via the exact 1-d distance
    (or the coupling bound when requested).  The verdict is whether the mean
    distances are non-increasing within one combined standard error at each
    consecutive pair.
    """
    counts = [int(n) for n in particle_counts]
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError(f"particle counts must be strictly increasing, got {counts}")
    if estimator not in ("1d-exact", "coupling-bound"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if estimator == "1d-exact" and model.dimension != 1:
        raise ValueError("the 1d-exact estimator requires a one-dimensional model")
    hurst = HurstParameter.coerce(hurst)
    root = StreamKey.coerce(seed)
    started = time.perf_counter()
    reference_count = 4 * max(counts)
    reference_config = SimulationConfig(
        model, hurst, mesh, reference_count, root.child(0, 0), sampler
    )
    reference = run(reference_config, snapshots="terminal").terminal
    tasks = [
        (model, hurst, mesh, sampler, root, a, reps, count, reference, theta, estimator)
        for a, count in enumerate(counts)
        for reps in _batches(replications, count, mesh.steps, model.dimension, workers)
    ]
    batches = _map_in_order(_chaos_batch, tasks, workers)
    _raise_earliest([
        ((task[5], exc.step, exc.replication), exc)  # task[5]: the particle-count index
        for task, exc in zip(tasks, batches) if isinstance(exc, NumericalBlowup)
    ])
    distances = [d for batch in batches for d in batch]
    points = []
    for a, count in enumerate(counts):
        block = np.array(distances[a * replications : (a + 1) * replications])
        stderr = float(block.std(ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
        points.append((count, float(block.mean()), stderr))
    non_increasing = all(
        nxt_mean <= mean + math.hypot(se, nxt_se) + _TREND_ATOL
        for (_, mean, se), (_, nxt_mean, nxt_se) in zip(points, points[1:])
    )
    return ChaosReport(
        model=model.name,
        hurst=hurst.value,
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
    sampler: str = "circulant",
) -> MomentReport:
    """Empirical q-th moment stability under mesh refinement.

    Runs the whole ladder on shared drivers (one fine driver set restricted
    to each mesh), records the max-over-snapshots moment per mesh, and
    passes when each successive refinement ratio stays within [0.8, 1.25].
    """
    if order < 2.0:
        raise ValueError(f"moment order must be >= 2, got {order}")
    hurst = HurstParameter.coerce(hurst)
    ladder = sorted((float(d) for d in deltas), reverse=True)  # coarse -> fine
    fine_delta = ladder[-1]
    fine_mesh = UniformMesh(horizon, _steps_for(horizon, fine_delta))
    factors = [_factor_for(d, fine_delta) for d in ladder]
    root = StreamKey.coerce(seed)
    started = time.perf_counter()
    config = SimulationConfig(model, hurst, fine_mesh, particles, root.child(0), sampler)
    records = run_coupled_meshes(config, factors, snapshots="thin")
    points = []
    for delta, factor in zip(ladder, factors):
        record = records[factor]
        moments = [
            float(np.mean(np.linalg.norm(states, axis=1) ** order))
            for states in record.snapshots
        ]
        terminal = float(np.mean(np.linalg.norm(record.terminal, axis=1) ** order))
        points.append((delta, max(moments), terminal))
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
    sampler: str = "circulant",
    horizon: float = 1.0,
) -> CovarianceCheckReport:
    """Entrywise z-scores of the sampled increment covariance, per lag.

    The standard error of each raw second-moment entry follows from the
    Gaussian product-moment identity Var(xy) = C_xx * C_yy + C_xy^2; on the
    Toeplitz covariance it depends on the lag only.  Besides the sample,
    the check holds one n x n matrix, the empirical second moments, and
    works through it one pair of diagonals at a time.
    """
    hurst = HurstParameter.coerce(hurst)
    mesh = UniformMesh(horizon, steps)
    root = StreamKey.coerce(seed)
    started = time.perf_counter()
    gamma = increment_covariance_matrix(hurst, mesh)[0].copy()
    stderr = np.sqrt((gamma[0] * gamma[0] + gamma**2) / paths)
    generator = make_sampler(sampler, hurst, mesh)
    streams = [root.child(p) for p in range(paths)]
    increments = generator.sample_ensemble(1, streams)[:, :, 0]
    empirical = increments.T @ increments
    del increments
    empirical /= paths
    # Lag k's entries (i, i - k) and (i, i + k) in row-major order, row i's
    # lower entry first.  Rows below k have no lower entry and rows from
    # n - k on no upper one; the rows in between, if any, hold both.
    entries = np.empty(2 * steps)
    points = []
    for lag in range(steps):
        lower = np.diagonal(empirical, -lag)  # rows lag .. n-1
        upper = np.diagonal(empirical, lag)  # rows 0 .. n-1-lag
        if lag == 0:
            row_major = entries[:steps]
            row_major[:] = upper
        else:
            both = max(0, steps - 2 * lag)  # rows lag .. n-1-lag
            head = steps - lag - both
            row_major = entries[: 2 * (steps - lag)]
            row_major[:head] = upper[:head]
            pairs = row_major[head : head + 2 * both].reshape(both, 2)
            pairs[:, 0] = lower[:both]
            pairs[:, 1] = upper[head:]
            row_major[head + 2 * both :] = lower[both:]
        mean = float(row_major.mean())
        row_major -= gamma[lag]
        z = np.abs(row_major, out=row_major)
        z /= stderr[lag]
        points.append((lag, float(gamma[lag]), mean, float(z.max())))
    return CovarianceCheckReport(
        hurst=hurst.value,
        steps=steps,
        paths=paths,
        sampler=sampler,
        seed=root.seed,
        points=tuple(points),
        max_abs_z=float(np.max([point[3] for point in points])),
        wall_time=time.perf_counter() - started,
    )
