"""Experiment harness: convergence, chaos, moment, and driver covariance studies.

Replications run in batches, and a batch is a ``SimulationConfig`` whose
``replications`` range names its replications: one simulator run advances
all of them together, on every mesh of a nested ladder, whose deltas each
divide the next coarser one.  Batches fan out over processes when
``workers > 1``; a batch returns only its terminal states, or its blow-up,
and the study reduces them in the main process in replication order.  So
a report is a pure function of its seed and parameters, independent of
batch size, worker count or scheduling.

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
import sys
from dataclasses import replace
from functools import partial
from typing import Sequence

import numpy as np

from . import fbm  # usable_cores is read through the module, where tests patch it
from .errors import ArgumentError
from .fbm import CirculantSampler, UniformMesh, _fgn_autocovariance, check_count, check_hurst
from .fbm import increment_covariance_matrix  # unused here: bench/layertrace.py patches this name
from .measure import EmpiricalMeasure, check_order, coupled_upper_bound, wasserstein_1d_exact
from .model import ModelSpec
from .reports import ChaosReport, ConvergenceReport, CovarianceCheckReport, MomentReport, NonFiniteError
from .simulator import NumericalBlowup, SimulationConfig, run, run_coupled_meshes
from .streams import StreamArray, StreamKey

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

# Bytes of empirical second moments that one band of covariance_check's rows
# may hold: 128 rows at n = 1024, so no n x n array is built.  Sets speed and
# memory; each band is one BLAS product, whose bits the report carries.
_MOMENT_BAND_BYTES = 2**20


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of log2(error) against log2(delta).

    Returns (slope, stderr); the stderr comes from the residual variance and
    is zero for an exact two-point or collinear fit.  Each sum of products is
    one ``np.add.reduce`` in index order, never a BLAS dot, so no bit follows the cores.
    """
    if len(points) < 2:
        raise ArgumentError(f"slope fit needs at least 2 points, got {len(points)}")
    deltas = np.array([p[0] for p in points], dtype=float)
    errors = np.array([p[1] for p in points], dtype=float)
    if np.any(deltas <= 0.0) or np.any(errors <= 0.0):
        raise ArgumentError("slope fit requires strictly positive deltas and errors")
    x = np.log2(deltas)
    y = np.log2(errors)
    x_center = x - x.mean()
    sxx = float(np.add.reduce(x_center * x_center))
    if sxx == 0.0:
        raise ArgumentError("slope fit requires at least two distinct deltas")
    slope = float(np.add.reduce(x_center * (y - y.mean()))) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    residuals = y - (intercept + slope * x)
    dof = len(points) - 2
    stderr = math.sqrt(float(np.add.reduce(residuals * residuals)) / dof / sxx) if dof > 0 else 0.0
    return slope, stderr


def _ladder(deltas: Sequence[float], fine_delta: float,
            horizon: float) -> tuple[list[float], UniformMesh, list[int]]:
    """The deltas coarse to fine, each dividing the next coarser one, the fine
    mesh, and each delta's factor on it."""
    if not all(0.0 < float(value) < math.inf for value in (horizon, fine_delta, *deltas)):  # NaN fails too
        raise ArgumentError(f"horizon and deltas must be positive and finite, got {list(deltas)}, "
                            f"reference {fine_delta}, horizon {horizon}")
    ratio = horizon / fine_delta
    if ratio == math.inf:  # a step count past the float range is past every mesh size
        raise ArgumentError(f"horizon {horizon} over reference delta {fine_delta} is too many "
                            f"steps for numpy's arrays")
    fine_mesh = UniformMesh(horizon, max(1, round(ratio)))
    steps = fine_mesh.steps
    if not math.isclose(steps * fine_delta, horizon, rel_tol=1e-12):
        raise ArgumentError(f"delta {fine_delta} does not divide the horizon {horizon}")
    deltas = sorted((float(d) for d in deltas), reverse=True)
    factors = [round(min(d / fine_delta, steps + 1)) for d in deltas]  # clamped, as inf cannot round
    for i, (delta, factor) in enumerate(zip(deltas, factors)):
        if (factor < 1 or steps % factor
                or not math.isclose(factor * fine_delta, delta, rel_tol=1e-12)):
            raise ArgumentError(
                f"delta {delta} is not an integer multiple of reference delta {fine_delta} "
                f"that divides the horizon {horizon}"
            )
        if factor in factors[:i]:
            raise ArgumentError(f"delta {delta} is repeated: give each delta once")
        if i and factors[i - 1] % factor:
            raise ArgumentError(f"delta {delta} does not divide delta {deltas[i - 1]}: "
                                f"each delta must divide the next coarser one")
    return deltas, fine_mesh, factors


def _batches(config: SimulationConfig, replications: int, workers: int) -> list[SimulationConfig]:
    """The config once per batch of consecutive replications: each batch's
    drivers fit the byte budget, and there is at least one batch per worker.
    More replications than a config takes are rejected before any is built."""
    replace(config, replications=range(replications))
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
    # a forked pool starts all of its workers at once: no more than batches or cores
    workers = min(workers, len(configs), fbm.usable_cores())
    task = partial(_batch_terminals, tuple(factors))
    if workers <= 1:
        results = [task(config) for config in configs]
    else:
        # imported here: a run without a pool loads no multiprocessing or logging
        from concurrent.futures import ProcessPoolExecutor

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
    hurst: float,
    particles: int,
    replications: int,
    deltas: Sequence[float],
    reference_delta: float,
    seed: int,
    horizon: float = 1.0,
    workers: int = 1,
) -> ConvergenceReport:
    """Terminal RMS error against a shared-driver fine-mesh reference run.

    For each batch of replications the drivers are generated once on the
    reference mesh, and every mesh of the nested ladder advances in one pass
    over them, a coarse mesh on the left-to-right block sums of the fine
    increments; the RMS over particles and replications of
    |Y^(delta)_T - Y^(ref)_T| is reported per delta together with the
    fitted log-log slope.  A scheme that reproduces the reference
    exactly at every delta is flagged instead of fitted.  One
    ``np.add.reduce`` sums each replication's squared gaps over its particles
    (numpy's pairwise order, never a BLAS dot), and ``sum`` adds those left to
    right in replication order: no bit follows the batching or the cores.
    """
    particles = check_count(particles, "particle count")
    replications = check_count(replications, "replication count", least=2)
    workers = check_count(workers, "worker count")
    deltas, fine_mesh, factors = _ladder(deltas, reference_delta, horizon)
    if 1 in factors:
        raise ArgumentError(f"delta {reference_delta} is the reference delta: its error is 0")
    if len(factors) < 2:
        raise ArgumentError(f"a slope needs at least two distinct deltas, got {deltas}")
    root = StreamKey(seed)
    config = SimulationConfig(model, hurst, fine_mesh, particles, root)
    batches = _batches(config, replications, workers)
    terminals = _run_batches(batches, [1, *factors], workers)
    with np.errstate(over="ignore", invalid="ignore"):  # the report rejects an error that overflowed
        gaps = np.concatenate([np.linalg.norm(np.stack(coarse) - reference, axis=-1)
                               for reference, *coarse in terminals], axis=1)  # batch order
        squares = (gaps * gaps).reshape(len(factors), replications, particles)
        rms = [math.sqrt(sum(per_rep) / (particles * replications))
               for per_rep in np.add.reduce(squares, axis=-1).tolist()]
        points = tuple(zip(deltas, rms))
        exact = all(e <= EXACT_SCHEME_ATOL for e in rms)
        slope, stderr = (None, None) if exact else fit_loglog_slope(points)
    return ConvergenceReport(
        model=model.name,
        hurst=config.hurst,
        horizon=horizon,
        particles=particles,
        replications=replications,
        reference_delta=reference_delta,
        seed=root.seed,
        points=points,
        slope=slope,
        slope_stderr=stderr,
        exact_scheme=exact,
    )


def chaos_study(
    model: ModelSpec,
    hurst: float,
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
    counts = [check_count(n, "particle count") for n in particle_counts]
    replications = check_count(replications, "replication count")
    workers = check_count(workers, "worker count")
    theta = check_order(theta, "transport order theta")
    if len(counts) < 2:
        raise ArgumentError(f"a trend needs at least two particle counts, got {counts}")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ArgumentError(f"particle counts must be strictly increasing, got {counts}")
    root = StreamKey(seed)
    reference_count = 4 * max(counts)
    template = SimulationConfig(model, hurst, mesh, reference_count, root.child(0))
    if model.dimension == 1:
        estimator, distance = "1d-exact", wasserstein_1d_exact
    else:
        estimator, distance = "coupling-bound", coupled_upper_bound
    batches = [
        batch
        for a, count in enumerate(counts)
        for batch in _batches(replace(template, particles=count, seed=root.child(1, a)),
                              replications, workers)
    ]
    reference = run(template, snapshots="terminal").terminal
    terminals = _run_batches(batches, [1], workers)
    distances: dict[int, list[float]] = {count: [] for count in counts}
    points = []
    with np.errstate(over="ignore", invalid="ignore"):  # the report rejects a distance that overflowed
        for batch, (terminal,) in zip(batches, terminals):
            a, count = counts.index(batch.particles), batch.particles
            blocks = terminal.reshape(len(batch.replications), count, -1)
            for rep, states in zip(batch.replications, blocks):
                pick = root.child(2, a, rep).generator().choice(
                    reference_count, size=count, replace=False
                )
                distances[count].append(
                    distance(EmpiricalMeasure(states), EmpiricalMeasure(reference[pick]), theta)
                )
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
        hurst=template.hurst,
        horizon=mesh.horizon,
        steps=mesh.steps,
        replications=replications,
        theta=theta,
        estimator=estimator,
        reference_particles=reference_count,
        seed=root.seed,
        points=tuple(points),
        non_increasing=non_increasing,
    )


def moment_bound_check(
    model: ModelSpec,
    hurst: float,
    deltas: Sequence[float],
    particles: int,
    order: float,
    seed: int,
    horizon: float = 1.0,
) -> MomentReport:
    """Empirical q-th moment stability under mesh refinement.

    Runs the whole nested ladder on shared drivers (one fine driver set
    restricted to each mesh), records the max-over-snapshots moment per mesh, and
    passes when each successive refinement ratio stays within [0.8, 1.25].
    """
    order = check_order(order, "moment order")
    particles = check_count(particles, "particle count")
    ladder, fine_mesh, factors = _ladder(deltas, min(deltas, default=horizon), horizon)
    if len(factors) < 2:
        raise ArgumentError(f"a refinement ratio needs at least two distinct deltas, got {ladder}")
    root = StreamKey(seed)
    config = SimulationConfig(model, hurst, fine_mesh, particles, root)
    records = run_coupled_meshes(config, factors, snapshots="thin")
    points = []
    for delta, factor in zip(ladder, factors):
        with np.errstate(over="ignore"):  # the report rejects a moment that overflowed
            moments = [
                float(np.mean(np.linalg.norm(states, axis=1) ** order))
                for states in records[factor].snapshots
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
        hurst=config.hurst,
        horizon=horizon,
        particles=particles,
        order=order,
        seed=root.seed,
        points=tuple(points),
        ratios=ratios,
        passed=passed,
    )


def covariance_check(
    hurst: float,
    steps: int,
    paths: int,
    seed: int,
    horizon: float = 1.0,
) -> CovarianceCheckReport:
    """Entrywise z-scores of the sampled increment covariance, per lag.

    The standard error of each raw second-moment entry follows from the
    Gaussian product-moment identity Var(xy) = C_xx * C_yy + C_xy^2; on the
    Toeplitz covariance it depends on the lag only.  Besides the sample,
    the check holds one band of rows of the empirical second moments at a
    time, on and right of the diagonal: row i holds lags 0 .. n-1-i, and
    three length-n accumulators fold it in, the largest and
    the smallest entry and the sum in row order of each lag.  Lag k's
    largest |z| is max(high - gamma, gamma - low) / se: rounding is
    monotone, so it is the largest entrywise |d - gamma| / se bit for bit.
    """
    hurst = check_hurst(hurst)
    paths = check_count(paths, "path count")
    mesh = UniformMesh(horizon, steps)
    steps = mesh.steps
    root = StreamKey(seed)
    gamma = _fgn_autocovariance(hurst, mesh.delta, np.arange(steps))
    # |gamma(k)| <= gamma(0), so every standard error lies between
    # sqrt(gamma(0)^2 / paths) and sqrt(2 gamma(0)^2 / paths)
    variance = float(gamma[0])
    if not (variance * variance / paths >= sys.float_info.min
            and math.isfinite(2.0 * variance * variance)):
        raise NonFiniteError(
            f"fbm-check standard errors leave the float range for delta={mesh.delta:g}, "
            f"H={hurst}: gamma(0)^2 = {variance * variance:g}"
        )
    stderr = np.sqrt((gamma[0] * gamma[0] + gamma**2) / paths)
    streams = StreamArray(root, np.arange(paths)[:, None])  # path p is child(p)
    x = CirculantSampler(hurst, mesh).sample_ensemble(1, streams)[:, :, 0]  # (steps, paths)
    high = np.full(steps, -math.inf)
    low = np.full(steps, math.inf)
    total = np.full(steps, -0.0)  # -0.0 + d is d bit for bit, a -0.0 entry included
    rows = max(1, _MOMENT_BAND_BYTES // (8 * steps))
    for top in range(0, steps, rows):
        band = x[top : top + rows] @ x[top:].T  # rows top.. of x x^T, from column top on
        band /= paths
        for r, row in enumerate(band):
            lags = row[r:]  # row top + r: lags 0 .. n-1-top-r
            m = len(lags)
            np.maximum(high[:m], lags, out=high[:m])
            np.minimum(low[:m], lags, out=low[:m])
            total[:m] += lags
    z = np.maximum(high - gamma, gamma - low) / stderr
    mean = total / (steps - np.arange(steps))
    points = tuple(zip(range(steps), gamma.tolist(), mean.tolist(), z.tolist()))
    return CovarianceCheckReport(
        hurst=hurst,
        steps=steps,
        paths=paths,
        seed=root.seed,
        points=points,
        max_abs_z=float(z.max()),
    )
