"""Interacting-particle explicit Euler stepping driven by exact fBm paths.

One step advances all N particles synchronously against a frozen snapshot
of the empirical measure:

    Y_{k+1}^i = Y_k^i + b(Y_k^i, mu_k) * delta + sigma(.) * dB^{H,i}_k,

with one independent d-dimensional driver per particle.  Runs are pure
functions of (model, H, mesh, N, stream): drivers come from counter-based
streams and every reduction happens in fixed index order, so results are
bitwise identical for any worker count or schedule.

Coupled multi-mesh execution generates each driver once on the finest mesh
and restricts it to the coarse meshes, so terminal differences between
resolutions estimate the strong discretization error directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fbm import HurstParameter, UniformMesh, make_sampler
from .measure import EmpiricalMeasure
from .model import ModelSpec, validate
from .streams import StreamKey

__all__ = [
    "ParticleEnsemble",
    "SimulationConfig",
    "TrajectoryRecord",
    "NumericalBlowup",
    "SNAPSHOT_POLICIES",
    "em_step",
    "run",
    "run_coupled_meshes",
    "piecewise_constant_lookup",
    "write_trajectory_csv",
]

# Stream namespaces under a run's root key: child(0) seeds the initial
# sampler, child(1, i) seeds particle i's driver path.
_NS_INITIAL = 0
_NS_NOISE = 1

# Which ensemble snapshots a run keeps; see _snapshot_plan.
SNAPSHOT_POLICIES = ("terminal", "thin", "full")


class NumericalBlowup(RuntimeError):
    """A particle state left the finite range; carries step and particle."""

    def __init__(self, step: int, particle: int, model_name: str) -> None:
        self.step = step
        self.particle = particle
        super().__init__(
            f"non-finite state at step {step}, particle {particle} (model {model_name!r}); "
            "refine the mesh or check the coefficients"
        )


@dataclass(frozen=True)
class ParticleEnsemble:
    """Positions of all particles at one mesh node."""

    states: np.ndarray  # (N, d)
    step_index: int

    @property
    def size(self) -> int:
        return self.states.shape[0]

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    def measure(self) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.states)


@dataclass(frozen=True)
class SimulationConfig:
    model: ModelSpec
    hurst: HurstParameter
    mesh: UniformMesh
    particles: int
    seed: "int | StreamKey"
    sampler: str = "circulant"

    def __post_init__(self) -> None:
        if self.particles < 1:
            raise ValueError(f"particle count must be >= 1, got {self.particles}")
        object.__setattr__(self, "hurst", HurstParameter.coerce(self.hurst))
        validate(self.model, self.hurst)

    def stream(self) -> StreamKey:
        return StreamKey.coerce(self.seed)


@dataclass
class TrajectoryRecord:
    """Retained ensemble snapshots of one run; the terminal one is always kept."""

    mesh: UniformMesh
    snapshot_indices: list[int]
    snapshots: list[np.ndarray] = field(repr=False)

    @property
    def terminal(self) -> np.ndarray:
        return self.snapshots[-1]

    def snapshot_at(self, step_index: int) -> np.ndarray:
        try:
            pos = self.snapshot_indices.index(step_index)
        except ValueError:
            raise KeyError(
                f"snapshot at step {step_index} was thinned away; rerun with snapshots='full'"
            ) from None
        return self.snapshots[pos]


def em_step(ensemble: ParticleEnsemble, model: ModelSpec, delta: float,
            increments: np.ndarray) -> ParticleEnsemble:
    """Advance all particles one step against the frozen current measure.

    Row i of ``increments`` is particle i's driver increment for this step.
    """
    states = ensemble.states
    if increments.shape != states.shape:
        raise ValueError(f"increment shape {increments.shape} != state shape {states.shape}")
    mu = EmpiricalMeasure(states)
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up surfaces as an error below
        drift = np.asarray(model.drift(states, mu), dtype=float).reshape(states.shape)
        sigma = model.diffusion.evaluate(states, mu)  # (d, d), or (N, d, d) per particle
        noise = np.einsum("nij,nj->ni", sigma, increments) if sigma.ndim == 3 else increments @ sigma.T
        new_states = states + delta * drift + noise
    if not np.all(np.isfinite(new_states)):
        bad = int(np.argwhere(~np.isfinite(new_states))[0, 0])
        raise NumericalBlowup(ensemble.step_index + 1, bad, model.name)
    return ParticleEnsemble(new_states, ensemble.step_index + 1)


def _snapshot_plan(steps: int, policy: str) -> set[int]:
    if policy == "full":
        return set(range(steps + 1))
    if policy == "terminal":
        return {0, steps}
    if policy == "thin":
        stride = max(1, -(-steps // 64))  # ceil(n / 64)
        kept = set(range(0, steps + 1, stride))
        kept.add(steps)
        return kept
    raise ValueError(f"unknown snapshot policy {policy!r}; choose from {SNAPSHOT_POLICIES}")


def _drivers(config: SimulationConfig, root: StreamKey) -> np.ndarray:
    """Per-particle exact fBm increments, shape (steps, N, d)."""
    sampler = make_sampler(config.sampler, config.hurst, config.mesh)
    streams = [root.child(_NS_NOISE, i) for i in range(config.particles)]
    ensemble = sampler.sample_ensemble(config.model.dimension, streams)  # (N, steps, d)
    return np.ascontiguousarray(np.swapaxes(ensemble, 0, 1))


def _evolve(config: SimulationConfig, initial: np.ndarray, drivers: np.ndarray,
            snapshots: str) -> TrajectoryRecord:
    mesh = config.mesh
    keep = _snapshot_plan(mesh.steps, snapshots)
    ensemble = ParticleEnsemble(initial, 0)
    indices: list[int] = []
    kept: list[np.ndarray] = []
    if 0 in keep:
        indices.append(0)
        kept.append(ensemble.states.copy())
    for k in range(mesh.steps):
        ensemble = em_step(ensemble, config.model, mesh.delta, drivers[k])
        if ensemble.step_index in keep:
            indices.append(ensemble.step_index)
            kept.append(ensemble.states)
    return TrajectoryRecord(mesh, indices, kept)


def run(config: SimulationConfig, snapshots: str = "thin") -> TrajectoryRecord:
    """Simulate one interacting ensemble over the configured mesh.

    Deterministic given the seed: particle i's driver comes from the stream
    at child(1, i) of the run root, independent of evaluation order.
    """
    root = config.stream()
    initial = config.model.initial_states(config.particles, root.child(_NS_INITIAL).generator())
    drivers = _drivers(config, root)
    return _evolve(config, initial, drivers, snapshots)


def run_coupled_meshes(
    config: SimulationConfig, factors: Sequence[int], snapshots: str = "terminal"
) -> dict[int, TrajectoryRecord]:
    """Run the scheme on nested meshes sharing one set of fine drivers.

    ``config.mesh`` is the finest mesh; each factor must divide its step
    count.  Factor 1 (the reference run) is always included.  All runs share
    the initial ensemble and the same continuous drivers, restricted to each
    coarse mesh, so terminal differences measure pure discretization error.
    """
    factors = sorted(set(int(f) for f in factors) | {1})
    for f in factors:
        if f < 1 or config.mesh.steps % f != 0:
            raise ValueError(f"factor {f} does not divide {config.mesh.steps} fine steps")
    root = config.stream()
    initial = config.model.initial_states(config.particles, root.child(_NS_INITIAL).generator())
    fine_drivers = _drivers(config, root)  # (steps, N, d)
    results: dict[int, TrajectoryRecord] = {}
    for f in factors:
        if f == 1:
            drivers = fine_drivers
        else:
            cuts = np.arange(0, config.mesh.steps, f)
            drivers = np.add.reduceat(fine_drivers, cuts, axis=0)
        coarse = SimulationConfig(
            config.model, config.hurst, config.mesh.coarsen(f), config.particles,
            config.seed, config.sampler,
        )
        results[f] = _evolve(coarse, initial, drivers, snapshots)
    return results


def piecewise_constant_lookup(record: TrajectoryRecord, t: float) -> np.ndarray:
    """Ensemble at the largest mesh node <= t (the left-continuous extension)."""
    horizon = record.mesh.horizon
    if not (0.0 <= t <= horizon):
        raise ValueError(f"time {t} outside [0, {horizon}]")
    k = min(int(np.floor(t / record.mesh.delta)), record.mesh.steps)
    return record.snapshot_at(k)


def write_trajectory_csv(record: TrajectoryRecord, out, terminal_only: bool = True) -> None:
    """Export snapshots: header k,t,particle,component_1..d."""
    dimension = record.terminal.shape[1]
    out.write("# schema_version=1\n")
    cols = ["k", "t", "particle"] + [f"component_{j + 1}" for j in range(dimension)]
    out.write(",".join(cols) + "\n")
    pairs = zip(record.snapshot_indices, record.snapshots)
    if terminal_only:
        pairs = [(record.snapshot_indices[-1], record.terminal)]
    for k, states in pairs:
        t = record.mesh.node(k)
        for i in range(states.shape[0]):
            row = [str(k), repr(float(t)), str(i)] + [repr(float(v)) for v in states[i]]
            out.write(",".join(row) + "\n")
