"""Interacting-particle explicit Euler stepping driven by exact fBm paths.

One step advances all N particles synchronously against a frozen snapshot
of the empirical measure:

    Y_{k+1}^i = Y_k^i + b(Y_k^i, mu_k) * delta + sigma(.) * dB^{H,i}_k,

with one independent d-dimensional driver per particle.  A run advances a
batch of R independent replications of that system at once: one drift
call, one diffusion call and one finiteness check per step for the whole
batch, each replication interacting only through its own measure.  Runs
are pure functions of (model, H, mesh, N, stream): drivers come from
counter-based streams and every reduction happens in fixed index order
within one replication, so results are bitwise identical for any batch
size, worker count or schedule.

Coupled multi-mesh execution generates each driver once on the finest mesh
and restricts it to the coarse meshes, so terminal differences between
resolutions estimate the strong discretization error directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fbm import CirculantSampler, UniformMesh, block_sums, check_hurst
from .measure import EmpiricalMeasure
from .model import ModelSpec, validate
from .streams import StreamKey

__all__ = [
    "SimulationConfig",
    "TrajectoryRecord",
    "NumericalBlowup",
    "SNAPSHOT_POLICIES",
    "run",
    "run_coupled_meshes",
]

# Stream namespaces under a replication's root key: child(0) seeds the
# initial sampler, child(1, i) seeds particle i's driver path.
_NS_INITIAL = 0
_NS_NOISE = 1

# Which ensemble snapshots a run keeps; see _snapshot_plan.
SNAPSHOT_POLICIES = ("terminal", "thin", "full")


class NumericalBlowup(RuntimeError):
    """A particle state left the finite range; carries step, replication and particle.

    ``particle`` counts within its replication; ``replication`` is the
    replication index the run was given, and ``mesh_steps`` the step count
    of the mesh it ran on.  A run stops at the first step where any of its
    replications blows up and names the first non-finite row of that step.
    A study whose batches blow up names the earliest failure of them all:
    the finest mesh first, then the smallest particle count, step and
    replication.  So which failure is named does not depend on
    ``--workers`` or on how replications are batched.
    """

    def __init__(self, step: int, particle: int, model_name: str, replication: int,
                 mesh_steps: int) -> None:
        self.step = step
        self.particle = particle
        self.model_name = model_name
        self.replication = replication
        self.mesh_steps = mesh_steps
        super().__init__(
            f"non-finite state at step {step}, replication {replication}, particle {particle} "
            f"(model {model_name!r}); refine the mesh or check the coefficients"
        )

    def __reduce__(self):  # a pool worker's blow-up reaches the caller as itself
        return type(self), (self.step, self.particle, self.model_name, self.replication,
                            self.mesh_steps)


@dataclass(frozen=True)
class ParticleEnsemble:
    """Positions of R independent ensembles of N particles at one mesh node.

    ``states`` is (R*N, d), replication-major: rows r*N .. r*N + N - 1 hold
    replication r.
    """

    states: np.ndarray  # (R*N, d)
    replications: int = 1

    def blocks(self) -> np.ndarray:
        """The states as an (R, N, d) view."""
        return self.states.reshape(self.replications, -1, self.states.shape[1])


@dataclass(frozen=True)
class SimulationConfig:
    model: ModelSpec
    hurst: float
    mesh: UniformMesh
    particles: int
    seed: "int | StreamKey"
    # Replication indices of the batch: replication m is rooted at child(m) of the seed.
    replications: range = range(1)

    def __post_init__(self) -> None:
        if self.particles < 1:
            raise ValueError(f"particle count must be >= 1, got {self.particles}")
        reps = self.replications
        if not isinstance(reps, range) or not reps or min(reps) < 0:
            raise ValueError(f"replications must be a nonempty range of indices >= 0, got {reps!r}")
        object.__setattr__(self, "hurst", check_hurst(self.hurst))
        validate(self.model, self.hurst)

    def roots(self) -> list[StreamKey]:
        """The stream root of each replication in the batch."""
        root = StreamKey.coerce(self.seed)
        return [root.child(m) for m in self.replications]


@dataclass
class TrajectoryRecord:
    """Retained ensemble snapshots of one run; the terminal one is always kept.

    Each snapshot is (R*N, d), replication-major as in ParticleEnsemble.
    """

    mesh: UniformMesh
    snapshot_indices: list[int]
    snapshots: list[np.ndarray] = field(repr=False)

    @property
    def terminal(self) -> np.ndarray:
        return self.snapshots[-1]


def em_step(ensemble: ParticleEnsemble, model: ModelSpec, delta: float,
            increments: np.ndarray) -> ParticleEnsemble:
    """Advance every particle of every replication one step against the frozen measures.

    Row i of ``increments`` is the driver increment of the particle in row i
    of ``ensemble.states``.  The coefficients see the (R, N, d) view and the
    batch of R measures.  sigma broadcasts against (R, N, d, d), so every
    diffusion kind goes through one noise product, computed per particle:
    each replication gets the bits it would get alone.  A non-finite result
    is returned as it is; the run loop checks finiteness and names the
    blow-up.
    """
    states = ensemble.states
    if increments.shape != states.shape:
        raise ValueError(f"increment shape {increments.shape} != state shape {states.shape}")
    blocks = ensemble.blocks()
    mu = EmpiricalMeasure(blocks)
    with np.errstate(over="ignore", invalid="ignore"):  # the run loop reports a blow-up
        drift = np.asarray(model.drift(blocks, mu), dtype=float).reshape(states.shape)
        sigma = model.diffusion.evaluate(blocks, mu)
        noise = np.einsum("...ij,...j->...i", sigma, increments.reshape(blocks.shape))
        new_states = states + delta * drift + noise.reshape(states.shape)
    return ParticleEnsemble(new_states, ensemble.replications)


def _snapshot_plan(steps: int, policy: str) -> set[int]:
    """Step indices a run keeps: all of them, the terminal one alone, or
    every ceil(n / 64)-th plus the terminal one."""
    if policy == "full":
        return set(range(steps + 1))
    if policy == "terminal":
        return {steps}
    if policy == "thin":
        stride = max(1, -(-steps // 64))  # ceil(n / 64)
        kept = set(range(0, steps + 1, stride))
        kept.add(steps)
        return kept
    raise ValueError(f"unknown snapshot policy {policy!r}; choose from {SNAPSHOT_POLICIES}")


def _drivers(config: SimulationConfig, threads: "int | None") -> np.ndarray:
    """Per-particle exact fBm increments of the whole batch, shape (steps, R*N, d).

    A sampler of (H, mesh), built for this batch, draws it on up to
    ``threads`` threads; particle i of replication m draws from child(1, i)
    of the replication's root.
    """
    sampler = CirculantSampler(config.hurst, config.mesh)
    streams = [root.child(_NS_NOISE, i) for root in config.roots() for i in range(config.particles)]
    drivers = np.empty((config.mesh.steps, len(streams), config.model.dimension))
    # the sampler writes its (R*N, steps, d) rows straight into the step-major array,
    # so the batch never holds a second, transposed copy of its drivers
    sampler.sample_ensemble(config.model.dimension, streams, out=np.swapaxes(drivers, 0, 1),
                            threads=threads)
    return drivers


def _initial_states(config: SimulationConfig) -> np.ndarray:
    """Initial ensembles of the batch stacked replication-major, (R*N, d)."""
    return np.concatenate([
        config.model.initial_states(config.particles, root.child(_NS_INITIAL).generator())
        for root in config.roots()
    ])


def _evolve(config: SimulationConfig, mesh: UniformMesh, initial: np.ndarray,
            drivers: np.ndarray, snapshots: str) -> TrajectoryRecord:
    """Step the batch over ``mesh``, whose steps are the rows of ``drivers``,
    keep the planned snapshots, and raise the first non-finite state as a
    NumericalBlowup naming its step, replication and particle."""
    keep = _snapshot_plan(mesh.steps, snapshots)
    ensemble = ParticleEnsemble(initial, len(config.replications))
    kept = [initial.copy()] if 0 in keep else []
    for k, increments in enumerate(drivers, start=1):
        # bench/layertrace.py patches this module-level call and reads .states from its first argument
        ensemble = em_step(ensemble, config.model, mesh.delta, increments)
        if not np.isfinite(ensemble.states).all():
            bad = int(np.argwhere(~np.isfinite(ensemble.states))[0, 0])
            slot, particle = divmod(bad, config.particles)
            raise NumericalBlowup(k, particle, config.model.name, config.replications[slot], mesh.steps)
        if k in keep:
            kept.append(ensemble.states)
    return TrajectoryRecord(mesh, sorted(keep), kept)


def run(config: SimulationConfig, snapshots: str = "terminal") -> TrajectoryRecord:
    """Simulate the configured batch of ensembles over the mesh.

    Deterministic given the seed: particle i of replication m draws its
    driver from the stream at child(m, 1, i) of the seed, independent of
    evaluation order and of which replications share the batch.
    """
    return run_coupled_meshes(config, (1,), snapshots)[1]


def run_coupled_meshes(
    config: SimulationConfig, factors: Sequence[int], snapshots: str = "terminal", *,
    threads: "int | None" = None,
) -> dict[int, TrajectoryRecord]:
    """Run the scheme on nested meshes sharing one set of fine drivers.

    ``config.mesh`` is the finest mesh; each factor must divide its step
    count.  Factor 1 (the reference run) is always included and runs first.
    All runs share the initial ensemble and the same continuous drivers,
    restricted to each coarse mesh, so terminal differences measure pure
    discretization error.  ``threads`` caps the driver sampler's threads
    (default: one per usable core); it never changes a bit.
    """
    meshes = {f: config.mesh.coarsen(f) for f in sorted(set(int(f) for f in factors) | {1})}
    initial = _initial_states(config)
    fine_drivers = _drivers(config, threads)  # (steps, R*N, d)
    return {
        f: _evolve(config, mesh, initial,
                   fine_drivers if f == 1 else block_sums(fine_drivers, f), snapshots)
        for f, mesh in meshes.items()
    }

