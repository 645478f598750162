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

Coupled multi-mesh execution generates each driver once on the finest mesh,
step-major as the sampler returns it, and advances every mesh in one pass
over its steps, each mesh on the block sums of the fine increments (one
fine increment for the finest), so terminal differences between
resolutions estimate the strong discretization error directly.  Ladders
are nested, so the meshes that step at a fine step are a prefix of the
stack; every mesh steps by the same rule, and every kept snapshot is a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ArgumentError
from .fbm import CirculantSampler, UniformMesh, check_count, check_hurst
from .measure import EmpiricalMeasure
from .model import ModelSpec, validate
from .streams import StreamArray, StreamKey

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

# The step indices of an n-step mesh whose ensemble snapshots each policy
# keeps: the terminal one alone, every ceil(n / 64)-th plus the terminal
# one, or all of them.
_SNAPSHOT_PLANS = {
    "terminal": lambda steps: {steps},
    "thin": lambda steps: set(range(0, steps + 1, max(1, -(-steps // 64)))) | {steps},
    "full": lambda steps: set(range(steps + 1)),
}
SNAPSHOT_POLICIES = tuple(_SNAPSHOT_PLANS)


class NumericalBlowup(RuntimeError):
    """A particle state left the finite range; carries step, replication and particle.

    ``particle`` counts within its replication; ``replication`` is the
    replication index the run was given, and ``mesh_steps`` the step count
    of the mesh it ran on.  A run names the first non-finite row of the
    first step where any of its replications blows up; a run of coupled
    meshes names that of the smallest factor that blows up.
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
    """The rows ``em_step`` advances: R independent ensembles of N particles.

    ``states`` is (R*N, d), replication-major: rows r*N .. r*N + N - 1 hold
    replication r.  The class is ``em_step``'s argument alone, the one the
    benchmark's tracer (``bench/layertrace.py``) reads ``.states`` from.
    """

    states: np.ndarray  # (R*N, d)
    replications: int = 1


@dataclass(frozen=True)
class SimulationConfig:
    """One batch of replications of the particle system on one mesh.

    ``seed`` is the batch's stream root: an integer seed becomes
    ``StreamKey(seed)`` here, so a seed that is not a nonnegative integer
    raises ``ArgumentError`` before any draw, as a particle count that is not
    an integer does.
    """

    model: ModelSpec
    hurst: float
    mesh: UniformMesh
    particles: int
    seed: StreamKey
    # Replication indices of the batch: replication m is rooted at child(m) of the seed.
    replications: range = range(1)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, StreamKey):
            object.__setattr__(self, "seed", StreamKey(self.seed))
        object.__setattr__(self, "particles", check_count(self.particles, "particle count"))
        reps = self.replications
        # each index is one uint32 word of a driver stream's row; min() would walk the range
        if not (isinstance(reps, range) and reps
                and 0 <= reps[0] < 2**32 and 0 <= reps[-1] < 2**32):
            raise ArgumentError(f"replications must be a nonempty range of indices in [0, 2^32), "
                                f"got {reps!r}")
        object.__setattr__(self, "hurst", check_hurst(self.hurst))
        validate(self.model, self.hurst)


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


def em_step(ensemble: ParticleEnsemble, model: ModelSpec, delta: "float | np.ndarray",
            increments: np.ndarray) -> np.ndarray:
    """The rows of ``ensemble`` advanced one step against the frozen measures.

    Row i of ``increments`` is the driver increment of the particle in row i
    of ``ensemble.states``, and ``delta`` is the step of every row, or an
    (R*N, 1) column with one step per row.  The run loop always passes the
    column, so that one call advances the meshes of a nested ladder that
    step together, each with its own step; each row gets the bits of a
    float delta.
    The coefficients see the (R, N, d) view and the
    batch of R measures.  sigma broadcasts against (R, N, d, d), so every
    diffusion kind goes through one noise product, computed per particle:
    each replication gets the bits it would get alone.  The result is a new
    (R*N, d) array, non-finite rows included: the run loop writes it into
    its stacked states, checks finiteness and names the blow-up.
    """
    states = ensemble.states
    if increments.shape != states.shape:
        raise ArgumentError(f"increment shape {increments.shape} != state shape {states.shape}")
    blocks = states.reshape(ensemble.replications, -1, states.shape[1])
    mu = EmpiricalMeasure(blocks)
    with np.errstate(over="ignore", invalid="ignore"):  # the run loop reports a blow-up
        drift = np.asarray(model.drift(blocks, mu), dtype=float).reshape(states.shape)
        sigma = model.diffusion.evaluate(blocks, mu)
        noise = np.einsum("...ij,...j->...i", sigma, increments.reshape(blocks.shape))
        return states + delta * drift + noise.reshape(states.shape)


def _snapshot_plan(steps: int, policy: str) -> set[int]:
    """Step indices a run keeps under ``policy``, the one place a policy is checked."""
    if policy not in _SNAPSHOT_PLANS:
        raise ArgumentError(f"unknown snapshot policy {policy!r}; choose from {SNAPSHOT_POLICIES}")
    return _SNAPSHOT_PLANS[policy](steps)


def _noise_streams(config: SimulationConfig) -> StreamArray:
    """The driver streams of the batch, replication-major: particle i of
    replication m draws from child(m, 1, i) of the seed, that is child(1, i)
    of the replication's root."""
    reps, particles = len(config.replications), config.particles
    index = np.empty((reps, particles, 3), np.int64)
    index[..., 0] = np.asarray(config.replications)[:, None]
    index[..., 1] = _NS_NOISE
    index[..., 2] = np.arange(particles)
    return StreamArray(config.seed, index.reshape(reps * particles, 3))


def _drivers(config: SimulationConfig) -> np.ndarray:
    """Per-particle exact fBm increments of the whole batch, shape (steps, R*N, d).

    A sampler of (H, mesh), built for this batch, draws it from the streams
    of ``_noise_streams``.
    """
    sampler = CirculantSampler(config.hurst, config.mesh)
    return sampler.sample_ensemble(config.model.dimension, _noise_streams(config))


def _initial_states(config: SimulationConfig) -> np.ndarray:
    """Initial ensembles of the batch stacked replication-major, (R*N, d):
    replication m draws from child(m, 0) of the seed."""
    return np.concatenate([
        config.model.initial_states(config.particles,
                                    config.seed.child(m, _NS_INITIAL).generator())
        for m in config.replications
    ])


def run(config: SimulationConfig, snapshots: str = "terminal") -> TrajectoryRecord:
    """Simulate the configured batch of ensembles over the mesh.

    Deterministic given the seed: particle i of replication m draws its
    driver from the stream at child(m, 1, i) of the seed, independent of
    evaluation order and of which replications share the batch.
    """
    return run_coupled_meshes(config, (1,), snapshots)[1]


def run_coupled_meshes(
    config: SimulationConfig, factors: Sequence[int], snapshots: str = "terminal",
) -> dict[int, TrajectoryRecord]:
    """Run the scheme on nested meshes sharing one set of fine drivers.

    ``config.mesh`` is the finest mesh; factor 1 (the reference run) is
    always included, each factor must divide the next larger one and the
    step count, and any other ladder raises ``ArgumentError`` before any draw.
    All meshes share the initial ensemble and the same continuous drivers,
    so terminal differences measure pure discretization error.  They
    advance together in one pass over the fine steps: the states of every
    mesh are stacked, ascending factor, and a coarse mesh's increment is the
    left-to-right sum of its block of fine increments, built in place as the
    pass reaches them.  The meshes whose step ends at a fine step are the
    first slots of the stack, and one ``em_step`` call advances them.  Each
    mesh keeps the snapshots of ``snapshots`` at its own step indices.  If
    meshes blow up, the smallest factor's blow-up is raised, with its first
    non-finite step and row; the finer meshes step on to find it.
    """
    ladder = sorted({check_count(f, "coarsening factor") for f in factors} | {1})
    if any(coarse % fine for fine, coarse in zip(ladder, ladder[1:])):
        raise ArgumentError(f"coarsening factors {ladder} are not nested: each must divide the next")
    meshes = [config.mesh.coarsen(f) for f in ladder]
    width = config.particles * len(config.replications)
    rows = [slice(slot * width, (slot + 1) * width) for slot in range(len(ladder))]
    keep = [_snapshot_plan(mesh.steps, snapshots) for mesh in meshes]
    shots: dict[int, list[int]] = {}  # fine step -> the slots that keep a snapshot there
    for slot, (factor, kept_steps) in enumerate(zip(ladder, keep)):
        for j in kept_steps:
            shots.setdefault(j * factor, []).append(slot)
    initial = _initial_states(config)
    drivers = _drivers(config)  # (steps, R*N, d)
    states = np.tile(initial, (len(ladder), 1))
    increments = np.empty_like(states)
    increment_slots = increments.reshape(len(ladder), width, -1)
    deltas = np.repeat([mesh.delta for mesh in meshes], width)[:, None]  # each row's own step
    kept: list[list[np.ndarray]] = [[initial.copy()] if 0 in k else [] for k in keep]
    live = stepped = len(ladder)  # slots still stepping; slots whose block starts at the next row
    blowup = None
    for k, row in enumerate(drivers, start=1):
        increment_slots[:stepped] = row
        if stepped < live:
            increment_slots[stepped:live] += row
        stepping = sum(k % f == 0 for f in ladder[:live])  # the first slots: the ladder is nested
        span = slice(0, stepping * width)
        # bench/layertrace.py patches this module-level call and reads .states from its first argument
        stepped_rows = em_step(ParticleEnsemble(states[span], stepping * len(config.replications)),
                               config.model, deltas[span], increments[span])
        states[span] = stepped_rows
        if not np.isfinite(stepped_rows).all():
            bad = int(np.argwhere(~np.isfinite(stepped_rows))[0, 0])
            slot, offset = divmod(bad, width)
            replication, particle = divmod(offset, config.particles)
            blowup = NumericalBlowup(k // ladder[slot], particle, config.model.name,
                                     config.replications[replication], meshes[slot].steps)
            if slot == 0:
                raise blowup
            # a smaller factor's blow-up would take precedence: step only those meshes on
            live = stepping = slot
        stepped = stepping
        for slot in shots.get(k, ()):
            kept[slot].append(states[rows[slot]].copy())
    if blowup is not None:
        raise blowup
    return {f: TrajectoryRecord(mesh, sorted(k), snaps)
            for f, mesh, k, snaps in zip(ladder, meshes, keep, kept)}
