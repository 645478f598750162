"""Test oracles, each defined once, and the test models that several modules share.

An oracle is a direct, slow-but-obvious computation that a library result
is checked against.  The models are module-level, so pool workers can
unpickle them.
"""

import functools
import itertools
import math
from statistics import NormalDist

import numpy as np

from mvfbm.fbm import UniformMesh, increment_covariance_matrix
from mvfbm.measure import EmpiricalMeasure
from mvfbm.model import ConstantDiffusion, MeasureDiffusion, ModelSpec, StateMeasureDiffusion, _start
from mvfbm.simulator import (
    NumericalBlowup,
    ParticleEnsemble,
    TrajectoryRecord,
    _drivers,
    _initial_states,
    _snapshot_plan,
    em_step,
)
from mvfbm.streams import StreamArray, StreamKey, child_seed_words, seeded_generator


@functools.cache
def _permutations(n: int) -> np.ndarray:
    """Every permutation of range(n), one per row: (n!, n)."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)


def brute_force_w1d(a: np.ndarray, b: np.ndarray, theta: float) -> float:
    """W_theta between the uniform measures on the atoms a and b (n <= 8): the
    least transport cost over every permutation of b, not the sorted matching."""
    costs = np.mean(np.abs(a - b[_permutations(len(b))]) ** theta, axis=1)
    return float(costs.min() ** (1.0 / theta))


def moment_distance_to_dirac0(mu: EmpiricalMeasure, order: float = 2.0) -> float:
    """Exact W_theta from mu to the Dirac mass at the origin.

    Every transport plan to a point mass is forced, so the distance is the
    theta-th root of the theta-th moment: ((1/N) sum_j |x_j|^theta)^(1/theta).
    """
    if order < 2.0:
        raise ValueError(f"Wasserstein order must be >= 2, got {order}")
    norms = np.linalg.norm(mu.atoms, axis=1)
    return float(np.mean(norms**order) ** (1.0 / order))


def w2_to_gaussian(atoms: np.ndarray, mean: float, variance: float) -> float:
    """Exact W_2 from the uniform measure on the 1-d atoms to N(mean, variance).

    The optimal plan sends the i-th smallest atom to the quantiles on
    [i/N, (i+1)/N].  There the standard quantile z(u) integrates to
    phi(z(i/N)) - phi(z((i+1)/N)), phi the normal density, and the squared
    quantile integrates to mean^2 + variance over [0, 1].
    """
    x = np.sort(np.ravel(atoms))
    n, standard = len(x), NormalDist()
    density = np.array([0.0, *(standard.pdf(standard.inv_cdf(i / n)) for i in range(1, n)), 0.0])
    quantile_integrals = mean / n + math.sqrt(variance) * (density[:-1] - density[1:])
    squared = float(np.mean(x**2) - 2.0 * x @ quantile_integrals + mean**2 + variance)
    return math.sqrt(max(squared, 0.0))


def mean_reverting_limit_variance(hurst: float, mesh: UniformMesh, rate: float, xi: float) -> float:
    """Variance of the N -> infinity terminal law of the scheme for the
    mean-reverting preset from a point mass x0.

    The ensemble mean stays at x0 in the limit, so a particle ends at
    x0 + xi sum_k a_k dB_k with a_k = (1 - r delta)^(n - 1 - k): the variance
    is xi^2 a^T Gamma a, Gamma the increment covariance.
    """
    a = (1.0 - rate * mesh.delta) ** (mesh.steps - 1 - np.arange(mesh.steps))
    return xi**2 * float(a @ increment_covariance_matrix(hurst, mesh) @ a)


def increment_ensemble(sampler, paths: int, seed: int) -> np.ndarray:
    """(paths, steps) increments of one component, path p drawn from child(p) of the seed."""
    streams = StreamArray(StreamKey(seed), np.arange(paths)[:, None])
    return sampler.sample_ensemble(1, streams)[:, :, 0].T


def path_values(increments: np.ndarray, axis: int = 0) -> np.ndarray:
    """Path values at the mesh nodes along the time ``axis``, starting from B_0 = 0."""
    zero = np.zeros_like(np.take(increments, [0], axis=axis))
    return np.concatenate([zero, np.cumsum(increments, axis=axis)], axis=axis)


def increment_law_zscores(increments: np.ndarray, mesh: UniformMesh, hurst: float,
                          rng: np.random.Generator, pairs: int = 10) -> list[tuple]:
    """(i, j, z) at random node pairs i < j: the mean of |B_tj - B_ti|^2 over the
    (paths, steps) increments against |tj - ti|^{2H}, in standard errors
    sqrt(2 / paths) |tj - ti|^{2H} of the squared gap of a Gaussian."""
    paths, values = increments.shape[0], path_values(increments, axis=1)
    scores = []
    for _ in range(pairs):
        i, j = sorted(rng.choice(mesh.steps + 1, size=2, replace=False))
        gap = values[:, j] - values[:, i]
        expected = (mesh.node(j) - mesh.node(i)) ** (2 * hurst)
        stderr = math.sqrt(2.0 / paths) * expected
        scores.append((i, j, abs(float(np.mean(gap**2)) - expected) / stderr))
    return scores


def empirical_covariance(increments: np.ndarray) -> np.ndarray:
    """The (steps, steps) second moments of (paths, steps) mean-zero increments."""
    return increments.T @ increments / increments.shape[0]


def covariance_stderr(expected: np.ndarray, paths: int) -> np.ndarray:
    """Standard errors of the empirical product moments of Gaussian increments
    with covariance C: Var(x_i x_j) = C_ii C_jj + C_ij^2 (Isserlis)."""
    diag = np.diag(expected)
    return np.sqrt((np.outer(diag, diag) + expected**2) / paths)


def covariance_zscores(increments: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """|empirical - expected| covariance in standard errors, entry by entry."""
    empirical = empirical_covariance(increments)
    return np.abs(empirical - expected) / covariance_stderr(expected, increments.shape[0])


def two_sample_zscores(a: np.ndarray, b: np.ndarray, expected: np.ndarray):
    """Gaps between two independent (paths, steps) ensembles of one law, in
    standard errors of the difference: the means, and the second moments."""
    paths = a.shape[0]
    mean_z = np.abs(a.mean(axis=0) - b.mean(axis=0)) / np.sqrt(2.0 * np.diag(expected) / paths)
    moment_gap = np.abs(empirical_covariance(a) - empirical_covariance(b))
    return mean_z, moment_gap / (math.sqrt(2.0) * covariance_stderr(expected, paths))


def block_sums(increments: np.ndarray, factor: int) -> np.ndarray:
    """Sums of consecutive blocks of ``factor`` rows, each added left to right:
    row k is ((x[k*f] + x[k*f+1]) + ...) + x[k*f+f-1], element by element."""
    blocks = increments.reshape(increments.shape[0] // factor, factor, *increments.shape[1:])
    out = blocks[:, 0].copy()
    for k in range(1, factor):
        out += blocks[:, k]
    return out


def nested_ladders(steps: int, lengths: range) -> list[list[int]]:
    """Every nested ladder of coarse factors on a mesh of ``steps`` steps
    whose length is in ``lengths``: 1 < f_1 < f_2 < ..., each factor
    dividing the next and the last dividing ``steps``."""
    def chains(last: int, length: int):
        if length == 0:
            yield []
            return
        for factor in range(2 * last, steps + 1, last):
            if steps % factor == 0:
                yield from ([factor, *rest] for rest in chains(factor, length - 1))

    return [ladder for length in lengths for ladder in chains(1, length)]


def per_mesh_ladder(config, factors, snapshots: str = "terminal") -> dict:
    """Coupled meshes run one after the other, finest first: each mesh steps
    on the block sums of the shared fine drivers, one ``em_step`` per mesh
    step, and a mesh that blows up raises its first non-finite step and row.
    The same records as ``run_coupled_meshes``, {factor: TrajectoryRecord}."""
    initial = _initial_states(config)
    fine = _drivers(config)
    records = {}
    for factor in sorted(set(factors) | {1}):
        mesh = config.mesh.coarsen(factor)
        keep = _snapshot_plan(mesh.steps, snapshots)
        states = initial
        kept = [initial.copy()] if 0 in keep else []
        for k, increments in enumerate(block_sums(fine, factor), start=1):
            states = em_step(ParticleEnsemble(states, len(config.replications)), config.model,
                             mesh.delta, increments)
            if not np.isfinite(states).all():
                bad = int(np.argwhere(~np.isfinite(states))[0, 0])
                slot, particle = divmod(bad, config.particles)
                raise NumericalBlowup(k, particle, config.model.name,
                                      config.replications[slot], mesh.steps)
            if k in keep:
                kept.append(states)
        records[factor] = TrajectoryRecord(mesh, sorted(keep), kept)
    return records


def numpy_draws(seed: int, spawn_key: tuple) -> np.ndarray:
    """Eight normals from numpy's own SeedSequence at (seed, spawn_key)."""
    sequence = np.random.SeedSequence(seed, spawn_key=spawn_key)
    return np.random.default_rng(sequence).standard_normal(8)


def assert_array_matches_numpy(streams, components):
    """The bulk seed words of every row of a ``StreamArray`` and every component
    draw what ``root.child(*row).child(j).generator()`` draws, bit for bit."""
    words = child_seed_words(streams, components)
    assert words.shape == (components, len(streams), 4)
    for j in range(components):
        for p, row in enumerate(streams.index.tolist()):
            expected = streams.root.child(*row).child(j).generator().standard_normal(8)
            got = seeded_generator(words[j, p]).standard_normal(8)
            assert got.tobytes() == expected.tobytes(), (streams.root, row, j)


def zero_drift(states, mu):
    return np.zeros_like(states)


def reverting_drift(states, mu):
    return mu.mean() - states


def _planar_initial(rng, count):
    return 0.4 * rng.standard_normal((count, 2))


def noisy_model(kind: str, dimension: int, spread: float = 0.5, cubic: float = 0.0) -> ModelSpec:
    """A mean-reverting model of the given diffusion kind ("constant", "measure"
    or "state-measure") and dimension, started from a Gaussian cloud of
    standard deviation ``spread`` so that its noise enters at once.  A
    ``cubic`` drift term -cubic x^3 blows explicit Euler up on a mesh whose
    delta x^2 exceeds about 2 / cubic."""
    eye = np.eye(dimension)
    diffusion = {
        "constant": ConstantDiffusion(np.array([[1.0, 0.3], [-0.2, 0.7]])[:dimension, :dimension]),
        "measure": MeasureDiffusion(lambda mu: eye + 0.5 * mu.mean()[..., None]),
        "state-measure": StateMeasureDiffusion(
            lambda states, mu: eye + 0.5 * (states - mu.mean())[..., None]),
    }[kind]

    def stiff_drift(states, mu):
        return reverting_drift(states, mu) - cubic * states**3

    return ModelSpec(name=f"{kind}-{dimension}d", dimension=dimension,
                     drift=stiff_drift if cubic else reverting_drift,
                     diffusion=diffusion,
                     initial=lambda rng, count: spread * rng.standard_normal((count, dimension)))


def mean_shifted_sigma(mu):
    """sigma(mu) = 1 + mean(mu) / 2, (R, 1, 1): one 1 x 1 sigma per replication."""
    return 1.0 + 0.5 * mu.mean()


def planar_model() -> ModelSpec:
    """A 2-d mean-reverting model with a non-diagonal constant diffusion."""
    return ModelSpec(
        name="planar", dimension=2, drift=reverting_drift,
        diffusion=ConstantDiffusion(np.array([[1.0, 0.3], [-0.2, 0.7]])),
        initial=_planar_initial,
    )


def _cubic_drift(states, mu):
    return states**3


def unstable_cubic(initial: float = 1.0, initial_spread: float = 0.0) -> ModelSpec:
    """A superlinear drift, outside the Lipschitz hypotheses of the scheme's error
    bounds, that blows up under explicit stepping: the numerical-failure tests' model.
    Its initial law is the presets' (``initial``, ``initial_spread``)."""
    return ModelSpec(
        name="unstable-cubic", dimension=1, drift=_cubic_drift,
        diffusion=ConstantDiffusion(np.array([[0.1]])), initial=_start(initial, initial_spread),
    )
