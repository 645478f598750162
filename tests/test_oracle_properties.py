"""Property tests against direct oracles: the covariance audit, the Toeplitz
covariance, the shared barycenter, the transport distances and the one-pass
run of a nested mesh ladder must give the oracle's bits exactly.  The audit is checked on
samples of the circulant sampler and of the dense Cholesky reference
sampler; the ladder against its meshes run one after the other.

The examples come from the derandomized profile in conftest.py.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from mvfbm.fbm import (
    CholeskySampler,
    CirculantSampler,
    UniformMesh,
    _fgn_autocovariance,
    increment_covariance_matrix,
)
from mvfbm.measure import EmpiricalMeasure, coupled_upper_bound, wasserstein_1d_exact
from mvfbm.simulator import SNAPSHOT_POLICIES, NumericalBlowup, SimulationConfig, run_coupled_meshes
from mvfbm.study import covariance_check
from oracles import (covariance_stderr, empirical_covariance, increment_ensemble, nested_ladders,
                     noisy_model, per_mesh_ladder)

hursts = st.floats(0.05, 0.95)


def _toeplitz_gather(hurst: float, mesh: UniformMesh) -> np.ndarray:
    """The increment covariance as gamma gathered at |i - j|, index by index."""
    gamma = _fgn_autocovariance(hurst, mesh.delta, np.arange(mesh.steps))
    index = np.arange(mesh.steps)
    return gamma[np.abs(index[:, None] - index[None, :])]


def _covariance_check_oracle(hurst, steps, paths, seed, sampler_cls, band_rows=None):
    """The audit on full n x n arrays: per-lag mean and max |z|, and the overall max |z|.

    Holds the expected covariance, the standard errors and the z-scores
    entrywise, and groups the flat entries on and above the diagonal by lag
    j - i with a stable argsort, so each lag's entries are summed left to
    right in row order.  The empirical matrix is x x^T / paths, x the
    (steps, paths) sample, checked to be exactly symmetric; with
    ``band_rows``, its entries on and above the diagonal are the audit's
    products of ``band_rows`` rows of x with the rows from the band's top on.
    """
    mesh = UniformMesh(1.0, steps)
    expected = _toeplitz_gather(hurst, mesh)
    increments = increment_ensemble(sampler_cls(hurst, mesh), paths, seed)
    if band_rows is None:
        empirical = empirical_covariance(increments)
        assert np.array_equal(empirical, empirical.T)  # so lag -k repeats lag k
    else:
        x = increments.T
        empirical = np.full((steps, steps), np.nan)
        for top in range(0, steps, band_rows):
            empirical[top : top + band_rows, top:] = x[top : top + band_rows] @ x[top:].T / paths
    z = np.abs(empirical - expected) / covariance_stderr(expected, paths)
    index = np.arange(steps)
    lags = index[None, :] - index[:, None]
    upper = lags >= 0
    by_lag = np.argsort(lags[upper], kind="stable")
    empirical_by_lag, z_by_lag = empirical[upper][by_lag], z[upper][by_lag]
    counts = steps - index  # n - k entries at lag k
    ends = np.cumsum(counts)
    points = tuple(
        (lag, float(expected[0, lag]), float(np.cumsum(empirical_by_lag[start:end])[-1] / (end - start)),
         float(z_by_lag[start:end].max()))
        for lag, (start, end) in enumerate(zip(ends - counts, ends))
    )
    return points, float(z[upper].max())


@given(hurst=hursts, steps=st.integers(1, 200), paths=st.integers(1, 60),
       sampler_cls=st.sampled_from([CholeskySampler, CirculantSampler]),
       seed=st.integers(0, 2**32 - 1))
def test_covariance_check_matches_the_full_matrix_oracle(hurst, steps, paths, sampler_cls, seed):
    with mock.patch("mvfbm.study.CirculantSampler", sampler_cls):  # the audit of this sampler's draws
        report = covariance_check(hurst, steps, paths, seed)
    points, max_abs_z = _covariance_check_oracle(hurst, steps, paths, seed, sampler_cls)
    assert repr(report.points) == repr(points)
    assert repr(report.max_abs_z) == repr(max_abs_z)


@given(hurst=hursts, steps=st.integers(3, 200), paths=st.integers(1, 60), bands=st.integers(3, 8),
       seed=st.integers(0, 2**32 - 1))
def test_covariance_check_in_row_bands_matches_the_oracle(hurst, steps, paths, bands, seed):
    rows = max(1, steps // bands)
    assert -(-steps // rows) >= 3  # bands of moments
    with mock.patch("mvfbm.study._MOMENT_BAND_BYTES", 8 * steps * rows):
        report = covariance_check(hurst, steps, paths, seed)
    points, max_abs_z = _covariance_check_oracle(hurst, steps, paths, seed, CirculantSampler, rows)
    assert repr(report.points) == repr(points)
    assert repr(report.max_abs_z) == repr(max_abs_z)


@given(hurst=st.floats(0.01, 0.99), steps=st.integers(1, 300), horizon=st.floats(0.1, 10.0))
def test_increment_covariance_is_gamma_at_the_index_distance(hurst, steps, horizon):
    mesh = UniformMesh(horizon, steps)
    cov = increment_covariance_matrix(hurst, mesh)
    assert cov.flags.c_contiguous and cov.flags.writeable
    assert cov.tobytes() == _toeplitz_gather(hurst, mesh).tobytes()


@given(batch=st.one_of(st.none(), st.integers(1, 4)), atoms=st.integers(1, 300),
       dimension=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_barycenter_is_ndarray_mean_computed_once(batch, atoms, dimension, seed):
    rng = np.random.default_rng(seed)
    shape = (atoms, dimension) if batch is None else (batch, atoms, dimension)
    # magnitudes spread over 16 decades, so another summation order changes bits
    positions = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    mu = EmpiricalMeasure(positions)
    mean = mu.mean()
    assert mean.tobytes() == positions.mean(axis=-2, keepdims=True).tobytes()
    assert mean.shape == shape[:-2] + (1, dimension)
    assert mu.mean() is mean
    assert not mean.flags.writeable


THETAS = (2.0, 8.0, 64.0, 400.0, 1e300)


@given(inner=st.lists(st.floats(1e-3, 1e3), max_size=38))
def test_distances_stay_finite_and_grow_with_theta(inner):
    # gaps from 1e-3 to 1e3, both ends present: gaps^theta underflows and overflows at
    # theta = 400, and W_theta grows by far more than rounding between consecutive orders
    gaps = np.sort(np.array([1e-3, *inner, 1e3]))
    mu, origin = EmpiricalMeasure(gaps[:, None]), EmpiricalMeasure(np.zeros((len(gaps), 1)))
    for distance in (wasserstein_1d_exact, coupled_upper_bound):
        values = [distance(mu, origin, theta) for theta in THETAS]
        assert all(0.0 < value < np.inf for value in values)
        assert values == sorted(values)
        for theta, value in zip(THETAS, values):
            with np.errstate(over="ignore"):
                mean = np.mean(gaps**theta)
            if np.finfo(float).tiny <= mean < np.inf:  # the plain formula is representable
                assert value == float(mean ** (1.0 / theta))


@st.composite
def nested_ladder_runs(draw):
    """A batch on a mesh of 8 to 64 steps, a nested ladder of one to three
    coarse factors on it, and a snapshot policy, for every diffusion kind.
    An optional cubic drift makes explicit Euler unstable on a mesh whose
    delta cubic x^2 exceeds about 2; its stiffness, that product on the
    finest mesh at x the initial spread, spans the ladder, so that some
    ladders blow up on coarse meshes alone and some on the finest too."""
    length = draw(st.integers(1, 3))
    steps = draw(st.integers(8, 64).filter(lambda n: nested_ladders(n, range(length, length + 1))))
    mesh = UniformMesh(draw(st.floats(0.25, 4.0)), steps)
    spread = draw(st.sampled_from([0.25, 1.0, 4.0]))
    stiffness = draw(st.sampled_from([0.0, 0.5, 2.0, 8.0, 32.0]))
    kind = draw(st.sampled_from(["constant", "measure", "state-measure"]))
    model = noisy_model(kind, draw(st.integers(1, 2)), spread, stiffness / (mesh.delta * spread**2))
    first = draw(st.integers(0, 5))
    config = SimulationConfig(
        model, draw(st.floats(0.05 if kind == "constant" else 0.5, 0.95)), mesh,
        draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1)),
        replications=range(first, first + draw(st.integers(1, 3))),
    )
    ladder = draw(st.sampled_from(nested_ladders(steps, range(length, length + 1))))
    return config, ladder, draw(st.sampled_from(SNAPSHOT_POLICIES))


def _ladder_outcome(ladder, config, factors, policy):
    """Each mesh's record as bytes, or the blow-up's fields."""
    try:
        records = ladder(config, factors, snapshots=policy)
    except NumericalBlowup as blowup:
        return blowup.mesh_steps, blowup.step, blowup.replication, blowup.particle
    return {factor: (record.mesh, record.snapshot_indices, [s.tobytes() for s in record.snapshots])
            for factor, record in records.items()}


@given(case=nested_ladder_runs())
def test_one_pass_over_a_nested_ladder_is_the_per_mesh_oracle(case):
    assert _ladder_outcome(run_coupled_meshes, *case) == _ladder_outcome(per_mesh_ladder, *case)
