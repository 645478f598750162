"""Property tests against direct oracles: the covariance audit, the Toeplitz
covariance and the shared barycenter must give the oracle's bits exactly.
The audit is checked on samples of the circulant sampler and of the dense
Cholesky reference sampler.

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
    HurstParameter,
    UniformMesh,
    _fgn_autocovariance,
    increment_covariance_matrix,
)
from mvfbm.measure import EmpiricalMeasure
from mvfbm.streams import StreamKey
from mvfbm.study import covariance_check

hursts = st.floats(0.05, 0.95)


def _toeplitz_gather(hurst: float, mesh: UniformMesh) -> np.ndarray:
    """The increment covariance as gamma gathered at |i - j|, index by index."""
    gamma = _fgn_autocovariance(HurstParameter(hurst), mesh.delta, np.arange(mesh.steps))
    index = np.arange(mesh.steps)
    return gamma[np.abs(index[:, None] - index[None, :])]


def _covariance_check_oracle(hurst, steps, paths, seed, sampler_cls):
    """The audit on full n x n arrays: per-lag mean and max |z|, and the overall max |z|.

    Holds the expected covariance, the standard errors and the z-scores
    entrywise, checks that the empirical matrix is exactly symmetric, and
    groups the flat entries on and above the diagonal by lag j - i with a
    stable argsort, so each lag's entries are summed in row-major order.
    """
    mesh = UniformMesh(1.0, steps)
    expected = _toeplitz_gather(hurst, mesh)
    streams = [StreamKey(seed).child(p) for p in range(paths)]
    generator = sampler_cls(HurstParameter(hurst), mesh)
    increments = generator.sample_ensemble(1, streams)[:, :, 0]
    empirical = increments.T @ increments / paths
    assert np.array_equal(empirical, empirical.T)  # so lag -k repeats lag k
    diag = np.diag(expected)
    stderr = np.sqrt((np.outer(diag, diag) + expected**2) / paths)
    z = np.abs(empirical - expected) / stderr
    index = np.arange(steps)
    lags = index[None, :] - index[:, None]
    upper = lags >= 0
    by_lag = np.argsort(lags[upper], kind="stable")
    empirical_by_lag, z_by_lag = empirical[upper][by_lag], z[upper][by_lag]
    counts = steps - index  # n - k entries at lag k
    ends = np.cumsum(counts)
    points = tuple(
        (lag, float(expected[0, lag]), float(empirical_by_lag[start:end].mean()),
         float(z_by_lag[start:end].max()))
        for lag, (start, end) in enumerate(zip(ends - counts, ends))
    )
    return points, float(z.max())


@given(hurst=hursts, steps=st.integers(1, 200), paths=st.integers(1, 60),
       sampler_cls=st.sampled_from([CholeskySampler, CirculantSampler]),
       seed=st.integers(0, 2**32 - 1))
def test_covariance_check_matches_the_full_matrix_oracle(hurst, steps, paths, sampler_cls, seed):
    with mock.patch("mvfbm.study.make_sampler", sampler_cls):  # the audit of this sampler's draws
        report = covariance_check(hurst, steps, paths, seed)
    points, max_abs_z = _covariance_check_oracle(hurst, steps, paths, seed, sampler_cls)
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
