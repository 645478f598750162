"""Property tests of the exact driver path: stream seeding, the coarse
increments the simulator steps on, the circulant embedding's covariance and
sampling.

The examples come from the derandomized profile in conftest.py.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given
from hypothesis import strategies as st

import mvfbm.simulator
from mvfbm.fbm import (
    CirculantSampler,
    UniformMesh,
    _embedding_eigenvalues,
    _fgn_autocovariance,
    increment_covariance_matrix,
)
from mvfbm.model import preset_mean_reverting
from mvfbm.simulator import SimulationConfig, _noise_streams, em_step, run_coupled_meshes
from mvfbm.streams import StreamArray, StreamKey
from oracles import assert_array_matches_numpy

hursts = st.floats(0.01, 0.99)

seeds = st.one_of(
    st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**200)
)
indices = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**100))
keys = st.builds(StreamKey, seeds, st.lists(indices, max_size=6).map(tuple))


@st.composite
def stream_arrays(draw):
    """A root of any seed and path, and int64 or uint64 rows of indices below
    2^32; possibly no rows or no columns."""
    dtype = draw(st.sampled_from([np.int64, np.uint64]))
    paths, width = draw(st.integers(0, 8)), draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=width, max_size=width),
                         min_size=paths, max_size=paths))
    return StreamArray(draw(keys), np.array(rows, dtype).reshape(paths, width))


@given(streams=stream_arrays(), components=st.integers(1, 3))
@example(streams=StreamArray(StreamKey(2**130 + 7, (7, 2**40, 0, 2**64 + 1)),
                             np.array([[0, 2**32 - 1, 5], [2**32 - 1, 1, 0], [3, 1, 2]],
                                      np.uint64)),
         components=3)
@example(streams=StreamArray(StreamKey(2**64 - 1, (2**32,)), np.empty((0, 2), np.int64)),
         components=2)  # no rows
@example(streams=StreamArray(StreamKey(0), np.empty((3, 0), np.int64)), components=2)  # no columns
def test_bulk_seeding_is_numpy_seed_sequence(streams, components):
    # seeds and root paths of every size; each row with the component appended
    assert_array_matches_numpy(streams, components)


# the roots a study hands its runs: the master key, chaos's reference child(0)
# and its count-a runs child(1, a)
roots = st.one_of(
    st.builds(StreamKey, seeds),
    st.builds(lambda seed: StreamKey(seed).child(0), seeds),
    st.builds(lambda seed, a: StreamKey(seed).child(1, a), seeds, st.integers(0, 2**40)),
)


@given(root=roots, first=st.integers(0, 2**32 - 3), reps=st.integers(1, 3),
       particles=st.integers(1, 4), components=st.integers(1, 3))
@example(root=StreamKey(7), first=2**32 - 3, reps=3, particles=2, components=2)
def test_array_seeding_is_numpy_seed_sequence(root, first, reps, particles, components):
    # a batch of replications first .. first + reps - 1, which need not start at 0
    config = SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 2), particles, root,
                              range(first, first + reps))
    assert_array_matches_numpy(_noise_streams(config), components)


def _python_block_sums(x: np.ndarray, factor: int) -> np.ndarray:
    """Each coarse entry summed by plain Python float additions, left to right."""
    steps, columns = x.shape
    out = np.empty((steps // factor, columns))
    for k in range(steps // factor):
        for c in range(columns):
            total = float(x[k * factor, c])
            for i in range(1, factor):
                total = total + float(x[k * factor + i, c])
            out[k, c] = total
    return out


def _coarse_increments(drivers: np.ndarray, factor: int) -> np.ndarray:
    """The increments ``em_step`` receives for the mesh of ``factor`` when a
    ladder runs on the given (steps, N) fine drivers, one row per coarse step."""
    steps, particles = drivers.shape
    config = SimulationConfig(preset_mean_reverting(xi=0.0, rate=0.0), 0.5,
                              UniformMesh(1.0, steps), particles, 0)
    reaching = particles * (2 if factor > 1 else 1)  # the calls that step the coarse mesh
    received = []

    def recording_step(ensemble, model, delta, increments):
        if ensemble.states.shape[0] == reaching:
            received.append(increments[-particles:, 0].copy())
        return em_step(ensemble, model, delta, increments)

    with mock.patch.object(mvfbm.simulator, "_drivers", lambda config: drivers[:, :, None]), \
            mock.patch.object(mvfbm.simulator, "em_step", recording_step):
        run_coupled_meshes(config, [factor])
    return np.stack(received)


@given(factor=st.integers(1, 40), blocks=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_restriction_is_a_left_to_right_block_sum(factor, blocks, seed):
    rng = np.random.default_rng(seed)
    steps = factor * blocks
    # magnitudes spread over 16 decades, so any other grouping changes bits
    x = rng.standard_normal((steps, 7)) * 10.0 ** rng.integers(-8, 8, size=(steps, 7))
    expected = _python_block_sums(x, factor)
    for columns in (1, 2, 7):  # particles of the run
        got = _coarse_increments(np.ascontiguousarray(x[:, :columns]), factor)
        assert got.tobytes() == expected[:, :columns].tobytes()


@given(hurst=hursts, steps=st.integers(1, 600))
def test_embedding_spectrum_is_the_exact_increment_covariance(hurst, steps):
    # the circulant's first row, back from its eigenvalues, is the fGn
    # autocovariance at lags 0..n-1: the sampler's law is exact
    mesh = UniformMesh(1.0, steps)
    first_row = np.fft.irfft(_embedding_eigenvalues(hurst, mesh), n=2 * steps)[:steps]
    expected = increment_covariance_matrix(hurst, mesh)[0]
    assert np.abs(first_row - expected).max() <= 1e-12 * expected[0]


def _classical_increments(hurst, mesh, dimension, streams):
    """The Davies-Harte construction as a complex 2m-point FFT (Dieker 2004)."""
    m = mesh.steps
    size = 2 * m
    gamma = _fgn_autocovariance(hurst, mesh.delta, np.arange(m + 1))
    eigenvalues = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    root = np.sqrt(np.clip(eigenvalues, 0.0, None))
    out = np.empty((len(streams), m, dimension))
    for p, row in enumerate(streams.index.tolist()):
        for j in range(dimension):
            z = streams.root.child(*row, j).generator().standard_normal(size)
            w = np.zeros(size, dtype=complex)
            w[0] = root[0] * z[0]
            w[m] = root[m] * z[1]
            modes = root[1:m] / np.sqrt(2.0) * (z[2::2] + 1j * z[3::2])
            w[1:m] = modes
            w[m + 1 :] = np.conj(modes[::-1])
            out[p, :, j] = np.fft.fft(w).real[:m] / np.sqrt(size)
    return out


@given(hurst=hursts, steps=st.integers(1, 600), rows=st.integers(1, 150),
       dimension=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_circulant_matches_the_classical_fft(hurst, steps, rows, dimension, seed):
    mesh = UniformMesh(1.0, steps)
    streams = StreamArray(StreamKey(seed), np.arange(rows)[:, None])
    got = np.swapaxes(CirculantSampler(hurst, mesh).sample_ensemble(dimension, streams), 0, 1)
    expected = _classical_increments(hurst, mesh, dimension, streams)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
