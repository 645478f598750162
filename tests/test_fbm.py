"""Validation of the exact fBm generators and covariance utilities.

Statistical checks run 10^4 paths and accept deviations up to five
estimated standard errors; hand-computed covariance values are asserted
tightly.
"""

import math
import os
import re
import threading

import numpy as np
import pytest

import mvfbm.fbm
from mvfbm.cli import main
from mvfbm.errors import ArgumentError
from mvfbm.fbm import (
    CirculantEmbeddingError,
    CirculantSampler,
    CholeskySampler,
    CovarianceFactorizationError,
    UniformMesh,
    check_hurst,
    increment_covariance_matrix,
)
from mvfbm.streams import StreamArray, StreamKey, seeded_generator
from oracles import (block_sums, covariance_zscores, increment_ensemble, increment_law_zscores,
                     path_values, two_sample_zscores)

# The runtime sampler and the dense reference it is checked against.
SAMPLERS = {"cholesky": CholeskySampler, "circulant": CirculantSampler}


class TestCheckHurst:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, math.nan])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match=r"Hurst parameter must lie in \(0, 1\)"):
            check_hurst(bad)

    @pytest.mark.parametrize("bad", ["abc", None], ids=["text", "none"])
    def test_not_a_number_rejected(self, bad):
        # float() refuses it: typed as the out-of-range values are, with the value named
        with pytest.raises(ArgumentError, match=re.escape(f"must lie in (0, 1), got {bad!r}")):
            check_hurst(bad)


class TestUniformMesh:
    def test_nodes_and_delta(self):
        mesh = UniformMesh(2.0, 8)
        assert mesh.delta == 0.25
        assert mesh.node(3) == pytest.approx(0.75)
        nodes = np.array([mesh.node(k) for k in range(mesh.steps + 1)])
        assert nodes[0] == 0.0
        assert np.all(np.diff(nodes) > 0)
        assert abs(mesh.delta * mesh.steps - mesh.horizon) <= np.finfo(float).eps * mesh.horizon

    def test_invalid(self):
        with pytest.raises(ValueError):
            UniformMesh(1.0, 0)
        for horizon in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                UniformMesh(horizon, 4)
        with pytest.raises(ValueError):
            UniformMesh(1.0, 8).coarsen(3)

    def test_counts_are_integers(self):
        # a float step count or factor is rejected, not truncated; a numpy integer becomes an int
        for steps in (8.0, 8.5, "8"):
            with pytest.raises(ValueError, match=f"mesh steps must be an integer, got {steps!r}"):
                UniformMesh(1.0, steps)
        with pytest.raises(ValueError, match="coarsening factor must be an integer, got 2.0"):
            UniformMesh(1.0, 8).coarsen(2.0)
        mesh = UniformMesh(1.0, np.int64(8))
        assert type(mesh.steps) is int and mesh == UniformMesh(1.0, 8)


def fbm_covariance(hurst: float, t: float, s: float) -> float:
    """Covariance R_H(t, s) of fBm values at times t, s >= 0: the oracle of
    the increment covariance below."""
    h = check_hurst(hurst)
    if t < 0.0 or s < 0.0:
        raise ValueError(f"times must be nonnegative, got ({t}, {s})")
    two_h = 2.0 * h
    return 0.5 * (t**two_h + s**two_h - abs(t - s) ** two_h)


class TestCovariance:
    def test_brownian_reduces_to_min(self):
        assert fbm_covariance(0.5, 0.3, 0.7) == pytest.approx(0.3, abs=1e-15)

    def test_variance_at_one(self):
        assert fbm_covariance(0.9, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        # (1/2)(2^1.5 + 1 - 1) = sqrt(2)
        assert fbm_covariance(0.75, 2.0, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h, t, s = rng.uniform(0.05, 0.95), rng.uniform(0, 3), rng.uniform(0, 3)
            assert fbm_covariance(h, t, s) == pytest.approx(fbm_covariance(h, s, t), rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            fbm_covariance(0.5, -0.1, 0.2)


class TestIncrementCovarianceMatrix:
    def test_brownian_is_diagonal(self):
        mesh = UniformMesh(1.0, 16)
        cov = increment_covariance_matrix(0.5, mesh)
        assert np.allclose(cov, np.eye(16) * mesh.delta, atol=1e-15)

    def test_single_increment_variance(self):
        mesh = UniformMesh(1.0, 1)
        cov = increment_covariance_matrix(0.8, mesh)
        assert cov.shape == (1, 1)
        assert cov[0, 0] == pytest.approx(1.0, abs=1e-15)  # delta^{2H} with delta = 1

    def test_lag_one_hand_value(self):
        # delta = 1, H = 0.75: (1/2)(2^1.5 - 2)
        cov = increment_covariance_matrix(0.75, UniformMesh(4.0, 4))
        assert cov[0, 1] == pytest.approx(0.5 * (2**1.5 - 2.0), rel=1e-12)

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("steps", [1, 2, 7, 64])
    def test_entries_are_second_differences_of_r_h(self, hurst, steps):
        # Cov(B_{t_{i+1}} - B_{t_i}, B_{t_{j+1}} - B_{t_j}) expanded in R_H; the
        # tolerance is absolute because R_H's cancellation at far lags for
        # small H leaves errors of order 1e-13 times the variance
        mesh = UniformMesh(2.0, steps)
        cov = increment_covariance_matrix(hurst, mesh)
        t = [mesh.node(k) for k in range(steps + 1)]
        r = np.array([[fbm_covariance(hurst, a, b) for b in t] for a in t])
        expected = r[1:, 1:] - r[1:, :-1] - r[:-1, 1:] + r[:-1, :-1]
        assert np.abs(cov - expected).max() <= 1e-11 * cov[0, 0]

    def test_diagonal_and_psd(self):
        for h in (0.2, 0.5, 0.8):
            mesh = UniformMesh(1.0, 32)
            cov = increment_covariance_matrix(h, mesh)
            assert np.allclose(np.diag(cov), mesh.delta ** (2 * h))
            assert np.allclose(cov, cov.T)
            eigenvalues = np.linalg.eigvalsh(cov)
            assert eigenvalues.min() >= -1e-12 * eigenvalues.max()


def _path(sampler_cls, hurst: float, mesh: UniformMesh, dimension: int, stream: StreamKey) -> np.ndarray:
    """Increments (steps, d) of one path drawn from ``stream`` through sample_ensemble."""
    one_path = StreamArray(stream, np.empty((1, 0), np.int64))  # its one path is the root
    return sampler_cls(hurst, mesh).sample_ensemble(dimension, one_path)[:, 0]


class TestSamplers:
    PATHS = 10_000

    @pytest.mark.parametrize("name", ["cholesky", "circulant"])
    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7, 0.9])
    def test_empirical_covariance_matches(self, name, hurst):
        mesh = UniformMesh(1.0, 64)
        sampler = SAMPLERS[name](hurst, mesh)
        increments = increment_ensemble(sampler, self.PATHS, seed=77)
        z = covariance_zscores(increments, increment_covariance_matrix(hurst, mesh))
        assert z.max() < 5.0, f"covariance deviates {z.max():.2f} standard errors"

    @pytest.mark.parametrize("name", ["cholesky", "circulant"])
    def test_bit_identical_for_same_seed(self, name):
        mesh = UniformMesh(1.0, 128)
        streams = StreamArray(StreamKey(5), np.array([[9]]))
        sampler = SAMPLERS[name](0.8, mesh)
        a = sampler.sample_ensemble(3, streams)
        b = sampler.sample_ensemble(3, streams)
        assert np.array_equal(a, b)

    def test_seed_changes_path(self):
        mesh = UniformMesh(1.0, 64)
        a = _path(CirculantSampler, 0.7, mesh, 1, StreamKey(1))
        b = _path(CirculantSampler, 0.7, mesh, 1, StreamKey(2))
        assert not np.array_equal(a, b)

    def test_components_independent(self):
        # lag-0 cross-correlation between components should vanish
        mesh = UniformMesh(1.0, 16)
        sampler = CirculantSampler(0.7, mesh)
        streams = StreamArray(StreamKey(11), np.arange(4000)[:, None])
        paths = np.swapaxes(sampler.sample_ensemble(2, streams), 0, 1)  # (P, n, 2)
        cross = np.mean(paths[:, :, 0] * paths[:, :, 1], axis=0)
        scale = mesh.delta ** (2 * 0.7)
        # Var(xy) = scale^2 for independent components, so the standard error is exact
        assert np.abs(cross).max() < 5 * scale / math.sqrt(4000)

    def test_lag_one_covariance_hand_value(self):
        # H = 0.8: Cov(dB_0, dB_1)/delta^{2H} = (1/2)(2^{1.6} - 2)
        mesh = UniformMesh(1.0, 8)
        sampler = CholeskySampler(0.8, mesh)
        increments = increment_ensemble(sampler, self.PATHS, seed=77)
        expected = 0.5 * (2**1.6 - 2.0)
        normalized = increments[:, 0] * increments[:, 1] / mesh.delta**1.6
        stderr = normalized.std(ddof=1) / math.sqrt(self.PATHS)
        assert abs(normalized.mean() - expected) < 5 * stderr

    def test_terminal_variance_identity(self):
        # Var(B_T) = T^{2H} through the cumulative sum of circulant increments
        hurst, paths = 0.7, 10_000
        mesh = UniformMesh(1.0, 256)
        sampler = CirculantSampler(hurst, mesh)
        increments = increment_ensemble(sampler, paths, seed=77)
        terminal = increments.sum(axis=1)
        expected = 1.0
        stderr = math.sqrt(2.0 / paths) * expected
        assert abs(np.mean(terminal**2) - expected) < 5 * stderr

    def test_brownian_embedding_is_flat(self):
        mesh = UniformMesh(1.0, 32)
        eigenvalues = mvfbm.fbm._embedding_eigenvalues(0.5, mesh)
        assert np.allclose(eigenvalues, mesh.delta, rtol=1e-10)

    def test_brownian_lag_one_correlation_vanishes(self):
        mesh = UniformMesh(1.0, 64)
        sampler = CirculantSampler(0.5, mesh)
        increments = increment_ensemble(sampler, self.PATHS, seed=77)
        lag1 = np.mean(increments[:, :-1] * increments[:, 1:], axis=0) / mesh.delta
        stderr = 1.0 / math.sqrt(self.PATHS)
        assert np.abs(lag1).max() < 5 * stderr

    def test_cross_sampler_moments_agree(self):
        hurst, paths = 0.7, 10_000
        mesh = UniformMesh(1.0, 32)
        chol = increment_ensemble(CholeskySampler(hurst, mesh), paths, seed=3)
        circ = increment_ensemble(CirculantSampler(hurst, mesh), paths, seed=4)
        mean_z, moment_z = two_sample_zscores(chol, circ, increment_covariance_matrix(hurst, mesh))
        assert mean_z.max() < 5.0 and moment_z.max() < 5.0

    def test_increment_second_moment_law(self):
        # E|B_t - B_s|^2 = |t - s|^{2H} over random node pairs
        rng = np.random.default_rng(123)
        for hurst in (0.3, 0.7):
            mesh = UniformMesh(1.0, 128)
            increments = increment_ensemble(CirculantSampler(hurst, mesh), 10_000, seed=9)
            scores = increment_law_zscores(increments, mesh, hurst, rng)
            assert all(z < 5.0 for _, _, z in scores), scores


class TestCirculantEmbedding:
    SWEEP_STEPS = [*range(1, 65), 100, 127, 128, 129, 1000, 1023, 1024, 1025, 2048, 4095, 4096]

    @pytest.mark.parametrize("hurst", [(2 * i + 1) / 100 for i in range(50)])  # 0.01 .. 0.99
    def test_minimal_embedding_is_nonnegative(self, hurst):
        # Dietrich & Newsam (1997): no H or n needs more than round-off clamping
        for n in self.SWEEP_STEPS:
            eigenvalues = mvfbm.fbm._embedding_eigenvalues(hurst, UniformMesh(1.0, n))
            assert eigenvalues.min() >= -mvfbm.fbm._EIGENVALUE_ROUNDOFF * eigenvalues.max(), n

    def test_negative_eigenvalue_fails_hard(self, monkeypatch, tmp_path, capsys):
        def negative(hurst, mesh):
            eigenvalues = np.ones(mesh.steps + 1)
            eigenvalues[1] = -1e-6
            return eigenvalues

        monkeypatch.setattr(mvfbm.fbm, "_embedding_eigenvalues", negative)
        with pytest.raises(CirculantEmbeddingError, match="not PSD for H=0.7, n=16") as excinfo:
            CirculantSampler(0.7, UniformMesh(1.0, 16))
        assert "Dietrich & Newsam" in str(excinfo.value)
        args = ["--command", "simulate", "--steps", "16", "--particles", "4",
                "--outdir", str(tmp_path)]
        assert main(args) == 1
        assert "numerical failure: circulant embedding not PSD" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_cholesky_factorization_fails_typed(self, monkeypatch):
        def not_positive_definite(matrix):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
        with pytest.raises(CovarianceFactorizationError, match="not numerically PSD for H=0.7, n=16"):
            CholeskySampler(0.7, UniformMesh(1.0, 16))

    def test_overflowing_variance_fails_typed(self):
        # delta^{2H} = (2.5e199)^1.8 is beyond float range; delta^{2H} at H = 0.1 is not
        mesh = UniformMesh(1e200, 4)
        for build in (CirculantSampler, CholeskySampler, increment_covariance_matrix):
            with pytest.raises(CirculantEmbeddingError, match=r"delta=2\.5e\+199, H=0\.9"):
                build(0.9, mesh)
        assert np.isfinite(increment_covariance_matrix(0.1, mesh)).all()

    @pytest.mark.parametrize(
        "horizon,hurst,delta",
        [(1e-300, 0.9, r"2\.5e-301"), (4e-310, 0.5, r"1e-310")],
        ids=["rounds-to-zero", "subnormal"],
    )
    def test_underflowing_variance_fails_typed(self, horizon, hurst, delta):
        # zero drivers, or drivers with a few bits of precision, are no fBm
        mesh = UniformMesh(horizon, 4)
        for build in (CirculantSampler, CholeskySampler, increment_covariance_matrix):
            message = rf"underflows a float for delta={delta}, H={hurst}"
            with pytest.raises(CirculantEmbeddingError, match=message):
                build(hurst, mesh)


class TestThreads:
    """The sampler's threads change no bit and hide no failure.  Every test
    sets the usable cores itself, so it holds whatever cores the host has."""

    STEPS, PATHS = 32, 29  # 29 paths: no block size used here divides them

    def _sample(self, monkeypatch, dimension, threads):
        monkeypatch.setattr(mvfbm.fbm, "usable_cores", lambda: threads)
        sampler = CirculantSampler(0.3, UniformMesh(1.0, self.STEPS))
        streams = StreamArray(StreamKey(2024), np.array([(0, 1, i) for i in range(self.PATHS)]))
        return np.swapaxes(sampler.sample_ensemble(dimension, streams), 0, 1)

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("block_rows", [1, 6, None], ids=["1-row", "6-rows", "default"])
    def test_bytes_independent_of_threads(self, monkeypatch, dimension, block_rows):
        # a 6-row budget splits into blocks of 6, 3 and 2 rows at 1, 2 and 3 threads
        if block_rows is not None:
            monkeypatch.setattr(mvfbm.fbm, "_FFT_BLOCK_BYTES", block_rows * 16 * (self.STEPS + 1))
        before = threading.active_count()
        expected = self._sample(monkeypatch, dimension, threads=1).tobytes()
        for threads in (1, 2, 3):
            assert self._sample(monkeypatch, dimension, threads).tobytes() == expected, threads
        assert threading.active_count() == before  # every call joins its threads

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_each_lane_past_the_first_starts_one_thread(self, monkeypatch, threads):
        # one-row blocks: 29 of them, so each core gets a lane; the caller draws lane 0
        monkeypatch.setattr(mvfbm.fbm, "_FFT_BLOCK_BYTES", threads * 16 * (self.STEPS + 1))
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(mvfbm.fbm.threading, "Thread", Counted)
        self._sample(monkeypatch, 1, threads)
        assert len(started) == threads - 1

    def _fail_in(self, monkeypatch, on_caller):
        """Two lanes of one-row blocks, whose draws fail on the calling thread
        or on the helper; returns the calling thread and the thread of each draw."""
        monkeypatch.setattr(mvfbm.fbm, "_FFT_BLOCK_BYTES", 2 * 16 * (self.STEPS + 1))
        failure = ArithmeticError("raised in a sampler lane")
        caller, drew = threading.current_thread(), []

        def failing(words):
            drew.append(threading.current_thread())
            if (drew[-1] is caller) == on_caller:
                raise failure
            return seeded_generator(words)

        monkeypatch.setattr(mvfbm.fbm, "seeded_generator", failing)
        before = threading.active_count()
        with pytest.raises(ArithmeticError) as raised:
            self._sample(monkeypatch, 1, threads=2)
        assert raised.value is failure
        assert threading.active_count() == before  # no thread is left running
        return caller, drew

    def test_thread_failure_reaches_caller_as_itself(self, monkeypatch):
        caller, drew = self._fail_in(monkeypatch, on_caller=False)
        # lane 0 drew its 15 one-row blocks on the caller while the helper failed
        assert drew.count(caller) == 15 and len(set(drew)) == 2

    def test_caller_lane_failure_reaches_caller_as_itself(self, monkeypatch):
        caller, drew = self._fail_in(monkeypatch, on_caller=True)
        # lane 0 failed on its first draw; the caller joined the helper, which drew its 14 blocks
        assert drew.count(caller) == 1 and len(drew) == 1 + 14

    def test_cores_fall_back_to_the_cpu_count(self, monkeypatch):
        # platforms without CPU affinity report every core the machine has
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for count, cores in ((3, 3), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            assert mvfbm.fbm.usable_cores() == cores


def test_one_lane_starts_no_thread(monkeypatch):
    # 29 paths of 32 steps fill one FFT block, so two cores get one lane too
    sampler = CirculantSampler(0.3, UniformMesh(1.0, 32))
    streams = StreamArray(StreamKey(2024), np.array([(0, 1, i) for i in range(29)]))
    monkeypatch.setattr(mvfbm.fbm, "usable_cores", lambda: 1)
    expected = sampler.sample_ensemble(2, streams).tobytes()

    def refuse(*args, **kwargs):
        raise AssertionError("a sampler call of one lane started a thread")

    monkeypatch.setattr(mvfbm.fbm.threading, "Thread", refuse)
    for cores in (1, 2):
        monkeypatch.setattr(mvfbm.fbm, "usable_cores", lambda: cores)
        assert sampler.sample_ensemble(2, streams).tobytes() == expected


class TestRestriction:
    """The block sums of the coupled-mesh oracle restrict a fine path to a
    coarse mesh; ``TestCoupledMeshes`` checks the simulator against them."""

    def test_factor_one_is_identity(self):
        mesh = UniformMesh(1.0, 16)
        increments = _path(CirculantSampler, 0.6, mesh, 1, StreamKey(0))
        assert mesh.coarsen(1) == mesh
        assert block_sums(increments, 1).tobytes() == increments.tobytes()

    def test_block_sums(self):
        mesh = UniformMesh(1.0, 4)
        increments = np.array([[1.0], [2.0], [4.0], [8.0]])
        coarse_mesh = mesh.coarsen(2)
        assert coarse_mesh.steps == 2
        assert coarse_mesh.delta == pytest.approx(0.5)
        assert np.array_equal(block_sums(increments, 2), np.array([[3.0], [12.0]]))

    def test_same_continuous_path(self):
        increments = _path(CirculantSampler, 0.8, UniformMesh(1.0, 64), 2, StreamKey(21))
        coarse = block_sums(increments, 8)
        fine = path_values(increments)[::8]
        assert np.allclose(path_values(coarse), fine, rtol=1e-12, atol=1e-14)

    def test_terminal_value_preserved(self):
        increments = _path(CholeskySampler, 0.4, UniformMesh(1.0, 32), 1, StreamKey(2))
        coarse = block_sums(increments, 4)
        assert coarse.sum() == pytest.approx(increments.sum(), rel=1e-12, abs=1e-14)

    def test_non_divisor_rejected(self):
        mesh = UniformMesh(1.0, 10)
        increments = _path(CirculantSampler, 0.6, mesh, 1, StreamKey(3))
        with pytest.raises(ValueError):
            mesh.coarsen(4)
        with pytest.raises(ValueError):
            block_sums(increments, 4)
