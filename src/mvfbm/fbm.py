"""Exact fractional Brownian motion increments on uniform meshes.

A fractional Brownian motion with Hurst index H in (0, 1) is the centered
Gaussian process with covariance

    R_H(t, s) = (t^{2H} + s^{2H} - |t - s|^{2H}) / 2,

so increments over a uniform mesh of width ``delta`` form a stationary
Gaussian sequence (fractional Gaussian noise) with autocovariance

    gamma(k) = delta^{2H} * ((k+1)^{2H} - 2 k^{2H} + |k-1|^{2H}) / 2.

Davies-Harte circulant embedding (``CirculantSampler``, O(n log n); see
Dieker 2004) draws every driver, from a sampler built where it draws: setup
is one size-2n FFT.  ``CholeskySampler`` factors the dense increment
covariance in O(n^3); it is the reference implementation that the tests
compare the circulant sampler against, and no run uses it.

The Hurst index H is a plain float: :func:`check_hurst` converts it and
rejects it outside (0, 1) where every covariance starts, in
``_fgn_autocovariance``, and where it enters a simulation config, a model
check or a covariance audit.  A count, such as a mesh's steps, is a plain
int the same way: :func:`check_count` takes it by ``operator.index`` and
rejects it below its minimum.

Both draw from :class:`~mvfbm.streams.StreamKey` addresses, one independent
stream per path component, and are deterministic given (H, mesh, d, stream).
A call's paths are one :class:`~mvfbm.streams.StreamArray`, a root key and
one index row per path, and both return the call's increments step-major,
(n, paths, d): entry k holds step k of every path, the array the simulator
steps through.  The circulant sampler seeds all streams of a call
in one vectorized pass, bit-identical to ``StreamKey.generator()``.  It
deals its FFT blocks to one lane per usable core of the process that calls
it: the calling thread draws lane 0, and a plain ``threading`` thread each
other lane.  Their normal draws overlap only in long calls: each path's
draw is a short call between interpreter-lock hand-offs.  Each path's
variates do not depend on which thread or block computes them, so the
thread count never changes a bit.

Only the finest mesh of a nested ladder is drawn: the simulator steps each
coarse mesh on left-to-right sums of blocks of the fine increments, which it
adds up as it passes them, so no coarse driver array is built.
"""

from __future__ import annotations

import math
import operator
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .streams import StreamArray, child_seed_words, seeded_generator

__all__ = [
    "check_count",
    "check_hurst",
    "UniformMesh",
    "increment_covariance_matrix",
    "CholeskySampler",
    "CirculantSampler",
    "CovarianceFactorizationError",
    "CirculantEmbeddingError",
]

# Relative tolerance below which a negative circulant eigenvalue is treated
# as round-off and clamped to zero.  The minimal embedding of fGn is
# nonnegative definite for every H (Dietrich & Newsam 1997), so anything
# larger is a defect and fails hard: clamping it would bias the law.
_EIGENVALUE_ROUNDOFF = 1e-10

# Bytes of complex modes that the FFT blocks of one sampler call may hold
# together; each of its t threads works on blocks of 1/t of this budget.
# Bounds the mode and output work arrays however many paths a call draws;
# row r's variates do not depend on which rows share its block.
_FFT_BLOCK_BYTES = 2**20


def usable_cores() -> int:
    """The cores this process may run on (its CPU affinity, where the
    platform reports one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_hurst(hurst: float) -> float:
    """H as a plain float, strictly inside (0, 1).  The conversion keeps a
    numpy scalar from reaching a report, whose CSV would write its repr."""
    try:
        h = float(hurst)
    except (TypeError, ValueError):
        raise ArgumentError(f"Hurst parameter must lie in (0, 1), got {hurst!r}") from None
    if not 0.0 < h < 1.0:
        raise ArgumentError(f"Hurst parameter must lie in (0, 1), got {h}")
    return h


def check_count(value: int, name: str, least: int = 1) -> int:
    """``value`` as a Python int >= ``least``, by ``operator.index`` as a stream key
    takes its seed: a float or a string count raises ArgumentError, never truncated."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ArgumentError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise ArgumentError(f"{name} must be >= {least}, got {count}")
    return count


@dataclass(frozen=True)
class UniformMesh:
    """Uniform time mesh 0 = t_0 < t_1 < ... < t_n = T with t_k = k * delta."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", check_count(self.steps, "mesh steps"))
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ArgumentError(f"mesh horizon must be positive and finite, got {self.horizon}")
        if 16 * (self.steps + 1) > sys.maxsize:  # numpy cannot size the sampler's 2n + 2 modes
            raise ArgumentError(f"a mesh of {self.steps} steps is too large for numpy's arrays")

    @property
    def delta(self) -> float:
        return self.horizon / self.steps

    def node(self, k: int) -> float:
        return k * self.delta

    def coarsen(self, factor: int) -> "UniformMesh":
        factor = check_count(factor, "coarsening factor")
        if self.steps % factor != 0:
            raise ArgumentError(f"coarsening factor {factor} does not divide {self.steps} mesh steps")
        return UniformMesh(self.horizon, self.steps // factor)


def _fgn_autocovariance(hurst: float, delta: float, lags: np.ndarray) -> np.ndarray:
    """gamma(k) for increment lags k >= 0, in units of delta^{2H}.

    Every driver and every covariance starts here, so this is where a mesh
    whose increment variance delta^{2H} overflows a float, or underflows to
    zero or a subnormal float, or an H outside (0, 1), is rejected."""
    h = check_hurst(hurst)
    two_h = 2.0 * h
    try:
        variance = float(delta) ** two_h
    except OverflowError:
        variance = math.inf
    if not sys.float_info.min <= variance < math.inf:
        flow = "overflows" if variance > 1.0 else "underflows"
        raise CirculantEmbeddingError(
            f"fGn variance delta^(2H) {flow} a float for delta={delta:g}, H={h}"
        )
    k = np.asarray(lags, dtype=float)
    return 0.5 * variance * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)


def increment_covariance_matrix(hurst: float, mesh: UniformMesh) -> np.ndarray:
    """Exact covariance of the n mesh increments (symmetric Toeplitz, n x n)."""
    n = mesh.steps
    gamma = _fgn_autocovariance(hurst, mesh.delta, np.arange(n))
    # window n - 1 - i of gamma[n-1], .., gamma[1], gamma[0], .., gamma[n-1] is row i
    mirrored = np.concatenate([gamma[::-1], gamma[1:]])
    return np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1].copy()


class CovarianceFactorizationError(RuntimeError):
    """Dense increment covariance was not numerically positive definite."""


class CirculantEmbeddingError(RuntimeError):
    """The mesh's fGn covariance cannot be embedded: its variance leaves the
    normal float range, or the circulant has an eigenvalue negative beyond
    round-off."""


class CholeskySampler:
    """Exact fBm increment sampler via dense Cholesky factorization.

    Setup is O(n^3).  The reference implementation the tests check the
    circulant sampler against, for moderate meshes; no run uses it.
    """

    def __init__(self, hurst: float, mesh: UniformMesh) -> None:
        self.mesh = mesh
        cov = increment_covariance_matrix(hurst, mesh)
        try:
            self._factor = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise CovarianceFactorizationError(
                f"increment covariance not numerically PSD for H={float(hurst)}, "
                f"n={mesh.steps}"
            ) from exc

    def sample_ensemble(self, dimension: int, streams: StreamArray) -> np.ndarray:
        """Increments of one path per row of ``streams``, step-major: shape
        (n, len(streams), d), as the circulant sampler returns them.

        Component j of row r draws n normals from ``streams.root.child(*r, j).generator()``.
        """
        n = self.mesh.steps
        z = np.empty((len(streams), dimension, n))
        for p, row in enumerate(streams.index.tolist()):
            for j in range(dimension):
                z[p, j] = streams.root.child(*row, j).generator().standard_normal(n)
        return np.einsum("kn,pjn->kpj", self._factor, z)


class CirculantSampler:
    """Exact fBm increment sampler via Davies-Harte circulant embedding.

    The length-n stationary increment sequence is embedded in a circulant of
    size 2m with m = n.  That minimal embedding is nonnegative definite for
    every H (Dietrich & Newsam 1997): eigenvalues negative only at round-off
    scale are clamped to zero, and a larger one raises
    CirculantEmbeddingError.
    """

    def __init__(self, hurst: float, mesh: UniformMesh) -> None:
        self.mesh = mesh
        self._half_size = mesh.steps
        eigenvalues = _embedding_eigenvalues(hurst, mesh)
        if eigenvalues.min() < -_EIGENVALUE_ROUNDOFF * eigenvalues.max():
            raise CirculantEmbeddingError(
                f"circulant embedding not PSD for H={float(hurst)}, n={mesh.steps}: "
                f"eigenvalue {eigenvalues.min():.3e} contradicts the nonnegative minimal "
                "embedding of Dietrich & Newsam (1997): a defect in the eigenvalue computation"
            )
        # per-part factors of the interleaved modes 0..m: sqrt(lambda_k / 2m), with
        # an extra 1/sqrt(2) and the conjugating sign on modes 1..m-1
        m = self._half_size
        scale = np.zeros(2 * m + 2)
        scale[0::2] = np.sqrt(np.clip(eigenvalues, 0.0, None)) / np.sqrt(2.0 * m)
        scale[2 : 2 * m : 2] /= np.sqrt(2.0)
        scale[3 : 2 * m : 2] = -scale[2 : 2 * m : 2]
        self._scale = scale

    def sample_ensemble(self, dimension: int, streams: StreamArray) -> np.ndarray:
        """Increments of one path per row of ``streams``, step-major: shape
        (n, len(streams), d), the layout a stepping loop walks one step at a time.

        Component j of row r draws 2m normals z from ``streams.root.child(*r, j)``:
        z[0] and z[1] feed the two real Fourier modes (frequencies 0 and m),
        z[2k] and z[2k+1] the real and imaginary parts of mode k, 0 < k < m.
        The streams of the call are seeded by ``child_seed_words``, bit-identical
        to ``streams.root.child(*r, j).generator()``, and each generator is
        built just before its draw.
        The FFT runs over blocks of paths whose work arrays share a fixed byte
        budget, so they stay small however many paths are drawn; each block
        is written transposed into its paths' columns of the result.
        The blocks are dealt round-robin to up to ``usable_cores()`` lanes:
        the caller draws lane 0 and a helper thread each other lane, so one
        lane starts no thread.  The caller joins every helper it started,
        then raises lane 0's failure, else the first failed helper's.

        The normals land in the float view of the m+1 complex modes, where
        only z[1] has to move.  Scaled and conjugated they are the Hermitian
        half of the spectrum w of the classical fft(w).real / sqrt(2m), so
        an unnormalized irfft of the half gives the same variates.
        """
        m, n = self._half_size, self.mesh.steps
        out = np.empty((n, len(streams), dimension))
        threads = usable_cores()
        seeds = child_seed_words(streams, dimension)
        rows = max(1, _FFT_BLOCK_BYTES // threads // (16 * (m + 1)))
        starts = range(0, len(streams), rows)
        lanes = max(1, min(threads, len(starts)))
        # one set of work arrays per thread, allocated here: arrays that the
        # threads allocate come from per-thread malloc arenas and raise peak RSS
        size = min(rows, len(streams))
        buffers = [(np.empty((size, m + 1), dtype=complex), np.empty((size, 2 * m)))
                   for _ in range(lanes)]

        def fill(lane: int) -> None:
            modes, fgn = buffers[lane]
            parts = modes.view(float)  # (rows, 2m + 2): re/im of mode 0, 1, .., m
            for start in starts[lane::lanes]:
                block = seeds[:, start : start + rows]  # (d, k, 4)
                k = block.shape[1]
                for j in range(dimension):
                    for p, words in enumerate(block[j]):
                        seeded_generator(words).standard_normal(2 * m, out=parts[p, : 2 * m])
                    parts[:k, 2 * m] = parts[:k, 1]
                    parts[:k, 1] = parts[:k, 2 * m + 1] = 0.0
                    parts[:k] *= self._scale
                    np.fft.irfft(modes[:k], n=2 * m, axis=1, norm="forward", out=fgn[:k])
                    out[:, start : start + k, j] = fgn[:k, :n].T

        failures: list = [None] * lanes

        def work(lane: int) -> None:
            try:
                fill(lane)
            except BaseException as exc:
                failures[lane] = exc

        helpers = [threading.Thread(target=work, args=(lane,)) for lane in range(1, lanes)]
        try:
            for helper in helpers:
                helper.start()
            fill(0)
        finally:
            for helper in helpers:
                if helper.ident is not None:  # started
                    helper.join()
        for exc in failures:
            if exc is not None:
                raise exc
        return out


def _embedding_eigenvalues(hurst: float, mesh: UniformMesh) -> np.ndarray:
    """Eigenvalues of modes 0..m of the size-2m circulant embedding of the
    mesh's fGn autocovariance (m = n)."""
    gamma = _fgn_autocovariance(hurst, mesh.delta, np.arange(mesh.steps + 1))
    first_row = np.concatenate([gamma, gamma[-2:0:-1]])  # length 2m, symmetric
    return np.fft.rfft(first_row).real

