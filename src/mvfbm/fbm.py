"""Exact fractional Brownian motion increments on uniform meshes.

A fractional Brownian motion with Hurst index H in (0, 1) is the centered
Gaussian process with covariance

    R_H(t, s) = (t^{2H} + s^{2H} - |t - s|^{2H}) / 2,

so increments over a uniform mesh of width ``delta`` form a stationary
Gaussian sequence (fractional Gaussian noise) with autocovariance

    gamma(k) = delta^{2H} * ((k+1)^{2H} - 2 k^{2H} + |k-1|^{2H}) / 2.

Davies-Harte circulant embedding (``CirculantSampler``, O(n log n); see
Dieker 2004) draws every driver: ``make_sampler`` hands out the memoized
sampler of (H, mesh).  ``CholeskySampler`` factors the dense increment
covariance in O(n^3); it is the reference implementation that the tests
compare the circulant sampler against, and no run uses it.

Both draw from :class:`~mvfbm.streams.StreamKey` addresses, one independent
stream per path component, and are deterministic given (H, mesh, d, stream).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .streams import StreamKey

__all__ = [
    "HurstParameter",
    "UniformMesh",
    "increment_covariance_matrix",
    "CholeskySampler",
    "CirculantSampler",
    "CovarianceFactorizationError",
    "CirculantEmbeddingError",
    "make_sampler",
    "block_sums",
]

# Relative tolerance below which a negative circulant eigenvalue is treated
# as round-off and clamped to zero.  The minimal embedding of fGn is
# nonnegative definite for every H (Dietrich & Newsam 1997), so anything
# larger is a defect and fails hard: clamping it would bias the law.
_EIGENVALUE_ROUNDOFF = 1e-10

# Bytes of complex modes one Davies-Harte FFT block may hold (63 paths at
# n = 1024, 15 at n = 4096).  Bounds the mode and output work arrays however
# many paths a call draws; row r's variates do not depend on which rows
# share its block.
_FFT_BLOCK_BYTES = 2**20


@dataclass(frozen=True)
class HurstParameter:
    """Validated Hurst index, H strictly inside (0, 1)."""

    value: float

    def __post_init__(self) -> None:
        if not (0.0 < self.value < 1.0):
            raise ValueError(f"Hurst parameter must lie in (0, 1), got {self.value}")

    @classmethod
    def coerce(cls, value: "float | HurstParameter") -> "HurstParameter":
        if isinstance(value, HurstParameter):
            return value
        return cls(float(value))


@dataclass(frozen=True)
class UniformMesh:
    """Uniform time mesh 0 = t_0 < t_1 < ... < t_n = T with t_k = k * delta."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"mesh horizon must be positive and finite, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"mesh must have at least one step, got {self.steps}")

    @property
    def delta(self) -> float:
        return self.horizon / self.steps

    def node(self, k: int) -> float:
        return k * self.delta

    def coarsen(self, factor: int) -> "UniformMesh":
        if factor < 1 or self.steps % factor != 0:
            raise ValueError(
                f"coarsening factor {factor} does not divide {self.steps} mesh steps"
            )
        return UniformMesh(self.horizon, self.steps // factor)


def _fgn_autocovariance(hurst: HurstParameter, delta: float, lags: np.ndarray) -> np.ndarray:
    """gamma(k) for increment lags k >= 0, in units of delta^{2H}."""
    two_h = 2.0 * hurst.value
    k = np.asarray(lags, dtype=float)
    return 0.5 * delta**two_h * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)


def increment_covariance_matrix(hurst: "float | HurstParameter", mesh: UniformMesh) -> np.ndarray:
    """Exact covariance of the n mesh increments (symmetric Toeplitz, n x n)."""
    h = HurstParameter.coerce(hurst)
    n = mesh.steps
    gamma = _fgn_autocovariance(h, mesh.delta, np.arange(n))
    # window n - 1 - i of gamma[n-1], .., gamma[1], gamma[0], .., gamma[n-1] is row i
    mirrored = np.concatenate([gamma[::-1], gamma[1:]])
    return np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1].copy()


class CovarianceFactorizationError(RuntimeError):
    """Dense increment covariance was not numerically positive definite."""


class CirculantEmbeddingError(RuntimeError):
    """Circulant embedding had an eigenvalue negative beyond round-off."""


class CholeskySampler:
    """Exact fBm increment sampler via dense Cholesky factorization.

    Setup is O(n^3).  The reference implementation the tests check the
    circulant sampler against, for moderate meshes; no run uses it.
    """

    def __init__(self, hurst: "float | HurstParameter", mesh: UniformMesh) -> None:
        self.hurst = HurstParameter.coerce(hurst)
        self.mesh = mesh
        cov = increment_covariance_matrix(self.hurst, mesh)
        try:
            self._factor = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise CovarianceFactorizationError(
                f"increment covariance not numerically PSD for H={self.hurst.value}, "
                f"n={mesh.steps}"
            ) from exc

    def sample_ensemble(self, dimension: int, streams: Sequence[StreamKey]) -> np.ndarray:
        """Increments of one path per stream, shape (len(streams), n, d).

        Component j of a path draws n normals from its stream's child(j).
        """
        n = self.mesh.steps
        z = np.empty((len(streams), dimension, n))
        for p, stream in enumerate(streams):
            for j in range(dimension):
                z[p, j] = stream.child(j).generator().standard_normal(n)
        return np.einsum("kn,pjn->pkj", self._factor, z)


class CirculantSampler:
    """Exact fBm increment sampler via Davies-Harte circulant embedding.

    The length-n stationary increment sequence is embedded in a circulant of
    size 2m with m = n.  That minimal embedding is nonnegative definite for
    every H (Dietrich & Newsam 1997): eigenvalues negative only at round-off
    scale are clamped to zero, and a larger one raises
    CirculantEmbeddingError.
    """

    def __init__(self, hurst: "float | HurstParameter", mesh: UniformMesh) -> None:
        self.hurst = HurstParameter.coerce(hurst)
        self.mesh = mesh
        self._half_size = mesh.steps
        eigenvalues = _embedding_eigenvalues(self.hurst, mesh)
        if eigenvalues.min() < -_EIGENVALUE_ROUNDOFF * eigenvalues.max():
            raise CirculantEmbeddingError(
                f"circulant embedding not PSD for H={self.hurst.value}, n={mesh.steps}: "
                f"eigenvalue {eigenvalues.min():.3e} contradicts the nonnegative minimal "
                "embedding of Dietrich & Newsam (1997): a defect in the eigenvalue computation"
            )
        self._sqrt_eigenvalues = np.sqrt(np.clip(eigenvalues, 0.0, None))  # modes 0..m

    def sample_ensemble(self, dimension: int, streams: Sequence[StreamKey],
                        *, out: "np.ndarray | None" = None) -> np.ndarray:
        """Increments of one path per stream, shape (len(streams), n, d).

        Component j of a path draws 2m normals z from its stream's child(j):
        z[0] and z[1] feed the two real Fourier modes (frequencies 0 and m),
        z[2k] and z[2k+1] the real and imaginary parts of mode k, 0 < k < m.
        ``out``, if given, is a (len(streams), n, d) array, possibly a
        strided view, that receives the increments and is returned.  The
        FFT runs over blocks of rows of a fixed byte size, so its work arrays
        stay small however many paths are drawn.

        The normals land in the float view of the m+1 complex modes, where
        only z[1] has to move.  Scaled and conjugated they are the Hermitian
        half of the spectrum w of the classical fft(w).real / sqrt(2m), so
        an unnormalized irfft of the half gives the same variates.
        """
        m = self._half_size
        if out is None:
            out = np.empty((len(streams), self.mesh.steps, dimension))
        scale = self._mode_scale()
        rows = max(1, _FFT_BLOCK_BYTES // (16 * (m + 1)))
        for start in range(0, len(streams), rows):
            block = streams[start : start + rows]
            modes = np.empty((len(block), m + 1), dtype=complex)
            parts = modes.view(float)  # (rows, 2m + 2): re/im of mode 0, 1, .., m
            for j in range(dimension):
                for p, stream in enumerate(block):
                    stream.child(j).generator().standard_normal(2 * m, out=parts[p, : 2 * m])
                parts[:, 2 * m] = parts[:, 1]
                parts[:, 1] = parts[:, 2 * m + 1] = 0.0
                parts *= scale
                fgn = np.fft.irfft(modes, n=2 * m, axis=1, norm="forward")
                out[start : start + len(block), :, j] = fgn[:, : self.mesh.steps]
        return out

    def _mode_scale(self) -> np.ndarray:
        """Per-part factors of the interleaved modes: sqrt(lambda_k / 2m), with
        an extra 1/sqrt(2) and the conjugating sign on modes 1..m-1."""
        m = self._half_size
        amplitude = self._sqrt_eigenvalues / np.sqrt(2.0 * m)
        scale = np.zeros(2 * m + 2)
        scale[0::2] = amplitude
        scale[2 : 2 * m : 2] /= np.sqrt(2.0)
        scale[3 : 2 * m : 2] = -scale[2 : 2 * m : 2]
        return scale


def _embedding_eigenvalues(hurst: HurstParameter, mesh: UniformMesh) -> np.ndarray:
    """Eigenvalues of modes 0..m of the size-2m circulant embedding of the
    mesh's fGn autocovariance (m = n)."""
    gamma = _fgn_autocovariance(hurst, mesh.delta, np.arange(mesh.steps + 1))
    first_row = np.concatenate([gamma, gamma[-2:0:-1]])  # length 2m, symmetric
    return np.fft.rfft(first_row).real


@functools.lru_cache(maxsize=4)
def make_sampler(hurst: "float | HurstParameter", mesh: UniformMesh) -> CirculantSampler:
    """The driver sampler of (H, mesh).  Samplers are immutable, so the four
    most recently asked for are kept and handed out again."""
    return CirculantSampler(hurst, mesh)


def block_sums(increments: np.ndarray, factor: int) -> np.ndarray:
    """Sums of consecutive blocks of ``factor`` rows, each added left to right.

    Row k is ((x[k*f] + x[k*f+1]) + ...) + x[k*f+f-1], element by element,
    so its bits do not depend on the other axes' sizes.
    """
    blocks = increments.reshape(increments.shape[0] // factor, factor, *increments.shape[1:])
    out = blocks[:, 0].copy()
    for k in range(1, factor):
        out += blocks[:, k]
    return out

