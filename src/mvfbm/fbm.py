"""Exact fractional Brownian motion increments on uniform meshes.

A fractional Brownian motion with Hurst index H in (0, 1) is the centered
Gaussian process with covariance

    R_H(t, s) = (t^{2H} + s^{2H} - |t - s|^{2H}) / 2,

so increments over a uniform mesh of width ``delta`` form a stationary
Gaussian sequence (fractional Gaussian noise) with autocovariance

    gamma(k) = delta^{2H} * ((k+1)^{2H} - 2 k^{2H} + |k-1|^{2H}) / 2.

Two exact samplers are provided:

* ``CirculantSampler`` -- Davies-Harte circulant embedding, O(n log n);
  the default.  See Dieker (2004) for the classical construction.
* ``CholeskySampler`` -- dense factorization of the increment covariance,
  O(n^3) setup; the cross-validation oracle for moderate n.

Both draw from :class:`~mvfbm.streams.StreamKey` addresses, one independent
stream per path component, and are deterministic given (H, mesh, d, stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .streams import StreamKey

__all__ = [
    "Regime",
    "HurstParameter",
    "UniformMesh",
    "FbmPath",
    "fbm_covariance",
    "increment_covariance_matrix",
    "CholeskySampler",
    "CirculantSampler",
    "CovarianceFactorizationError",
    "CirculantEmbeddingError",
    "generate_path_cholesky",
    "generate_path_circulant",
    "SAMPLERS",
    "make_sampler",
    "restrict_to_coarse",
    "write_path_csv",
]

# Relative tolerance below which a negative circulant eigenvalue is treated
# as round-off and clamped to zero; anything larger triggers a retry with a
# doubled embedding (genuine clamping would bias convergence measurements).
_EIGENVALUE_ROUNDOFF = 1e-10

_MAX_EMBEDDING_DOUBLINGS = 3

# Paths one Davies-Harte FFT transforms at a time.  Bounds the normal and
# complex work arrays at this many rows of 2m entries however many paths a
# call draws; row r's variates do not depend on which rows share its block.
_FFT_BLOCK_ROWS = 64


class Regime:
    """Roughness regime of a Hurst index."""

    ROUGH = "rough"          # H < 1/2
    STANDARD = "standard"    # H = 1/2, ordinary Brownian motion
    SMOOTH = "smooth"        # H > 1/2


@dataclass(frozen=True)
class HurstParameter:
    """Validated Hurst index, H strictly inside (0, 1)."""

    value: float

    def __post_init__(self) -> None:
        if not (0.0 < self.value < 1.0):
            raise ValueError(f"Hurst parameter must lie in (0, 1), got {self.value}")

    @property
    def regime(self) -> str:
        if self.value < 0.5:
            return Regime.ROUGH
        if self.value > 0.5:
            return Regime.SMOOTH
        return Regime.STANDARD

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
        if self.horizon <= 0.0:
            raise ValueError(f"mesh horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"mesh must have at least one step, got {self.steps}")

    @property
    def delta(self) -> float:
        return self.horizon / self.steps

    def node(self, k: int) -> float:
        return k * self.delta

    def nodes(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.delta

    def coarsen(self, factor: int) -> "UniformMesh":
        if factor < 1 or self.steps % factor != 0:
            raise ValueError(
                f"coarsening factor {factor} does not divide {self.steps} mesh steps"
            )
        return UniformMesh(self.horizon, self.steps // factor)


@dataclass(frozen=True)
class FbmPath:
    """One d-dimensional fBm path stored as mesh increments.

    ``increments[k, j]`` is the j-th component increment over [t_k, t_{k+1}].
    Components are mutually independent by construction (one stream each).
    """

    mesh: UniformMesh
    increments: np.ndarray  # shape (steps, dimension)

    def __post_init__(self) -> None:
        if self.increments.ndim != 2:
            raise ValueError("increments must be a (steps, dimension) array")
        if self.increments.shape[0] != self.mesh.steps:
            raise ValueError(
                f"increment rows {self.increments.shape[0]} != mesh steps {self.mesh.steps}"
            )

    @property
    def dimension(self) -> int:
        return self.increments.shape[1]

    def values(self) -> np.ndarray:
        """Cumulative path values at the mesh nodes, (steps + 1, d), B_0 = 0."""
        out = np.empty((self.mesh.steps + 1, self.dimension))
        out[0] = 0.0
        np.cumsum(self.increments, axis=0, out=out[1:])
        return out


def fbm_covariance(hurst: "float | HurstParameter", t: float, s: float) -> float:
    """Covariance R_H(t, s) of fBm values at times t, s >= 0."""
    h = HurstParameter.coerce(hurst).value
    if t < 0.0 or s < 0.0:
        raise ValueError(f"times must be nonnegative, got ({t}, {s})")
    two_h = 2.0 * h
    return 0.5 * (t**two_h + s**two_h - abs(t - s) ** two_h)


def _fgn_autocovariance(hurst: HurstParameter, delta: float, lags: np.ndarray) -> np.ndarray:
    """gamma(k) for increment lags k >= 0, in units of delta^{2H}."""
    two_h = 2.0 * hurst.value
    k = np.asarray(lags, dtype=float)
    return 0.5 * delta**two_h * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)


def increment_covariance_matrix(hurst: "float | HurstParameter", mesh: UniformMesh) -> np.ndarray:
    """Exact covariance of the n mesh increments (symmetric Toeplitz, n x n)."""
    h = HurstParameter.coerce(hurst)
    gamma = _fgn_autocovariance(h, mesh.delta, np.arange(mesh.steps))
    idx = np.arange(mesh.steps)
    return gamma[np.abs(idx[:, None] - idx[None, :])]


class CovarianceFactorizationError(RuntimeError):
    """Dense increment covariance was not numerically positive definite."""


class CirculantEmbeddingError(RuntimeError):
    """Circulant embedding kept negative eigenvalues after all retries."""


class CholeskySampler:
    """Exact fBm increment sampler via dense Cholesky factorization.

    Setup is O(n^3); intended for moderate meshes (n <= 4096 as a guideline)
    and as the statistical oracle for the circulant sampler.
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
                f"n={mesh.steps}; try the circulant sampler"
            ) from exc

    def sample(self, dimension: int, stream: StreamKey) -> FbmPath:
        """One path; component j draws n normals from stream.child(j)."""
        n = self.mesh.steps
        increments = np.empty((n, dimension))
        for j in range(dimension):
            z = stream.child(j).generator().standard_normal(n)
            increments[:, j] = self._factor @ z
        return FbmPath(self.mesh, increments)

    def sample_ensemble(self, dimension: int, streams: Sequence[StreamKey],
                        *, out: "np.ndarray | None" = None) -> np.ndarray:
        """Increments for many paths at once, shape (len(streams), n, d).

        ``out``, if given, is a (len(streams), n, d) array, possibly a
        strided view, that receives the increments and is returned.
        """
        n = self.mesh.steps
        z = np.empty((len(streams), dimension, n))
        for p, stream in enumerate(streams):
            for j in range(dimension):
                z[p, j] = stream.child(j).generator().standard_normal(n)
        increments = np.einsum("kn,pjn->pkj", self._factor, z)
        if out is None:
            return increments
        out[...] = increments
        return out


class CirculantSampler:
    """Exact fBm increment sampler via Davies-Harte circulant embedding.

    The length-n stationary increment sequence is embedded in a circulant of
    size 2m (m >= n).  If the embedding has a genuinely negative eigenvalue
    the size is doubled, up to three times, before failing hard; eigenvalues
    negative only at round-off scale are clamped to zero.
    """

    def __init__(self, hurst: "float | HurstParameter", mesh: UniformMesh) -> None:
        self.hurst = HurstParameter.coerce(hurst)
        self.mesh = mesh
        m = mesh.steps
        for _ in range(_MAX_EMBEDDING_DOUBLINGS + 1):
            eigenvalues = self._embedding_eigenvalues(m)
            floor = -_EIGENVALUE_ROUNDOFF * eigenvalues.max()
            if eigenvalues.min() >= floor:
                self._sqrt_eigenvalues = np.sqrt(np.clip(eigenvalues, 0.0, None))
                self._half_size = m
                return
            m *= 2
        raise CirculantEmbeddingError(
            f"circulant embedding not PSD for H={self.hurst.value}, n={mesh.steps} "
            f"after {_MAX_EMBEDDING_DOUBLINGS} doublings; try the Cholesky sampler"
        )

    def _embedding_eigenvalues(self, m: int) -> np.ndarray:
        gamma = _fgn_autocovariance(self.hurst, self.mesh.delta, np.arange(m + 1))
        first_row = np.concatenate([gamma, gamma[-2:0:-1]])  # length 2m, symmetric
        return np.fft.fft(first_row).real

    def sample(self, dimension: int, stream: StreamKey) -> FbmPath:
        """One path; component j draws 2m normals from stream.child(j)."""
        n = self.mesh.steps
        increments = np.empty((n, dimension))
        for j in range(dimension):
            z = stream.child(j).generator().standard_normal(2 * self._half_size)
            increments[:, j] = self._fgn_from_normals(z[None, :])[0]
        return FbmPath(self.mesh, increments)

    def sample_ensemble(self, dimension: int, streams: Sequence[StreamKey],
                        *, out: "np.ndarray | None" = None) -> np.ndarray:
        """Increments for many paths at once, shape (len(streams), n, d).

        ``out`` is as for CholeskySampler.  The FFT runs over blocks of
        rows, so its work arrays stay small however many paths are drawn.
        """
        size = 2 * self._half_size
        if out is None:
            out = np.empty((len(streams), self.mesh.steps, dimension))
        for start in range(0, len(streams), _FFT_BLOCK_ROWS):
            block = streams[start : start + _FFT_BLOCK_ROWS]
            z = np.empty((len(block), size))
            for j in range(dimension):
                for p, stream in enumerate(block):
                    z[p] = stream.child(j).generator().standard_normal(size)
                out[start : start + len(block), :, j] = self._fgn_from_normals(z)
        return out

    def _fgn_from_normals(self, z: np.ndarray) -> np.ndarray:
        """Map rows of 2m standard normals to rows of n exact fGn variates.

        Draw layout per row: z[0] and z[1] feed the two real Fourier modes
        (frequencies 0 and m); z[2k], z[2k+1] feed the real/imaginary parts
        of mode k for k = 1..m-1.
        """
        m = self._half_size
        size = 2 * m
        w = np.zeros((z.shape[0], size), dtype=complex)
        w[:, 0] = self._sqrt_eigenvalues[0] * z[:, 0]
        w[:, m] = self._sqrt_eigenvalues[m] * z[:, 1]
        scale = self._sqrt_eigenvalues[1:m] / np.sqrt(2.0)
        modes = scale * (z[:, 2::2] + 1j * z[:, 3::2])
        w[:, 1:m] = modes
        w[:, m + 1 :] = np.conj(modes[:, ::-1])
        return np.fft.fft(w, axis=1).real[:, : self.mesh.steps] / np.sqrt(size)


def generate_path_cholesky(
    hurst: "float | HurstParameter", mesh: UniformMesh, dimension: int, stream: StreamKey
) -> FbmPath:
    """One exact path via dense factorization (convenience wrapper)."""
    return CholeskySampler(hurst, mesh).sample(dimension, stream)


def generate_path_circulant(
    hurst: "float | HurstParameter", mesh: UniformMesh, dimension: int, stream: StreamKey
) -> FbmPath:
    """One exact path via circulant embedding (convenience wrapper)."""
    return CirculantSampler(hurst, mesh).sample(dimension, stream)


SAMPLERS = {"circulant": CirculantSampler, "cholesky": CholeskySampler}


def make_sampler(name: str, hurst: "float | HurstParameter", mesh: UniformMesh):
    try:
        factory = SAMPLERS[name]
    except KeyError:
        raise ValueError(f"unknown sampler {name!r}; choose from {sorted(SAMPLERS)}") from None
    return factory(hurst, mesh)


def restrict_to_coarse(path: FbmPath, factor: int) -> FbmPath:
    """Restrict a fine-mesh path to a mesh coarsened by ``factor``.

    Coarse increment k is the left-to-right sum of fine increments
    k*factor .. (k+1)*factor - 1, so the result is the same continuous path
    sampled coarsely (up to floating summation order).
    """
    if factor == 1:
        return path
    coarse_mesh = path.mesh.coarsen(factor)
    cuts = np.arange(0, path.mesh.steps, factor)
    coarse = np.add.reduceat(path.increments, cuts, axis=0)
    return FbmPath(coarse_mesh, coarse)


def write_path_csv(path: FbmPath, out: TextIO) -> None:
    """Dump cumulative path values: header t,component_1..d, one row per node."""
    out.write("# schema_version=1\n")
    header = ",".join(["t"] + [f"component_{j + 1}" for j in range(path.dimension)])
    out.write(header + "\n")
    values = path.values()
    for k, t in enumerate(path.mesh.nodes()):
        row = ",".join([repr(float(t))] + [repr(float(v)) for v in values[k]])
        out.write(row + "\n")
