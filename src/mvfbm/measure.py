"""Empirical measures and Wasserstein-type distances.

Only the tools the particle scheme actually needs: the index-coupling
upper bound for equal-size atom clouds, and the exact order-theta distance
in dimension one via sorted quantile matching.  Exact multi-dimensional
optimal transport is deliberately out of scope; callers in d > 1 get the
coupling bound, labeled as such.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EmpiricalMeasure",
    "coupled_upper_bound",
    "wasserstein_1d_exact",
]


class EmpiricalMeasure:
    """N equally weighted atoms in R^d at a fixed time, or a batch of R such measures.

    Wraps an (N, d) position array, or an (R, N, d) array holding R
    independent measures of N atoms each, without copying; treat atoms as
    read-only.  The distances below take single (N, d) measures.
    """

    __slots__ = ("atoms", "_mean")

    def __init__(self, atoms: np.ndarray) -> None:
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim not in (2, 3) or atoms.shape[-2] < 1:
            raise ValueError("atoms must be a nonempty (N, d) or (R, N, d) array")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_mean", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("EmpiricalMeasure is immutable")

    @property
    def size(self) -> int:
        return self.atoms.shape[-2]

    @property
    def dimension(self) -> int:
        return self.atoms.shape[-1]

    def mean(self) -> np.ndarray:
        """Barycenter over the atom axis, shape (1, d) or (R, 1, d).

        Reduced in fixed index order, so each measure of a batch gets the
        same bits as it would alone, and the same bits as ``ndarray.mean``.
        Computed on the first call; every call returns that one read-only
        array, so the coefficients of a step share it.
        """
        if self._mean is None:
            mean = np.add.reduce(self.atoms, axis=-2, keepdims=True) / self.size
            mean.flags.writeable = False
            object.__setattr__(self, "_mean", mean)
        return self._mean


def _check_aligned(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> None:
    if mu.atoms.ndim != 2 or nu.atoms.ndim != 2:
        raise ValueError("distances take one (N, d) measure, not a batch")
    if mu.size != nu.size:
        raise ValueError(f"atom counts differ: {mu.size} vs {nu.size}")
    if mu.dimension != nu.dimension:
        raise ValueError(f"dimensions differ: {mu.dimension} vs {nu.dimension}")


def _theta(order: float) -> float:
    """The transport cost exponent theta, which must be >= 2."""
    theta = float(order)
    if theta < 2.0:
        raise ValueError(f"Wasserstein order must be >= 2, got {theta}")
    return theta


def coupled_upper_bound(
    mu: EmpiricalMeasure, nu: EmpiricalMeasure, order: float = 2.0
) -> float:
    """Upper bound on W_theta(mu, nu) from the identity-index coupling.

    Requires index-aligned atom clouds of equal size; the bound is exact
    whenever the identity pairing happens to be optimal.
    """
    _check_aligned(mu, nu)
    theta = _theta(order)
    gaps = np.linalg.norm(mu.atoms - nu.atoms, axis=1)
    return float(np.mean(gaps**theta) ** (1.0 / theta))


def wasserstein_1d_exact(
    mu: EmpiricalMeasure, nu: EmpiricalMeasure, order: float = 2.0
) -> float:
    """Exact W_theta for equally weighted one-dimensional empirical measures.

    Sorted (quantile) matching is the optimal coupling in d = 1 for convex
    costs; ties are broken by stable sort, which cannot change the cost.
    """
    if mu.dimension != 1 or nu.dimension != 1:
        raise ValueError(
            "exact computation requires d = 1; use coupled_upper_bound in higher dimension"
        )
    _check_aligned(mu, nu)
    theta = _theta(order)
    a = np.sort(mu.atoms[:, 0], kind="stable")
    b = np.sort(nu.atoms[:, 0], kind="stable")
    return float(np.mean(np.abs(a - b) ** theta) ** (1.0 / theta))

