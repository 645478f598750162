"""Mean-field SDE model specifications and well-posedness validation.

A model is what the Euler scheme reads: a drift b(x, mu), a diffusion
coefficient and an initial condition.  Coefficients are vectorized over
particles and over independent replications: the simulator advances R
replications of N particles at once and passes an (R, N, d) block of
states plus an :class:`~mvfbm.measure.EmpiricalMeasure` holding the R
frozen empirical measures, whose ``mean()`` has shape (R, 1, d) and is one
read-only array that the drift and the diffusion of a step share.  A drift
returns an (R, N, d) block; written with numpy broadcasting against
``mu.mean()``, as the presets are, it works for any R, including the
single-ensemble (1, N, d) case.  Diffusions come in three kinds, and each
``evaluate`` returns sigma in a shape that broadcasts against (R, N, d, d):

* ``ConstantDiffusion`` -- fixed matrix, evaluated as (d, d) (required
  when H < 1/2);
* ``MeasureDiffusion``  -- sigma(mu) -> (d, d) or one (d, d) per
  replication, evaluated as (R or 1, 1, d, d); the baseline form;
* ``StateMeasureDiffusion`` -- sigma(states, mu) -> one (d, d) per
  particle, evaluated as (R, N, d, d); an extension for coefficients that
  read the particle's own state, outside the strict well-posedness
  hypotheses but runnable.

How many replications share one call is an internal memory budget, never
a model property: a coefficient must treat the replications of a block
independently, and then output bytes do not depend on the batch size.
Coefficient callables must be pure and reentrant: the simulator evaluates
them concurrently and relies on them for bitwise reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

import numpy as np

from .errors import ArgumentError
from .fbm import check_count, check_hurst
from .measure import EmpiricalMeasure

__all__ = [
    "ConstantDiffusion",
    "MeasureDiffusion",
    "StateMeasureDiffusion",
    "Diffusion",
    "ModelSpec",
    "RegimeViolation",
    "validate",
    "preset_mean_deviation",
    "preset_mean_reverting",
    "preset_by_name",
    "PRESET_NAMES",
]


@dataclass(frozen=True)
class ConstantDiffusion:
    """sigma identically equal to a constant d x d matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise ArgumentError(f"constant diffusion must be square, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    def evaluate(self, states: np.ndarray, mu: EmpiricalMeasure) -> np.ndarray:
        """sigma as a (d, d) matrix."""
        return self.matrix


@dataclass(frozen=True)
class MeasureDiffusion:
    """sigma(mu) -> (d, d); depends on the empirical measure only."""

    fn: Callable[[EmpiricalMeasure], np.ndarray]

    def evaluate(self, states: np.ndarray, mu: EmpiricalMeasure) -> np.ndarray:
        """sigma(mu) as (R or 1, 1, d, d): one matrix per replication, or one for all."""
        d = states.shape[-1]
        return np.asarray(self.fn(mu), dtype=float).reshape(-1, 1, d, d)


@dataclass(frozen=True)
class StateMeasureDiffusion:
    """sigma(states, mu) -> one (d, d) matrix per particle; per-particle state dependence."""

    fn: Callable[[np.ndarray, EmpiricalMeasure], np.ndarray]

    def evaluate(self, states: np.ndarray, mu: EmpiricalMeasure) -> np.ndarray:
        """sigma(states, mu) as one (d, d) matrix per particle, shape states.shape + (d,)."""
        d = states.shape[-1]
        return np.asarray(self.fn(states, mu), dtype=float).reshape(states.shape + (d,))


Diffusion = Union[ConstantDiffusion, MeasureDiffusion, StateMeasureDiffusion]


@dataclass(frozen=True)
class ModelSpec:
    name: str
    dimension: int
    drift: Callable[[np.ndarray, EmpiricalMeasure], np.ndarray]
    diffusion: Diffusion
    initial: "float | np.ndarray | Callable[[np.random.Generator, int], np.ndarray]"

    def __post_init__(self) -> None:
        """Checks, before any draw, that a constant sigma and a point initial value fit d."""
        d = check_count(self.dimension, "dimension")
        object.__setattr__(self, "dimension", d)
        if isinstance(self.diffusion, ConstantDiffusion) and self.diffusion.matrix.shape != (d, d):
            raise ArgumentError(f"model {self.name!r} of dimension {d} needs a {d} x {d} constant "
                                f"diffusion, got shape {self.diffusion.matrix.shape}")
        if not callable(self.initial):
            try:
                np.broadcast_to(np.asarray(self.initial, dtype=float), (d,))
            except (TypeError, ValueError):
                raise ArgumentError(f"model {self.name!r} of dimension {d} needs an initial value "
                                    f"that broadcasts to shape ({d},), got {self.initial!r}") from None

    def initial_states(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Materialize the initial ensemble as an (count, d) array."""
        if callable(self.initial):
            states = np.asarray(self.initial(rng, count), dtype=float)
            if states.shape != (count, self.dimension):
                raise ArgumentError(
                    f"initial sampler returned shape {states.shape}, expected {(count, self.dimension)}"
                )
            return states
        value = np.broadcast_to(np.asarray(self.initial, dtype=float), (self.dimension,))
        return np.tile(value, (count, 1))


class RegimeViolation(ArgumentError):
    """Model/Hurst combination outside the known well-posedness regimes."""


def validate(model: ModelSpec, hurst: float) -> None:
    """Reject (model, H) outside the known well-posedness regimes.

    Below H = 1/2 well-posedness is only available for constant diffusion;
    a measure- or state-dependent sigma there is rejected.  H = 1/2 and
    H > 1/2 accept every diffusion kind.
    """
    h = check_hurst(hurst)
    if h < 0.5 and not isinstance(model.diffusion, ConstantDiffusion):
        raise RegimeViolation(
            f"H={h} < 1/2 requires a constant diffusion coefficient "
            f"(model {model.name!r} uses {type(model.diffusion).__name__}); "
            "below H=1/2 the solution theory only covers sigma independent of the measure"
        )


# --------------------------------------------------------------------------
# Built-in presets.  Coefficients are module-level functions so ModelSpec
# values stay picklable for process-based replication fan-out.
# --------------------------------------------------------------------------


def _mean_deviation_drift(states: np.ndarray, mu: EmpiricalMeasure) -> np.ndarray:
    # b(x, mu) = x + (x - mean(mu)) = 2x - mean(mu)
    return 2.0 * states - mu.mean()


def _mean_deviation_sigma(states: np.ndarray, mu: EmpiricalMeasure) -> np.ndarray:
    # sigma(x, mu) = x - mean(mu), as a stack of 1x1 matrices
    return (states - mu.mean()).reshape(-1, 1, 1)


def _gaussian_initial(rng: np.random.Generator, count: int, mean: float, spread: float) -> np.ndarray:
    return mean + spread * rng.standard_normal((count, 1))


def _start(initial: float, spread: float) -> "float | Callable[[np.random.Generator, int], np.ndarray]":
    """The point mass at ``initial``, or N(initial, spread^2) when spread > 0."""
    if not (math.isfinite(initial) and math.isfinite(spread) and spread >= 0.0):
        raise ArgumentError(f"initial law needs a finite value and a finite spread >= 0, "
                            f"got initial={initial}, spread={spread}")
    return partial(_gaussian_initial, mean=initial, spread=spread) if spread > 0.0 else initial


def preset_mean_deviation(initial: float = 1.0, initial_spread: float = 0.0) -> ModelSpec:
    """Scalar linear interaction model driven by deviation from the mean.

    Drift 2x - mean(mu); diffusion (x - mean(mu)), a state-and-measure
    coefficient, so a particle sitting at the ensemble mean does not diffuse
    at all.  Both coefficients are exactly linear with Lipschitz constant 2.

    Caution: with the default point-mass initial condition every particle
    starts at the ensemble mean, the diffusion vanishes identically, and the
    whole system collapses to one deterministic Euler recursion.  Set
    ``initial_spread`` > 0 to start from N(initial, spread^2) and get
    genuinely noise-driven dynamics.
    """
    return ModelSpec(
        name="mean-deviation",
        dimension=1,
        drift=_mean_deviation_drift,
        diffusion=StateMeasureDiffusion(_mean_deviation_sigma),
        initial=_start(initial, initial_spread),
    )


def _mean_reverting_drift(states: np.ndarray, mu: EmpiricalMeasure, rate: float) -> np.ndarray:
    return rate * (mu.mean() - states)


def preset_mean_reverting(xi: float = 1.0, rate: float = 1.0, initial: float = 1.0,
                          initial_spread: float = 0.0) -> ModelSpec:
    """Scalar model reverting toward the empirical mean with constant noise.

    Drift rate * (mean(mu) - x), diffusion identically xi; the constant
    diffusion makes this the workhorse for the rough regime H < 1/2.  With
    rate = 0 the scheme integrates X_0 + xi * B^H_t exactly.
    """
    return ModelSpec(
        name="mean-reverting",
        dimension=1,
        drift=partial(_mean_reverting_drift, rate=rate),
        diffusion=ConstantDiffusion(np.array([[xi]])),
        initial=_start(initial, initial_spread),
    )


PRESET_NAMES = ("mean-deviation", "mean-reverting")


def preset_by_name(
    name: str,
    xi: float = 1.0,
    rate: float = 1.0,
    initial: float = 1.0,
    initial_spread: float = 0.0,
) -> ModelSpec:
    """Look up a preset for the CLI; xi and rate apply to mean-reverting only,
    the initial law to every preset."""
    if name == "mean-deviation":
        return preset_mean_deviation(initial, initial_spread)
    if name == "mean-reverting":
        return preset_mean_reverting(xi, rate, initial, initial_spread)
    raise ArgumentError(f"unknown model preset {name!r}; choose from {PRESET_NAMES}")
