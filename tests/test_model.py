"""Preset coefficient oracles, regime validation, and the diffusion shape contract."""

import math
import pickle
import re
from functools import partial

import numpy as np
import pytest

from mvfbm.errors import ArgumentError
from mvfbm.measure import EmpiricalMeasure
from mvfbm.model import (
    PRESET_NAMES,
    ConstantDiffusion,
    MeasureDiffusion,
    ModelSpec,
    RegimeViolation,
    StateMeasureDiffusion,
    preset_by_name,
    preset_mean_deviation,
    preset_mean_reverting,
    validate,
)
from mvfbm.streams import StreamKey
from oracles import unstable_cubic, zero_drift

# Every preset by name, and the blow-up fixture that takes the same initial law.
MODELS = {name: partial(preset_by_name, name) for name in PRESET_NAMES}
MODELS["unstable-cubic"] = unstable_cubic


def _measure(*values):
    return EmpiricalMeasure(np.array(values, dtype=float).reshape(-1, 1))


class TestMeanDeviationPreset:
    def test_drift_at_point_mass(self):
        model = preset_mean_deviation()
        # b(1, delta_1) = 2*1 - 1 = 1
        out = model.drift(np.array([[1.0]]), _measure(1.0))
        assert out[0, 0] == pytest.approx(1.0)

    def test_sigma_vanishes_at_the_mean(self):
        model = preset_mean_deviation()
        sigma = model.diffusion.fn(np.array([[2.5]]), _measure(2.5))
        assert sigma.reshape(-1)[0] == 0.0

    def test_all_equal_drift_is_state(self):
        model = preset_mean_deviation()
        states = np.full((4, 1), 3.0)
        out = model.drift(states, EmpiricalMeasure(states))
        assert np.allclose(out, states)  # 2x - x = x

    def test_spread_initial_sampler(self):
        model = preset_mean_deviation(initial=1.0, initial_spread=0.5)
        states = model.initial_states(2000, StreamKey(8).generator())
        assert states.shape == (2000, 1)
        assert abs(states.mean() - 1.0) < 0.05
        assert abs(states.std() - 0.5) < 0.05

    def test_point_initial_default(self):
        states = preset_mean_deviation().initial_states(5, StreamKey(0).generator())
        assert np.array_equal(states, np.ones((5, 1)))


class TestMeanRevertingPreset:
    def test_two_particles_drift_toward_mean(self):
        model = preset_mean_reverting(xi=0.0, rate=1.0)
        states = np.array([[0.0], [2.0]])
        out = model.drift(states, EmpiricalMeasure(states))
        assert np.allclose(out, [[1.0], [-1.0]])

    def test_all_equal_drift_vanishes(self):
        model = preset_mean_reverting(xi=1.0, rate=3.0)
        states = np.full((3, 1), 1.7)
        out = model.drift(states, EmpiricalMeasure(states))
        assert np.allclose(out, 0.0)

    def test_constant_diffusion_matrix(self):
        model = preset_mean_reverting(xi=2.5, rate=1.0)
        assert isinstance(model.diffusion, ConstantDiffusion)
        assert model.diffusion.matrix[0, 0] == 2.5


class TestValidate:
    def test_smooth_regime_accepts_measure_diffusion(self):
        assert validate(preset_mean_deviation(), 0.7) is None

    def test_rough_regime_with_constant(self):
        assert validate(preset_mean_reverting(), 0.3) is None

    def test_rough_regime_rejects_measure_diffusion(self):
        with pytest.raises(RegimeViolation):
            validate(preset_mean_deviation(), 0.3)

    def test_standard_regime_accepts_both(self):
        assert validate(preset_mean_deviation(), 0.5) is None
        assert validate(preset_mean_reverting(), 0.5) is None

    def test_total_over_grid(self):
        # every combination passes or raises RegimeViolation, never another error,
        # and only a non-constant diffusion below H = 1/2 is rejected
        for model in (preset_mean_deviation(), preset_mean_reverting(), unstable_cubic()):
            for h in (0.1, 0.3, 0.5, 0.7, 0.9):
                try:
                    validate(model, h)
                except RegimeViolation:
                    assert h < 0.5 and not isinstance(model.diffusion, ConstantDiffusion)
                else:
                    assert h >= 0.5 or isinstance(model.diffusion, ConstantDiffusion)


def test_state_measure_reduces_to_measure_only():
    """One sigma steps to the same bytes whichever diffusion kind declares it."""
    from mvfbm.simulator import ParticleEnsemble, em_step

    rng = np.random.default_rng(5)
    particles = 4
    for d in (1, 2, 3):
        matrix = rng.standard_normal((d, d))
        kinds = {
            "constant": ConstantDiffusion(matrix),
            "measure": MeasureDiffusion(lambda mu, a=matrix: a),
            "state": StateMeasureDiffusion(
                lambda states, mu, a=matrix: np.broadcast_to(a, states.shape + (a.shape[0],))
            ),
        }
        for replications in (1, 3):
            states = rng.standard_normal((replications * particles, d))
            increments = rng.standard_normal((replications * particles, d))
            stepped = {
                kind: em_step(
                    ParticleEnsemble(states, replications=replications),
                    ModelSpec(kind, d, zero_drift, diffusion, 0.0),
                    0.1,
                    increments,
                ).tobytes()
                for kind, diffusion in kinds.items()
            }
            assert len(set(stepped.values())) == 1, (d, replications)


def test_presets_picklable():
    models = [preset_by_name(name, xi=0.5, rate=2.0, initial=1.5) for name in PRESET_NAMES]
    for model in [*models, unstable_cubic(initial=1.5)]:  # a pool worker must unpickle the fixture
        clone = pickle.loads(pickle.dumps(model))
        states = np.array([[1.0], [2.0]])
        mu = EmpiricalMeasure(states)
        assert np.allclose(clone.drift(states, mu), model.drift(states, mu))


@pytest.mark.parametrize("name", MODELS)
def test_every_preset_takes_the_initial_law(name):
    build, rng = MODELS[name], StreamKey(3).generator()
    point = build(initial=1.5).initial_states(64, rng)
    assert np.array_equal(point, np.full((64, 1), 1.5))
    spread = build(initial=1.5, initial_spread=0.5).initial_states(64, rng)
    assert abs(spread.mean() - 1.5) < 5 * 0.5 / 8 and 0.25 < spread.std() < 1.0
    # a NaN spread once failed both sign tests and became a point mass
    for initial, spread in ((1.0, -0.5), (1.0, math.nan), (1.0, math.inf), (math.nan, 0.0)):
        with pytest.raises(ValueError, match="finite spread >= 0"):
            build(initial=initial, initial_spread=spread)


def test_preset_by_name_unknown():
    for name in ("nope", "unstable-cubic"):  # the blow-up model is a test fixture, not a preset
        message = f"unknown model preset {name!r}; choose from ('mean-deviation', 'mean-reverting')"
        with pytest.raises(ValueError, match=re.escape(message)):
            preset_by_name(name)


@pytest.mark.parametrize("dimension, match", [(0, "must be >= 1, got 0"),
                                              (1.5, "must be an integer, got 1.5")],
                         ids=["zero", "fractional"])
def test_dimension_must_be_positive(dimension, match):
    with pytest.raises(ValueError, match=f"dimension {match}"):
        ModelSpec("empty", dimension, zero_drift, ConstantDiffusion(np.eye(1)), 0.0)


def test_constant_diffusion_must_be_square():
    with pytest.raises(ValueError):
        ConstantDiffusion(np.zeros((2, 3)))


@pytest.mark.parametrize(
    "dimension, diffusion, initial, match",
    [
        (2, ConstantDiffusion(np.eye(2)), [1.0, 2.0, 3.0],
         r"needs an initial value that broadcasts to shape \(2,\), got \[1.0, 2.0, 3.0\]"),
        (2, ConstantDiffusion(np.eye(2)), "origin",
         r"needs an initial value that broadcasts to shape \(2,\), got 'origin'"),
        (1, ConstantDiffusion(np.eye(2)), 0.0, r"needs a 1 x 1 constant diffusion, got shape \(2, 2\)"),
    ],
    ids=["initial-too-long", "initial-not-a-number", "diffusion-too-wide"],
)
def test_model_parts_must_fit_the_dimension(dimension, diffusion, initial, match):
    # rejected when the model is built, before any draw, not inside numpy mid-run
    with pytest.raises(ArgumentError, match=f"model 'misfit' of dimension {dimension} {match}"):
        ModelSpec("misfit", dimension, zero_drift, diffusion, initial)


def test_initial_sampler_shape_checked():
    model = ModelSpec(
        name="bad-init",
        dimension=2,
        drift=zero_drift,
        diffusion=ConstantDiffusion(np.eye(2)),
        initial=lambda rng, count: rng.normal(size=(count, 1)),
    )
    with pytest.raises(ValueError, match="initial sampler"):
        model.initial_states(4, StreamKey(1).generator())
