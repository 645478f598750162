"""Preset coefficient oracles, regime validation, and the diffusion shape contract."""

import pickle

import numpy as np
import pytest

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
    preset_unstable_cubic,
    validate,
)
from mvfbm.streams import StreamKey


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
        models = [preset_mean_deviation(), preset_mean_reverting(), preset_unstable_cubic()]
        for model in models:
            for h in (0.1, 0.3, 0.5, 0.7, 0.9):
                try:
                    validate(model, h)
                except RegimeViolation:
                    assert h < 0.5 and not isinstance(model.diffusion, ConstantDiffusion)
                else:
                    assert h >= 0.5 or isinstance(model.diffusion, ConstantDiffusion)


def _zero_drift(states, mu):
    return np.zeros_like(states)


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
                    ModelSpec(kind, d, _zero_drift, diffusion, 0.0),
                    0.1,
                    increments,
                ).states.tobytes()
                for kind, diffusion in kinds.items()
            }
            assert len(set(stepped.values())) == 1, (d, replications)


def test_presets_picklable():
    for name in ("mean-deviation", "mean-reverting", "unstable-cubic"):
        model = preset_by_name(name, xi=0.5, rate=2.0, initial=1.5)
        clone = pickle.loads(pickle.dumps(model))
        states = np.array([[1.0], [2.0]])
        mu = EmpiricalMeasure(states)
        assert np.allclose(clone.drift(states, mu), model.drift(states, mu))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_preset_takes_the_initial_law(name):
    rng = StreamKey(3).generator()
    point = preset_by_name(name, initial=1.5).initial_states(64, rng)
    assert np.array_equal(point, np.full((64, 1), 1.5))
    spread = preset_by_name(name, initial=1.5, initial_spread=0.5).initial_states(64, rng)
    assert abs(spread.mean() - 1.5) < 5 * 0.5 / 8 and 0.25 < spread.std() < 1.0
    with pytest.raises(ValueError, match="spread"):
        preset_by_name(name, initial_spread=-0.5)


def test_preset_by_name_unknown():
    with pytest.raises(ValueError, match="unknown model preset"):
        preset_by_name("nope")


def test_constant_diffusion_must_be_square():
    with pytest.raises(ValueError):
        ConstantDiffusion(np.zeros((2, 3)))


def test_initial_sampler_shape_checked():
    model = ModelSpec(
        name="bad-init",
        dimension=2,
        drift=_zero_drift,
        diffusion=ConstantDiffusion(np.eye(2)),
        initial=lambda rng, count: rng.normal(size=(count, 1)),
    )
    with pytest.raises(ValueError, match="initial sampler"):
        model.initial_states(4, StreamKey(1).generator())
