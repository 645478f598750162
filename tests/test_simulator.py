"""Stepping oracle, coupling, determinism, and exchangeability checks."""

import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from mvfbm.fbm import UniformMesh
from mvfbm.model import (
    ConstantDiffusion,
    ModelSpec,
    preset_mean_deviation,
    preset_mean_reverting,
    preset_unstable_cubic,
)
from mvfbm.simulator import (
    NumericalBlowup,
    ParticleEnsemble,
    SimulationConfig,
    _snapshot_plan,
    em_step,
    run,
    run_coupled_meshes,
    write_trajectory_csv,
)
from mvfbm.streams import StreamKey


def _zero_drift(states, mu):
    return np.zeros_like(states)


def _null_model(dimension=1):
    return ModelSpec(
        name="null",
        dimension=dimension,
        drift=_zero_drift,
        diffusion=ConstantDiffusion(np.zeros((dimension, dimension))),
        initial=np.zeros(dimension),
    )


def _overflowing_model(initial=0.0):
    return ModelSpec(
        name="overflowing",
        dimension=1,
        drift=lambda s, mu: s * 1e10,
        diffusion=ConstantDiffusion(np.array([[0.0]])),
        initial=initial,
    )


class TestEmStep:
    def test_identity_when_coefficients_vanish(self):
        states = np.array([[1.0], [-2.0], [0.5]])
        out = em_step(ParticleEnsemble(states), _null_model(), 0.25, np.ones((3, 1)))
        assert np.array_equal(out.states, states)

    def test_pure_noise_step(self):
        model = preset_mean_reverting(xi=1.0, rate=0.0)
        out = em_step(ParticleEnsemble(np.array([[2.0]])), model, 0.5, np.array([[0.3]]))
        assert out.states[0, 0] == pytest.approx(2.3)

    def test_hand_computed_interacting_step(self):
        # states {0, 2}, delta 0.5, increments {0.1, -0.1}: mean 1,
        # drifts (-1, 3), diffusions (-1, 1) -> (-0.6, 3.4)
        model = preset_mean_deviation()
        out = em_step(
            ParticleEnsemble(np.array([[0.0], [2.0]])),
            model,
            0.5,
            np.array([[0.1], [-0.1]]),
        )
        assert np.allclose(out.states, [[-0.6], [3.4]], atol=1e-15)

    def test_measure_frozen_before_update(self):
        # synchronous update: both particles must see the pre-step mean
        seen = []

        def recording_drift(states, mu):
            seen.extend(mu.mean().ravel().tolist())
            return np.zeros_like(states)

        model = ModelSpec(
            name="recorder",
            dimension=1,
            drift=recording_drift,
            diffusion=ConstantDiffusion(np.array([[1.0]])),
            initial=0.0,
        )
        states = np.array([[0.0], [4.0]])
        em_step(ParticleEnsemble(states), model, 0.1, np.array([[1.0], [1.0]]))
        assert seen == [2.0]

    def test_relabeling_equivariance(self):
        rng = np.random.default_rng(31)
        model = preset_mean_deviation()
        states = rng.normal(size=(16, 1))
        increments = rng.normal(size=(16, 1))
        perm = rng.permutation(16)
        direct = em_step(ParticleEnsemble(states), model, 0.1, increments).states
        permuted = em_step(ParticleEnsemble(states[perm]), model, 0.1, increments[perm]).states
        assert np.allclose(permuted, direct[perm], rtol=1e-12, atol=1e-14)

    def test_non_finite_result_returned_not_raised(self):
        # finiteness is the run loop's check, not the step's
        states = np.array([[1.0], [1e308]])
        out = em_step(ParticleEnsemble(states), _overflowing_model(), 1.0, np.zeros((2, 1)))
        assert np.isfinite(out.states[0, 0]) and not np.isfinite(out.states[1, 0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            em_step(ParticleEnsemble(np.zeros((3, 1))), _null_model(), 0.1, np.zeros((2, 1)))


class TestRun:
    def test_deterministic_given_seed(self):
        config = SimulationConfig(
            preset_mean_deviation(initial_spread=1.0), 0.7, UniformMesh(1.0, 32), 20, 42
        )
        a = run(config, snapshots="thin")
        b = run(config, snapshots="thin")
        assert a.snapshot_indices == b.snapshot_indices
        for left, right in zip(a.snapshots, b.snapshots):
            assert np.array_equal(left, right)

    def test_different_seeds_differ(self):
        mesh = UniformMesh(1.0, 16)
        model = preset_mean_reverting(xi=1.0, rate=1.0)
        a = run(SimulationConfig(model, 0.5, mesh, 10, 1))
        b = run(SimulationConfig(model, 0.5, mesh, 10, 2))
        assert not np.array_equal(a.terminal, b.terminal)

    def test_drift_free_terminal_is_exact_noise_integral(self):
        # rate 0: Y_T = X_0 + xi * B_T, with B_T the summed increments
        xi, x0 = 1.7, 0.4
        config = SimulationConfig(
            preset_mean_reverting(xi=xi, rate=0.0, initial=x0),
            0.7,
            UniformMesh(1.0, 64),
            6,
            StreamKey(13),
        )
        record = run(config, snapshots="terminal")
        from mvfbm.fbm import CirculantSampler

        sampler = CirculantSampler(0.7, config.mesh)
        for i in range(6):
            increments = sampler.sample_ensemble(1, [StreamKey(13).child(0, 1, i)])[0]
            expected = x0 + xi * increments.sum()
            assert record.terminal[i, 0] == pytest.approx(expected, rel=1e-12)

    def test_every_run_is_a_batch_of_replications(self):
        # replication m is rooted at child(m) of the seed, alone or in any batch
        config = SimulationConfig(
            preset_mean_deviation(initial_spread=1.0), 0.7, UniformMesh(1.0, 16), 4, 42
        )
        default = run(config).terminal
        assert default.tobytes() == run(replace(config, replications=range(1))).terminal.tobytes()
        n = config.particles
        for batch_size in (1, 3):
            batch = run(replace(config, replications=range(batch_size))).terminal
            for m in range(batch_size):
                alone = run(replace(config, replications=range(m, m + 1))).terminal
                assert alone.tobytes() == batch[m * n : (m + 1) * n].tobytes(), (batch_size, m)

    @pytest.mark.parametrize("replications", [None, range(0), range(3, 3), range(-1, 1), [0], 1],
                             ids=["none", "empty", "empty-at-3", "negative", "list", "int"])
    def test_replications_must_be_a_nonempty_range(self, replications):
        with pytest.raises(ValueError, match=re.escape(f"got {replications!r}")):
            SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 4), 2, 0,
                             replications=replications)

    def test_exchangeability(self):
        # particle marginals are identically distributed across indices
        model = preset_mean_reverting(xi=1.0, rate=1.0)
        terminals = []
        for rep in range(200):
            config = SimulationConfig(model, 0.7, UniformMesh(1.0, 16), 8, StreamKey(5).child(rep))
            terminals.append(run(config, snapshots="terminal").terminal[:, 0])
        data = np.stack(terminals)  # (reps, particles)
        means = data.mean(axis=0)
        stderr = data.std(axis=0, ddof=1) / math.sqrt(data.shape[0])
        z = np.abs(means - means.mean()) / stderr
        assert z.max() < 5.0

    def test_snapshot_policies(self):
        config = SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 200), 4, 3)
        full = run(config, snapshots="full")
        assert full.snapshot_indices == list(range(201))
        thin = run(config, snapshots="thin")
        assert thin.snapshot_indices[0] == 0
        assert thin.snapshot_indices[-1] == 200
        assert len(thin.snapshot_indices) <= 66
        terminal = run(config, snapshots="terminal")
        assert terminal.snapshot_indices == [200]

    def test_blowup_propagates(self):
        config = SimulationConfig(
            preset_unstable_cubic(initial=2.0), 0.5, UniformMesh(4.0, 16), 2, 3
        )
        with pytest.raises(NumericalBlowup):
            run(config)

    def test_blowup_names_step_and_particle(self):
        model = _overflowing_model(initial=lambda rng, count: np.array([[1.0], [1e308]]))
        config = SimulationConfig(model, 0.5, UniformMesh(1.0, 1), 2, 0)
        with pytest.raises(NumericalBlowup) as excinfo:
            run(config)
        blowup = excinfo.value
        assert (blowup.step, blowup.replication, blowup.particle) == (1, 0, 1)
        assert blowup.mesh_steps == 1


class TestCoupledMeshes:
    def test_single_factor_matches_plain_run(self):
        config = SimulationConfig(
            preset_mean_deviation(initial_spread=0.5), 0.6, UniformMesh(1.0, 32), 10, 99
        )
        coupled = run_coupled_meshes(config, [1], snapshots="terminal")
        plain = run(config, snapshots="terminal")
        assert np.array_equal(coupled[1].terminal, plain.terminal)

    def test_drift_free_all_factors_agree(self):
        config = SimulationConfig(
            preset_mean_reverting(xi=2.0, rate=0.0), 0.7, UniformMesh(1.0, 64), 12, 7
        )
        records = run_coupled_meshes(config, [1, 2, 4, 8, 16])
        reference = records[1].terminal
        for factor in (2, 4, 8, 16):
            assert np.allclose(records[factor].terminal, reference, atol=1e-12)

    def test_error_positive_and_shrinking_for_interacting_model(self):
        config = SimulationConfig(
            preset_mean_deviation(initial_spread=1.0), 0.7, UniformMesh(1.0, 64), 64, 11
        )
        records = run_coupled_meshes(config, [2, 4])
        reference = records[1].terminal
        rms = {
            f: float(np.sqrt(np.mean((records[f].terminal - reference) ** 2))) for f in (2, 4)
        }
        assert rms[4] > rms[2] > 0.0

    def test_divisibility_enforced(self):
        config = SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 12), 2, 0)
        with pytest.raises(ValueError):
            run_coupled_meshes(config, [5])


def test_trajectory_csv_terminal_only():
    config = SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 8), 3, 12)
    record = run(config, snapshots="terminal")
    buffer = io.StringIO()
    write_trajectory_csv(record, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "k,t,particle,component_1"
    assert len(lines) == 2 + 3  # one row per particle at the terminal node
    assert all(row.split(",")[0] == "8" for row in lines[2:])


def test_trajectory_csv_full():
    config = SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 4), 2, 12)
    record = run(config, snapshots="full")
    buffer = io.StringIO()
    write_trajectory_csv(record, buffer)
    lines = buffer.getvalue().splitlines()
    assert len(lines) == 2 + 5 * 2


def _planar_drift(states, mu):
    return mu.mean() - states


def test_trajectory_csv_policies_are_rows_of_the_full_export():
    # d = 2: a kept snapshot writes the same bytes under every policy
    model = ModelSpec(
        name="planar", dimension=2, drift=_planar_drift,
        diffusion=ConstantDiffusion(np.array([[1.0, 0.5], [0.0, 2.0]])),
        initial=np.array([1.0, -1.0]),
    )
    config = SimulationConfig(model, 0.7, UniformMesh(1.0, 130), 3, 8)

    def export(policy):
        buffer = io.StringIO()
        write_trajectory_csv(run(config, snapshots=policy), buffer)
        return buffer.getvalue().splitlines(keepends=True)

    full = export("full")
    assert full[1] == "k,t,particle,component_1,component_2\n"
    for policy in ("terminal", "thin"):
        plan = _snapshot_plan(130, policy)
        kept = [row for row in full[2:] if int(row.split(",")[0]) in plan]
        assert export(policy) == full[:2] + kept
