"""Stepping oracle, coupling, determinism, and exchangeability checks."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mvfbm.fbm
import mvfbm.simulator
from mvfbm.errors import ArgumentError
from mvfbm.fbm import UniformMesh
from mvfbm.model import (
    ConstantDiffusion,
    ModelSpec,
    preset_mean_deviation,
    preset_mean_reverting,
)
from mvfbm.reports import SimulateReport
from mvfbm.simulator import (
    NumericalBlowup,
    ParticleEnsemble,
    SimulationConfig,
    _drivers,
    _noise_streams,
    _snapshot_plan,
    em_step,
    run,
    run_coupled_meshes,
)
from mvfbm.streams import StreamArray, StreamKey
from mvfbm.study import fit_loglog_slope
from oracles import (mean_reverting_limit_variance, noisy_model, per_mesh_ladder, reverting_drift,
                     unstable_cubic, w2_to_gaussian, zero_drift)


def _null_model(dimension=1):
    return ModelSpec(
        name="null",
        dimension=dimension,
        drift=zero_drift,
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
        assert np.array_equal(out, states)

    def test_pure_noise_step(self):
        model = preset_mean_reverting(xi=1.0, rate=0.0)
        out = em_step(ParticleEnsemble(np.array([[2.0]])), model, 0.5, np.array([[0.3]]))
        assert out[0, 0] == pytest.approx(2.3)

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
        assert np.allclose(out, [[-0.6], [3.4]], atol=1e-15)

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
        direct = em_step(ParticleEnsemble(states), model, 0.1, increments)
        permuted = em_step(ParticleEnsemble(states[perm]), model, 0.1, increments[perm])
        assert np.allclose(permuted, direct[perm], rtol=1e-12, atol=1e-14)

    def test_non_finite_result_returned_not_raised(self):
        # finiteness is the run loop's check, not the step's
        states = np.array([[1.0], [1e308]])
        out = em_step(ParticleEnsemble(states), _overflowing_model(), 1.0, np.zeros((2, 1)))
        assert np.isfinite(out[0, 0]) and not np.isfinite(out[1, 0])

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
            stream = StreamArray(StreamKey(13), np.array([[0, 1, i]]))
            increments = sampler.sample_ensemble(1, stream)[:, 0]
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

    @pytest.mark.parametrize("replications", [1, 3])
    def test_first_particles_are_the_smaller_run(self, monkeypatch, replications):
        # particle i's start and driver do not depend on N, so with no interaction
        # the first N rows of replication m in an M-particle batch are the
        # N-particle run of m, whichever FFT blocks the rows fall in
        small, large, steps = 7, 23, 32
        monkeypatch.setattr(mvfbm.fbm, "_FFT_BLOCK_BYTES", 5 * 16 * (steps + 1))  # 5 rows a block
        config = SimulationConfig(preset_mean_reverting(rate=0.0, initial_spread=0.5), 0.7,
                                  UniformMesh(1.0, steps), large, 2024,
                                  replications=range(replications))
        batch = run(config).terminal
        for m in range(replications):
            alone = run(replace(config, particles=small, replications=range(m, m + 1))).terminal
            assert alone.tobytes() == batch[m * large : m * large + small].tobytes(), m

    @pytest.mark.parametrize("replications", [None, range(0), range(3, 3), range(-1, 1), [0], 1],
                             ids=["none", "empty", "empty-at-3", "negative", "list", "int"])
    def test_replications_must_be_a_nonempty_range(self, replications):
        with pytest.raises(ValueError, match=re.escape(f"got {replications!r}")):
            SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 4), 2, 0,
                             replications=replications)

    def test_particle_count_must_be_positive(self):
        with pytest.raises(ValueError, match="particle count must be >= 1, got 0"):
            SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 4), 0, 0)

    def test_particle_count_must_be_an_integer(self):
        # 4.5 particles are rejected, not run as 4; a numpy integer becomes a Python int
        with pytest.raises(ValueError, match="particle count must be an integer, got 4.5"):
            SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 4), 4.5, 0)
        config = SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 4), np.int64(4), 0)
        assert type(config.particles) is int and config.particles == 4

    def test_unknown_snapshot_policy_rejected(self, monkeypatch):
        for name in ("_initial_states", "_drivers"):  # rejected before any draw
            monkeypatch.setattr(mvfbm.simulator, name, _must_not_draw)
        config = SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 4), 2, 0)
        message = "unknown snapshot policy 'bogus'; choose from ('terminal', 'thin', 'full')"
        with pytest.raises(ArgumentError, match=re.escape(message)):
            run(config, snapshots="bogus")

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
        config = SimulationConfig(unstable_cubic(initial=2.0), 0.5, UniformMesh(4.0, 16), 2, 3)
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


# Variance of the N -> infinity terminal law for n = 128 steps, r = xi = 1.
MEAN_FIELD_VARIANCE = {0.3: 0.4643630, 0.7: 0.4169138}


@pytest.mark.parametrize("hurst", sorted(MEAN_FIELD_VARIANCE))
def test_mean_reverting_preset_approaches_its_mean_field_law(hurst):
    """The exact W_2 from each replication's terminal ensemble to the scheme's
    N -> infinity law N(x0, xi^2 a^T Gamma a) falls like N^(-1/2) up to a
    sqrt(log log N) factor (Bobkov & Ledoux 2019), which flattens the
    fitted slope to about -0.44 over N = 50..800."""
    mesh, replications = UniformMesh(1.0, 128), 20
    variance = mean_reverting_limit_variance(hurst, mesh, rate=1.0, xi=1.0)
    assert abs(variance - MEAN_FIELD_VARIANCE[hurst]) < 1e-6
    model = preset_mean_reverting(xi=1.0, rate=1.0, initial=1.0)
    points = []
    for n in (50, 100, 200, 400, 800):
        config = SimulationConfig(model, hurst, mesh, n, 99, replications=range(replications))
        terminal = run(config).terminal.reshape(replications, n)
        distances = np.array([w2_to_gaussian(x, 1.0, variance) for x in terminal])
        points.append((n, distances.mean(), distances.std(ddof=1) / math.sqrt(replications)))
    slope, _ = fit_loglog_slope([(n, d) for n, d, _ in points])
    (_, first, first_se), (_, last, last_se) = points[0], points[-1]
    assert first - last > math.hypot(first_se, last_se), points
    assert -0.65 <= slope <= -0.35, (slope, points)


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

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("kind", ["constant", "measure", "state-measure"])
    @pytest.mark.parametrize("steps, factors", [(16, [2, 4, 8]), (24, [3, 6, 12])],
                             ids=["chain", "chain-of-3"])
    def test_one_pass_matches_the_per_mesh_oracle(self, steps, factors, kind, dimension):
        # a nested ladder steps a prefix of the meshes at each fine step; random
        # ladders are compared in test_oracle_properties.py.  On a horizon of 0.9,
        # 3 times the fine delta of 24 steps is not the factor-3 mesh's delta
        config = SimulationConfig(noisy_model(kind, dimension), 0.7, UniformMesh(0.9, steps), 3,
                                  17, replications=range(2, 5))
        for policy in ("terminal", "thin", "full"):
            records = run_coupled_meshes(config, factors, snapshots=policy)
            expected = per_mesh_ladder(config, factors, snapshots=policy)
            assert list(records) == list(expected) == [1, *factors]
            for factor, record in records.items():
                assert record.mesh == expected[factor].mesh
                assert record.snapshot_indices == expected[factor].snapshot_indices
                assert len(record.snapshots) == len(record.snapshot_indices)
                for got, want in zip(record.snapshots, expected[factor].snapshots):
                    assert got.tobytes() == want.tobytes(), (policy, factor)

    @pytest.mark.parametrize("factors", [[3, 4], [2, 3], [4, 6]])
    def test_non_nested_ladder_rejected_before_any_draw(self, monkeypatch, factors):
        # in {3, 4} the meshes of factor 3 and 4 would step apart: at no fine step
        # would the meshes that step be a prefix of the stack
        for name in ("_initial_states", "_drivers"):
            monkeypatch.setattr(mvfbm.simulator, name, _must_not_draw)
        config = SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 12), 2, 0)
        ladder = re.escape(str([1, *factors]))
        with pytest.raises(ArgumentError, match=f"coarsening factors {ladder} are not nested"):
            run_coupled_meshes(config, factors)

    @pytest.mark.parametrize(
        "factor, match",
        [(2.5, "must be an integer, got 2.5"), (0, "must be >= 1, got 0"), (-2, "must be >= 1, got -2")],
        ids=["fractional", "zero", "negative"],
    )
    def test_fractional_factor_rejected_before_any_draw(self, monkeypatch, factor, match):
        # factor 2.5 is rejected, not run as factor 2, and factors 0 and -2 before any modulo
        for name in ("_initial_states", "_drivers"):
            monkeypatch.setattr(mvfbm.simulator, name, _must_not_draw)
        config = SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 8), 2, 0)
        with pytest.raises(ValueError, match=f"coarsening factor {match}"):
            run_coupled_meshes(config, (factor,))

    def test_only_a_coarse_mesh_blows_up(self):
        # explicit Euler for x' = -x^3 is stable while delta x^2 < 2: with x0 in [6, 7.5)
        # the meshes of 64 and 32 steps stay finite and that of 16 steps blows up
        config = SimulationConfig(_cubic_decay_model(lambda rng, n: 6.0 + 1.5 * rng.random((n, 1))),
                                  0.7, UniformMesh(1.0, 64), 5, 8, replications=range(1, 4))
        run_coupled_meshes(config, [2])
        with pytest.raises(NumericalBlowup) as excinfo:
            run_coupled_meshes(config, [2, 4])
        with pytest.raises(NumericalBlowup) as alone:
            run(replace(config, mesh=UniformMesh(1.0, 16)))
        with pytest.raises(NumericalBlowup) as oracle:
            per_mesh_ladder(config, [2, 4])
        for expected in (alone.value, oracle.value):
            assert _blowup_fields(excinfo.value) == _blowup_fields(expected)
        assert _blowup_fields(excinfo.value) == (16, 7, 1, 1)

    def test_smallest_factor_that_blows_up_is_named(self):
        # just above the factor-2 threshold delta x0^2 = 2, that mesh blows up at
        # fine step 40, after the factor-4 mesh has blown up at fine step 28
        x0 = math.sqrt(128.0 * (1.0 + 1e-9))
        config = SimulationConfig(_cubic_decay_model(x0), 0.7, UniformMesh(1.0, 128), 2, 8)
        with pytest.raises(NumericalBlowup) as excinfo:
            run_coupled_meshes(config, [2, 4])
        for factor, fine_step in ((2, 40), (4, 28)):
            with pytest.raises(NumericalBlowup) as alone:
                run(replace(config, mesh=UniformMesh(1.0, 128 // factor)))
            assert alone.value.step * factor == fine_step
            if factor == 2:
                assert _blowup_fields(excinfo.value) == _blowup_fields(alone.value)
        assert _blowup_fields(excinfo.value) == (64, 20, 0, 0)
        run(config)

    def test_coarse_meshes_hold_no_driver_array(self, monkeypatch):
        # the fine drivers are the one driver array: a factor-2 mesh's own increments
        # would add half of it
        monkeypatch.setattr(mvfbm.fbm, "usable_cores", lambda: 1)
        config = SimulationConfig(preset_mean_reverting(), 0.7, UniformMesh(1.0, 1024), 500, 5,
                                  replications=range(2))
        drivers = 1024 * 1000 * 8
        tracemalloc.start()
        try:
            run_coupled_meshes(config, [2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert drivers < peak < drivers + drivers // 2


class TestDriverStreams:
    """A batch addresses its driver streams as one index array on the seed."""

    def test_rows_address_child_m_1_i(self):
        root = StreamKey(2024).child(1, 3)  # chaos's runs at the fourth particle count
        config = SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 4), 3, root,
                                  range(5, 7))
        streams = _noise_streams(config)
        assert len(streams) == 6
        assert streams.root == root
        assert streams.index.tolist() == [[m, 1, i] for m in (5, 6) for i in range(3)]

    def test_a_batch_builds_no_key_per_path(self, monkeypatch):
        built = []
        check = StreamKey.__post_init__
        monkeypatch.setattr(StreamKey, "__post_init__", lambda key: built.append(key) or check(key))
        # the config turns its seed into the root key; the drivers build none
        config = SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 8), 50, 7, range(3))
        _drivers(config)
        assert [(key.seed, key.path) for key in built] == [(7, ())]  # the root alone

    def test_seed_becomes_its_key(self):
        args = preset_mean_reverting(), 0.5, UniformMesh(1.0, 4), 2
        assert SimulationConfig(*args, np.int64(7)).seed == StreamKey(7)
        for seed, match in ((-1, "must be nonnegative, got -1"), (1.9, "must be integers, got seed 1.9")):
            with pytest.raises(ValueError, match=match):
                SimulationConfig(*args, seed)

    def test_replications_past_uint32_rejected(self):
        # a replication index is one uint32 word of its driver streams' rows
        args = preset_mean_reverting(), 0.5, UniformMesh(1.0, 4), 2, 0
        last = SimulationConfig(*args, range(2**32 - 1, 2**32))
        assert _noise_streams(last).index.tolist() == [[2**32 - 1, 1, 0], [2**32 - 1, 1, 1]]
        for reps in (range(2**32 - 1, 2**32 + 1), range(2**32 + 1)):  # checked at its ends
            with pytest.raises(ValueError, match=r"indices in \[0, 2\^32\), got range"):
                SimulationConfig(*args, reps)


def _must_not_draw(*args, **kwargs):
    raise AssertionError("a rejected run drew its initial states or drivers")


def _cubic_decay_model(initial):
    """Drift -x^3 and no noise: its explicit Euler scheme is stable while delta x^2 < 2."""
    return ModelSpec(name="cubic-decay", dimension=1, drift=lambda states, mu: -states**3,
                     diffusion=ConstantDiffusion(np.zeros((1, 1))), initial=initial)


def _blowup_fields(blowup):
    return blowup.mesh_steps, blowup.step, blowup.replication, blowup.particle


def _trajectory_csv(config, snapshots):
    """The simulate report's CSV: the trajectory export of one run."""
    record = run(config, snapshots=snapshots)
    return SimulateReport(
        model=config.model.name, hurst=config.hurst, particles=config.particles,
        steps=config.mesh.steps, terminal_mean=0.0, terminal_std=0.0, record=record,
    ).to_csv()


def test_trajectory_csv_terminal_only():
    config = SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 8), 3, 12)
    lines = _trajectory_csv(config, "terminal").splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "k,t,particle,component_1"
    assert len(lines) == 2 + 3  # one row per particle at the terminal node
    assert all(row.split(",")[0] == "8" for row in lines[2:])


def test_trajectory_csv_full():
    config = SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 4), 2, 12)
    lines = _trajectory_csv(config, "full").splitlines()
    assert len(lines) == 2 + 5 * 2


def test_trajectory_csv_policies_are_rows_of_the_full_export():
    # d = 2: a kept snapshot writes the same bytes under every policy
    model = ModelSpec(
        name="planar", dimension=2, drift=reverting_drift,
        diffusion=ConstantDiffusion(np.array([[1.0, 0.5], [0.0, 2.0]])),
        initial=np.array([1.0, -1.0]),
    )
    config = SimulationConfig(model, 0.7, UniformMesh(1.0, 130), 3, 8)

    def export(policy):
        return _trajectory_csv(config, policy).splitlines(keepends=True)

    full = export("full")
    assert full[1] == "k,t,particle,component_1,component_2\n"
    for policy in ("terminal", "thin"):
        plan = _snapshot_plan(130, policy)
        kept = [row for row in full[2:] if int(row.split(",")[0]) in plan]
        assert export(policy) == full[:2] + kept
