"""Experiment harness: slope fitting, studies, determinism, parallelism."""

import math
from functools import partial

import numpy as np
import pytest

import mvfbm.fbm
import mvfbm.simulator
import mvfbm.study
from mvfbm.fbm import CirculantSampler, UniformMesh, make_sampler
from mvfbm.model import (
    ConstantDiffusion,
    MeasureDiffusion,
    ModelSpec,
    preset_mean_deviation,
    preset_mean_reverting,
)
from mvfbm.simulator import NumericalBlowup, SimulationConfig, run
from mvfbm.study import (
    EXACT_SCHEME_ATOL,
    StudyArgumentError,
    chaos_study,
    covariance_check,
    fit_loglog_slope,
    moment_bound_check,
    strong_error_study,
)

DELTAS = (2.0**-3, 2.0**-4, 2.0**-5)
REFERENCE = 2.0**-7


def _must_not_run(*args, **kwargs):
    raise AssertionError("the study ran a simulation before rejecting its arguments")


class TestSlopeFit:
    def test_two_point_unit_slope(self):
        slope, stderr = fit_loglog_slope([(0.5, 0.5), (0.25, 0.25)])
        assert slope == pytest.approx(1.0, abs=1e-14)
        assert stderr == 0.0

    def test_constructed_power_law(self):
        c = 0.817
        points = [(2.0**-k, c * 2.0 ** (-0.7 * k)) for k in (1, 2, 3)]
        slope, stderr = fit_loglog_slope(points)
        assert slope == pytest.approx(0.7, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-10)

    def test_single_point_rejected(self):
        with pytest.raises(StudyArgumentError):
            fit_loglog_slope([(0.5, 0.1)])

    def test_nonpositive_rejected(self):
        with pytest.raises(StudyArgumentError):
            fit_loglog_slope([(0.5, 0.0), (0.25, 0.1)])
        with pytest.raises(StudyArgumentError):
            fit_loglog_slope([(-0.5, 0.2), (0.25, 0.1)])

    def test_duplicate_deltas_rejected(self):
        with pytest.raises(StudyArgumentError):
            fit_loglog_slope([(0.5, 0.1), (0.5, 0.2)])

    def test_noisy_fit_stderr_positive(self):
        rng = np.random.default_rng(0)
        points = [(2.0**-k, 2.0**-k * rng.uniform(0.8, 1.2)) for k in range(1, 7)]
        slope, stderr = fit_loglog_slope(points)
        assert 0.5 < slope < 1.5
        assert stderr > 0.0


class TestStrongErrorStudy:
    def test_interacting_model_report(self):
        report = strong_error_study(
            preset_mean_deviation(initial_spread=1.0),
            0.7,
            particles=32,
            replications=6,
            deltas=DELTAS,
            reference_delta=REFERENCE,
            seed=5,
        )
        deltas = [d for d, _ in report.points]
        assert deltas == sorted(deltas, reverse=True)
        assert all(e > 0 for _, e in report.points)
        assert not report.exact_scheme
        assert report.slope is not None and report.slope > 0

    def test_drift_free_flags_exact(self):
        report = strong_error_study(
            preset_mean_reverting(xi=1.0, rate=0.0),
            0.6,
            particles=8,
            replications=3,
            deltas=DELTAS,
            reference_delta=REFERENCE,
            seed=1,
        )
        assert report.exact_scheme
        assert report.slope is None
        assert all(e <= EXACT_SCHEME_ATOL for _, e in report.points)
        assert "exact" in report.summary()

    def test_deterministic_and_worker_independent(self):
        kwargs = dict(
            particles=12,
            replications=4,
            deltas=DELTAS,
            reference_delta=REFERENCE,
            seed=77,
        )
        model = preset_mean_deviation(initial_spread=0.5)
        serial = strong_error_study(model, 0.7, workers=1, **kwargs)
        parallel = strong_error_study(model, 0.7, workers=2, **kwargs)
        assert serial.to_csv() == parallel.to_csv()
        again = strong_error_study(model, 0.7, workers=1, **kwargs)
        assert serial.to_csv() == again.to_csv()

    def test_pool_no_larger_than_its_batches(self, monkeypatch):
        seen = []

        class SerialPool:  # records the pool size, maps in this process
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, task, args):
                return map(task, args)

        monkeypatch.setattr(mvfbm.study, "ProcessPoolExecutor", SerialPool)
        strong_error_study(
            preset_mean_deviation(initial_spread=0.5), 0.7, particles=4, replications=2,
            deltas=DELTAS, reference_delta=REFERENCE, seed=3, workers=64,
        )
        assert all(size <= 2 for size in seen)

    def test_bad_delta_rejected(self):
        with pytest.raises(StudyArgumentError, match="integer multiple"):
            strong_error_study(
                preset_mean_reverting(),
                0.5,
                particles=4,
                replications=2,
                deltas=[0.3],
                reference_delta=REFERENCE,
                seed=0,
            )

    @pytest.mark.parametrize(
        "deltas, match",
        [((2.0**-3,), "two distinct"), ((2.0**-3, 2.0**-3), "delta 0.125 is repeated"),
         ((2.0**-3, REFERENCE), "reference delta")],
        ids=["one-delta", "one-distinct-delta", "reference-delta"],
    )
    def test_unfittable_ladder_rejected_before_any_run(self, monkeypatch, deltas, match):
        monkeypatch.setattr(mvfbm.study, "run_coupled_meshes", _must_not_run)
        with pytest.raises(StudyArgumentError, match=match):
            strong_error_study(
                preset_mean_reverting(xi=1.0, rate=0.0), 0.5, particles=4, replications=2,
                deltas=deltas, reference_delta=REFERENCE, seed=0,
            )

    def test_minimum_replications(self):
        with pytest.raises(StudyArgumentError):
            strong_error_study(
                preset_mean_reverting(),
                0.5,
                particles=4,
                replications=1,
                deltas=DELTAS,
                reference_delta=REFERENCE,
                seed=0,
            )


class TestChaosStudy:
    MESH = UniformMesh(1.0, 32)

    def test_report_shape_and_trend_fields(self):
        report = chaos_study(
            preset_mean_reverting(xi=1.0, rate=1.0),
            0.7,
            self.MESH,
            particle_counts=[8, 16, 32],
            replications=6,
            theta=2.0,
            seed=3,
        )
        counts = [n for n, _, _ in report.points]
        assert counts == [8, 16, 32]
        assert report.reference_particles == 128
        assert all(d >= 0 for _, d, _ in report.points)

    def test_distances_decrease_for_noisy_model(self):
        report = chaos_study(
            preset_mean_reverting(xi=1.0, rate=1.0),
            0.7,
            self.MESH,
            particle_counts=[8, 32, 128],
            replications=12,
            theta=2.0,
            seed=11,
        )
        assert report.non_increasing

    def test_same_count_statistically_equal(self):
        # two studies probing the same ensemble size from different stream
        # addresses agree within combined error bars
        estimates = []
        for seed in (100, 101):
            report = chaos_study(
                preset_mean_reverting(xi=1.0, rate=1.0),
                0.7,
                self.MESH,
                particle_counts=[16, 32],
                replications=16,
                theta=2.0,
                seed=seed,
            )
            estimates.append(report.points[1])
        (_, mean_a, se_a), (_, mean_b, se_b) = estimates
        assert abs(mean_a - mean_b) < 5 * math.hypot(se_a, se_b)

    def test_counts_must_increase(self):
        with pytest.raises(StudyArgumentError, match="strictly increasing"):
            chaos_study(
                preset_mean_reverting(),
                0.5,
                self.MESH,
                particle_counts=[16, 16],
                replications=2,
                theta=2.0,
                seed=0,
            )

    def test_estimator_follows_the_dimension(self):
        import mvfbm.model as model_mod

        two_d = model_mod.ModelSpec(
            name="planar",
            dimension=2,
            drift=lambda s, mu: np.zeros_like(s),
            diffusion=model_mod.ConstantDiffusion(np.eye(2)),
            initial=np.zeros(2),
        )
        # sorted matching is the exact distance only in d = 1
        assert chaos_study(two_d, 0.5, self.MESH, [4, 8], 2, 2.0, 0).estimator == "coupling-bound"
        one_d = preset_mean_reverting(xi=1.0, rate=1.0)
        assert chaos_study(one_d, 0.5, self.MESH, [4, 8], 2, 2.0, 0).estimator == "1d-exact"

    def test_order_rejected_before_any_run(self, monkeypatch):
        monkeypatch.setattr(mvfbm.study, "run", _must_not_run)
        monkeypatch.setattr(mvfbm.study, "run_coupled_meshes", _must_not_run)
        with pytest.raises(StudyArgumentError, match="theta"):
            chaos_study(preset_mean_reverting(), 0.5, self.MESH, [4, 8], 2, 1.5, 0)

    @pytest.mark.parametrize(
        "counts, replications, match",
        [([8], 2, "two particle counts"), ([4, 8], 0, "at least 1 replication")],
        ids=["one-count", "no-replications"],
    )
    def test_untrendable_arguments_rejected_before_any_run(self, monkeypatch, counts,
                                                           replications, match):
        monkeypatch.setattr(mvfbm.study, "run", _must_not_run)
        monkeypatch.setattr(mvfbm.study, "run_coupled_meshes", _must_not_run)
        with pytest.raises(StudyArgumentError, match=match):
            chaos_study(preset_mean_reverting(), 0.5, self.MESH, counts, replications, 2.0, 0)

    def test_deterministic_and_worker_independent(self):
        kwargs = dict(
            particle_counts=[8, 16],
            replications=4,
            theta=2.0,
            seed=9,
        )
        model = preset_mean_reverting(xi=1.0, rate=1.0)
        serial = chaos_study(model, 0.7, self.MESH, workers=1, **kwargs)
        parallel = chaos_study(model, 0.7, self.MESH, workers=2, **kwargs)
        assert serial.to_csv() == parallel.to_csv()


class TestMomentBoundCheck:
    def test_frozen_model_ratio_exactly_one(self):
        import mvfbm.model as model_mod

        for initial in (1.5, 0.0):  # at the origin every max moment is 0: 0 -> 0 is ratio 1
            frozen = model_mod.ModelSpec(
                name="frozen",
                dimension=1,
                drift=lambda s, mu: np.zeros_like(s),
                diffusion=model_mod.ConstantDiffusion(np.array([[0.0]])),
                initial=initial,
            )
            report = moment_bound_check(frozen, 0.5, DELTAS, particles=16, order=2.0, seed=2)
            assert all(r == pytest.approx(1.0, abs=1e-15) for r in report.ratios)
            assert report.passed

    def test_interacting_model_ratios_bounded(self):
        report = moment_bound_check(
            preset_mean_reverting(xi=1.0, rate=1.0), 0.3, DELTAS, particles=64, order=4.0, seed=6
        )
        assert report.passed
        assert all(0.8 <= r <= 1.25 for r in report.ratios)

    def test_drift_free_terminal_second_moment(self):
        # X_T = X_0 + xi * B_T: E X_T^2 = X_0^2 + xi^2 T^{2H}
        xi, x0, hurst = 1.0, 1.0, 0.7
        particles = 4000
        report = moment_bound_check(
            preset_mean_reverting(xi=xi, rate=0.0, initial=x0),
            hurst,
            [2.0**-3, 2.0**-4],
            particles=particles,
            order=2.0,
            seed=8,
        )
        _, _, terminal = report.points[-1]
        expected = x0**2 + xi**2
        # var of X^2 for X ~ N(1,1): E X^4 - (E X^2)^2 = 10 - 4 = 6
        stderr = math.sqrt(6.0 / particles)
        assert abs(terminal - expected) < 5 * stderr

    def test_order_validated(self):
        with pytest.raises(StudyArgumentError):
            moment_bound_check(preset_mean_reverting(), 0.5, DELTAS, 4, order=1.0, seed=0)

    @pytest.mark.parametrize(
        "deltas, match",
        [((2.0**-3,), "two distinct deltas"), ((2.0**-3, 2.0**-3), "delta 0.125 is repeated")],
        ids=["one-delta", "one-distinct-delta"],
    )
    def test_ratioless_ladder_rejected_before_any_run(self, monkeypatch, deltas, match):
        monkeypatch.setattr(mvfbm.study, "run_coupled_meshes", _must_not_run)
        with pytest.raises(StudyArgumentError, match=match):
            moment_bound_check(preset_mean_reverting(), 0.5, deltas, 4, order=2.0, seed=0)


class TestCovarianceCheck:
    def test_brownian_within_tolerance(self):
        report = covariance_check(0.5, steps=16, paths=4000, seed=4)
        assert report.max_abs_z < 5.0
        assert report.points[0][0] == 0
        assert report.points[0][1] == pytest.approx(1.0 / 16.0)

    def test_deterministic(self):
        a = covariance_check(0.7, steps=8, paths=500, seed=5)
        b = covariance_check(0.7, steps=8, paths=500, seed=5)
        assert a.to_csv() == b.to_csv()


# --------------------------------------------------------------------------
# Batching: replications share simulator runs without changing a byte.
# --------------------------------------------------------------------------


def _reverting_drift(states, mu):
    return mu.mean() - states


def _mean_scaled_sigma(mu):
    return 1.0 + 0.5 * mu.mean()  # (R, 1, 1): one 1 x 1 sigma per replication


def _measure_noise_model():
    return ModelSpec(
        name="measure-noise", dimension=1, drift=_reverting_drift,
        diffusion=MeasureDiffusion(_mean_scaled_sigma), initial=1.0,
    )


def _planar_model():
    return ModelSpec(
        name="planar", dimension=2, drift=_reverting_drift,
        diffusion=ConstantDiffusion(np.array([[1.0, 0.3], [-0.2, 0.7]])),
        initial=partial(_spread_initial, dimension=2),
    )


def _spread_initial(rng, count, dimension=1, mean=0.0, spread=0.4):
    return mean + spread * rng.standard_normal((count, dimension))


def _cubic_drift(states, mu):
    return states**3


BATCH_PARTICLES = 12
BATCH_REPLICATIONS = 16
BATCH_STEPS = 128  # reference mesh of the convergence runs, mesh of the chaos runs


# (replications per batch, FFT rows, workers); the first is the unbatched run.
# The batch sizes hold at the largest particle count of a run.
BATCH_VARIANTS = {
    "batch-1": (1, 64, 1),
    "batch-R": (BATCH_REPLICATIONS, 64, 1),
    "batch-7": (7, 64, 1),
    "fft-1": (BATCH_REPLICATIONS, 1, 1),
    "fft-3": (7, 3, 1),
    "fft-all": (BATCH_REPLICATIONS, 10**6, 1),
    "workers-2": (7, 64, 2),
}


def _batch_budget(replications, particles=BATCH_PARTICLES, dimension=1):
    """The batch budget that holds ``replications`` runs of BATCH_STEPS driver steps."""
    return replications * particles * BATCH_STEPS * dimension * 8


def _csv_per_variant(monkeypatch, particles, dimension, study_call):
    out = {}
    for name, (replications, fft_rows, workers) in BATCH_VARIANTS.items():
        budget = _batch_budget(replications, particles, dimension)
        monkeypatch.setattr(mvfbm.study, "_BATCH_BYTES", budget)
        # the byte budget of fft_rows rows of the BATCH_STEPS + 1 complex modes
        monkeypatch.setattr(mvfbm.fbm, "_FFT_BLOCK_BYTES", fft_rows * 16 * (BATCH_STEPS + 1))
        out[name] = study_call(workers).to_csv()
    return out


class TestBatching:
    @pytest.mark.parametrize(
        "model, hurst, particles",
        [
            (preset_mean_deviation(initial_spread=0.5), 0.7, BATCH_PARTICLES),  # per-particle sigma
            (preset_mean_reverting(xi=1.0, rate=1.0), 0.3, BATCH_PARTICLES),  # constant sigma
            (_measure_noise_model(), 0.7, BATCH_PARTICLES),  # one sigma per replication
            (_planar_model(), 0.6, BATCH_PARTICLES),  # d = 2: a matrix product per replication
            # One particle per replication: a product over all rows at once
            # would round differently here than replication by replication.
            (_planar_model(), 0.6, 1),
        ],
        ids=["state-measure", "constant", "measure", "planar", "planar-one-particle"],
    )
    def test_convergence_bytes_independent_of_batching(self, monkeypatch, model, hurst, particles):
        def call(workers):
            return strong_error_study(
                model, hurst, particles, BATCH_REPLICATIONS, DELTAS,
                1.0 / BATCH_STEPS, seed=606, workers=workers,
            )

        reports = _csv_per_variant(monkeypatch, particles, model.dimension, call)
        assert all(text == reports["batch-1"] for text in reports.values()), [
            name for name, text in reports.items() if text != reports["batch-1"]
        ]

    @pytest.mark.parametrize(
        "model",
        [preset_mean_deviation(initial_spread=0.5), _planar_model()],  # 1d-exact, coupling-bound
        ids=["state-measure", "planar"],
    )
    def test_chaos_bytes_independent_of_batching(self, monkeypatch, model):
        def call(workers):
            return chaos_study(
                model, 0.7, UniformMesh(1.0, BATCH_STEPS), [BATCH_PARTICLES // 2, BATCH_PARTICLES],
                BATCH_REPLICATIONS, 2.0, seed=707, workers=workers,
            )

        reports = _csv_per_variant(monkeypatch, BATCH_PARTICLES, model.dimension, call)
        assert all(text == reports["batch-1"] for text in reports.values()), [
            name for name, text in reports.items() if text != reports["batch-1"]
        ]

    def test_one_em_step_per_mesh_step_per_batch(self, monkeypatch):
        monkeypatch.setattr(mvfbm.study, "_BATCH_BYTES", _batch_budget(7))
        rows, builds = [], []
        step, build = mvfbm.simulator.em_step, CirculantSampler.__init__

        def counting_step(ensemble, *args):
            rows.append(ensemble.states.shape[0])
            return step(ensemble, *args)

        def counting_build(sampler, *args):
            builds.append(args)
            build(sampler, *args)

        make_sampler.cache_clear()
        monkeypatch.setattr(mvfbm.simulator, "em_step", counting_step)
        monkeypatch.setattr(CirculantSampler, "__init__", counting_build)
        strong_error_study(
            preset_mean_reverting(), 0.3, BATCH_PARTICLES, BATCH_REPLICATIONS, DELTAS,
            1.0 / BATCH_STEPS, seed=1,
        )
        steps_per_batch = BATCH_STEPS + sum(BATCH_STEPS // round(d * BATCH_STEPS) for d in DELTAS)
        assert steps_per_batch == 128 + 8 + 16 + 32
        batch_sizes = [7, 7, 2]  # 16 replications under a 7-replication budget
        assert rows == [n * BATCH_PARTICLES for n in batch_sizes for _ in range(steps_per_batch)]
        assert len(builds) == 1  # one sampler per (H, mesh), shared by the three batches

    @pytest.mark.parametrize("workers", [1, 2])  # a worker's blow-up must reach the caller
    def test_blowup_in_a_batched_run_names_the_replication(self, monkeypatch, workers):
        model = ModelSpec(
            name="cubic-spread", dimension=1, drift=_cubic_drift,
            diffusion=ConstantDiffusion(np.array([[0.1]])), initial=_spread_initial,
        )
        replications = 12
        named = set()
        for budget in (1, 4, replications):  # replications per batch
            monkeypatch.setattr(mvfbm.study, "_BATCH_BYTES", _batch_budget(budget))
            with pytest.raises(NumericalBlowup) as excinfo:
                strong_error_study(
                    model, 0.7, BATCH_PARTICLES, replications, (2.0**-3, 2.0**-4),
                    1.0 / BATCH_STEPS, seed=31, workers=workers,
                )
            error = excinfo.value
            assert error.mesh_steps == BATCH_STEPS  # the reference mesh runs first
            assert (f"step {error.step}, replication {error.replication}, "
                    f"particle {error.particle} ") in str(error)
            named.add((error.step, error.replication, error.particle))
        solo = {}
        for m in range(replications):  # each replication, run alone on the reference mesh
            config = SimulationConfig(
                model, 0.7, UniformMesh(1.0, BATCH_STEPS), BATCH_PARTICLES, 31,
                replications=range(m, m + 1),
            )
            try:
                run(config, snapshots="terminal")
            except NumericalBlowup as alone:
                assert alone.replication == m
                solo[m] = (alone.step, alone.particle)
        first = min(solo, key=lambda m: (solo[m][0], m))
        # Every batching and worker count names the earliest (step, replication).
        assert named == {(solo[first][0], first, solo[first][1])}
