"""Experiment harness: slope fitting, studies, determinism, parallelism."""

import concurrent.futures
import math
import re
import tracemalloc

import numpy as np
import pytest

import mvfbm.fbm
import mvfbm.simulator
import mvfbm.study
from mvfbm.errors import ArgumentError
from mvfbm.fbm import CirculantSampler, UniformMesh
from mvfbm.model import (
    MeasureDiffusion,
    ModelSpec,
    preset_mean_deviation,
    preset_mean_reverting,
)
from mvfbm.simulator import NumericalBlowup, SimulationConfig, run
from mvfbm.study import (
    EXACT_SCHEME_ATOL,
    chaos_study,
    covariance_check,
    fit_loglog_slope,
    moment_bound_check,
    strong_error_study,
)
from mvfbm.streams import StreamKey
from oracles import mean_shifted_sigma, planar_model, reverting_drift, unstable_cubic

DELTAS = (2.0**-3, 2.0**-4, 2.0**-5)
REFERENCE = 2.0**-7


def _must_not_run(*args, **kwargs):
    raise AssertionError("the study ran a simulation before rejecting its arguments")


# an H outside (0, 1), which every study rejects before any run: rows and their ids
BAD_HURSTS = [(dict(hurst=h), rf"Hurst parameter must lie in \(0, 1\), got {h}")
              for h in (0.0, 1.0, 1.5, math.nan)]
BAD_HURST_IDS = ["zero-hurst", "unit-hurst", "large-hurst", "nan-hurst"]
# more replications than a stream row's uint32 index addresses
TOO_MANY_REPLICATIONS = (dict(replications=2**32 + 1),
                         r"indices in \[0, 2\^32\), got range\(0, 4294967297\)")
# steps of 0.3 and 0.2 on a reference of 0.1 (factors 3 and 2): the factor-2 mesh
# would step where the factor-3 mesh does not, so the ladder is not nested
NON_NESTED = (dict(deltas=(0.3, 0.2), reference_delta=0.1, horizon=0.6),
              "delta 0.2 does not divide delta 0.3: each delta must divide the next coarser one")
# counts that are not integers are rejected, not truncated: rows and their ids
FRACTIONAL_COUNTS = [(dict(particles=2.5), "particle count must be an integer, got 2.5"),
                     (dict(replications=2.5), "replication count must be an integer, got 2.5"),
                     (dict(workers=1.5), "worker count must be an integer, got 1.5")]
FRACTIONAL_COUNT_IDS = ["fractional-particles", "fractional-replications", "fractional-workers"]


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
        with pytest.raises(ArgumentError):
            fit_loglog_slope([(0.5, 0.1)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ArgumentError):
            fit_loglog_slope([(0.5, 0.0), (0.25, 0.1)])
        with pytest.raises(ArgumentError):
            fit_loglog_slope([(-0.5, 0.2), (0.25, 0.1)])

    def test_duplicate_deltas_rejected(self):
        with pytest.raises(ArgumentError):
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

    def test_gap_sums_are_numpy_reductions_in_replication_order(self, monkeypatch):
        # the reference loop: per factor and replication one np.add.reduce over the particles,
        # then Python's sum left to right over the replications of every batch in order
        particles, sizes = 5001, (2, 1)
        rng = np.random.default_rng(9)
        terminals = [[rng.standard_normal((size * particles, 1)) for _ in range(1 + len(DELTAS))]
                     for size in sizes]
        monkeypatch.setattr(mvfbm.study, "_run_batches", lambda *args: terminals)
        report = strong_error_study(preset_mean_reverting(), 0.7, particles, sum(sizes), DELTAS,
                                    REFERENCE, seed=1)
        expected = []
        for f in range(len(DELTAS)):
            per_rep = [float(np.add.reduce(g * g))
                       for reference, *coarse in terminals
                       for g in np.linalg.norm(coarse[f] - reference, axis=1).reshape(-1, particles)]
            expected.append(math.sqrt(sum(per_rep) / (particles * sum(sizes))))
        assert [error for _, error in report.points] == expected

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The size of each pool a study asks for; the pool maps in this process."""
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, task, args):
                return map(task, args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return seen

    def test_pool_no_larger_than_its_batches(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(mvfbm.fbm, "usable_cores", lambda: 64)  # the batches, not the cores, bound it
        strong_error_study(
            preset_mean_deviation(initial_spread=0.5), 0.7, particles=4, replications=2,
            deltas=DELTAS, reference_delta=REFERENCE, seed=3, workers=64,
        )
        assert all(size <= 2 for size in pool_sizes)

    def test_pool_no_larger_than_the_usable_cores(self, monkeypatch, pool_sizes):
        # 64 one-particle batches: the batch count alone would size the pool at 64
        monkeypatch.setattr(mvfbm.fbm, "usable_cores", lambda: 2)
        strong_error_study(
            preset_mean_deviation(initial_spread=0.5), 0.7, particles=1, replications=64,
            deltas=DELTAS, reference_delta=REFERENCE, seed=3, workers=64,
        )
        assert pool_sizes == [2]

    def test_bad_delta_rejected(self):
        with pytest.raises(ArgumentError, match="integer multiple"):
            strong_error_study(
                preset_mean_reverting(),
                0.5,
                particles=4,
                replications=2,
                deltas=[0.3],
                reference_delta=REFERENCE,
                seed=0,
            )

    def test_reference_delta_must_divide_the_horizon(self):
        with pytest.raises(ArgumentError, match="delta 0.3 does not divide the horizon 1.0"):
            strong_error_study(
                preset_mean_reverting(), 0.5, particles=4, replications=2,
                deltas=[0.6, 0.9], reference_delta=0.3, seed=0,
            )

    @pytest.mark.parametrize(
        "arguments, match",
        [(dict(deltas=(2.0**-3,)), "two distinct"),
         (dict(deltas=(2.0**-3, 2.0**-3)), "delta 0.125 is repeated"),
         (dict(deltas=(2.0**-3, REFERENCE)), "reference delta"),
         (dict(workers=0), "worker count must be >= 1, got 0"),
         (dict(workers=-1), "worker count must be >= 1, got -1"),
         (dict(particles=0), "particle count must be >= 1, got 0"),
         (dict(particles=-3), "particle count must be >= 1, got -3"), *BAD_HURSTS, TOO_MANY_REPLICATIONS,
         NON_NESTED, *FRACTIONAL_COUNTS],
        ids=["one-delta", "one-distinct-delta", "reference-delta", "no-workers", "negative-workers",
             "no-particles", "negative-particles", *BAD_HURST_IDS, "too-many-replications",
             "non-nested", *FRACTIONAL_COUNT_IDS],
    )
    def test_unfittable_ladder_rejected_before_any_run(self, monkeypatch, arguments, match):
        monkeypatch.setattr(mvfbm.study, "run_coupled_meshes", _must_not_run)
        call = dict(hurst=0.5, particles=4, replications=2, deltas=DELTAS,
                    reference_delta=REFERENCE, seed=0, workers=1) | arguments
        with pytest.raises(ArgumentError, match=match):
            strong_error_study(preset_mean_reverting(xi=1.0, rate=0.0), **call)

    @pytest.mark.parametrize(
        "deltas, reference, horizon",
        [((0.0, 2.0**-3), REFERENCE, 1.0), ((math.nan, 2.0**-3), REFERENCE, 1.0),
         ((math.inf, 2.0**-3), REFERENCE, 1.0), (DELTAS, 0.0, 1.0), (DELTAS, math.nan, 1.0),
         (DELTAS, REFERENCE, math.inf), (DELTAS, REFERENCE, math.nan)],
        ids=["zero-delta", "nan-delta", "infinite-delta", "zero-reference", "nan-reference",
             "infinite-horizon", "nan-horizon"],
    )
    def test_nonpositive_delta_rejected_before_any_run(self, monkeypatch, deltas, reference,
                                                       horizon):
        monkeypatch.setattr(mvfbm.study, "run_coupled_meshes", _must_not_run)
        message = (f"horizon and deltas must be positive and finite, got {list(deltas)}, "
                   f"reference {reference}, horizon {horizon}")
        with pytest.raises(ArgumentError, match=re.escape(message)):
            strong_error_study(
                preset_mean_reverting(), 0.5, particles=4, replications=2,
                deltas=deltas, reference_delta=reference, seed=0, horizon=horizon,
            )

    def test_minimum_replications(self):
        with pytest.raises(ArgumentError):
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
        with pytest.raises(ArgumentError, match="strictly increasing"):
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
        with pytest.raises(ArgumentError, match="theta"):
            chaos_study(preset_mean_reverting(), 0.5, self.MESH, [4, 8], 2, 1.5, 0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_unbounded_order_rejected_before_any_run(self, monkeypatch, theta):
        monkeypatch.setattr(mvfbm.study, "run", _must_not_run)
        monkeypatch.setattr(mvfbm.study, "run_coupled_meshes", _must_not_run)
        with pytest.raises(ArgumentError, match=f"theta must be finite and >= 2, got {theta}"):
            chaos_study(preset_mean_reverting(), 0.5, self.MESH, [4, 8], 2, theta, 0)

    @pytest.mark.parametrize(
        "arguments, match",
        [(dict(particle_counts=[8]), "two particle counts"),
         (dict(replications=0), "replication count must be >= 1, got 0"),
         (dict(workers=0), "worker count must be >= 1, got 0"),
         (dict(workers=-1), "worker count must be >= 1, got -1"),
         (dict(particle_counts=[0, 4]), "particle count must be >= 1, got 0"),
         (dict(particle_counts=[-2, 4]), "particle count must be >= 1, got -2"),
         *BAD_HURSTS, TOO_MANY_REPLICATIONS, *FRACTIONAL_COUNTS[1:],
         (dict(particle_counts=[2.5, 4]), "particle count must be an integer, got 2.5")],
        ids=["one-count", "no-replications", "no-workers", "negative-workers", "zero-count",
             "negative-count", *BAD_HURST_IDS, "too-many-replications", *FRACTIONAL_COUNT_IDS[1:],
             "fractional-count"],
    )
    def test_untrendable_arguments_rejected_before_any_run(self, monkeypatch, arguments, match):
        monkeypatch.setattr(mvfbm.study, "run", _must_not_run)
        monkeypatch.setattr(mvfbm.study, "run_coupled_meshes", _must_not_run)
        call = dict(hurst=0.5, mesh=self.MESH, particle_counts=[4, 8], replications=2, theta=2.0,
                    seed=0, workers=1) | arguments
        with pytest.raises(ArgumentError, match=match):
            chaos_study(preset_mean_reverting(), **call)

    def test_distances_grow_with_theta(self):
        # gaps^theta underflows at theta = 400: the distances must stay positive and ordered
        model = preset_mean_deviation(initial_spread=0.05)
        reports = [chaos_study(model, 0.7, UniformMesh(0.1, 8), [4, 8], 3, theta, 2024)
                   for theta in (2.0, 100.0, 400.0)]
        for points in zip(*(report.points for report in reports)):
            distances = [distance for _, distance, _ in points]
            assert 0.0 < distances[0] <= distances[1] <= distances[2]

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
        with pytest.raises(ArgumentError):
            moment_bound_check(preset_mean_reverting(), 0.5, DELTAS, 4, order=1.0, seed=0)

    @pytest.mark.parametrize(
        "arguments, match",
        [(dict(deltas=(2.0**-3,)), "two distinct deltas"),
         (dict(deltas=(2.0**-3, 2.0**-3)), "delta 0.125 is repeated"),
         (dict(deltas=()), r"two distinct deltas, got \[\]"),
         (dict(deltas=(0.0, 0.5)), r"positive and finite, got \[0.0, 0.5\], reference 0.0"),
         (dict(deltas=(math.nan, 0.5)), r"positive and finite, got \[nan, 0.5\], reference nan"),
         (dict(deltas=(0.5, math.inf)), r"positive and finite, got \[0.5, inf\], reference 0.5"),
         (dict(horizon=math.inf), r"positive and finite, got .*, horizon inf$"),
         (dict(horizon=math.nan), r"positive and finite, got .*, horizon nan$"), *BAD_HURSTS,
         (dict(deltas=(0.3, 0.2, 0.1), horizon=0.6), NON_NESTED[1]), FRACTIONAL_COUNTS[0],
         (dict(order="four"), "moment order must be finite and >= 2, got 'four'")],
        ids=["one-delta", "one-distinct-delta", "no-deltas", "zero-delta", "nan-delta",
             "infinite-delta", "infinite-horizon", "nan-horizon", *BAD_HURST_IDS, "non-nested",
             FRACTIONAL_COUNT_IDS[0], "string-order"],
    )
    def test_ratioless_ladder_rejected_before_any_run(self, monkeypatch, arguments, match):
        monkeypatch.setattr(mvfbm.study, "run_coupled_meshes", _must_not_run)
        call = dict(hurst=0.5, deltas=DELTAS, particles=4, order=2.0, seed=0, horizon=1.0) | arguments
        with pytest.raises(ArgumentError, match=match):
            moment_bound_check(preset_mean_reverting(), **call)

    @pytest.mark.parametrize("order", [math.nan, math.inf])
    def test_unbounded_order_rejected_before_any_run(self, monkeypatch, order):
        monkeypatch.setattr(mvfbm.study, "run_coupled_meshes", _must_not_run)
        message = f"moment order must be finite and >= 2, got {order}"
        with pytest.raises(ArgumentError, match=message):
            moment_bound_check(preset_mean_reverting(), 0.5, DELTAS, 4, order=order, seed=0)

    def test_no_particles_rejected_before_any_run(self, monkeypatch):
        monkeypatch.setattr(mvfbm.study, "run_coupled_meshes", _must_not_run)
        with pytest.raises(ArgumentError, match="particle count must be >= 1, got 0"):
            moment_bound_check(preset_mean_reverting(), 0.5, DELTAS, 0, order=2.0, seed=0)


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

    def test_no_paths_rejected_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(CirculantSampler, "sample_ensemble", _must_not_run)
        with pytest.raises(ArgumentError, match="path count must be >= 1, got 0"):
            covariance_check(0.7, steps=8, paths=0, seed=5)

    @pytest.mark.parametrize(
        "arguments, match",
        [(dict(steps=0), "mesh steps must be >= 1, got 0"),
         (dict(steps=-3), "mesh steps must be >= 1, got -3"),
         (dict(horizon=0.0), "positive and finite, got 0.0"),
         (dict(horizon=math.nan), "positive and finite, got nan"),
         (dict(horizon=math.inf), "positive and finite, got inf"), *BAD_HURSTS,
         (dict(steps=8.0), "mesh steps must be an integer, got 8.0"),
         (dict(paths=2.5), "path count must be an integer, got 2.5")],
        ids=["no-steps", "negative-steps", "zero-horizon", "nan-horizon", "infinite-horizon",
             *BAD_HURST_IDS, "fractional-steps", "fractional-paths"],
    )
    def test_bad_mesh_rejected_before_any_draw(self, monkeypatch, arguments, match):
        monkeypatch.setattr(CirculantSampler, "sample_ensemble", _must_not_run)
        call = dict(hurst=0.7, steps=8, paths=8, seed=5, horizon=1.0) | arguments
        with pytest.raises(ArgumentError, match=match):
            covariance_check(**call)

    def test_negative_seed_rejected_before_any_draw(self, monkeypatch):
        # the words of a negative seed never end, so seeding it used to hang
        monkeypatch.setattr(CirculantSampler, "sample_ensemble", _must_not_run)
        with pytest.raises(ValueError, match="stream seed must be nonnegative, got -1"):
            covariance_check(0.5, 4, 2, -1)

    def test_paths_are_addressed_without_a_key_each(self, monkeypatch):
        built = []
        check = StreamKey.__post_init__
        monkeypatch.setattr(StreamKey, "__post_init__", lambda key: built.append(key) or check(key))
        covariance_check(0.5, steps=8, paths=50, seed=5)
        assert [(key.seed, key.path) for key in built] == [(5, ())]  # the root alone

    def test_no_n_by_n_array_is_held(self):
        # at n = 1024 one n x n array of moments is 8 MiB, and the sample of 64 paths 0.5 MiB
        covariance_check(0.3, 4, 2, 2024)  # what the first call imports is not the audit's
        tracemalloc.start()
        try:
            covariance_check(0.3, 1024, 64, 2024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


@pytest.mark.parametrize("study_call", [
    lambda h: strong_error_study(preset_mean_reverting(), h, 4, 2, DELTAS[:2], REFERENCE, 0),
    lambda h: chaos_study(preset_mean_reverting(), h, UniformMesh(1.0, 8), [2, 4], 2, 2.0, 0),
    lambda h: moment_bound_check(preset_mean_reverting(), h, DELTAS[:2], 4, 2.0, 0),
    lambda h: covariance_check(h, steps=4, paths=8, seed=0),
], ids=["convergence", "chaos", "moments", "fbm-check"])
def test_numpy_hurst_is_written_as_a_float(study_call):
    # under numpy 2 the repr of np.float64(0.3), which a CSV value is written with,
    # is "np.float64(0.3)": the study must hand its report a plain float
    assert "# hurst=0.3\n" in study_call(np.float64(0.3)).to_csv()


@pytest.mark.parametrize("seed", [-1, 1.5], ids=["negative-seed", "fractional-seed"])
@pytest.mark.parametrize("study_call", [
    lambda seed: strong_error_study(preset_mean_reverting(), 0.7, 4, 2, DELTAS[:2], REFERENCE, seed),
    lambda seed: chaos_study(preset_mean_reverting(), 0.7, UniformMesh(1.0, 8), [2, 4], 2, 2.0, seed),
    lambda seed: moment_bound_check(preset_mean_reverting(), 0.7, DELTAS[:2], 4, 2.0, seed),
    lambda seed: covariance_check(0.7, steps=4, paths=8, seed=seed),
], ids=["convergence", "chaos", "moments", "fbm-check"])
def test_bad_seed_is_a_study_argument_error(monkeypatch, study_call, seed):
    # a seed becomes its stream key where the study takes it: 1.5 is not run as seed 1
    monkeypatch.setattr(mvfbm.study, "run", _must_not_run)
    monkeypatch.setattr(mvfbm.study, "run_coupled_meshes", _must_not_run)
    monkeypatch.setattr(CirculantSampler, "sample_ensemble", _must_not_run)
    with pytest.raises(ArgumentError, match=rf"stream seed .*got .*{re.escape(str(seed))}"):
        study_call(seed)


# --------------------------------------------------------------------------
# Batching: replications share simulator runs without changing a byte.
# --------------------------------------------------------------------------


def _measure_noise_model():
    return ModelSpec(
        name="measure-noise", dimension=1, drift=reverting_drift,
        diffusion=MeasureDiffusion(mean_shifted_sigma), initial=1.0,
    )


BATCH_PARTICLES = 12
BATCH_REPLICATIONS = 16
BATCH_STEPS = 128  # reference mesh of the convergence runs, mesh of the chaos runs


# (replications per batch, FFT rows, workers, usable cores or None for the
# host's); the first is the unbatched run.  The batch sizes hold at the
# largest particle count of a run.  With three cores, each pool worker deals
# its FFT blocks to three sampler threads whatever the host has.
BATCH_VARIANTS = {
    "batch-1": (1, 64, 1, None),
    "batch-R": (BATCH_REPLICATIONS, 64, 1, None),
    "batch-7": (7, 64, 1, None),
    "fft-1": (BATCH_REPLICATIONS, 1, 1, None),
    "fft-3": (7, 3, 1, None),
    "fft-all": (BATCH_REPLICATIONS, 10**6, 1, None),
    "workers-2": (7, 64, 2, None),
    "workers-2-cores-3": (7, 64, 2, 3),
}


def _batch_budget(replications, particles=BATCH_PARTICLES, dimension=1):
    """The batch budget that holds ``replications`` runs of BATCH_STEPS driver steps."""
    return replications * particles * BATCH_STEPS * dimension * 8


def _csv_per_variant(monkeypatch, particles, dimension, study_call):
    host_cores = mvfbm.fbm.usable_cores
    out = {}
    for name, (replications, fft_rows, workers, cores) in BATCH_VARIANTS.items():
        budget = _batch_budget(replications, particles, dimension)
        monkeypatch.setattr(mvfbm.study, "_BATCH_BYTES", budget)
        # the byte budget of fft_rows rows of the BATCH_STEPS + 1 complex modes
        monkeypatch.setattr(mvfbm.fbm, "_FFT_BLOCK_BYTES", fft_rows * 16 * (BATCH_STEPS + 1))
        # a forked pool worker inherits the patched count
        monkeypatch.setattr(mvfbm.fbm, "usable_cores", host_cores if cores is None else lambda: cores)
        out[name] = study_call(workers).to_csv()
    return out


class TestBatching:
    @pytest.mark.parametrize(
        "model, hurst, particles",
        [
            (preset_mean_deviation(initial_spread=0.5), 0.7, BATCH_PARTICLES),  # per-particle sigma
            (preset_mean_reverting(xi=1.0, rate=1.0), 0.3, BATCH_PARTICLES),  # constant sigma
            (_measure_noise_model(), 0.7, BATCH_PARTICLES),  # one sigma per replication
            (planar_model(), 0.6, BATCH_PARTICLES),  # d = 2: a matrix product per replication
            # One particle per replication: a product over all rows at once
            # would round differently here than replication by replication.
            (planar_model(), 0.6, 1),
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
        [preset_mean_deviation(initial_spread=0.5), planar_model()],  # 1d-exact, coupling-bound
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

    def test_one_em_step_per_fine_step_per_batch(self, monkeypatch):
        # the meshes of a batch advance together: each fine step makes one call
        # on the rows of every mesh whose step ends there
        monkeypatch.setattr(mvfbm.study, "_BATCH_BYTES", _batch_budget(7))
        rows, builds = [], []
        step, build = mvfbm.simulator.em_step, CirculantSampler.__init__

        def counting_step(ensemble, *args):
            rows.append(ensemble.states.shape[0])
            return step(ensemble, *args)

        def counting_build(sampler, *args):
            builds.append(args)
            build(sampler, *args)

        monkeypatch.setattr(mvfbm.simulator, "em_step", counting_step)
        monkeypatch.setattr(CirculantSampler, "__init__", counting_build)
        strong_error_study(
            preset_mean_reverting(), 0.3, BATCH_PARTICLES, BATCH_REPLICATIONS, DELTAS,
            1.0 / BATCH_STEPS, seed=1,
        )
        factors = [round(d * BATCH_STEPS) for d in DELTAS]
        assert factors == [16, 8, 4]
        batch_sizes = [7, 7, 2]  # 16 replications under a 7-replication budget
        meshes_stepping = [1 + sum(k % f == 0 for f in factors) for k in range(1, BATCH_STEPS + 1)]
        assert rows == [n * BATCH_PARTICLES * m for n in batch_sizes for m in meshes_stepping]
        # every mesh still makes all its particle-steps
        assert sum(rows) == BATCH_REPLICATIONS * BATCH_PARTICLES * (128 + 8 + 16 + 32)
        assert len(builds) == len(batch_sizes)  # one sampler per batch, built where it draws

    @pytest.mark.parametrize("workers", [1, 2])  # a worker's blow-up must reach the caller
    def test_blowup_in_a_batched_run_names_the_replication(self, monkeypatch, workers):
        model = unstable_cubic(initial=0.0, initial_spread=0.4)
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
