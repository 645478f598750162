"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.

Criteria 3 and 4 check the paper's strong-error bound, which is of order
H in the step size: the measured log-log slope must be at least H - 0.2.
They assert no upper edge.  The paper proves an upper bound on the error
only, not that the order is exactly H, and the measured orders of these
configurations are higher: about H + 1/2 for the additive-noise model of
criterion 4 and about 1 for the measure-dependent noise of criterion 3.
Both run models whose fBm noise is non-zero from the first step, so a
broken coupling of the coarse drivers to the fine ones shows up as a slope
below the bound.  The measured values are printed next to the verdict.
"""

import itertools
import math
import time

import numpy as np
import pytest

from mvfbm.fbm import (
    CholeskySampler,
    CirculantSampler,
    UniformMesh,
    increment_covariance_matrix,
)
from mvfbm.measure import EmpiricalMeasure, coupled_upper_bound, wasserstein_1d_exact
from mvfbm.model import (
    MeasureDiffusion,
    ModelSpec,
    preset_mean_deviation,
    preset_mean_reverting,
)
from mvfbm.streams import StreamKey
from mvfbm.study import chaos_study, moment_bound_check, strong_error_study
from mvfbm.cli import main as cli_main
from test_measure import moment_distance_to_dirac0

DESK_DELTAS = (2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8)
DESK_REFERENCE = 2.0**-10
DESK_PARTICLES = 200
DESK_REPLICATIONS = 50


def _mean_shifted_sigma(mu: EmpiricalMeasure) -> np.ndarray:
    # sigma(mu) = 1 + mean(mu) / 2: 3/2 on the point mass at 1, and the
    # ensemble mean grows like e^t, so the noise never switches off
    return 1.0 + 0.5 * mu.mean()


def _measure_noise_model() -> ModelSpec:
    """Mean-deviation drift 2x - mean(mu) with a non-vanishing measure noise.

    Both coefficients are Lipschitz with constant at most 2 in (x, mu).
    Module-level coefficients keep the spec picklable.
    """
    return ModelSpec(
        name="mean-deviation-measure-noise",
        dimension=1,
        drift=preset_mean_deviation().drift,
        diffusion=MeasureDiffusion(_mean_shifted_sigma),
        initial=1.0,
    )


def _verdict(criterion: str, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} -- {detail}")
    return passed


def _ensemble_increments(sampler, paths: int, seed: int) -> np.ndarray:
    root = StreamKey(seed)
    return sampler.sample_ensemble(1, [root.child(p) for p in range(paths)])[:, :, 0]


def test_criterion_1_fbm_exactness():
    """Each sampler's empirical covariance matches the exact matrix; the two
    samplers agree with each other; all within 5 standard errors."""
    started = time.perf_counter()
    paths = 10_000
    mesh = UniformMesh(1.0, 64)
    worst = 0.0
    worst_cross = 0.0
    for hurst in (0.3, 0.5, 0.7, 0.9):
        expected = increment_covariance_matrix(hurst, mesh)
        diag = np.diag(expected)
        stderr = np.sqrt((np.outer(diag, diag) + expected**2) / paths)
        samples = {}
        for name, sampler in (
            ("cholesky", CholeskySampler(hurst, mesh)),
            ("circulant", CirculantSampler(hurst, mesh)),
        ):
            increments = _ensemble_increments(sampler, paths, seed=1401)
            empirical = increments.T @ increments / paths
            z_max = float((np.abs(empirical - expected) / stderr).max())
            worst = max(worst, z_max)
            assert z_max < 5.0, f"H={hurst} {name}: covariance off by {z_max:.2f} se"
            samples[name] = increments
        cross_cov = float(
            (
                np.abs(
                    samples["cholesky"].T @ samples["cholesky"] / paths
                    - samples["circulant"].T @ samples["circulant"] / paths
                )
                / (math.sqrt(2.0) * stderr)
            ).max()
        )
        mean_se = np.sqrt(diag / paths)
        cross_mean = float(
            (
                np.abs(samples["cholesky"].mean(axis=0) - samples["circulant"].mean(axis=0))
                / (math.sqrt(2.0) * mean_se)
            ).max()
        )
        worst_cross = max(worst_cross, cross_cov, cross_mean)
        assert cross_cov < 5.0 and cross_mean < 5.0
    elapsed = time.perf_counter() - started
    ok = worst < 5.0 and worst_cross < 5.0 and elapsed < 60.0
    assert _verdict(
        "1 (fBm exactness)",
        ok,
        f"max deviation {worst:.2f} se, cross-sampler {worst_cross:.2f} se, {elapsed:.1f}s",
    )
    assert elapsed < 60.0


def test_criterion_2_increment_law():
    """Empirical E|B_t - B_s|^2 equals |t-s|^{2H} on random node pairs."""
    paths = 10_000
    rng = np.random.default_rng(214)
    worst = 0.0
    for hurst in (0.3, 0.7):
        mesh = UniformMesh(1.0, 128)
        increments = _ensemble_increments(CirculantSampler(hurst, mesh), paths, seed=77)
        values = np.concatenate(
            [np.zeros((paths, 1)), np.cumsum(increments, axis=1)], axis=1
        )
        for _ in range(10):
            i, j = sorted(rng.choice(mesh.steps + 1, size=2, replace=False))
            gap = values[:, j] - values[:, i]
            expected = (mesh.node(j) - mesh.node(i)) ** (2 * hurst)
            stderr = math.sqrt(2.0 / paths) * expected
            z = abs(float(np.mean(gap**2)) - expected) / stderr
            worst = max(worst, z)
            assert z < 5.0, f"H={hurst}, nodes ({i},{j}): off by {z:.2f} se"
    assert _verdict("2 (increment law)", worst < 5.0, f"max deviation {worst:.2f} se")


def test_criterion_3_strong_convergence_smooth_regime():
    """Desk-scale strong-error ladders for H in {0.6, 0.7, 0.8, 0.9}.

    Asserts the order-H error bound as slope >= H - 0.2 for each H, on a
    model whose diffusion sigma(mu) = 1 + mean(mu)/2 is a measure-dependent
    coefficient that is non-zero on the initial ensemble, so the fBm noise
    enters from the first step.  There is no upper edge: the bound is an
    upper bound on the error, and the measured slope of this model is
    about 1.09 for every H on this ladder.
    """
    model = _measure_noise_model()
    assert isinstance(model.diffusion, MeasureDiffusion)
    initial = EmpiricalMeasure(model.initial_states(DESK_PARTICLES, np.random.default_rng(0)))
    assert np.all(model.diffusion.fn(initial) != 0.0)
    started = time.perf_counter()
    slopes = {}
    for hurst in (0.6, 0.7, 0.8, 0.9):
        report = strong_error_study(
            model,
            hurst,
            particles=DESK_PARTICLES,
            replications=DESK_REPLICATIONS,
            deltas=DESK_DELTAS,
            reference_delta=DESK_REFERENCE,
            seed=31415,
        )
        slopes[hurst] = report.slope
    elapsed = time.perf_counter() - started
    meets = {h: s >= h - 0.2 for h, s in slopes.items()}
    detail = ", ".join(f"H={h}: slope {s:.3f} (bound >= {h - 0.2:.1f})" for h, s in slopes.items())
    _verdict("3 (strong convergence, H>1/2)", all(meets.values()), f"{detail}; {elapsed:.0f}s")
    assert elapsed < 900.0
    for hurst, slope in slopes.items():
        assert slope >= hurst - 0.2, (
            f"H={hurst}: measured slope {slope:.3f} below the order-H bound {hurst - 0.2:.1f}"
        )


def test_criterion_4_strong_convergence_rough_regime():
    """Strong-error ladder for the constant-diffusion model at H = 0.3.

    Asserts the order-H error bound as slope >= H - 0.2 = 0.1.  There is no
    upper edge: the bound is an upper bound on the error, and the error of
    this smooth-drift additive-noise model is a time integral of mean-zero
    driver fluctuations, of order H + 1/2 (measured about 0.86).
    """
    started = time.perf_counter()
    report = strong_error_study(
        preset_mean_reverting(xi=1.0, rate=1.0),
        0.3,
        particles=DESK_PARTICLES,
        replications=DESK_REPLICATIONS,
        deltas=DESK_DELTAS,
        reference_delta=DESK_REFERENCE,
        seed=2718,
    )
    elapsed = time.perf_counter() - started
    ok = report.slope >= 0.1
    _verdict(
        "4 (strong convergence, H<1/2)",
        ok,
        f"H=0.3: slope {report.slope:.3f} (bound >= 0.1); {elapsed:.0f}s",
    )
    assert elapsed < 300.0
    assert report.slope >= 0.1, (
        f"measured slope {report.slope:.3f} below the order-H bound 0.1"
    )


def test_criterion_5_drift_free_exactness():
    """Drift-free constant-diffusion stepping reproduces every coarse mesh
    exactly (differences at floating summation-order scale only)."""
    report = strong_error_study(
        preset_mean_reverting(xi=1.0, rate=0.0),
        0.7,
        particles=64,
        replications=10,
        deltas=DESK_DELTAS,
        reference_delta=DESK_REFERENCE,
        seed=99,
    )
    worst = max(e for _, e in report.points)
    ok = report.exact_scheme and worst <= 1e-12
    assert _verdict(
        "5 (drift-free exactness)", ok, f"max RMS {worst:.2e}, flagged exact: {report.exact_scheme}"
    )


def test_criterion_6_chaos_trend():
    """Distance to a 4x reference ensemble is non-increasing in N within one
    combined standard error at each consecutive pair.

    Runs the measure-noise model of criterion 3, whose fBm noise is non-zero
    from the first step, so every distance is positive and the distance at
    N = 400 must sit below the one at N = 50 by more than their combined
    standard error (measured 1.658 -> 0.635 at seed 424242).
    """
    started = time.perf_counter()
    report = chaos_study(
        _measure_noise_model(),
        0.7,
        UniformMesh(1.0, 128),
        particle_counts=[50, 100, 200, 400],
        replications=30,
        theta=2.0,
        seed=424242,
    )
    elapsed = time.perf_counter() - started
    detail = ", ".join(f"N={n}: {d:.3f}±{s:.3f}" for n, d, s in report.points)
    (_, first, first_se), (_, last, last_se) = report.points[0], report.points[-1]
    positive = all(d > 0.0 for _, d, _ in report.points)
    decreasing = first - last > math.hypot(first_se, last_se)
    assert _verdict(
        "6 (chaos trend)",
        report.non_increasing and positive and decreasing,
        f"{detail}; {elapsed:.0f}s",
    )
    assert report.non_increasing
    assert positive, f"a zero distance means the noise never entered: {detail}"
    assert decreasing, f"N=400 not below N=50 by more than the combined stderr: {detail}"
    assert elapsed < 600.0


def test_criterion_7_moment_bounds():
    """Moment stability across refinement for the measure-noise model of
    criterion 3 at q = 4 (H = 0.7) and the mean-reverting preset at q = 2
    (H = 0.3), plus the exact Gaussian terminal moment of the drift-free
    model."""
    ladder = (2.0**-6, 2.0**-7, 2.0**-8)
    smooth = moment_bound_check(
        _measure_noise_model(), 0.7, ladder, particles=200, order=4.0, seed=5150
    )
    rough = moment_bound_check(
        preset_mean_reverting(xi=1.0, rate=1.0), 0.3, ladder, particles=200, order=2.0, seed=5151
    )
    xi = x0 = hurst = None
    xi, x0, hurst, particles = 1.0, 1.0, 0.7, 4000
    drift_free = moment_bound_check(
        preset_mean_reverting(xi=xi, rate=0.0, initial=x0),
        hurst,
        [2.0**-5, 2.0**-6],
        particles=particles,
        order=2.0,
        seed=5152,
    )
    terminal = drift_free.points[-1][2]
    expected = x0**2 + xi**2 * 1.0 ** (2 * hurst)
    # X_T ~ N(x0, T^{2H}): Var(X_T^2) = 4 x0^2 s^2 + 2 s^4 with s^2 = T^{2H}
    stderr = math.sqrt((4 * x0**2 + 2.0) / particles)
    gaussian_ok = abs(terminal - expected) < 5 * stderr
    ok = smooth.passed and rough.passed and gaussian_ok
    assert _verdict(
        "7 (moment bounds)",
        ok,
        f"q=4 ratios {tuple(round(r, 3) for r in smooth.ratios)}, "
        f"q=2 ratios {tuple(round(r, 3) for r in rough.ratios)}, "
        f"drift-free E|Y_T|^2 = {terminal:.4f} vs {expected:.4f} "
        f"(tolerance {5 * stderr:.4f})",
    )


def test_criterion_8_measure_oracles():
    """Exact 1-d distance vs brute-force permutation minimization, the
    coupling bound, and the origin-moment identity on random instances."""
    rng = np.random.default_rng(808)
    worst_oracle = worst_dirac = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        theta = float(rng.choice([2.0, 3.0, 4.0]))
        a = rng.normal(size=(n, 1)) * rng.uniform(0.5, 2.0)
        b = rng.normal(size=(n, 1)) * rng.uniform(0.5, 2.0)
        mu, nu = EmpiricalMeasure(a), EmpiricalMeasure(b)
        exact = wasserstein_1d_exact(mu, nu, theta)
        assert exact <= coupled_upper_bound(mu, nu, theta) + 1e-12
        best = min(
            float(np.mean(np.abs(a[:, 0] - b[list(perm), 0]) ** theta))
            for perm in itertools.permutations(range(n))
        ) ** (1.0 / theta)
        worst_oracle = max(worst_oracle, abs(exact - best))
        zeros = EmpiricalMeasure(np.zeros((n, 1)))
        worst_dirac = max(
            worst_dirac,
            abs(moment_distance_to_dirac0(mu, theta) - wasserstein_1d_exact(mu, zeros, theta)),
        )
    ok = worst_oracle < 1e-12 and worst_dirac < 1e-12
    assert _verdict(
        "8 (measure oracles)",
        ok,
        f"max |exact - brute force| {worst_oracle:.1e}, max origin-identity gap {worst_dirac:.1e}",
    )


def test_criterion_9_determinism(tmp_path, capsys):
    """Byte-identical report.csv for repeated runs and any worker count."""
    def invoke(label, workers):
        args = [
            "--command", "convergence", "--model", "mean-reverting", "--hurst", "0.3",
            "--particles", "16", "--replications", "4", "--deltas", "2^-3,2^-4,2^-5",
            "--reference-delta", "2^-7", "--seed", "1234", "--outdir", str(tmp_path),
            "--label", label, "--workers", str(workers),
        ]
        assert cli_main(args) == 0
        return (tmp_path / label / "report.csv").read_bytes()

    first = invoke("w1-a", 1)
    second = invoke("w1-b", 1)
    third = invoke("w2", 2)
    capsys.readouterr()
    ok = first == second == third
    assert _verdict(
        "9 (determinism)",
        ok,
        f"3 runs, {len(first)} bytes each, identical: {ok}",
    )
