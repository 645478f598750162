"""Distance identities, inequalities, and the brute-force transport oracle."""

import math

import numpy as np
import pytest

from mvfbm.measure import EmpiricalMeasure, coupled_upper_bound, wasserstein_1d_exact
from oracles import brute_force_w1d, moment_distance_to_dirac0


def test_order_requires_two():
    mu = EmpiricalMeasure(np.array([1.0, 2.0, 3.0]))
    nu = EmpiricalMeasure(np.array([0.0, 2.0, 4.0]))
    with pytest.raises(ValueError):
        moment_distance_to_dirac0(mu, 1.5)
    with pytest.raises(ValueError):
        coupled_upper_bound(mu, nu, 1.5)
    with pytest.raises(ValueError):
        wasserstein_1d_exact(mu, nu, 1.5)
    for distance in (coupled_upper_bound, wasserstein_1d_exact):
        for order in ("nan", "inf"):
            with pytest.raises(ValueError, match=f"must be finite and >= 2, got {order}"):
                distance(mu, nu, float(order))


def test_atoms_shape_normalized():
    mu = EmpiricalMeasure(np.array([1.0, 2.0, 3.0]))
    assert mu.atoms.shape == (3, 1)
    assert mu.size == 3 and mu.dimension == 1


@pytest.mark.parametrize("shape", [(0, 1), (2, 0, 1), (2, 2, 2, 2)],
                         ids=["no-atoms", "batch-of-no-atoms", "four-axes"])
def test_atoms_must_be_a_nonempty_measure_or_batch(shape):
    with pytest.raises(ValueError, match=r"atoms must be a nonempty \(N, d\) or \(R, N, d\) array"):
        EmpiricalMeasure(np.zeros(shape))


def test_atoms_cannot_be_reassigned():
    mu = EmpiricalMeasure(np.zeros((3, 1)))
    with pytest.raises(AttributeError, match="EmpiricalMeasure is immutable"):
        mu.atoms = np.ones((3, 1))


class TestDistanceToOrigin:
    def test_all_at_origin(self):
        mu = EmpiricalMeasure(np.zeros((5, 2)))
        assert moment_distance_to_dirac0(mu) == 0.0

    def test_hand_value(self):
        mu = EmpiricalMeasure(np.array([[3.0], [4.0]]))
        assert moment_distance_to_dirac0(mu, 2.0) == pytest.approx(math.sqrt(12.5), rel=1e-14)

    @pytest.mark.parametrize("theta", [2.0, 3.0, 5.5])
    def test_single_atom_gives_norm(self, theta):
        atom = np.array([[1.0, -2.0, 2.0]])
        mu = EmpiricalMeasure(atom)
        assert moment_distance_to_dirac0(mu, theta) == pytest.approx(3.0, rel=1e-12)

    def test_matches_exact_distance_to_zero_measure(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            atoms = rng.normal(size=(n, 1)) * 3
            mu = EmpiricalMeasure(atoms)
            zeros = EmpiricalMeasure(np.zeros((n, 1)))
            assert moment_distance_to_dirac0(mu, 2.0) == pytest.approx(
                wasserstein_1d_exact(mu, zeros, 2.0), abs=1e-12
            )


class TestCoupledUpperBound:
    def test_equal_measures(self):
        atoms = np.arange(6.0).reshape(3, 2)
        mu = EmpiricalMeasure(atoms)
        assert coupled_upper_bound(mu, mu) == 0.0

    def test_hand_value(self):
        mu = EmpiricalMeasure(np.array([[0.0], [2.0]]))
        nu = EmpiricalMeasure(np.array([[1.0], [3.0]]))
        assert coupled_upper_bound(mu, nu, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_translation(self):
        rng = np.random.default_rng(7)
        atoms = rng.normal(size=(10, 3))
        other = rng.normal(size=(10, 3))
        shift = np.array([0.5, -2.0, 1.0])
        base = coupled_upper_bound(EmpiricalMeasure(atoms), EmpiricalMeasure(other), 3.0)
        moved = coupled_upper_bound(
            EmpiricalMeasure(atoms + shift), EmpiricalMeasure(other + shift), 3.0
        )
        assert moved == pytest.approx(base, rel=1e-12)

    def test_uniform_shift_equals_norm(self):
        atoms = np.random.default_rng(1).normal(size=(8, 2))
        shift = np.array([3.0, 4.0])
        mu = EmpiricalMeasure(atoms)
        nu = EmpiricalMeasure(atoms + shift)
        assert coupled_upper_bound(mu, nu, 2.0) == pytest.approx(5.0, rel=1e-12)

    def test_mismatch_rejected(self):
        mu = EmpiricalMeasure(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            coupled_upper_bound(mu, EmpiricalMeasure(np.zeros((4, 1))))
        with pytest.raises(ValueError):
            coupled_upper_bound(mu, EmpiricalMeasure(np.zeros((3, 2))))
        with pytest.raises(ValueError, match=r"distances take one \(N, d\) measure, not a batch"):
            coupled_upper_bound(EmpiricalMeasure(np.zeros((2, 3, 1))), mu)


class TestExact1d:
    def test_hand_value_sorted_matching(self):
        mu = EmpiricalMeasure(np.array([[0.0], [2.0]]))
        nu = EmpiricalMeasure(np.array([[3.0], [1.0]]))
        assert wasserstein_1d_exact(mu, nu, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_permuted_multiset_is_zero(self):
        atoms = np.array([[1.0], [5.0], [-2.0], [5.0]])
        mu = EmpiricalMeasure(atoms)
        nu = EmpiricalMeasure(atoms[::-1].copy())
        assert wasserstein_1d_exact(mu, nu) == 0.0

    def test_two_diracs(self):
        mu = EmpiricalMeasure(np.array([[0.0]]))
        nu = EmpiricalMeasure(np.array([[5.0]]))
        assert wasserstein_1d_exact(mu, nu, 2.0) == pytest.approx(5.0)

    def test_dimension_guard(self):
        mu = EmpiricalMeasure(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="coupled_upper_bound"):
            wasserstein_1d_exact(mu, mu)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 10))
            mu = EmpiricalMeasure(rng.normal(size=(n, 1)))
            nu = EmpiricalMeasure(rng.normal(size=(n, 1)))
            d1 = wasserstein_1d_exact(mu, nu, 2.0)
            d2 = wasserstein_1d_exact(nu, mu, 2.0)
            assert d1 >= 0.0
            assert d1 == pytest.approx(d2, abs=1e-14)

    def test_matches_brute_force_and_coupling_bound(self):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            theta = float(rng.choice([2.0, 3.0, 4.0]))
            a = rng.normal(size=(n, 1)) * rng.uniform(0.5, 3.0)
            b = rng.normal(size=(n, 1)) * rng.uniform(0.5, 3.0)
            mu, nu = EmpiricalMeasure(a), EmpiricalMeasure(b)
            exact = wasserstein_1d_exact(mu, nu, theta)
            oracle = brute_force_w1d(a[:, 0], b[:, 0], theta)
            assert abs(exact - oracle) < 1e-12
            assert exact <= coupled_upper_bound(mu, nu, theta) + 1e-12


class TestMonotonicity:
    def test_true_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            mu = EmpiricalMeasure(rng.normal(size=(n, 1)))
            nu = EmpiricalMeasure(rng.normal(size=(n, 1)))
            low, high = sorted(rng.uniform(2.0, 6.0, size=2))
            assert wasserstein_1d_exact(mu, nu, low) <= wasserstein_1d_exact(mu, nu, high) + 1e-12

    def test_equal_measures(self):
        mu = EmpiricalMeasure(np.array([[1.0], [2.0]]))
        assert wasserstein_1d_exact(mu, mu, 2.0) <= wasserstein_1d_exact(mu, mu, 4.0) + 1e-12
