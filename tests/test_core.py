import numpy as np
import pytest

from kdrecon.core import (
    DensityMatrix,
    ObservableSpec,
    QuantumState,
    check_incompatibility,
    expectation,
    haar_unitary,
    observable_power,
    pauli_spec,
    random_density,
    random_observable,
    random_state,
)
from kdrecon.errors import DegenerateNodes, DimensionMismatch, NormViolation

SZ = pauli_spec("z")
SX = pauli_spec("x")


def spin1_diag():
    return ObservableSpec([-1.0, 0.0, 1.0], np.eye(3), label="spin1")


class TestObservablePower:
    def test_zeroth_power_is_identity(self):
        obs = random_observable(4, seed=0)
        assert np.allclose(observable_power(obs, 0), np.eye(4))

    def test_sigma_z_squared_is_identity(self):
        assert np.allclose(observable_power(SZ, 2), np.eye(2))

    def test_spin1_cube(self):
        # diagonal observable: cube acts elementwise on the eigenvalues
        assert np.allclose(observable_power(spin1_diag(), 3), np.diag([-1.0, 0.0, 1.0]))

    def test_power_additivity(self):
        obs = random_observable(5, seed=3)
        for n, m in [(1, 2), (3, 4), (0, 8), (2, 2)]:
            prod = observable_power(obs, n) @ observable_power(obs, m)
            assert np.max(np.abs(prod - observable_power(obs, n + m))) < 1e-10

    def test_hermitian(self):
        obs = random_observable(6, seed=9)
        m = observable_power(obs, 3)
        assert np.max(np.abs(m - m.conj().T)) < 1e-12


class TestIncompatibility:
    def test_mutually_unbiased_qubit_bases(self):
        overlaps, violations = check_incompatibility(SZ, SX, 1e-8)
        assert np.allclose(np.abs(overlaps), 1 / np.sqrt(2))
        assert violations == []

    def test_identical_bases_violate(self):
        _, violations = check_incompatibility(SZ, SZ, 1e-8)
        assert set(violations) == {(0, 1), (1, 0)}

    def test_near_orthogonal_tilt_detected(self):
        eps = 1e-12
        tilted = ObservableSpec(
            [1.0, -1.0],
            np.array([[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]]),
        )
        _, violations = check_incompatibility(SZ, tilted, 1e-8)
        assert violations  # needs an operator tilt before frames are usable

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_incompatibility(SZ, random_observable(3, 0), 1e-8)


class TestExpectation:
    def test_identity_norm(self, ket0):
        assert expectation(ket0, np.eye(2)) == pytest.approx(1)

    def test_plus_state_sigma_z(self, plus_x):
        assert abs(expectation(plus_x, observable_power(SZ, 1))) < 1e-14

    def test_product_sigma_z_sigma_x(self, ket0):
        # sigma_z sigma_x = i sigma_y, whose |0> expectation vanishes
        m = observable_power(SZ, 1) @ observable_power(SX, 1)
        assert abs(expectation(ket0, m)) < 1e-14

    def test_density_matrix_trace_form(self):
        rho = random_density(3, seed=4)
        m = observable_power(random_observable(3, 5), 2)
        direct = np.trace(m @ rho.matrix)
        assert expectation(rho, m) == pytest.approx(direct)

    def test_real_for_hermitian(self):
        for seed in range(20):
            obs = random_observable(4, seed)
            psi = random_state(4, seed + 100)
            assert abs(expectation(psi, observable_power(obs, 1)).imag) < 1e-10


class TestConstructors:
    def test_state_norm_enforced(self):
        with pytest.raises(NormViolation):
            QuantumState([1, 1])
        # NaN fails every tolerance check, as the zero vector's normalization gives
        with pytest.raises(NormViolation):
            QuantumState([np.nan, 0])
        with pytest.raises(NormViolation), np.errstate(invalid="ignore"):
            QuantumState.normalized([0, 0])

    def test_degenerate_eigenvalues_rejected(self):
        with pytest.raises(DegenerateNodes):
            ObservableSpec([1.0, 1.0 + 1e-12], np.eye(2))
        with pytest.raises(DegenerateNodes):
            ObservableSpec([1.0, np.nan], np.eye(2))

    def test_non_unitary_rejected(self):
        with pytest.raises(NormViolation):
            ObservableSpec([1.0, -1.0], np.array([[1, 1], [0, 1]], dtype=complex))
        with pytest.raises(NormViolation):
            ObservableSpec([1.0, -1.0], np.array([[1, 0], [0, np.nan]]))
        with pytest.raises(NormViolation):
            ObservableSpec.from_matrix([[1, 0], [0, np.nan]])

    def test_haar_unitary_is_unitary(self):
        for seed in range(5):
            u = haar_unitary(6, seed)
            assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-12

    def test_from_matrix_roundtrip(self):
        obs = random_observable(4, seed=8)
        rebuilt = ObservableSpec.from_matrix(observable_power(obs, 1))
        assert np.allclose(np.sort(rebuilt.eigenvalues), np.sort(obs.eigenvalues), atol=1e-10)

    def test_density_positivity_enforced(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(NormViolation):
            DensityMatrix(bad)
        with pytest.raises(NormViolation):
            DensityMatrix(np.diag([np.nan, 0.5]))
        with pytest.raises(NormViolation):
            DensityMatrix(np.diag([0.5 + 1j * np.nan, 0.5]))

    def test_pure_density_is_the_outer_product_read_only(self):
        for d in (1, 2, 8, 32):
            psi = random_state(d, 40 + d)
            rho = psi.density()
            assert isinstance(rho, DensityMatrix) and rho.dim == d
            assert np.array_equal(rho.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()))
            assert not rho.matrix.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rho.matrix[0, 0] = 0

    def test_observables_compare_and_hash_by_identity(self):
        a = random_observable(3, seed=9)
        twin = ObservableSpec(a.eigenvalues, a.eigenvectors, label=a.label)
        assert a == a and a != twin
        assert hash(a) == hash(a) and len({a, twin}) == 2
        assert not a.eigenvalues.flags.writeable and not a.eigenvectors.flags.writeable

    def test_eigenvalues_are_copied_from_the_caller(self):
        vals = np.array([1.0, -1.0])
        obs = ObservableSpec(vals, np.eye(2))
        vals[0] = 5.0  # the caller's array stays writable and is not shared
        assert np.array_equal(obs.eigenvalues, [1.0, -1.0])
