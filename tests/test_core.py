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
    overlap_matrix,
    pauli_spec,
    random_density,
    random_observable,
    random_state,
    require_index,
)
from kdrecon.errors import DegenerateNodes, DimensionMismatch, NormViolation, SizeCap
from kdrecon.moments import (
    char_fn_discrete,
    correlation_matrix,
    correlation_tensor,
    moment_vector,
)
from kdrecon.oracle import kd_conditional, kd_joint, kd_npoint, postselection_probability
from kdrecon.reconstruct import (
    conditional_from_moments,
    joint_from_correlations,
    npoint_from_correlations,
)

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

    def test_eigenvectors_are_copied_from_the_caller(self):
        u = np.eye(2, dtype=complex)
        obs = ObservableSpec([1.0, -1.0], u)
        assert u.flags.writeable  # the caller's own array is not frozen
        u.setflags(write=True)
        u[:] = 0
        assert np.array_equal(obs.eigenvectors, np.eye(2))
        assert not obs.eigenvectors.flags.writeable

    def test_states_are_copied_from_the_caller(self):
        amps = np.array([1.0, 1.0j]) / np.sqrt(2)
        psi = QuantumState(amps)
        rho_in = np.outer(amps, amps.conj())
        rho = DensityMatrix(rho_in)
        assert amps.flags.writeable and rho_in.flags.writeable
        amps[:] = [1.0, 0.0]
        rho_in[:] = 0
        assert np.array_equal(psi.amplitudes, np.array([1.0, 1.0j]) / np.sqrt(2))
        assert np.array_equal(rho.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()))
        assert not psi.amplitudes.flags.writeable and not rho.matrix.flags.writeable


Q3 = random_observable(3, 0)


@pytest.mark.parametrize("call, error, match", [
    (lambda: QuantumState([]), DimensionMismatch, "nonempty vector"),
    (lambda: QuantumState([[1, 0]]), DimensionMismatch, "nonempty vector"),
    (lambda: DensityMatrix(np.full((2, 3), 0.5)), DimensionMismatch, "square"),
    (lambda: DensityMatrix(np.eye(2)), NormViolation, "trace"),
    (lambda: ObservableSpec([1.0, -1.0], np.eye(3)), DimensionMismatch, "eigenvector matrix"),
    (lambda: observable_power(SZ, -1), ValueError, "non-negative"),
    (lambda: check_incompatibility(SZ, SX, 0.0), ValueError, "threshold"),
    (lambda: check_incompatibility(SZ, SX, np.nan), ValueError, "threshold"),
    (lambda: expectation(QuantumState([1, 0]), np.eye(3)), DimensionMismatch, "operator shape"),
    (lambda: expectation(random_density(2, seed=1), np.eye(3)), DimensionMismatch,
     "operator shape"),
    (lambda: expectation(np.array([1.0, 0.0]), np.eye(2)), TypeError, "unsupported state"),
    (lambda: pauli_spec("w"), ValueError, "unknown Pauli axis"),
], ids=["empty-state", "2d-state", "non-square-density", "density-trace",
        "eigenvector-shape", "negative-power", "zero-threshold", "nan-threshold",
        "pure-operator-shape", "mixed-operator-shape", "state-type", "pauli-axis"])
def test_typed_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_bool_index_is_a_type_error():
    # numpy reads a bool as a mask, so True would select a (1, ...) slice
    # where the index 1 selects one entry
    for bad in (True, False):
        with pytest.raises(TypeError, match="must be an integer"):
            require_index(bad, 3, "index")
        with pytest.raises(TypeError, match="must be an integer"):
            Q3.eigenvector(bad)
    assert require_index(np.int64(2), 3, "index") == 2
    assert type(require_index(np.int64(2), 3, "index")) is int


@pytest.mark.parametrize("bad", ["3", 2.5, None, np.float64(2.0), np.arange(2)],
                         ids=["str", "float", "none", "numpy-float", "array"])
def test_non_integer_index_is_a_type_error_that_names_it(bad):
    with pytest.raises(TypeError, match=r"^outcome must be an integer, got "):
        require_index(bad, 3, "outcome")


def test_pure_density_is_checked_as_any_density_matrix(monkeypatch):
    # density() has one constructor, the checked one, eigensolve included
    def eigvalsh(m):
        raise AssertionError("eigensolved")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    with pytest.raises(AssertionError, match="eigensolved"):
        random_state(3, 1).density()


PSI2, PSI3, RHO3 = random_state(2, 1), random_state(3, 2), random_density(3, 3)
# a dense d x d array past TENSOR_CAP (1e6 entries), and 2^20 entries of N = 20 qubits
BIG = ObservableSpec(np.arange(1001.0), np.eye(1001))
BIG_PSI = QuantumState(np.eye(1001)[0])
TWENTY = [SZ] * 20


@pytest.mark.parametrize("call, error, match", [
    (lambda: moment_vector(SZ, PSI3, PSI3), DimensionMismatch, r"moment_vector: .* \[2, 3, 3\]"),
    (lambda: moment_vector(SZ, PSI2, PSI3), DimensionMismatch, r"moment_vector: .* \[2, 2, 3\]"),
    (lambda: correlation_matrix(SZ, Q3, PSI2), DimensionMismatch, "correlation_matrix: "),
    (lambda: correlation_matrix(SZ, SX, RHO3), DimensionMismatch, "correlation_matrix: "),
    (lambda: correlation_matrix(BIG, BIG, BIG_PSI), SizeCap, "correlation_matrix: "),
    (lambda: correlation_tensor([SZ, Q3], PSI2), DimensionMismatch, "correlation_tensor: "),
    (lambda: correlation_tensor([SZ, SX], RHO3), DimensionMismatch, "correlation_tensor: "),
    (lambda: correlation_tensor([], PSI2), ValueError, "correlation_tensor needs"),
    (lambda: correlation_tensor(TWENTY, PSI2), SizeCap, r"correlation_tensor: .* 2\^20"),
    (lambda: char_fn_discrete(SZ, Q3, PSI2, 0.1, 0.2), DimensionMismatch, "char_fn_discrete: "),
    (lambda: char_fn_discrete(SZ, SX, RHO3, 0.1, 0.2), DimensionMismatch, "char_fn_discrete: "),
    (lambda: char_fn_discrete(BIG, BIG, BIG_PSI, 0.1, 0.2), SizeCap, "char_fn_discrete: "),
    (lambda: overlap_matrix(SZ, Q3), DimensionMismatch, "overlap_matrix: "),
    (lambda: overlap_matrix(BIG, BIG), SizeCap, r"overlap_matrix: .* 1001\^2"),
    (lambda: kd_joint(PSI3, SZ, SX), DimensionMismatch, "kd_joint: "),
    (lambda: kd_joint(RHO3, SZ, SX), DimensionMismatch, "kd_joint: "),
    (lambda: kd_joint(PSI2, SZ, Q3), DimensionMismatch, "kd_joint: "),
    (lambda: kd_joint(BIG_PSI, BIG, BIG), SizeCap, "kd_joint: "),
    (lambda: kd_conditional(PSI3, SZ, SX, 0), DimensionMismatch, "kd_conditional: "),
    (lambda: kd_conditional(RHO3, SZ, SX, 0), DimensionMismatch, "kd_conditional: "),
    (lambda: kd_conditional(BIG_PSI, BIG, BIG, 0), SizeCap, "kd_conditional: "),
    (lambda: postselection_probability(PSI3, SX, 0), DimensionMismatch,
     "postselection_probability: "),
    (lambda: postselection_probability(RHO3, SX, 0), DimensionMismatch,
     "postselection_probability: "),
    (lambda: kd_npoint(PSI2, [SZ, Q3]), DimensionMismatch, "kd_npoint: "),
    (lambda: kd_npoint(PSI3, [SZ, SX]), DimensionMismatch, "kd_npoint: "),
    (lambda: kd_npoint(PSI2, []), ValueError, "kd_npoint needs"),
    (lambda: kd_npoint(PSI2, TWENTY), SizeCap, "kd_npoint: "),
    (lambda: conditional_from_moments(SZ, np.eye(2)), DimensionMismatch,
     "conditional pseudo-distribution data"),
    (lambda: joint_from_correlations(SZ, Q3, np.eye(2)), DimensionMismatch,
     "joint pseudo-distribution: "),
    (lambda: joint_from_correlations(BIG, BIG, np.eye(2)), SizeCap,
     "joint pseudo-distribution: "),
    (lambda: npoint_from_correlations([SZ, Q3], np.eye(2)), DimensionMismatch,
     "n-point pseudo-distribution: "),
    (lambda: npoint_from_correlations([], np.ones(())), ValueError,
     "n-point pseudo-distribution needs"),
    (lambda: npoint_from_correlations(TWENTY, np.ones(())), SizeCap,
     "n-point pseudo-distribution: "),
], ids=["moment_vector-state", "moment_vector-post-state", "correlation_matrix-observables",
        "correlation_matrix-state", "correlation_matrix-cap", "correlation_tensor-observables",
        "correlation_tensor-mixed-state", "correlation_tensor-empty", "correlation_tensor-cap",
        "char_fn_discrete-observables", "char_fn_discrete-state", "char_fn_discrete-cap",
        "overlap_matrix-observables", "overlap_matrix-cap", "kd_joint-state",
        "kd_joint-mixed-state", "kd_joint-observables", "kd_joint-cap", "kd_conditional-state",
        "kd_conditional-mixed-state", "kd_conditional-cap", "postselection_probability-state",
        "postselection_probability-mixed-state", "kd_npoint-observables", "kd_npoint-state",
        "kd_npoint-empty", "kd_npoint-cap", "conditional_from_moments-data",
        "joint_from_correlations-observables", "joint_from_correlations-cap",
        "npoint_from_correlations-observables", "npoint_from_correlations-empty",
        "npoint_from_correlations-cap"])
def test_every_discrete_entry_point_refuses_a_bad_shape_by_type(call, error, match):
    # one check, core.require_observables, names the entry point: no
    # observable, two dimensions among the observables and states, or a
    # d^N tensor past the cap
    with pytest.raises(error, match=match) as caught:
        call()
    assert type(caught.value) is error
