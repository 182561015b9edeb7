import numpy as np
import pytest

from kdrecon.core import (
    ObservableSpec,
    QuantumState,
    pauli_spec,
    random_observable,
    random_state,
)
from kdrecon.errors import DimensionMismatch
from kdrecon.moments import (
    correlation_matrix,
    correlation_tensor,
    moment_vector,
)
from kdrecon.oracle import kd_conditional, kd_joint, kd_npoint
from kdrecon.reconstruct import (
    conditional_from_moments,
    joint_from_correlations,
    npoint_from_correlations,
)

SZ = pauli_spec("z")
SX = pauli_spec("x")


class TestConditional:
    def test_qubit_symbolic_w(self):
        for w in [0.3, -2.0, 1j, 0.5 + 0.25j]:
            q = conditional_from_moments(SZ, [1, w])
            assert np.allclose(q.values, [(1 + w) / 2, (1 - w) / 2])

    def test_qubit_weak_value_i(self):
        q = conditional_from_moments(SZ, [1, 1j])
        assert np.allclose(q.values, [(1 + 1j) / 2, (1 - 1j) / 2])

    def test_spin1_hand_inverse(self):
        spin1 = ObservableSpec([-1.0, 0.0, 1.0], np.eye(3))
        m1, m2 = 0.4 - 0.2j, 0.9
        q = conditional_from_moments(spin1, [1, m1, m2])
        assert np.allclose(q.values, [(m2 - m1) / 2, 1 - m2, (m1 + m2) / 2])

    def test_matches_oracle_up_to_d6(self):
        for seed in range(24):
            d = 2 + seed % 5
            psi = random_state(d, seed)
            a = random_observable(d, seed + 300)
            b = random_observable(d, seed + 600)
            j = seed % d
            phi = QuantumState(b.eigenvector(j))
            mv = moment_vector(a, psi, phi)
            q = conditional_from_moments(a, mv)
            oracle = kd_conditional(psi, a, b, j)
            assert np.max(np.abs(q.values - oracle.values)) < 1e-8

    def test_anomalous_moment_leaves_unit_interval(self):
        # |w| beyond the spectral range, or complex w, must push some entry
        # outside [0, 1]
        for w in [3.0, -1.5, 0.4 + 0.3j]:
            q = conditional_from_moments(SZ, [1, w]).values
            outside = (np.abs(q.imag) > 1e-12) | (q.real < -1e-12) | (q.real > 1 + 1e-12)
            assert np.any(outside)

    def test_overdetermined_consistent_equals_exact(self):
        psi = random_state(2, 77)
        phi = QuantumState(SX.eigenvector(0))
        exact = conditional_from_moments(SZ, moment_vector(SZ, psi, phi))
        extra = conditional_from_moments(SZ, moment_vector(SZ, psi, phi, orders=4))
        assert np.max(np.abs(exact.values - extra.values)) < 1e-9

    def test_bad_zeroth_moment_rejected(self):
        for moments in ([0.9, 0.1], [np.nan, 0.1]):
            with pytest.raises(ValueError, match="zeroth moment"):
                conditional_from_moments(SZ, moments)

    @pytest.mark.parametrize("moments", [[], [[1, 0.5]], 1.0])
    def test_moments_must_be_a_nonempty_vector(self, moments):
        with pytest.raises(DimensionMismatch):
            conditional_from_moments(SZ, moments)

    def test_inconsistent_sum_warns(self):
        # four moments of inconsistent data: the least-squares fit no longer
        # sums to 1, which must be reported, not hidden
        with pytest.warns(RuntimeWarning, match="sums to"):
            conditional_from_moments(SZ, [1, 0.3, 0.9, 0.2])

    def test_renormalize_flag(self):
        with pytest.warns(RuntimeWarning):
            q = conditional_from_moments(SZ, [1, 0.3, 0.9, 0.2], renormalize=True)
        assert abs(np.sum(q.values) - 1.0) < 1e-12


class TestJoint:
    def test_hand_sandwich(self):
        c = [[1, 0], [1, 0]]
        q = joint_from_correlations(SZ, SX, c)
        assert np.allclose(q.values, [[0.5, 0.5], [0, 0]])
        # equals conj(kd_joint) of |0>
        k = kd_joint(QuantumState([1, 0]), SZ, SX)
        assert np.max(np.abs(q.values - k.values.conj())) < 1e-12

    def test_maximally_mixed(self):
        c = [[1, 0], [0, 0]]
        q = joint_from_correlations(SZ, SX, c)
        assert np.allclose(q.values, 0.25)

    def test_chebyshev_nodes_d4(self):
        nodes = np.cos((2 * np.arange(4) + 1) * np.pi / 8)
        for seed in range(5):
            a = random_observable(4, seed + 1000, eigenvalues=np.sort(nodes))
            b = random_observable(4, seed + 2000, eigenvalues=np.sort(nodes))
            psi = random_state(4, seed)
            q = joint_from_correlations(a, b, correlation_matrix(a, b, psi))
            k = kd_joint(psi, a, b)
            assert np.max(np.abs(q.values - k.values.conj())) < 1e-8

    def test_ordering_tag(self):
        c = [[1, 0], [0, 0]]
        assert joint_from_correlations(SZ, SX, c).ordering_tag == "kd-conjugate"

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionMismatch, match="must be 2x2"):
            joint_from_correlations(SZ, SX, [1, 0, 0, 0])

    def test_bad_c00_rejected(self):
        for c00 in (0.9, np.nan):
            with pytest.raises(ValueError, match=r"C\[0,0\] must be 1"):
                joint_from_correlations(SZ, SX, [[c00, 0], [0, 0]])


class TestNpoint:
    def test_n1_reduces_to_conditional(self):
        psi = random_state(3, 50)
        a = random_observable(3, 51)
        t = correlation_tensor([a], psi)
        q1 = npoint_from_correlations([a], t)
        q2 = conditional_from_moments(a, t)
        assert np.max(np.abs(q1.values - q2.values)) < 1e-10

    def test_n2_reduces_to_joint(self):
        psi = random_state(3, 52)
        a = random_observable(3, 53)
        b = random_observable(3, 54)
        t = correlation_tensor([a, b], psi)
        q1 = npoint_from_correlations([a, b], t)
        q2 = joint_from_correlations(a, b, correlation_matrix(a, b, psi))
        assert np.max(np.abs(q1.values - q2.values)) < 1e-10

    def test_n3_zxz_oracle(self, ket0):
        obs = [pauli_spec("z"), pauli_spec("x"), pauli_spec("z", label="sigma_z2")]
        t = correlation_tensor(obs, ket0)
        q = npoint_from_correlations(obs, t)
        k = kd_npoint(ket0, obs)
        assert np.max(np.abs(q.values - k.values)) < 1e-9

    def test_random_sweeps(self):
        for d, n in [(2, 3), (3, 3), (2, 4)]:
            for seed in range(5):
                psi = random_state(d, seed)
                obs = [
                    random_observable(d, 100 * n + 10 * ax + seed, label=f"O{ax}")
                    for ax in range(n)
                ]
                t = correlation_tensor(obs, psi)
                q = npoint_from_correlations(obs, t)
                k = kd_npoint(psi, obs)
                assert np.max(np.abs(q.values - k.values)) < 1e-7

    def test_no_observables_rejected(self):
        with pytest.raises(ValueError, match="at least one observable"):
            npoint_from_correlations([], np.ones(()))
