import tracemalloc

import numpy as np
import pytest

from kdrecon.core import (
    DensityMatrix,
    ObservableSpec,
    QuantumState,
    pauli_spec,
    random_density,
    random_observable,
    random_state,
)
from kdrecon.errors import (
    DimensionMismatch,
    IncompatibilityViolated,
    OrderingTagMismatch,
    PostSelectionTooWeak,
)
from kdrecon.moments import correlation_matrix
from kdrecon.oracle import (
    PseudoDistribution,
    _require_incompatible,
    kd_conditional,
    kd_joint,
    kd_marginals,
    kd_npoint,
    postselection_probability,
    reconstruct_state,
)
from kdrecon.reconstruct import joint_from_correlations

SZ = pauli_spec("z")
SX = pauli_spec("x")
SY = pauli_spec("y")


def frames(a, b):
    """Primary frame F[i,j] = |a_i><a_i|b_j><b_j| and dual G[i,j] = |a_i><b_j|/<b_j|a_i>.

    Returned as (d, d, d, d) arrays indexed [i, j, row, col]; they satisfy
    Tr(F_ij G_kl^dag) = delta_ik delta_jl.
    """
    overlaps = _require_incompatible(a, b)
    d = a.dim
    f = np.empty((d, d, d, d), dtype=complex)
    g = np.empty((d, d, d, d), dtype=complex)
    for i in range(d):
        ai = a.eigenvector(i)
        for j in range(d):
            bj = b.eigenvector(j)
            outer = np.outer(ai, bj.conj())
            f[i, j] = outer * overlaps[i, j]
            g[i, j] = outer / overlaps[i, j].conjugate()
    return f, g


def observable_transform(x, a, b):
    """T[i, j] = <a_i|X|b_j> / <a_i|b_j>, the dual-frame observable representation."""
    overlaps = _require_incompatible(a, b)
    inner = a.eigenvectors.conj().T @ np.asarray(x, dtype=complex) @ b.eigenvectors
    return inner / overlaps


def brute_force_joint(rho, a, b):
    d = a.dim
    k = np.empty((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            ai, bj = a.eigenvector(i), b.eigenvector(j)
            k[i, j] = (bj.conj() @ ai) * (ai.conj() @ rho.matrix @ bj)
    return k


class TestFrames:
    def test_duality_diagonal(self):
        f, g = frames(SZ, SX)
        assert np.trace(f[0, 0] @ g[0, 0].conj().T) == pytest.approx(1)

    def test_duality_off_diagonal(self):
        f, g = frames(SZ, SX)
        assert abs(np.trace(f[0, 0] @ g[0, 1].conj().T)) < 1e-14

    def test_f11_explicit(self):
        f, _ = frames(SZ, SX)
        assert np.allclose(f[0, 0], 0.5 * np.array([[1, 1], [0, 0]]))

    def test_full_duality_random_bases(self):
        a = random_observable(3, seed=1)
        b = random_observable(3, seed=2)
        f, g = frames(a, b)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        tr = np.trace(f[i, j] @ g[k, l].conj().T)
                        want = 1.0 if (i, j) == (k, l) else 0.0
                        assert abs(tr - want) < 1e-10

    def test_orthogonal_bases_rejected(self):
        with pytest.raises(IncompatibilityViolated):
            frames(SZ, SZ)


class TestKdJoint:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2)
        k = kd_joint(rho, SZ, SX)
        assert np.allclose(k.values, 0.25)

    def test_eigenstate_kills_row(self, ket0):
        k = kd_joint(ket0, SZ, SX)
        assert np.allclose(k.values, [[0.5, 0.5], [0, 0]])

    def test_phase_state_complex_entries(self):
        psi = QuantumState.normalized([1, np.exp(1j * np.pi / 4)])
        k = kd_joint(psi, SZ, SX)
        assert np.max(np.abs(k.values.imag)) > 1e-3
        assert np.allclose(k.values, brute_force_joint(psi.density(), SZ, SX))

    def test_sums_to_one_random(self):
        for seed in range(20):
            d = 2 + seed % 4
            rho = random_density(d, seed)
            a = random_observable(d, seed + 50)
            b = random_observable(d, seed + 90)
            k = kd_joint(rho, a, b)
            assert abs(k.total - 1.0) < 1e-10
            assert np.max(np.abs(k.values)) <= 1.0 + 1e-12

    def test_ordering_tag(self, ket0):
        assert kd_joint(ket0, SZ, SX).ordering_tag == "kd"

    @pytest.mark.parametrize("state", [QuantumState([0.6, 0.8]), random_density(2, 5)],
                             ids=["pure", "mixed"])
    def test_commuting_observables_give_the_born_diagonal(self, state):
        # K[i, j] = conj(<a_i|b_j>) <a_i|rho|b_j> divides by nothing, so a
        # vanishing overlap is a zero entry, not an IncompatibilityViolated
        rho = state.density() if isinstance(state, QuantumState) else state
        assert np.array_equal(kd_joint(state, SZ, SZ).values, np.diag(np.diag(rho.matrix)))
        for j in range(2):
            assert np.max(np.abs(kd_conditional(state, SZ, SZ, j).values - np.eye(2)[j])) <= 1e-15
        with pytest.raises(IncompatibilityViolated):
            reconstruct_state(kd_joint(state, SZ, SZ), SZ, SZ)


class TestKdConditional:
    def test_eigenstate_preselection_is_delta(self):
        psi = QuantumState(SZ.eigenvector(1))
        k = kd_conditional(psi, SZ, SX, 0)
        assert np.allclose(k.values, [0, 1])

    def test_weak_value_i_example(self, plus_x):
        # post-select |+y>, the first sigma_y eigenvector
        k = kd_conditional(plus_x, SZ, SY, 0)
        assert np.allclose(k.values, [(1 + 1j) / 2, (1 - 1j) / 2])

    def test_pre_equals_post_gives_born(self):
        psi = QuantumState(SX.eigenvector(0))
        k = kd_conditional(psi, SZ, SX, 0)
        overlaps = np.abs(SZ.eigenvectors.conj().T @ SX.eigenvector(0)) ** 2
        assert np.allclose(k.values, overlaps)

    def test_slices_sum_to_one(self):
        for seed in range(10):
            d = 2 + seed % 3
            psi = random_state(d, seed)
            a = random_observable(d, seed + 10)
            b = random_observable(d, seed + 20)
            for j in range(d):
                k = kd_conditional(psi, a, b, j)
                assert abs(np.sum(k.values) - 1.0) < 1e-10

    def test_joint_relation(self):
        psi = random_state(3, 5)
        a = random_observable(3, 6)
        b = random_observable(3, 7)
        joint = kd_joint(psi, a, b)
        for j in range(3):
            prob = float(np.abs(b.eigenvector(j).conj() @ psi.amplitudes) ** 2)
            cond = kd_conditional(psi, a, b, j)
            assert np.max(np.abs(cond.values * prob - joint.values[:, j])) < 1e-10

    def test_weak_postselection_rejected(self):
        psi = QuantumState([1, 0])
        with pytest.raises(PostSelectionTooWeak):
            kd_conditional(psi, SX, SZ, 1)  # <1|0> = 0

    def test_bool_outcome_rejected(self):
        psi, a, b = random_state(3, 5), random_observable(3, 6), random_observable(3, 7)
        for bad in (True, False):
            with pytest.raises(TypeError, match="must be an integer"):
                kd_conditional(psi, a, b, bad)
        # an integer index of any integer type selects one outcome
        for j in (1, np.int64(1), np.uint8(1)):
            k = kd_conditional(psi, a, b, j)
            assert k.values.shape == (3,)
            assert np.array_equal(k.values, kd_conditional(psi, a, b, 1).values)

    def test_pure_state_oracle_runs_no_eigensolve(self, monkeypatch):
        psi, a, b = random_state(5, 5), random_observable(5, 6), random_observable(5, 7)
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        want = (a.eigenvectors.conj().T @ b.eigenvectors).conj() * (
            a.eigenvectors.conj().T @ rho @ b.eigenvectors)

        def eigvalsh(m):
            raise AssertionError("eigensolved")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        assert np.array_equal(kd_joint(psi, a, b).values, want)
        prob = postselection_probability(psi, b, 3)
        assert prob == float(np.real(b.eigenvector(3).conj() @ rho @ b.eigenvector(3)))
        assert np.array_equal(kd_conditional(psi, a, b, 3).values, want[:, 3] / prob)

    @pytest.mark.parametrize("j", [-1, 2])
    def test_out_of_range_outcome_rejected(self, plus_x, j):
        # a negative outcome must not wrap round to the last one
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            kd_conditional(plus_x, SZ, SY, j)
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            postselection_probability(plus_x, SY, j)
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            SY.eigenvector(j)


class TestKdNpoint:
    def test_n1_is_born(self):
        psi = random_state(3, 2)
        a = random_observable(3, 3)
        k = kd_npoint(psi, [a])
        born = np.abs(a.eigenvectors.conj().T @ psi.amplitudes) ** 2
        assert np.allclose(k.values, born)

    def test_n2_conjugate_of_joint(self):
        for seed in range(10):
            d = 2 + seed % 3
            psi = random_state(d, seed)
            a = random_observable(d, seed + 30)
            b = random_observable(d, seed + 60)
            k2 = kd_npoint(psi, [a, b])
            kj = kd_joint(psi, a, b)
            assert np.max(np.abs(k2.values - kj.values.conj())) < 1e-12

    def test_n3_zxz_on_ket0(self, ket0):
        k = kd_npoint(ket0, [SZ, SX, SZ])
        # brute force all 8 bracket chains
        want = np.empty((2, 2, 2), dtype=complex)
        obs = [SZ, SX, SZ]
        for i in range(2):
            for j in range(2):
                for l in range(2):
                    v = [obs[0].eigenvector(i), obs[1].eigenvector(j), obs[2].eigenvector(l)]
                    want[i, j, l] = (
                        (ket0.amplitudes.conj() @ v[0])
                        * (v[0].conj() @ v[1])
                        * (v[1].conj() @ v[2])
                        * (v[2].conj() @ ket0.amplitudes)
                    )
        assert np.max(np.abs(k.values - want)) < 1e-14
        assert abs(np.sum(k.values) - 1.0) < 1e-12
        # eigenstate pre-selection pins the outer indices to i = l = 0
        nonzero = k.values[np.abs(k.values) > 1e-14]
        assert np.allclose(nonzero, 0.5)

    def test_n3_zxz_on_plus_x(self, plus_x):
        # the chain signs (-1)^{ij+jl} give entries of magnitude 1/4
        k = kd_npoint(plus_x, [SZ, SX, SZ])
        assert np.allclose(np.abs(k.values), 0.25)
        assert abs(np.sum(k.values) - 1.0) < 1e-12
        for i in range(2):
            for j in range(2):
                for l in range(2):
                    want = (-1) ** (i * j + j * l) / 4
                    assert abs(k.values[i, j, l] - want) < 1e-14

    def test_sums_to_one(self):
        psi = random_state(3, 8)
        obs = [random_observable(3, s) for s in (1, 2, 3)]
        assert abs(np.sum(kd_npoint(psi, obs).values) - 1.0) < 1e-10

    def test_no_observables_rejected(self):
        with pytest.raises(ValueError, match="at least one observable"):
            kd_npoint(random_state(3, 8), [])


class TestReconstructState:
    def test_roundtrip_random_mixed(self):
        count = 0
        for d in (2, 3, 4):
            for seed in range(34):
                rho = random_density(d, seed)
                a = random_observable(d, seed + 200)
                b = random_observable(d, seed + 400)
                back = reconstruct_state(kd_joint(rho, a, b), a, b)
                assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-10
                count += 1
        assert count >= 100

    def test_pure_eigenstate(self, ket0):
        back = reconstruct_state(kd_joint(ket0, SZ, SX), SZ, SX)
        assert np.allclose(back.matrix, [[1, 0], [0, 0]])

    def test_uniform_k_gives_maximally_mixed(self):
        k = PseudoDistribution(np.full((2, 2), 0.25), ("A", "B"), "kd")
        back = reconstruct_state(k, SZ, SX)
        assert np.allclose(back.matrix, np.eye(2) / 2)

    @pytest.mark.parametrize("d", [2, 3, 8, 16, 32])
    def test_matches_the_dual_frame_sum(self, d):
        a, b = random_observable(d, d + 30), random_observable(d, d + 60)
        k = kd_joint(random_density(d, d), a, b)
        rho = np.einsum("ij,ijrc->rc", k.values, frames(a, b)[1])
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        assert np.max(np.abs(reconstruct_state(k, a, b).matrix - rho)) <= 1e-15

    def test_builds_no_d4_array(self):
        # the (32, 32, 32, 32) complex dual frame alone is 16.8 MB
        a, b = random_observable(32, 1), random_observable(32, 2)
        k = kd_joint(random_density(32, 3), a, b)
        tracemalloc.start()
        try:
            reconstruct_state(k, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("d", range(2, 9))
    def test_roundtrip_from_correlation_data(self, d):
        # the reconstruction is conj(K), tagged kd-conjugate; Chebyshev
        # spectra keep its Vandermonde inversion accurate
        cheb = np.cos(np.pi * (np.arange(d) + 0.5) / d)
        for seed in range(10):
            a = random_observable(d, seed, eigenvalues=cheb)
            b = random_observable(d, seed + 100, eigenvalues=cheb)
            psi = random_state(d, seed + 200)
            k = joint_from_correlations(a, b, correlation_matrix(a, b, psi))
            assert k.ordering_tag == "kd-conjugate"
            rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
            assert np.max(np.abs(reconstruct_state(k, a, b).matrix - rho)) < 1e-10

    def test_npoint_tag_refused(self):
        # a two-point bracket chain holds conj(K) too, but only the joint's
        # tags say which form they hold
        k = kd_npoint(random_state(2, 1), [SZ, SX])
        with pytest.raises(OrderingTagMismatch, match="kd-npoint"):
            reconstruct_state(k, SZ, SX)

    def test_orthogonal_bases_rejected(self):
        k = PseudoDistribution(np.full((2, 2), 0.25), ("A", "B"), "kd")
        with pytest.raises(IncompatibilityViolated):
            reconstruct_state(k, SZ, SZ)


class TestMarginals:
    def test_eigenstate(self, ket0):
        pa, pb = kd_marginals(kd_joint(ket0, SZ, SX))
        assert np.allclose(pa, [1, 0])
        assert np.allclose(pb, [0.5, 0.5])

    def test_maximally_mixed(self):
        pa, pb = kd_marginals(kd_joint(DensityMatrix(np.eye(2) / 2), SZ, SX))
        assert np.allclose(pa, [0.5, 0.5])
        assert np.allclose(pb, [0.5, 0.5])

    def test_born_rule_d4(self):
        psi = random_state(4, 12)
        a = random_observable(4, 13)
        b = random_observable(4, 14)
        k = kd_joint(psi, a, b)
        pa, pb = kd_marginals(k)
        born_a = np.abs(a.eigenvectors.conj().T @ psi.amplitudes) ** 2
        born_b = np.abs(b.eigenvectors.conj().T @ psi.amplitudes) ** 2
        assert np.max(np.abs(pa - born_a)) < 1e-10
        assert np.max(np.abs(pb - born_b)) < 1e-10


class TestExpectationIdentity:
    def test_dual_frame_expectation(self):
        # Tr(X rho) = sum conj(T_ij(X)) K_ij(rho)
        rng = np.random.default_rng(21)
        for seed in range(10):
            d = 2 + seed % 3
            rho = random_density(d, seed + 500)
            a = random_observable(d, seed + 600)
            b = random_observable(d, seed + 700)
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            x = z + z.conj().T
            t = observable_transform(x, a, b)
            k = kd_joint(rho, a, b)
            lhs = np.trace(x @ rho.matrix)
            rhs = np.sum(t.conj() * k.values)
            assert abs(lhs - rhs) < 1e-9


Q3 = random_observable(3, 0)


@pytest.mark.parametrize("call, error, match", [
    (lambda: kd_joint(random_state(3, 1), SZ, SX), DimensionMismatch,
     r"different dimensions \[2, 2, 3\]"),
    (lambda: kd_joint(random_state(2, 1), SZ, Q3), DimensionMismatch, "different dimensions"),
    (lambda: kd_npoint(random_state(2, 1), [SZ, Q3]), DimensionMismatch,
     "different dimensions"),
    (lambda: kd_npoint(random_density(2, 1), [SZ, SX]), TypeError, "kd_npoint takes pure"),
    (lambda: reconstruct_state(PseudoDistribution(np.full((2, 3), 1 / 6), ("A", "B"), "kd"),
                               SZ, SX), DimensionMismatch, "distribution shape"),
    (lambda: kd_marginals(PseudoDistribution(np.eye(2) / 2, ("A", "B"), "kd",
                                             conditioning="B[0]")),
     ValueError, "unconditioned"),
    (lambda: kd_marginals(PseudoDistribution(np.full((2, 2, 2), 0.125), ("A", "B", "C"), "kd")),
     DimensionMismatch, r"2-D distribution, got shape \(2, 2, 2\)"),
    (lambda: kd_marginals(PseudoDistribution(np.full(2, 0.5), ("A",), "kd")),
     DimensionMismatch, r"2-D distribution, got shape \(2,\)"),
], ids=["joint-state", "joint-observables", "npoint", "npoint-mixed", "reconstruct-shape",
        "conditioned-marginals", "marginals-3d", "marginals-1d"])
def test_typed_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_distribution_keeps_the_complex_array_it_is_given():
    # an n x n joint is held once: the array is kept and made read-only
    values = np.array([[0.5, 0.5j], [0.25, -0.25]])
    pd = PseudoDistribution(values, ("A", "B"), ordering_tag="kd")
    assert pd.values is values and not values.flags.writeable
