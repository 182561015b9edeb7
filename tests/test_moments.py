from types import SimpleNamespace

import numpy as np
import pytest

from kdrecon.core import (
    ObservableSpec,
    QuantumState,
    expectation,
    observable_power,
    pauli_spec,
    random_density,
    random_observable,
    random_state,
)
from kdrecon.errors import DimensionMismatch, PostSelectionTooWeak, SizeCap
from kdrecon.moments import (
    _bra_ket,
    _factor,
    _powers,
    char_fn_discrete,
    correlation_matrix,
    correlation_tensor,
    moment_vector,
    weak_value,
)
from kdrecon.oracle import kd_conditional, kd_joint
from kdrecon.vandermonde import MAX_NODES, MAX_ORDERS

SZ = pauli_spec("z")
SX = pauli_spec("x")
SY = pauli_spec("y")


class TestWeakValue:
    def test_identity(self, plus_x, plus_y):
        assert weak_value(np.eye(2), plus_x, plus_y) == pytest.approx(1)

    def test_sigma_z_between_x_and_y(self, plus_x, plus_y):
        w = weak_value(observable_power(SZ, 1), plus_x, plus_y)
        assert w == pytest.approx(1j)

    def test_eigenstate_no_anomaly(self, ket0):
        assert weak_value(observable_power(SZ, 1), ket0, ket0) == pytest.approx(1)

    @pytest.mark.parametrize("shape", [(3, 3), (2,), (2, 3)])
    def test_wrongly_shaped_operator_rejected(self, plus_x, plus_y, shape):
        with pytest.raises(DimensionMismatch, match="operator shape"):
            weak_value(np.ones(shape), plus_x, plus_y)

    def test_orthogonal_postselection_rejected(self, ket0):
        phi = QuantumState([0, 1])
        with pytest.raises(PostSelectionTooWeak):
            weak_value(np.eye(2), ket0, phi)

    def test_floor_is_a_probability_on_every_path(self):
        # |<1|psi>|^2 ~ 1e-15: the amplitude (~3e-8) is far above 1e-10, the
        # probability far below it, and both paths must refuse alike
        psi = QuantumState.normalized([1, np.sqrt(1e-15)])
        phi = QuantumState(SZ.eigenvector(1))
        assert abs(phi.amplitudes.conj() @ psi.amplitudes) ** 2 == pytest.approx(1e-15)
        with pytest.raises(PostSelectionTooWeak):
            moment_vector(SX, psi, phi)
        with pytest.raises(PostSelectionTooWeak):
            kd_conditional(psi, SX, SZ, 1)


class TestMomentVector:
    def test_qubit_example(self, plus_x, plus_y):
        mv = moment_vector(SZ, plus_x, plus_y)
        assert np.allclose(mv, [1, 1j])

    def test_eigenstate_moments(self):
        a = random_observable(4, seed=1)
        k = 2
        psi = QuantumState(a.eigenvector(k))
        mv = moment_vector(a, psi, psi, orders=4)
        assert np.allclose(mv, a.eigenvalues[k] ** np.arange(4))

    def test_spin1_uniform(self):
        spin1 = ObservableSpec([-1.0, 0.0, 1.0], np.eye(3))
        psi = QuantumState.normalized([1, 1, 1])
        mv = moment_vector(spin1, psi, psi)
        assert np.allclose(mv, [1, 0, 2 / 3])

    def test_vandermonde_relation(self):
        # V . (conditional distribution) = moment vector
        for seed in range(12):
            d = 2 + seed % 5
            psi = random_state(d, seed)
            a = random_observable(d, seed + 40)
            b = random_observable(d, seed + 80)
            j = seed % d
            phi = QuantumState(b.eigenvector(j))
            mv = moment_vector(a, psi, phi)
            q = kd_conditional(psi, a, b, j).values
            v = np.vander(a.eigenvalues, increasing=True).T
            assert np.max(np.abs(v @ q - mv)) < 1e-9

    def test_observable_dimension_must_match_states(self):
        psi = random_state(3, 1)
        with pytest.raises(DimensionMismatch):
            moment_vector(random_observable(4, 2), psi, psi)

    @pytest.mark.parametrize("orders", [0, -1])
    def test_orders_below_one_rejected(self, plus_x, plus_y, orders):
        with pytest.raises(ValueError, match="at least 1"):
            moment_vector(SZ, plus_x, plus_y, orders=orders)

    @pytest.mark.parametrize("orders", [None, 34])
    def test_d32_matches_weak_value_per_power(self, orders):
        d = 32
        psi = random_state(d, 61)
        a = random_observable(d, 62)
        phi = QuantumState(random_observable(d, 63).eigenvector(5))
        mv = moment_vector(a, psi, phi, orders=orders)
        ref = np.array([weak_value(observable_power(a, n), psi, phi) for n in range(mv.size)])
        assert mv.size == (orders or d)
        assert np.max(np.abs(mv - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestCorrelationMatrix:
    def test_qubit_example(self, ket0):
        c = correlation_matrix(SZ, SX, ket0)
        assert np.allclose(c, [[1, 0], [1, 0]])

    def test_commuting_symmetry(self):
        vals_a = np.array([0.0, 1.0])
        a = ObservableSpec(vals_a, np.eye(2), label="A")
        b = ObservableSpec([2.0, -1.0], np.eye(2), label="B")
        psi = QuantumState.normalized([2, 1])
        c_ab = correlation_matrix(a, b, psi)
        c_ba = correlation_matrix(b, a, psi)
        assert np.max(np.abs(c_ab - c_ba.T)) < 1e-12

    def test_phase_state_matches_kd_sum(self):
        psi = QuantumState.normalized([1, np.exp(1j * np.pi / 4)])
        c = correlation_matrix(SZ, SX, psi)
        q = kd_joint(psi, SZ, SX).values.conj()
        for n in range(2):
            for m in range(2):
                s = np.sum(
                    np.outer(SZ.eigenvalues**n, SX.eigenvalues**m) * q
                )
                assert abs(c[n, m] - s) < 1e-9
        assert abs(c[1, 1].imag) > 1e-3

    def test_ordering_tag(self):
        # the a-then-b ordering: A-powers leftmost, C[1, 1] = <ZX> = i<Y>, not <XZ>
        psi = QuantumState.normalized([1, np.exp(1j * np.pi / 4)])
        c = correlation_matrix(SZ, SX, psi)
        assert c[1, 1] == pytest.approx(expectation(psi, SZ.matrix() @ SX.matrix()))
        assert c[1, 1] == pytest.approx(1j * np.sin(np.pi / 4))

    @pytest.mark.parametrize("orders", [(0, 2), (2, -1)])
    def test_orders_below_one_rejected(self, ket0, orders):
        with pytest.raises(ValueError, match="at least 1"):
            correlation_matrix(SZ, SX, ket0, orders=orders)

    @pytest.mark.parametrize("state", [
        random_state(32, 71),
        random_density(32, 72, rank=5),
    ], ids=["pure", "rank-5-density"])
    @pytest.mark.parametrize("orders", [None, (34, 7)], ids=["square", "rectangular"])
    def test_d32_matches_trace_of_products(self, state, orders):
        d = 32
        a = random_observable(d, 73)
        b = random_observable(d, 74)
        c = correlation_matrix(a, b, state, orders=orders)
        na, nb = orders or (d, d)
        assert c.shape == (na, nb)
        ref = np.array([
            [expectation(state, observable_power(a, n) @ observable_power(b, m))
             for m in range(nb)]
            for n in range(na)
        ])
        assert np.max(np.abs(c - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestCorrelationTensor:
    def test_n1_is_moments(self):
        psi = random_state(3, 5)
        a = random_observable(3, 6)
        t = correlation_tensor([a], psi)
        mv = moment_vector(a, psi, psi)
        assert np.allclose(t, mv)

    def test_n2_is_correlation_matrix(self):
        psi = random_state(3, 7)
        a = random_observable(3, 8)
        b = random_observable(3, 9)
        t = correlation_tensor([a, b], psi)
        assert np.max(np.abs(t - correlation_matrix(a, b, psi))) < 1e-12

    @pytest.mark.parametrize("state", [random_state(4, 10), random_density(4, 11)],
                             ids=["pure", "mixed"])
    def test_n2_has_the_bits_of_correlation_matrix(self, state):
        # a mixed state enters through its factor, as in correlation_matrix
        a, b = random_observable(4, 12), random_observable(4, 13)
        assert np.array_equal(correlation_tensor([a, b], state), correlation_matrix(a, b, state))

    def test_triple_sigma_z_on_plus_x(self, plus_x):
        t = correlation_tensor([SZ, SZ, SZ], plus_x)
        assert abs(t[1, 1, 1]) < 1e-14  # odd total power of sigma_z
        assert t[1, 1, 0] == pytest.approx(1)  # sigma_z^2 = identity
        assert t[0, 0, 0] == pytest.approx(1)

    def test_size_cap(self):
        obs = [random_observable(6, s) for s in range(8)]
        psi = random_state(6, 99)
        with pytest.raises(SizeCap):
            correlation_tensor(obs, psi)

    def test_d32_n3_sampled_entries(self):
        d = 32
        psi = random_state(d, 81)
        obs = [random_observable(d, s) for s in (82, 83, 84)]
        t = correlation_tensor(obs, psi)
        assert t.shape == (d, d, d)
        rng = np.random.default_rng(85)
        idx = [(0, 0, 0), (d - 1, d - 1, d - 1), (d - 1, 0, 0), (0, 0, d - 1)]
        idx += [tuple(m) for m in rng.integers(d, size=(40, 3))]
        ref = np.array([
            expectation(psi, observable_power(obs[0], m1) @ observable_power(obs[1], m2)
                        @ observable_power(obs[2], m3))
            for m1, m2, m3 in idx
        ])
        got = np.array([t[m] for m in idx])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(t))

    def test_brute_force_n3(self):
        psi = random_state(2, 31)
        obs = [random_observable(2, s) for s in (41, 42, 43)]
        t = correlation_tensor(obs, psi)
        for m1 in range(2):
            for m2 in range(2):
                for m3 in range(2):
                    prod = (
                        observable_power(obs[0], m1)
                        @ observable_power(obs[1], m2)
                        @ observable_power(obs[2], m3)
                    )
                    assert abs(t[m1, m2, m3] - expectation(psi, prod)) < 1e-12


def powers_per_power(obs, orders):
    # reference: one observable_power call per power, stacked
    return np.stack([observable_power(obs, m) for m in range(orders)], axis=1)


def tensordot_bra_ket(obs_list, orders, bra, ket):
    # reference: the same chain on per-power stacks, joined by one tensordot over (k, i)
    d, k = ket.shape
    stack = ket
    for obs, n in zip(obs_list[:0:-1], orders[:0:-1]):
        stack = (powers_per_power(obs, n).reshape(d * n, d) @ stack).reshape(d, -1)
    first = powers_per_power(obs_list[0], orders[0]).reshape(d, -1)
    left = (bra.conj().T @ first).reshape(k, -1, d)
    return np.tensordot(left, stack.reshape(d, -1, k), axes=([0, 2], [2, 0])).reshape(orders)


class TestBitwisePaths:
    """The batched power stack and the one-product join give the very bits of
    the per-power stack and the tensordot join.  At d >= 8 whether a
    reconstruction lands within 1e-8 turns on rounding, so a rounding change
    must show up here rather than as a moved benchmark failure count."""

    def test_powers_bitwise_equal_to_observable_power(self):
        for d in range(1, MAX_NODES + 1):
            obs = random_observable(d, 300 + d)
            for orders in (1, d, d + 2):
                assert np.array_equal(_powers(obs, orders), powers_per_power(obs, orders))

    def test_bra_ket_bitwise_equal_to_tensordot(self):
        for d in range(1, MAX_NODES + 1):
            pure = random_state(d, 400 + d).amplitudes[:, None]
            bra = random_state(d, 500 + d).amplitudes[:, None]
            mixed = _factor(random_density(d, 600 + d, rank=3))
            obs = [random_observable(d, 700 + 3 * d + i) for i in range(3)]
            rect = (d + 1, max(d - 1, 1))
            for args in (
                (obs[:1], (d,), bra, pure),
                (obs[:1], (d + 2,), bra, pure),
                (obs[:2], (d, d), pure, pure),
                (obs[:2], rect, pure, pure),
                (obs[:2], (d, d), mixed, mixed),
                (obs[:2], rect, mixed, mixed),
                (obs, (d, d, d), pure, pure),
            ):
                assert np.array_equal(_bra_ket(*args), tensordot_bra_ket(*args))


class TestOrdersCap:
    def test_at_the_cap(self, plus_x, plus_y):
        w = weak_value(SZ.matrix(), plus_x, plus_y)
        mv = moment_vector(SZ, plus_x, plus_y, orders=MAX_ORDERS)
        assert np.max(np.abs(mv - np.tile([1, w], MAX_ORDERS // 2))) < 1e-12
        c = correlation_matrix(SZ, SX, plus_x, orders=(MAX_ORDERS, MAX_ORDERS))
        assert c.shape == (MAX_ORDERS, MAX_ORDERS)
        assert np.max(np.abs(c[::2, ::2] - 1)) < 1e-12  # even powers are the identity

    def test_one_past_the_cap_builds_nothing(self, size_cap_peak):
        # at d = 32 the (d, orders, d) power stack alone would take 1 MB
        d, past = 32, MAX_ORDERS + 1
        psi, a, b = random_state(d, 91), random_observable(d, 92), random_observable(d, 93)
        phi, rho = QuantumState(b.eigenvector(0)), random_density(d, 96)
        wide_psi, wide = random_state(past, 94), random_observable(past, 95)
        for call in (
            lambda: moment_vector(a, psi, phi, orders=past),
            lambda: correlation_matrix(a, b, psi, orders=(past, 2)),
            lambda: correlation_matrix(a, b, rho, orders=(2, past)),
            lambda: correlation_tensor([wide], wide_psi),  # d orders, past the cap
        ):
            assert size_cap_peak(call) < 4096

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_eigenvalue_powers_refused(self, plus_x):
        # 1e6**59 passes the float range; the moments came out NaN
        a = ObservableSpec([1e6, 1e6 + 1], np.eye(2))
        phi = QuantumState.normalized([1, 0.5])
        for call in (
            lambda: moment_vector(a, plus_x, phi, orders=60),
            lambda: correlation_matrix(SZ, a, plus_x, orders=(2, 60)),
        ):
            with pytest.raises(SizeCap, match="overflow"):
                call()
        # 1e6**51 is still a float
        assert np.all(np.isfinite(moment_vector(a, plus_x, phi, orders=52)))


class TestCharFn:
    def test_normalization(self):
        psi = random_state(3, 1)
        a = random_observable(3, 2)
        b = random_observable(3, 3)
        assert char_fn_discrete(a, b, psi, 0.0, 0.0) == pytest.approx(1)

    def test_eigenstate_phase(self, ket0):
        for lam in (0.3, -1.2, 2.0):
            z = char_fn_discrete(SZ, SX, ket0, lam, 0.0)
            assert z == pytest.approx(np.exp(1j * lam))

    def test_modulus_bounded(self):
        psi = random_state(4, 9)
        a = random_observable(4, 10)
        b = random_observable(4, 11)
        for lam, chi in [(0.5, 1.3), (-2.0, 0.7), (3.1, -1.9)]:
            assert abs(char_fn_discrete(a, b, psi, lam, chi)) <= 1 + 1e-12

    def test_double_sum_evaluation(self):
        psi = random_state(3, 13)
        a = random_observable(3, 14)
        b = random_observable(3, 15)
        lam, chi = 0.7, -0.4
        q = kd_joint(psi, a, b).values.conj()
        s = np.sum(
            np.exp(1j * lam * a.eigenvalues)[:, None]
            * np.exp(1j * chi * b.eigenvalues)[None, :]
            * q
        )
        assert abs(char_fn_discrete(a, b, psi, lam, chi) - s) < 1e-10

    def test_mixed_derivative_matches_c11(self):
        psi = random_state(2, 23)
        a = random_observable(2, 24)
        b = random_observable(2, 25)
        c = correlation_matrix(a, b, psi)
        h = 1e-4
        z = lambda lam, chi: char_fn_discrete(a, b, psi, lam, chi)
        mixed = (z(h, h) - z(h, -h) - z(-h, h) + z(-h, -h)) / (4 * h * h)
        assert abs(-mixed - c[1, 1]) < 1e-6

    def test_richardson_derivatives_nm_le_2(self):
        psi = random_state(3, 29)
        a = random_observable(3, 30)
        b = random_observable(3, 31)
        c = correlation_matrix(a, b, psi)

        def mixed(n, m, h):
            # n-th lambda derivative x m-th chi derivative via central stencils
            pts_n = {0: [(0.0, 1.0)], 1: [(h, 0.5 / h), (-h, -0.5 / h)],
                     2: [(h, 1 / h**2), (0.0, -2 / h**2), (-h, 1 / h**2)]}
            acc = 0.0
            for ln, wn in pts_n[n]:
                for cm, wm in pts_n[m]:
                    acc += wn * wm * char_fn_discrete(a, b, psi, ln, cm)
            return acc * (-1j) ** (n + m)

        for n in range(3):
            for m in range(3):
                # step 1e-2: the (2,2) cell amplifies roundoff by 1/h^4, so a
                # smaller step would be noise-dominated at double precision
                h = 1e-2
                fine, coarse = mixed(n, m, h), mixed(n, m, 2 * h)
                richardson = (4 * fine - coarse) / 3
                assert abs(richardson - c[n, m]) < 1e-5


Q3 = random_observable(3, 0)
PSI2 = random_state(2, 1)


@pytest.mark.parametrize("call, error, match", [
    (lambda: weak_value(np.eye(2), PSI2, random_state(3, 2)), DimensionMismatch,
     "pre- and post-selection dimensions"),
    (lambda: correlation_matrix(SZ, SX, SimpleNamespace(dim=2)), TypeError,
     "unsupported state type"),
    (lambda: correlation_matrix(SZ, Q3, PSI2), DimensionMismatch, "different dimensions"),
    (lambda: correlation_matrix(SZ, SX, random_state(3, 2)), DimensionMismatch,
     r"different dimensions \[2, 2, 3\]"),
    (lambda: correlation_tensor([SZ, Q3], PSI2), DimensionMismatch, "different dimensions"),
    (lambda: char_fn_discrete(SZ, Q3, PSI2, 0.1, 0.2), DimensionMismatch,
     "different dimensions"),
    # the paths that read a ket refuse a mixed state by name
    (lambda: moment_vector(SZ, random_density(2, 3), PSI2), TypeError, "moment_vector takes pure"),
    (lambda: weak_value(np.eye(2), random_density(2, 3), PSI2), TypeError,
     "weak_value takes pure"),
    (lambda: weak_value(np.eye(2), PSI2, random_density(2, 3)), TypeError,
     "weak_value takes pure"),
], ids=["overlap-dims", "state-type", "matrix-observables", "matrix-state", "tensor",
        "char-fn", "moment-vector-mixed", "weak-value-mixed", "weak-value-mixed-post"])
def test_typed_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()
