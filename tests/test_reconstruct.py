import gc
import json
import tracemalloc
import warnings
import weakref
from math import comb

import numpy as np
import pytest

from kdrecon.core import (
    ObservableSpec,
    QuantumState,
    pauli_spec,
    random_observable,
    random_state,
)
from kdrecon.errors import DimensionMismatch, SizeCap
from kdrecon.moments import (
    correlation_matrix,
    correlation_tensor,
    moment_vector,
)
from kdrecon.oracle import kd_conditional, kd_joint, kd_npoint
from kdrecon.reconstruct import (
    _OPERATORS,
    _contract,
    _operator,
    _rescaled,
    conditional_from_moments,
    joint_from_correlations,
    npoint_from_correlations,
)
from kdrecon.scenarios import load_scenario
from kdrecon.vandermonde import MAX_NODES, MAX_ORDERS, invert_vandermonde

SZ = pauli_spec("z")
SX = pauli_spec("x")
SY = pauli_spec("y")


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

    def test_n1_least_squares_equals_conditional(self):
        psi, a = random_state(3, 55), random_observable(3, 56)
        phi = QuantumState(random_observable(3, 57).eigenvector(0))
        moments = moment_vector(a, psi, phi, orders=5)
        q1 = npoint_from_correlations([a], moments)
        q2 = conditional_from_moments(a, moments)
        assert np.array_equal(q1.values, q2.values)

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


def comb_rescaled(nodes, orders):
    # reference: one comb call and the same scalar powers per entry of M
    lo, hi = float(np.min(nodes)), float(np.max(nodes))
    alpha, beta = ((hi - lo) / 2.0, (hi + lo) / 2.0) if hi != lo else (1.0, 0.0)
    m = np.zeros((orders, orders))
    for n in range(orders):
        for k in range(n + 1):
            m[n, k] = comb(n, k) * ((-beta) ** (n - k)) / (alpha**n)
    return (nodes - beta) / alpha, m


def tensordot_contract(observables, values):
    # reference: R applied along each axis by tensordot, moved back in place;
    # V_t^+ is the public inverse at d orders, numpy's pinv at any other number
    for axis, obs in enumerate(observables):
        orders = values.shape[axis]
        t_nodes, m = comb_rescaled(np.asarray(obs.eigenvalues, float), orders)
        if orders == obs.dim:
            inv = invert_vandermonde(t_nodes)
        else:
            inv = np.linalg.pinv(np.vander(t_nodes, orders, increasing=True).T)
        values = np.moveaxis(np.tensordot(inv @ m, values, axes=([1], [axis])), 0, axis)
    return values


class TestBitwisePaths:
    """The binomial-table M and the one-product contraction give the very bits
    of the comb loop and of tensordot (see TestBitwisePaths in test_moments)."""

    def test_rescaled_bitwise_equal_to_comb_loop(self):
        rng = np.random.default_rng(23)
        jittered = np.arange(12) + 0.3 * rng.uniform(-1, 1, 12)
        node_sets = [
            np.array([0.7]),  # one node: alpha = 1, beta = 0
            jittered,
            jittered + 30.0,  # |beta| >> alpha
            -jittered - 7.5,
            1e-2 * jittered,  # alpha < 1
            rng.normal(size=9) * 10 ** rng.uniform(-2, 2),
        ]
        for orders in range(1, MAX_ORDERS + 1):
            for nodes in node_sets:
                t, m = _rescaled(nodes, orders)
                t_ref, m_ref = comb_rescaled(nodes, orders)
                assert np.array_equal(t, t_ref) and np.array_equal(m, m_ref)

    def test_rescaled_refuses_orders_past_the_cap(self):
        # vandermonde.require_orders checks the cap before any rescaling
        with pytest.raises(SizeCap, match="cap"):
            conditional_from_moments(SZ, np.ones(MAX_ORDERS + 1))

    @pytest.mark.filterwarnings("ignore:Vandermonde inverse coefficient spread")
    def test_contract_bitwise_equal_to_tensordot(self):
        rng = np.random.default_rng(29)
        for d in range(1, MAX_NODES + 1):
            obs = [random_observable(d, 800 + 3 * d + i) for i in range(3)]
            for n in (1, 2, 3):
                shape = (d,) * n
                values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                got, ref = _contract(obs[:n], values), tensordot_contract(obs[:n], values)
                assert np.array_equal(got, ref)
                # the same memory layout too, so the sum check sees the same total
                assert np.sum(got) == np.sum(ref)


class TestOrdersCap:
    def test_conditional_at_the_cap(self, plus_x, plus_y):
        q = conditional_from_moments(SZ, moment_vector(SZ, plus_x, plus_y, orders=MAX_ORDERS))
        assert np.max(np.abs(q.values - kd_conditional(plus_x, SZ, SY, 0).values)) < 1e-12

    def test_conditional_one_past_the_cap_builds_nothing(self, size_cap_peak):
        # the (orders x orders) M alone would take 34 kB
        moments = np.ones(MAX_ORDERS + 1, dtype=complex)
        assert size_cap_peak(lambda: conditional_from_moments(SZ, moments)) < 4096

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_rescaled_powers_refused(self):
        # beta**59 passes the float range (a raw OverflowError before), and
        # alpha**59 underflows to 0 (M came out infinite)
        with pytest.raises(SizeCap, match="overflow"):
            conditional_from_moments(ObservableSpec([1e6, 1e6 + 1], np.eye(2)), np.ones(60))
        with pytest.raises(SizeCap, match="overflow"):
            conditional_from_moments(ObservableSpec([0.0, 1e-7], np.eye(2)), np.ones(60))
        for nodes in ([1e6, 1e6 + 1], [0.0, 1e-7]):
            _, m = _rescaled(np.array(nodes), 40)
            assert np.all(np.isfinite(m))


def past_the_cap_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "kind": "discrete-conditional", "state": {"random": {"dim": 2, "seed": 1}},
        "observable_a": {"pauli": "z"}, "observable_b": {"pauli": "y"}, "postselect_index": 0,
        "moment_orders": MAX_ORDERS + 1,
    }))
    return load_scenario(path)


@pytest.mark.parametrize("call", [
    lambda tmp_path: moment_vector(SZ, QuantumState([1, 0]), QuantumState.normalized([1, 1]),
                                   orders=MAX_ORDERS + 1),
    lambda tmp_path: correlation_matrix(SZ, SX, QuantumState([1, 0]), orders=(2, MAX_ORDERS + 1)),
    lambda tmp_path: correlation_tensor([random_observable(MAX_ORDERS + 1, 0)],
                                        random_state(MAX_ORDERS + 1, 1)),
    lambda tmp_path: conditional_from_moments(SZ, np.ones(MAX_ORDERS + 1)),
    past_the_cap_scenario,
], ids=["moment_vector", "correlation_matrix", "correlation_tensor", "conditional", "scenario"])
def test_orders_past_the_cap_one_refusal(call, tmp_path):
    # vandermonde.require_orders is the one check of the cap, and its message
    with pytest.raises(SizeCap, match=rf": moment orders \(.*{MAX_ORDERS + 1}.*\) "
                                      rf"exceed the cap of {MAX_ORDERS}$"):
        call(tmp_path)


class TestLeastSquaresOperator:
    """A least-squares conditional runs through the same cached, checked and
    warned operator as the square inversions."""

    def test_past_the_node_cap_is_size_cap(self):
        # it used to return a result 1e10 off its oracle
        d = MAX_NODES + 1
        a, b, psi = random_observable(d, 1), random_observable(d, 2), random_state(d, 3)
        mv = moment_vector(a, psi, QuantumState(b.eigenvector(0)), orders=d + 1)
        with pytest.raises(SizeCap, match=f"{d} nodes exceeds the cap of {MAX_NODES}"):
            conditional_from_moments(a, mv)

    def test_spread_warning_on_every_call(self):
        # equally spaced nodes: the rescaled pseudo-inverse's spread is 9e13 at
        # d = 20 with 21 moments, and the result was 0.056 off with no warning
        wide, moments = ObservableSpec(np.arange(20.0), np.eye(20)), np.r_[1.0, np.zeros(20)]
        for _ in range(2):  # the second call finds the operator built
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                conditional_from_moments(wide, moments)
            spread = [w for w in caught if "coefficient spread" in str(w.message)]
            assert len(spread) == 1 and spread[0].filename == __file__


class TestOperatorCache:
    """Each observable's rescaled operator is built on first use and kept
    while the observable lives; every result is the bits of rebuilding it."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # spread and sum at d = 32
    @pytest.mark.parametrize("d", [2, 8, 32])
    def test_first_and_second_call_equal_uncached(self, d):
        psi = random_state(d, 900 + d)
        a, b, c = (random_observable(d, 910 + 3 * d + i) for i in range(3))
        phi = QuantumState(b.eigenvector(0))
        mv, mv_lsq = moment_vector(a, psi, phi), moment_vector(a, psi, phi, orders=d + 2)
        cm, ct = correlation_matrix(a, b, psi), correlation_tensor([a, b, c], psi)
        # references: R rebuilt from the public inverse or pinv and the comb loop
        refs = [
            (lambda: _contract([a, b], cm), tensordot_contract([a, b], cm)),
            (lambda: conditional_from_moments(a, mv).values, tensordot_contract([a], mv)),
            (lambda: conditional_from_moments(a, mv_lsq).values, tensordot_contract([a], mv_lsq)),
            (lambda: joint_from_correlations(a, b, cm).values, tensordot_contract([a, b], cm)),
            (lambda: npoint_from_correlations([a, b, c], ct).values,
             tensordot_contract([a, b, c], ct)),
        ]
        for _ in range(2):  # the first call builds the operators, the second reuses them
            for call, ref in refs:
                assert np.array_equal(call(), ref)
        assert _operator(a, d) is _operator(a, d)
        assert set(_OPERATORS[a]) == {d, d + 2} and set(_OPERATORS[c]) == {d}

    def test_cached_operators_are_read_only(self):
        a = random_observable(4, 931)
        for orders in (4, 6):
            with pytest.raises(ValueError, match="read-only"):
                _operator(a, orders)[0][0, 0] = 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # spread and sum at d = 32
    def test_cache_of_24_d32_observables_stays_under_1_mb(self):
        d, psi = 32, random_state(32, 940)
        obs = [random_observable(d, 941 + i) for i in range(24)]
        triples = [obs[i:i + 3] for i in range(0, 24, 3)]
        tensors = [correlation_tensor(t, psi) for t in triples]  # 512 kB each
        tracemalloc.start()
        try:
            for t, c in zip(triples, tensors):
                npoint_from_correlations(t, c)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(o in _OPERATORS for o in obs)
        assert retained < 2**20

    def test_entry_dies_with_the_observable(self):
        a = random_observable(5, 960)
        conditional_from_moments(a, np.r_[1.0, np.zeros(4)])
        observable, operator = weakref.ref(a), weakref.ref(_OPERATORS[a][5][0])
        del a
        gc.collect()
        assert observable() is None and operator() is None

    def test_spread_warning_on_every_call(self):
        # equally spaced nodes: the rescaled inverse's spread is 4.5e13 at d = 20
        wide = ObservableSpec(np.arange(20.0), np.eye(20))
        c = np.zeros((20, 20), dtype=complex)
        c[0, 0] = 1
        for _ in range(2):  # the second call finds the operator built
            with pytest.warns(RuntimeWarning, match="coefficient spread"):
                joint_from_correlations(wide, wide, c)

    def test_warnings_name_the_callers_line(self):
        # so the default once-per-location filter shows each call site's
        # warnings, whichever entry point it calls
        wide = ObservableSpec(np.arange(20.0), np.eye(20))
        c = np.zeros((20, 20), dtype=complex)
        c[0, 0] = 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            joint_from_correlations(wide, wide, c)
            npoint_from_correlations([wide, wide], c)
            conditional_from_moments(SZ, [1, 0.3, 0.9, 0.2])  # inconsistent moments
        kinds = ["spread" if "spread" in str(w.message) else "sum" for w in caught]
        assert kinds == ["spread"] * 4 + ["sum"]  # one spread per axis
        assert {w.filename for w in caught} == {__file__}


@pytest.mark.parametrize("call, error, match", [
    (lambda: joint_from_correlations(SZ, random_observable(3, 0), np.eye(2)),
     DimensionMismatch, "different dimensions"),
    (lambda: npoint_from_correlations([SZ, SX], np.ones((2, 2, 2))),
     DimensionMismatch, r"must be 2x2, got shape \(2, 2, 2\)"),
    (lambda: npoint_from_correlations([SZ, SX], np.ones((2, 3))),
     DimensionMismatch, r"must be 2x2, got shape \(2, 3\)"),
    # the conditional's and the joint's refusals hold for the n-point too
    (lambda: npoint_from_correlations([SZ, random_observable(3, 0)], np.zeros((2, 3))),
     DimensionMismatch, "different dimensions"),
    (lambda: npoint_from_correlations([SZ, SX], [[0.5, 0], [0, 0]]),
     ValueError, r"C\[0,0\] must be 1"),
], ids=["joint-observables", "npoint-rank", "npoint-axis", "npoint-observables", "npoint-c00"])
def test_dimension_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()
