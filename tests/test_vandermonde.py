import numpy as np
import pytest

from kdrecon.errors import DegenerateNodes, DimensionMismatch, SizeCap
from kdrecon.vandermonde import MAX_NODES, invert_vandermonde, solve_least_squares


def vander(nodes) -> np.ndarray:
    """V[n, i] = nodes[i]**n: rows index powers, columns index nodes."""
    nodes = np.asarray(nodes, dtype=float)
    return np.vander(nodes, nodes.size, increasing=True).T


class TestBuild:
    """The node arrays invert_vandermonde builds its inverse from."""

    def test_qubit_nodes(self):
        inv = invert_vandermonde([1, -1])
        assert np.array_equal(inv @ np.array([[1, 1], [1, -1]]), np.eye(2))

    def test_single_node(self):
        assert np.array_equal(invert_vandermonde([7.0]), [[1.0]])

    def test_three_nodes(self):
        inv = invert_vandermonde([1, 2, 3])
        assert np.allclose(inv @ np.array([[1, 1, 1], [1, 2, 3], [1, 4, 9]]), np.eye(3))

    def test_first_row_all_ones(self):
        # the all-ones power-0 row of V makes the Lagrange basis a partition
        # of unity: the rows of V^-1 sum to e_0
        inv = invert_vandermonde(np.linspace(-3, 5, 9))
        assert np.allclose(np.sum(inv, axis=0), np.eye(9)[0])

    def test_coincident_nodes_rejected(self):
        # a NaN node fails the gap check too
        for nodes in ([1.0, 1.0 + 1e-12, 3.0], [0.0, np.nan, 1.0]):
            with pytest.raises(DegenerateNodes):
                invert_vandermonde(nodes)

    def test_node_cap(self):
        with pytest.raises(SizeCap):
            invert_vandermonde(np.arange(MAX_NODES + 1))

    def test_empty_nodes_rejected(self):
        with pytest.raises(DegenerateNodes, match="at least one node"):
            invert_vandermonde([])

    def test_nodes_must_be_one_dimensional(self):
        with pytest.raises(DimensionMismatch):
            invert_vandermonde([[0.0, 1.0], [2.0, 3.0]])


class TestInverse:
    def test_qubit_half_matrix(self):
        inv = invert_vandermonde([1, -1])
        assert np.allclose(inv, 0.5 * np.array([[1, 1], [1, -1]]))

    def test_node1_lagrange_row(self):
        # L_1(x) = (x-2)(x-3)/2 = 3 - 5x/2 + x^2/2
        inv = invert_vandermonde([1, 2, 3])
        assert np.allclose(inv[0], [3.0, -2.5, 0.5])

    def test_symmetric_nodes_rows(self):
        inv = invert_vandermonde([-1, 0, 1])
        expected = np.array([[0, -0.5, 0.5], [1, 0, -1], [0, 0.5, 0.5]])
        assert np.allclose(inv, expected)

    def test_identity_up_to_d10_unit_spacing(self):
        for d in range(1, 11):
            nodes = np.arange(d, dtype=float)
            err = np.max(np.abs(invert_vandermonde(nodes) @ vander(nodes) - np.eye(d)))
            assert err < 1e-8

    def test_identity_chebyshev_nodes(self):
        for d in range(2, 11):
            nodes = np.cos((2 * np.arange(d) + 1) * np.pi / (2 * d))
            err = np.max(np.abs(invert_vandermonde(nodes) @ vander(nodes) - np.eye(d)))
            assert err < 1e-6

    def test_matches_dense_inversion(self):
        rng = np.random.default_rng(11)
        for d in range(2, 9):
            nodes = np.sort(rng.uniform(-1.5, 1.5, size=d))
            if np.min(np.diff(nodes)) < 0.05:
                nodes = np.linspace(-1.5, 1.5, d) + 0.01 * rng.uniform(-1, 1, d)
            dense = np.linalg.inv(vander(nodes))
            assert np.max(np.abs(invert_vandermonde(nodes) - dense)) < 1e-8

    def test_rows_are_lagrange_delta(self):
        for d in [3, 6, 10]:
            nodes = np.arange(d, dtype=float) - d / 2
            inv = invert_vandermonde(nodes)
            for i in range(d):
                evals = np.polynomial.polynomial.polyval(nodes, inv[i])
                assert np.max(np.abs(evals - np.eye(d)[i])) < 1e-9

    def test_condition_warning_for_wide_grid(self):
        with pytest.warns(RuntimeWarning, match="coefficient spread"):
            invert_vandermonde(np.arange(20, dtype=float))

    @pytest.mark.filterwarnings("ignore:Vandermonde inverse coefficient spread")
    def test_bitwise_equal_to_per_row_deflation(self):
        def per_row(nodes):
            # reference: one synthetic division and one denominator per row
            d = nodes.size
            master = np.poly(nodes)[::-1]
            inv = np.empty((d, d))
            for i in range(d):
                a = nodes[i]
                q = np.empty(d)
                q[d - 1] = master[d]
                for n in range(d - 2, -1, -1):
                    q[n] = master[n + 1] + a * q[n + 1]
                denom = np.prod(a - np.delete(nodes, i)) if d > 1 else 1.0
                inv[i] = q / denom
            return inv

        rng = np.random.default_rng(17)
        for d in range(1, MAX_NODES + 1):
            for nodes in (
                np.arange(d, dtype=float),
                np.cos(np.pi * (np.arange(d) + 0.5) / d),
                rng.permutation(np.arange(d) + 0.3 * rng.uniform(-1, 1, d)),
                rng.normal(size=d) * 10 ** rng.uniform(-2, 2),
            ):
                assert np.array_equal(invert_vandermonde(nodes), per_row(nodes))


class TestLeastSquares:
    def test_square_qubit_system(self):
        v = vander([1, -1])
        x = solve_least_squares(v, [1, 0])
        assert np.allclose(x, [0.5, 0.5])

    def test_identity_system(self):
        rhs = np.array([1.0, -2.0, 3.5])
        assert np.allclose(solve_least_squares(np.eye(3), rhs), rhs)

    def test_overdetermined_consistent_stack(self):
        v = vander([1, -1])
        stacked = np.vstack([v, v[1]])
        rhs = np.array([1.0, 0.0, 0.0])
        x = solve_least_squares(stacked, rhs)
        assert np.allclose(x, solve_least_squares(v, rhs[:2]))
        assert np.max(np.abs(stacked @ x - rhs)) < 1e-12

    def test_square_agrees_with_exact_solve(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(5, 5))
        rhs = rng.normal(size=5)
        assert np.max(np.abs(solve_least_squares(m, rhs) - np.linalg.solve(m, rhs))) < 1e-8
