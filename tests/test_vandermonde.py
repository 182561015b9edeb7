import numpy as np
import pytest

from kdrecon.errors import DegenerateNodes, SizeCap
from kdrecon.vandermonde import (
    MAX_NODES,
    build_vandermonde,
    invert_vandermonde,
    solve_least_squares,
    vandermonde_determinant,
)


class TestBuild:
    def test_qubit_nodes(self):
        v = build_vandermonde([1, -1])
        assert np.array_equal(v.matrix, [[1, 1], [1, -1]])

    def test_single_node(self):
        assert np.array_equal(build_vandermonde([7.0]).matrix, [[1.0]])

    def test_three_nodes(self):
        v = build_vandermonde([1, 2, 3])
        assert np.array_equal(v.matrix, [[1, 1, 1], [1, 2, 3], [1, 4, 9]])

    def test_first_row_all_ones(self):
        v = build_vandermonde(np.linspace(-3, 5, 9))
        assert np.all(v.matrix[0] == 1.0)

    def test_coincident_nodes_rejected(self):
        with pytest.raises(DegenerateNodes):
            build_vandermonde([1.0, 1.0 + 1e-12, 3.0])

    def test_node_cap(self):
        with pytest.raises(SizeCap):
            build_vandermonde(np.arange(MAX_NODES + 1))


class TestDeterminant:
    def test_qubit(self):
        assert vandermonde_determinant(build_vandermonde([1, -1])) == -2

    def test_single_node_empty_product(self):
        assert vandermonde_determinant(build_vandermonde([4.2])) == 1.0

    def test_three_nodes(self):
        assert vandermonde_determinant(build_vandermonde([0, 1, 3])) == pytest.approx(6)

    def test_sign_flips_under_swap(self):
        nodes = [0.3, -1.1, 2.0, 0.9]
        base = vandermonde_determinant(build_vandermonde(nodes))
        swapped = list(nodes)
        swapped[0], swapped[2] = swapped[2], swapped[0]
        other = vandermonde_determinant(build_vandermonde(swapped))
        assert other == pytest.approx(-base)

    def test_matches_numpy_det(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            nodes = np.sort(rng.uniform(-2, 2, size=5))
            v = build_vandermonde(nodes)
            # determinant of V[n, i] = nodes_i^n is the classic product formula
            assert vandermonde_determinant(v) == pytest.approx(
                np.linalg.det(v.matrix), rel=1e-9
            )


class TestInverse:
    def test_qubit_half_matrix(self):
        inv = invert_vandermonde(build_vandermonde([1, -1]))
        assert np.allclose(inv, 0.5 * np.array([[1, 1], [1, -1]]))

    def test_node1_lagrange_row(self):
        # L_1(x) = (x-2)(x-3)/2 = 3 - 5x/2 + x^2/2
        inv = invert_vandermonde(build_vandermonde([1, 2, 3]))
        assert np.allclose(inv[0], [3.0, -2.5, 0.5])

    def test_symmetric_nodes_rows(self):
        inv = invert_vandermonde(build_vandermonde([-1, 0, 1]))
        expected = np.array([[0, -0.5, 0.5], [1, 0, -1], [0, 0.5, 0.5]])
        assert np.allclose(inv, expected)

    def test_identity_up_to_d10_unit_spacing(self):
        for d in range(1, 11):
            v = build_vandermonde(np.arange(d, dtype=float))
            err = np.max(np.abs(invert_vandermonde(v) @ v.matrix - np.eye(d)))
            assert err < 1e-8

    def test_identity_chebyshev_nodes(self):
        for d in range(2, 11):
            nodes = np.cos((2 * np.arange(d) + 1) * np.pi / (2 * d))
            v = build_vandermonde(nodes)
            err = np.max(np.abs(invert_vandermonde(v) @ v.matrix - np.eye(d)))
            assert err < 1e-6

    def test_matches_dense_inversion(self):
        rng = np.random.default_rng(11)
        for d in range(2, 9):
            nodes = np.sort(rng.uniform(-1.5, 1.5, size=d))
            if np.min(np.diff(nodes)) < 0.05:
                nodes = np.linspace(-1.5, 1.5, d) + 0.01 * rng.uniform(-1, 1, d)
            v = build_vandermonde(nodes)
            dense = np.linalg.inv(v.matrix)
            assert np.max(np.abs(invert_vandermonde(v) - dense)) < 1e-8

    def test_rows_are_lagrange_delta(self):
        for d in [3, 6, 10]:
            nodes = np.arange(d, dtype=float) - d / 2
            inv = invert_vandermonde(build_vandermonde(nodes))
            for i in range(d):
                evals = np.polynomial.polynomial.polyval(nodes, inv[i])
                assert np.max(np.abs(evals - np.eye(d)[i])) < 1e-9

    def test_condition_warning_for_wide_grid(self):
        with pytest.warns(RuntimeWarning, match="coefficient spread"):
            invert_vandermonde(build_vandermonde(np.arange(20, dtype=float)))

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
                v = build_vandermonde(nodes)
                assert np.array_equal(invert_vandermonde(v), per_row(v.nodes))


class TestLeastSquares:
    def test_square_qubit_system(self):
        v = build_vandermonde([1, -1]).matrix
        x = solve_least_squares(v, [1, 0])
        assert np.allclose(x, [0.5, 0.5])

    def test_identity_system(self):
        rhs = np.array([1.0, -2.0, 3.5])
        assert np.allclose(solve_least_squares(np.eye(3), rhs), rhs)

    def test_overdetermined_consistent_stack(self):
        v = build_vandermonde([1, -1]).matrix
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
