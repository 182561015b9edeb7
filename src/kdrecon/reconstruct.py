"""Inverse problem: measured moments/correlations -> pseudo-distributions.

Conventions (recorded on each output's ordering_tag):
  - conditional_from_moments returns K[i|j] directly;
  - joint_from_correlations and npoint_from_correlations return the
    complex-conjugated KD distribution, which is what the correlation data
    determine.

Eigenvalue nodes are affinely rescaled to [-1, 1] before inversion to tame
Vandermonde conditioning; the moment data are transformed consistently
(binomial re-expansion of operator powers), which is mathematically exact.

The rescaled operators depend on the observable alone, not on the state, so
each is built on first use and kept, O(d^2) floats, until the observable is
garbage-collected (``_operator``).
"""

from __future__ import annotations

import warnings
import weakref

import numpy as np

from .core import ObservableSpec, require_tensor_size
from .errors import DimensionMismatch, SizeCap
from .oracle import PseudoDistribution
from .vandermonde import MAX_ORDERS, _inverse_and_spread, _warn_spread, solve_least_squares

SUM_CHECK_TOL = 1e-6


def _binomials(rows: int) -> np.ndarray:
    """C(n, k) for n, k < rows by Pascal's rule on exact Python ints; the
    float cast rounds each entry as float(comb(n, k)) does."""
    table, row = [], [1]
    for _ in range(rows):
        table.append(row + [0] * (rows - len(row)))
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return np.array(table, dtype=float)


_BINOMIALS = _binomials(MAX_ORDERS)
# n - k on and below the diagonal, 0 above it
_LAGS = np.array([[max(n - k, 0) for k in range(MAX_ORDERS)] for n in range(MAX_ORDERS)])


def _rescaled(nodes: np.ndarray, orders: int):
    """Nodes t = (nodes - beta) / alpha mapped into [-1, 1], and the
    lower-triangular M with <T^n> = sum_k M[n, k] <A^k> for T = (A - beta)/alpha,
    M[n, k] = C(n, k) (-beta)^(n-k) / alpha^n.

    Valid for weak values too: A commutes with itself, so the binomial
    expansion holds at operator level.  SizeCap if an entry of M overflows.
    """
    if orders > MAX_ORDERS:
        raise SizeCap(f"{orders} moment orders exceed the cap of {MAX_ORDERS}")
    lo, hi = float(nodes.min()), float(nodes.max())
    alpha, beta = ((hi - lo) / 2.0, (hi + lo) / 2.0) if hi != lo else (1.0, 0.0)
    try:  # a Python float power raises OverflowError where numpy gives inf
        shift = np.array([(-beta) ** j for j in range(orders)])
        scale = np.array([alpha**j for j in range(orders)])
        # above the diagonal C(n, k) = 0 meets shift[0] = 1, so M is exactly
        # lower-triangular; an inf or NaN entry is refused below, not warned of
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            m = _BINOMIALS[:orders, :orders] * shift[_LAGS[:orders, :orders]] / scale[:, None]
        if not np.isfinite(m).all():
            raise OverflowError
    except OverflowError:
        raise SizeCap(
            f"{orders} moment orders of nodes rescaled about {beta:.3g} by {alpha:.3g} "
            "overflow a float"
        ) from None
    return (nodes - beta) / alpha, m


# ObservableSpec (compared and hashed by identity) -> {orders: operator}
_OPERATORS = weakref.WeakKeyDictionary()


def _operator(obs: ObservableSpec, orders: int) -> tuple:
    """The observable's rescaled operator for ``orders`` measured moments,
    built on first use: (R = V_t^{-1} M, coefficient spread of V_t^{-1}) when
    orders == d, (V_t's ``orders`` rows of powers, M) otherwise.

    Two threads missing at once build equal entries and one is kept.
    """
    ops = _OPERATORS.setdefault(obs, {})
    op = ops.get(orders)
    if op is None:
        t_nodes, m = _rescaled(obs.eigenvalues, orders)
        if orders == obs.dim:
            inv, spread = _inverse_and_spread(t_nodes)
            op = (inv @ m, spread)
        else:
            op = (np.vander(t_nodes, orders, increasing=True).T, m)
            m.setflags(write=False)
        op[0].setflags(write=False)
        ops[orders] = op
    return op


def _contract(observables, values: np.ndarray) -> np.ndarray:
    """Apply R = V_t^{-1} M along axis i of ``values`` for the i-th observable:
    Q = R_A C for a moment vector, R_A C R_B^T for a correlation matrix.

    Each step contracts the leading axis with one (d x d) @ (d x rest) product
    and moves the new axis last, so after N steps the axes are back in order.
    Warns on every call whose observable's inverse has a wide coefficient
    spread, not only when the operator is built.
    """
    for obs in observables:
        r, spread = _operator(obs, obs.dim)
        _warn_spread(spread)
        values = (r @ values.reshape(obs.dim, -1)).T.reshape(*values.shape[1:], -1)
    return values


def _check_sum(values: np.ndarray, renormalize: bool, what: str):
    total = complex(np.sum(values))
    if not abs(total - 1.0) <= SUM_CHECK_TOL:  # NaN warns too
        warnings.warn(
            f"{what} sums to {total:.6g}, deviating from 1 by {abs(total - 1.0):.3e} "
            "(noisy or inconsistent input data?)",
            RuntimeWarning,
            stacklevel=3,
        )
    if renormalize:
        return values / total
    return values


def conditional_from_moments(
    a: ObservableSpec, moments, renormalize: bool = False
) -> PseudoDistribution:
    """Q = V^{-1} A-vector from the weak moments <A^k>, k = 0..len-1 (the
    first must be 1); least-squares (pseudo-inverse) when the number of
    measured moments differs from d."""
    moments = np.asarray(moments, dtype=complex)
    if moments.ndim != 1 or moments.size < 1:
        raise DimensionMismatch(f"moments must be a nonempty 1-D array, got shape {moments.shape}")
    if not abs(moments[0] - 1.0) <= 1e-9:
        raise ValueError(f"zeroth moment must be 1, got {moments[0]}")
    r = moments.size
    if r == a.dim:
        q = _contract([a], moments)
    else:
        v_rect, m = _operator(a, r)
        q = solve_least_squares(v_rect, m @ moments)
    q = _check_sum(q, renormalize, "conditional pseudo-distribution")
    return PseudoDistribution(q, (a.label,), ordering_tag="kd-conditional", conditioning="phi")


def joint_from_correlations(
    a: ObservableSpec, b: ObservableSpec, c, renormalize: bool = False
) -> PseudoDistribution:
    """Q = V^{-1} C (W^{-1})^T from C[n, m] = <A^n B^m>; equals conj(kd_joint)
    of the underlying state."""
    if a.dim != b.dim:
        raise DimensionMismatch("observables act on different dimensions")
    d = a.dim
    c = np.asarray(c, dtype=complex)
    if c.shape != (d, d):
        raise DimensionMismatch(f"correlation matrix must be {d}x{d}, got {c.shape}")
    if not abs(c[0, 0] - 1.0) <= 1e-9:
        raise ValueError(f"C[0,0] must be 1, got {c[0, 0]}")
    q = _check_sum(_contract([a, b], c), renormalize, "joint pseudo-distribution")
    return PseudoDistribution(q, (a.label, b.label), ordering_tag="kd-conjugate")


def npoint_from_correlations(obs_list, c_tensor, renormalize: bool = False) -> PseudoDistribution:
    """Per-axis inverse-Vandermonde contraction of an N-point correlation tensor.

    Returns the N-point bracket-chain distribution <psi|o_i1>...<o_iN|psi>,
    which for N = 2 is the conjugate of the two-observable KD matrix.
    """
    obs_list = list(obs_list)
    if not obs_list:
        raise ValueError("npoint_from_correlations needs at least one observable")
    c = np.asarray(c_tensor, dtype=complex)
    n = len(obs_list)
    if c.ndim != n:
        raise DimensionMismatch("tensor rank must match number of observables")
    d = obs_list[0].dim
    require_tensor_size(d, n)
    for axis, obs in enumerate(obs_list):
        if c.shape[axis] != obs.dim:
            raise DimensionMismatch(f"axis {axis} length does not match observable dimension")
    c = _check_sum(_contract(obs_list, c), renormalize, "n-point pseudo-distribution")
    labels = tuple(obs.label for obs in obs_list)
    return PseudoDistribution(c, labels, ordering_tag="kd-npoint")
