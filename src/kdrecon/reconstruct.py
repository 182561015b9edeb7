"""Inverse problem: measured moments/correlations -> pseudo-distributions.

The conditional and the joint are the N = 1 and N = 2 cases of the n-point
inversion, and all three run through ``_invert``, which checks their data.

Conventions (recorded on each output's ordering_tag):
  - conditional_from_moments returns K[i|j] directly;
  - joint_from_correlations and npoint_from_correlations return the
    complex-conjugated KD distribution, which is what the correlation data
    determine.

Eigenvalue nodes are affinely rescaled to [-1, 1] before inversion to tame
Vandermonde conditioning; the moment data are transformed consistently
(binomial re-expansion of operator powers), which is mathematically exact.

Each axis is inverted by R = V_t^+ M, V_t^+ the inverse of the rescaled
Vandermonde matrix for d moments and its pseudo-inverse (least squares) for
any other number.  R depends on the observable alone, not on the state, so
each is built on first use and kept, O(d^2) floats, until the observable is
garbage-collected (``_operator``).
"""

from __future__ import annotations

import math
import warnings
import weakref

import numpy as np

from .core import ObservableSpec, require_observables
from .errors import DimensionMismatch, SizeCap
from .oracle import PseudoDistribution
from .vandermonde import MAX_ORDERS, _inverse_and_spread, _warn_spread, require_orders

SUM_CHECK_TOL = 1e-6


# C(n, k) and n - k for n, k < MAX_ORDERS, both 0 above the diagonal; the
# float cast rounds each exact binomial once
_BINOMIALS = np.array([[math.comb(n, k) for k in range(MAX_ORDERS)] for n in range(MAX_ORDERS)],
                      dtype=float)
_LAGS = np.subtract.outer(np.arange(MAX_ORDERS), np.arange(MAX_ORDERS)).clip(0)


def _rescaled(nodes: np.ndarray, orders: int):
    """Nodes t = (nodes - beta) / alpha mapped into [-1, 1], and the
    lower-triangular M with <T^n> = sum_k M[n, k] <A^k> for T = (A - beta)/alpha,
    M[n, k] = C(n, k) (-beta)^(n-k) / alpha^n.

    Valid for weak values too: A commutes with itself, so the binomial
    expansion holds at operator level.  SizeCap if an entry of M overflows.
    """
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
    built on first use: (R = V_t^+ M, coefficient spread of V_t^+), V_t^+ as
    ``vandermonde._inverse_and_spread`` builds and checks it.

    Two threads missing at once build equal entries and one is kept.
    """
    ops = _OPERATORS.setdefault(obs, {})
    op = ops.get(orders)
    if op is None:
        t_nodes, m = _rescaled(obs.eigenvalues, orders)
        inv, spread = _inverse_and_spread(t_nodes, orders)
        op = (inv @ m, spread)
        op[0].setflags(write=False)
        ops[orders] = op
    return op


def _contract(observables, values: np.ndarray) -> np.ndarray:
    """Apply R = V_t^+ M, for the axis's length, along axis i of ``values`` for
    the i-th observable: Q = R_A C for a moment vector, R_A C R_B^T for a
    correlation matrix.

    Each step contracts the leading axis with one (d x n) @ (n x rest) product
    and moves the new axis last, so after N steps the axes are back in order.
    Warns on every call whose observable's inverse has a wide coefficient
    spread, not only when the operator is built.
    """
    for obs in observables:
        r, spread = _operator(obs, values.shape[0])
        _warn_spread(spread, stacklevel=5)  # at the caller of the entry point
        values = (r @ values.reshape(values.shape[0], -1)).T.reshape(*values.shape[1:], -1)
    return values


def _check_sum(values: np.ndarray, renormalize: bool, what: str):
    total = complex(np.sum(values))
    if not abs(total - 1.0) <= SUM_CHECK_TOL:  # NaN warns too
        warnings.warn(
            f"{what} sums to {total:.6g}, deviating from 1 by {abs(total - 1.0):.3e} "
            "(noisy or inconsistent input data?)",
            RuntimeWarning,
            stacklevel=4,
        )
    return values / total if renormalize else values


def _invert(observables, data, renormalize: bool, what: str) -> np.ndarray:
    """The pseudo-distribution ``what`` of C[n1, ..., nN] = <A1^n1 ... AN^nN>.

    Refused before any inversion: what ``core.require_observables`` refuses;
    data without one axis of d powers each (DimensionMismatch; one observable
    may have any number >= 1 of moments, fitted by least squares when it is
    not d); what ``vandermonde.require_orders`` refuses; C[0, ..., 0] != 1
    (ValueError).  A sum other than 1 is warned of."""
    d, n = require_observables(what, observables), len(observables)
    c = np.asarray(data, dtype=complex)
    if c.shape != (d,) * n and not (n == 1 and c.ndim == 1 and c.size):
        shape = "a nonempty vector" if n == 1 else "x".join([str(d)] * n)
        raise DimensionMismatch(f"{what} data must be {shape}, got shape {c.shape}")
    require_orders(c.shape, what)
    if not abs(c.flat[0] - 1.0) <= 1e-9:
        raise ValueError(f"zeroth moment C[{','.join('0' * n)}] must be 1, got {c.flat[0]}")
    return _check_sum(_contract(observables, c), renormalize, what)


def conditional_from_moments(
    a: ObservableSpec, moments, renormalize: bool = False
) -> PseudoDistribution:
    """Q = V^{-1} A-vector from the weak moments <A^k>, k = 0..len-1 (the
    first must be 1); least-squares (pseudo-inverse) when the number of
    measured moments differs from d."""
    q = _invert([a], moments, renormalize, "conditional pseudo-distribution")
    return PseudoDistribution(q, (a.label,), ordering_tag="kd-conditional", conditioning="phi")


def joint_from_correlations(
    a: ObservableSpec, b: ObservableSpec, c, renormalize: bool = False
) -> PseudoDistribution:
    """Q = V^{-1} C (W^{-1})^T from C[n, m] = <A^n B^m>; equals conj(kd_joint)
    of the underlying state."""
    q = _invert([a, b], c, renormalize, "joint pseudo-distribution")
    return PseudoDistribution(q, (a.label, b.label), ordering_tag="kd-conjugate")


def npoint_from_correlations(obs_list, c_tensor, renormalize: bool = False) -> PseudoDistribution:
    """Per-axis inverse-Vandermonde contraction of an N-point correlation tensor.

    Returns the N-point bracket-chain distribution <psi|o_i1>...<o_iN|psi>,
    which for N = 2 is the conjugate of the two-observable KD matrix.  With
    one observable it accepts what ``conditional_from_moments`` accepts.
    """
    obs_list = list(obs_list)
    q = _invert(obs_list, c_tensor, renormalize, "n-point pseudo-distribution")
    return PseudoDistribution(q, tuple(obs.label for obs in obs_list), ordering_tag="kd-npoint")
