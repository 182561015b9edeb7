"""Inverse problem: measured moments/correlations -> pseudo-distributions.

Conventions (recorded on each output's ordering_tag):
  - conditional_from_moments returns K[i|j] directly;
  - joint_from_correlations and npoint_from_correlations return the
    complex-conjugated KD distribution, which is what the correlation data
    determine.

Eigenvalue nodes are affinely rescaled to [-1, 1] before inversion to tame
Vandermonde conditioning; the moment data are transformed consistently
(binomial re-expansion of operator powers), which is mathematically exact.
"""

from __future__ import annotations

import warnings
from math import comb

import numpy as np

from .core import ObservableSpec, require_tensor_size
from .errors import DimensionMismatch
from .oracle import PseudoDistribution
from .vandermonde import invert_vandermonde, solve_least_squares

SUM_CHECK_TOL = 1e-6


def _rescaled(nodes: np.ndarray, orders: int):
    """Nodes t = (nodes - beta) / alpha mapped into [-1, 1], and the
    lower-triangular M with <T^n> = sum_k M[n, k] <A^k> for T = (A - beta)/alpha.

    Valid for weak values too: A commutes with itself, so the binomial
    expansion holds at operator level.
    """
    lo, hi = float(np.min(nodes)), float(np.max(nodes))
    alpha, beta = ((hi - lo) / 2.0, (hi + lo) / 2.0) if hi != lo else (1.0, 0.0)
    m = np.zeros((orders, orders))
    for n in range(orders):
        for k in range(n + 1):
            m[n, k] = comb(n, k) * ((-beta) ** (n - k)) / (alpha**n)
    return (nodes - beta) / alpha, m


def _contract(observables, values: np.ndarray) -> np.ndarray:
    """Apply R = V_t^{-1} M along axis i of ``values`` for the i-th observable:
    Q = R_A C for a moment vector, R_A C R_B^T for a correlation matrix."""
    for axis, obs in enumerate(observables):
        t_nodes, m = _rescaled(np.asarray(obs.eigenvalues, float), obs.dim)
        r = invert_vandermonde(t_nodes) @ m
        values = np.moveaxis(np.tensordot(r, values, axes=([1], [axis])), 0, axis)
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
        t_nodes, m = _rescaled(np.asarray(a.eigenvalues, dtype=float), r)
        v_rect = np.vander(t_nodes, r, increasing=True).T  # r rows of powers
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
