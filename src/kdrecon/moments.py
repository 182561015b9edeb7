"""Measurable quantities: weak values, conditioned moment vectors,
correlation matrices/tensors, and discrete characteristic functions.

Operator ordering convention: A-powers (and the A-exponential) leftmost,
Z(lambda, chi) = <psi| e^{i lambda A} e^{i chi B} |psi>.

Moments and correlations are all one bra-ket GEMM chain,
C[m_1..m_N] = sum_k <u_k| O_1^m_1 ... O_N^m_N |v_k> (``_bra_ket``): the ket
side is built right to left, one product per observable, the bra side
<u_k|O_1^m_1 is one product and a last one joins them, about d^(N+1)
multiply-adds per column k at d orders each.  Each observable's power stack
O^0..O^(orders-1) costs d^3 * orders more (one (d*orders x d) @ (d x d)
product), which dominates for N <= 2.  A mixed state enters through its
factor L with rho = L L^dagger, so Tr(A^n B^m rho) = sum_k <L_k|A^n B^m|L_k>.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DensityMatrix,
    ObservableSpec,
    QuantumState,
    expectation,
    require_observables,
    require_postselection,
)
from .errors import DimensionMismatch, SizeCap
from .vandermonde import require_orders


def _overlap(psi: QuantumState, phi: QuantumState, what: str) -> complex:
    """<phi|psi> of two pure states, refused below the post-selection floor."""
    if not (isinstance(psi, QuantumState) and isinstance(phi, QuantumState)):
        raise TypeError(f"{what} takes pure states (QuantumState) only")
    if psi.dim != phi.dim:
        raise DimensionMismatch("pre- and post-selection dimensions differ")
    overlap = complex(phi.amplitudes.conj() @ psi.amplitudes)
    require_postselection(abs(overlap) ** 2, "|<phi|psi>|^2 post-selection")
    return overlap


def weak_value(c: np.ndarray, psi: QuantumState, phi: QuantumState) -> complex:
    """<phi|C|psi> / <phi|psi>."""
    overlap = _overlap(psi, phi, "weak_value")
    c = np.asarray(c, dtype=complex)
    if c.shape != (psi.dim, psi.dim):
        raise DimensionMismatch(f"operator shape {c.shape} does not match the states")
    return complex(phi.amplitudes.conj() @ c @ psi.amplitudes) / overlap


def _powers(obs: ObservableSpec, orders: int) -> np.ndarray:
    """O^0..O^(orders-1) stacked in (i, m, j) layout, shape (d, orders, d):
    row (i, m) is u_i a^m, and one product with u^dagger gives every power.
    SizeCap if a power of an eigenvalue overflows."""
    u, d = obs.eigenvectors, obs.dim
    # a**m with a scalar m, as observable_power has it: numpy takes x*x for m = 2;
    # an overflow is refused below, not warned of
    with np.errstate(over="ignore"):
        lam_m = np.array([obs.eigenvalues**m for m in range(orders)])
    if not np.isfinite(lam_m).all():
        raise SizeCap(f"eigenvalue powers up to {orders - 1} overflow a float")
    return ((u[:, None, :] * lam_m).reshape(d * orders, d) @ u.conj().T).reshape(d, orders, d)


def _bra_ket(obs_list, orders, bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """C[m_1..m_N] = sum_k <bra_k| O_1^m_1 ... O_N^m_N |ket_k>, m_i < orders[i].

    ``bra`` and ``ket`` hold the vectors as (d, K) columns.  The ket side runs
    right to left: columns index (m_i..m_N, k), and each step is one
    (d*orders_i x d) @ (d x T) product whose (i, m) rows reshape for free.  The
    bra side <bra_k|O_1^m_1 is one product, and one more, summing over (k, i),
    joins the two, so N observables cost d^(N+1) multiply-adds rather than
    d^(N+2).
    """
    d, k = ket.shape
    stack = ket
    for obs, n in zip(obs_list[:0:-1], orders[:0:-1]):
        stack = (_powers(obs, n).reshape(d * n, d) @ stack).reshape(d, -1)
    first = _powers(obs_list[0], orders[0]).reshape(d, -1)
    left = (bra.conj().T @ first).reshape(k, -1, d).transpose(1, 0, 2).reshape(-1, k * d)
    right = stack.reshape(d, -1, k).transpose(2, 0, 1).reshape(k * d, -1)
    # np.dot, not @: for a 1-wide operand the two take different BLAS calls
    return np.dot(left, right).reshape(orders)


def moment_vector(
    a: ObservableSpec,
    psi: QuantumState,
    phi: QuantumState,
    orders: int | None = None,
) -> np.ndarray:
    """Weak moments <phi|A^n|psi> / <phi|psi>, powers 0..orders-1 (default d),
    as a complex 1-D array whose first entry is 1."""
    require_observables("moment_vector", (a,), psi, phi)
    orders = a.dim if orders is None else orders
    require_orders((orders,), "moment_vector")
    overlap = _overlap(psi, phi, "moment_vector")
    return _bra_ket([a], (orders,), phi.amplitudes[:, None], psi.amplitudes[:, None]) / overlap


def _factor(state) -> np.ndarray:
    """L with rho = L L^dagger: psi itself, or V sqrt(max(lambda, 0)) from eigh."""
    if isinstance(state, QuantumState):
        return state.amplitudes[:, None]
    if isinstance(state, DensityMatrix):
        lam, vecs = np.linalg.eigh(state.matrix)
        return vecs * np.sqrt(np.maximum(lam, 0.0))
    raise TypeError(f"unsupported state type {type(state).__name__}")


def correlation_matrix(a: ObservableSpec, b: ObservableSpec, state, orders=None) -> np.ndarray:
    """C[n, m] = <A^n B^m>, A-powers leftmost, for n, m in 0..d-1 (or the
    given (na, nb)); C[0, 0] == 1.

    A mixed state enters through its factor L (rho = L L^dagger), so C is
    sum_k <L_k|A^n B^m|L_k> = Tr(A^n B^m rho).
    """
    require_observables("correlation_matrix", (a, b), state)
    orders = (a.dim, b.dim) if orders is None else tuple(orders)
    require_orders(orders, "correlation_matrix")
    factor = _factor(state)
    return _bra_ket([a, b], orders, factor, factor)


def correlation_tensor(obs_list, state) -> np.ndarray:
    """C[m_1..m_N] = <O_1^m1 ... O_N^mN>, each index 0..d-1, of a pure or,
    through its factor as in ``correlation_matrix``, a mixed state."""
    obs_list = list(obs_list)
    orders = (require_observables("correlation_tensor", obs_list, state),) * len(obs_list)
    require_orders(orders, "correlation_tensor")
    factor = _factor(state)
    return _bra_ket(obs_list, orders, factor, factor)


def char_fn_discrete(a: ObservableSpec, b: ObservableSpec, state, lam: float, chi: float) -> complex:
    """Z(lambda, chi) = <e^{i lambda A} e^{i chi B}> via eigenbasis exponentials."""
    require_observables("char_fn_discrete", (a, b), state)
    ua, ub = a.eigenvectors, b.eigenvectors
    exp_a = (ua * np.exp(1j * lam * a.eigenvalues)) @ ua.conj().T
    exp_b = (ub * np.exp(1j * chi * b.eigenvalues)) @ ub.conj().T
    return expectation(state, exp_a @ exp_b)
