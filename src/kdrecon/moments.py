"""Measurable quantities: weak values, conditioned moment vectors,
correlation matrices/tensors, and discrete characteristic functions.

Operator ordering convention: A-powers (and the A-exponential) leftmost,
Z(lambda, chi) = <psi| e^{i lambda A} e^{i chi B} |psi>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ObservableSpec,
    QuantumState,
    as_density,
    expectation,
    observable_power,
    require_postselection,
    require_tensor_size,
)
from .errors import DimensionMismatch


@dataclass(frozen=True)
class MomentVector:
    """Conditioned weak moments <A^k> for k = 0..len-1; values[0] == 1."""

    values: np.ndarray
    observable: str = "A"
    preselection: str = "psi"
    postselection: str = "phi"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class CorrelationMatrix:
    """C[n, m] = <A^n B^m> with A-powers leftmost; C[0, 0] == 1."""

    values: np.ndarray
    labels: tuple = ("A", "B")
    ordering_tag: str = "a-then-b"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def weak_value(c: np.ndarray, psi: QuantumState, phi: QuantumState) -> complex:
    """<phi|C|psi> / <phi|psi>."""
    if psi.dim != phi.dim:
        raise DimensionMismatch("pre- and post-selection dimensions differ")
    overlap = complex(phi.amplitudes.conj() @ psi.amplitudes)
    require_postselection(abs(overlap) ** 2, "|<phi|psi>|^2 post-selection")
    return complex(phi.amplitudes.conj() @ np.asarray(c, dtype=complex) @ psi.amplitudes) / overlap


def moment_vector(
    a: ObservableSpec,
    psi: QuantumState,
    phi: QuantumState,
    orders: int | None = None,
) -> MomentVector:
    """Weak moments of A between psi and phi, powers 0..orders-1 (default d)."""
    orders = a.dim if orders is None else orders
    vals = [weak_value(observable_power(a, n), psi, phi) for n in range(orders)]
    return MomentVector(np.array(vals), observable=a.label)


def correlation_matrix(a: ObservableSpec, b: ObservableSpec, state, orders=None) -> CorrelationMatrix:
    """C[n, m] = <A^n B^m> for n, m in 0..d-1 (or the given (na, nb))."""
    if a.dim != b.dim:
        raise DimensionMismatch("observables act on different dimensions")
    rho = as_density(state)
    if rho.dim != a.dim:
        raise DimensionMismatch("state dimension does not match observables")
    na, nb = (a.dim, b.dim) if orders is None else orders
    vals = np.empty((na, nb), dtype=complex)
    a_pows = [observable_power(a, n) for n in range(na)]
    b_pows = [observable_power(b, m) for m in range(nb)]
    for n in range(na):
        for m in range(nb):
            vals[n, m] = expectation(rho, a_pows[n] @ b_pows[m])
    return CorrelationMatrix(vals, labels=(a.label, b.label))


def correlation_tensor(obs_list, psi: QuantumState) -> np.ndarray:
    """C[m_1..m_N] = <psi| O_1^m1 ... O_N^mN |psi>, each index 0..d-1."""
    obs_list = list(obs_list)
    d = psi.dim
    for obs in obs_list:
        if obs.dim != d:
            raise DimensionMismatch("observable dimension mismatch")
    n = len(obs_list)
    require_tensor_size(d, n)
    # right-to-left: stack of vectors O_k^{m_k}..O_N^{m_N}|psi> over trailing indices
    stack = psi.amplitudes[:, None]  # shape (d, 1): trailing multi-index flattened
    shape_tail = ()
    for obs in reversed(obs_list):
        pows = np.stack([observable_power(obs, m) for m in range(d)])  # (d, d, d)
        stack = np.einsum("pij,jt->ipt", pows, stack).reshape(d, -1)
        shape_tail = (d,) + shape_tail
    out = (psi.amplitudes.conj() @ stack).reshape(shape_tail)
    return out


def char_fn_discrete(a: ObservableSpec, b: ObservableSpec, state, lam: float, chi: float) -> complex:
    """Z(lambda, chi) = <e^{i lambda A} e^{i chi B}> via eigenbasis exponentials."""
    if a.dim != b.dim:
        raise DimensionMismatch("observables act on different dimensions")
    ua, ub = a.eigenvectors, b.eigenvectors
    exp_a = (ua * np.exp(1j * lam * a.eigenvalues)) @ ua.conj().T
    exp_b = (ub * np.exp(1j * chi * b.eigenvalues)) @ ub.conj().T
    return expectation(state, exp_a @ exp_b)
