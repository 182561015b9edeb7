"""Vandermonde systems over observable eigenvalues.

Rows index powers, columns index nodes: V[n, i] = nodes[i]**n.  The inverse is
built from Lagrange interpolating polynomials in O(d^2) arithmetic: row i of
V^-1 holds the monomial coefficients of L_i(x) = prod_{m != i} (x - a_m) /
(a_i - a_m), so that (V^-1 V)[i, m] = L_i(a_m) = delta_im.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import require_node_gap
from .errors import DegenerateNodes, SizeCap

MAX_NODES = 32
CONDITION_WARN_RATIO = 1e12


def _check_nodes(nodes: np.ndarray):
    d = nodes.size
    if d < 1:
        raise DegenerateNodes("need at least one node")
    if d > MAX_NODES:
        raise SizeCap(f"{d} nodes exceeds the cap of {MAX_NODES}")
    require_node_gap(nodes)


@dataclass(frozen=True)
class VandermondeMatrix:
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        _check_nodes(nodes)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def dim(self) -> int:
        return self.nodes.size

    @property
    def matrix(self) -> np.ndarray:
        return np.vander(self.nodes, self.dim, increasing=True).T


def build_vandermonde(nodes) -> VandermondeMatrix:
    return VandermondeMatrix(np.asarray(nodes, dtype=float))


def vandermonde_determinant(v: VandermondeMatrix) -> float:
    """prod_{i<j} (a_j - a_i); equals 1 for a single node (empty product)."""
    nodes = v.nodes
    det = 1.0
    for i in range(v.dim):
        for j in range(i + 1, v.dim):
            det *= nodes[j] - nodes[i]
    return det


def invert_vandermonde(v: VandermondeMatrix) -> np.ndarray:
    """Inverse via Lagrange coefficient deflation, O(d^2) arithmetic.

    Row i holds the monomial coefficients (increasing powers) of L_i.
    """
    nodes = v.nodes
    d = v.dim
    master = np.poly(nodes)[::-1]  # P(x) = prod_m (x - a_m), increasing powers
    # synthetic division of every row at once: q_i(x) = P(x) / (x - a_i),
    # highest power first
    q = np.empty((d, d))
    q[:, d - 1] = master[d]
    for n in range(d - 2, -1, -1):
        q[:, n] = master[n + 1] + nodes * q[:, n + 1]
    # denominators prod_{m != i} (a_i - a_m), off-diagonal entries in row order
    gaps = (nodes[:, None] - nodes[None, :])[~np.eye(d, dtype=bool)].reshape(d, d - 1)
    inv = q / np.prod(gaps, axis=1)[:, None]
    mags = np.abs(inv)
    # coefficients that are structurally zero come out at roundoff level;
    # exclude them from the spread estimate
    significant = mags[mags > 1e-14 * np.max(mags)]
    ratio = np.max(mags) / np.min(significant) if significant.size else 1.0
    if np.isfinite(ratio) and ratio > CONDITION_WARN_RATIO:
        warnings.warn(
            f"Vandermonde inverse coefficient spread {ratio:.2e} exceeds 1e12; "
            "results may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    return inv


def solve_least_squares(m, rhs) -> np.ndarray:
    """Minimum-norm least-squares solution of M x = rhs."""
    m = np.asarray(m, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    x, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    return x
