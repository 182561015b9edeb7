"""Vandermonde systems over observable eigenvalues.

Rows index powers, columns index nodes: V[n, i] = nodes[i]**n.  The inverse is
built from Lagrange interpolating polynomials in O(d^2) arithmetic: row i of
V^-1 holds the monomial coefficients of L_i(x) = prod_{m != i} (x - a_m) /
(a_i - a_m), so that (V^-1 V)[i, m] = L_i(a_m) = delta_im.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import require_node_gap
from .errors import DegenerateNodes, DimensionMismatch, SizeCap

MAX_NODES = 32
MAX_ORDERS = 2 * MAX_NODES  # most moment orders per observable (powers 0..63)
CONDITION_WARN_RATIO = 1e12


def require_orders(orders, what: str) -> None:
    """Every moment order in ``orders`` in 1..MAX_ORDERS (ValueError below,
    SizeCap above), checked before anything is built; the one such check."""
    if any(n < 1 for n in orders):
        raise ValueError(f"{what}: moment orders must be at least 1, got {orders}")
    if any(n > MAX_ORDERS for n in orders):
        raise SizeCap(f"{what}: moment orders {orders} exceed the cap of {MAX_ORDERS}")


def _check_nodes(nodes: np.ndarray):
    if nodes.ndim != 1:
        raise DimensionMismatch(f"nodes must be a 1-D array, got shape {nodes.shape}")
    d = nodes.size
    if d < 1:
        raise DegenerateNodes("need at least one node")
    if d > MAX_NODES:
        raise SizeCap(f"{d} nodes exceeds the cap of {MAX_NODES}")
    require_node_gap(nodes)


def _inverse_and_spread(nodes, orders: int | None = None) -> tuple[np.ndarray, float]:
    """V^+ of V[n, i] = nodes[i]**n, n < ``orders`` (default d), and its
    coefficient spread (largest over smallest significant magnitude): V^-1 by
    Lagrange deflation at d orders, np.linalg.pinv at any other number.  The
    nodes must be distinct (gap check), at least one and at most MAX_NODES."""
    nodes = np.asarray(nodes, dtype=float)
    _check_nodes(nodes)
    d = nodes.size
    if orders not in (None, d):
        inv = np.linalg.pinv(np.vander(nodes, orders, increasing=True).T)
    else:
        # P(x) = prod_m (x - a_m), one root at a time, highest power first
        master = np.zeros(d + 1)
        master[0] = 1.0
        for i, a in enumerate(nodes, 1):
            master[1:i + 1] -= a * master[:i]
        master = master[::-1]  # increasing powers
        # synthetic division of every row at once: q_i(x) = P(x) / (x - a_i),
        # highest power first
        q = np.empty((d, d))
        q[:, d - 1] = master[d]
        for n in range(d - 2, -1, -1):
            q[:, n] = master[n + 1] + nodes * q[:, n + 1]
        # denominators prod_{m != i} (a_i - a_m), off-diagonal entries in row order
        gaps = (nodes[:, None] - nodes[None, :])[~np.eye(d, dtype=bool)].reshape(d, d - 1)
        inv = q / gaps.prod(axis=1)[:, None]
    mags = np.abs(inv)
    top = mags.max()
    # coefficients that are structurally zero come out at roundoff level;
    # exclude them from the spread estimate
    significant = mags[mags > 1e-14 * top]
    return inv, float(top / significant.min()) if significant.size else 1.0


def _warn_spread(spread: float, stacklevel: int = 3) -> None:
    """Warn, at the caller's caller by default, when an inverse's coefficient
    spread passes CONDITION_WARN_RATIO."""
    if np.isfinite(spread) and spread > CONDITION_WARN_RATIO:
        warnings.warn(
            f"Vandermonde inverse coefficient spread {spread:.2e} exceeds 1e12; "
            "results may be inaccurate",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def invert_vandermonde(nodes) -> np.ndarray:
    """Inverse of V[n, i] = nodes[i]**n (see ``_inverse_and_spread``), with a
    RuntimeWarning when its coefficient spread exceeds 1e12; no reconstruction
    calls it."""
    inv, spread = _inverse_and_spread(nodes)
    _warn_spread(spread)
    return inv


def solve_least_squares(m, rhs) -> np.ndarray:
    """Minimum-norm least-squares solution of M x = rhs; no reconstruction calls it."""
    m = np.asarray(m, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    x, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    return x
