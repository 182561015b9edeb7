"""Complex linear-algebra domain types and elementary quantum operations.

States are pure amplitude vectors or density matrices; observables are stored
as an eigen-decomposition (real eigenvalues plus a unitary matrix of
eigenvectors), never as a raw Hermitian matrix.  All operations are pure
functions of immutable inputs.  Tolerance checks here and across the package
are written as ``not deviation <= tol``, so that a NaN fails them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateNodes,
    DimensionMismatch,
    NormViolation,
    PostSelectionTooWeak,
    SizeCap,
)

NORM_TOL = 1e-12
PS_FLOOR = 1e-10  # smallest post-selection probability any path divides by
TENSOR_CAP = 10**6  # largest dense d**n tensor a correlation or KD path builds
GRID_CAP = 4096  # largest CV grid n whose dense n x n arrays a path builds


def require_postselection(prob: float, what: str) -> None:
    """Refuse a post-selection whose probability is at or below PS_FLOOR."""
    if not prob > PS_FLOOR:
        raise PostSelectionTooWeak(f"{what} probability {prob:.3e} below floor {PS_FLOOR:.0e}")


def require_tensor_size(d: int, n: int) -> None:
    if d**n > TENSOR_CAP:
        raise SizeCap(f"tensor with {d}^{n} entries exceeds the 1e6 cap")


def require_grid_size(n: int) -> None:
    if n > GRID_CAP:
        raise SizeCap(f"grid of {n} points exceeds the cap of {GRID_CAP} for n x n arrays")


def require_index(i, size: int, what: str) -> int:
    """``i`` as an index into ``size`` outcomes, refused (ValueError) outside
    [0, size) rather than wrapped round as a negative numpy index would be."""
    i = operator.index(i)
    if not 0 <= i < size:
        raise ValueError(f"{what} {i} outside [0, {size})")
    return i


def require_node_gap(nodes: np.ndarray) -> None:
    """Refuse (near-)degenerate values: a gap at or below 1e-9 of the spread
    makes the associated Vandermonde system singular."""
    if nodes.size > 1:
        ordered = np.sort(nodes)
        spread = float(ordered[-1] - ordered[0])
        gap = float((ordered[1:] - ordered[:-1]).min())
        if not gap > 1e-9 * max(spread, 1.0):
            raise DegenerateNodes(
                f"minimum gap {gap:.3e} too small relative to range {spread:.3e}; apply "
                "an infinitesimal tilt to the operator to separate the values"
            )


def _as_complex(a) -> np.ndarray:
    """A read-only complex copy: the caller's array stays writable, and
    changing it cannot change a checked state or eigenvector matrix."""
    arr = np.array(a, dtype=complex)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QuantumState:
    """Normalized pure state in a fixed orthonormal basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_complex(self.amplitudes)
        if amps.ndim != 1 or amps.size < 1:
            raise DimensionMismatch("amplitudes must be a nonempty vector")
        norm = np.sum(np.abs(amps) ** 2)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise NormViolation(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, amplitudes) -> "QuantumState":
        amps = np.asarray(amplitudes, dtype=complex)
        return cls(amps / np.linalg.norm(amps))

    def density(self) -> "DensityMatrix":
        """|psi><psi|, read-only.  It is Hermitian, of unit trace (to the
        norm check above) and rank-1 PSD by construction, so it skips the
        checks, among them an O(d^3) eigvalsh, that DensityMatrix runs on
        user data."""
        rho = object.__new__(DensityMatrix)
        matrix = np.outer(self.amplitudes, self.amplitudes.conj())
        matrix.setflags(write=False)
        object.__setattr__(rho, "matrix", matrix)
        return rho


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("density matrix must be square")
        if not np.max(np.abs(m - m.conj().T)) <= NORM_TOL:
            raise NormViolation("density matrix is not Hermitian within 1e-12")
        trace = np.trace(m)
        if not (abs(trace.real - 1.0) <= NORM_TOL and abs(trace.imag) <= NORM_TOL):
            raise NormViolation("density matrix trace deviates from 1")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise NormViolation("density matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class ObservableSpec:
    """Non-degenerate Hermitian observable as eigenvalues + eigenvector columns.

    Degenerate spectra are rejected at construction: a near-zero eigenvalue gap
    makes the associated Vandermonde system singular.  Tilt the operator by an
    infinitesimal amount to lift the degeneracy.

    Compared and hashed by identity, so that ``reconstruct`` can keep each
    observable's inverse operator in a weak-keyed cache; both arrays are
    read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    label: str = "A"

    def __post_init__(self):
        # a copy: the caller's array could be made writable again and change
        # the eigenvalues that ``reconstruct`` has built an operator from
        vals = np.array(self.eigenvalues, dtype=float)
        vecs = _as_complex(self.eigenvectors)
        d = vals.size
        if vecs.shape != (d, d):
            raise DimensionMismatch("eigenvector matrix shape must match eigenvalue count")
        if not np.max(np.abs(vecs.conj().T @ vecs - np.eye(d))) <= NORM_TOL:
            raise NormViolation("eigenvector matrix is not unitary within 1e-12")
        require_node_gap(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def eigenvector(self, i: int) -> np.ndarray:
        return self.eigenvectors[:, require_index(i, self.dim, "eigenvector index")]

    def matrix(self) -> np.ndarray:
        return observable_power(self, 1)

    @classmethod
    def from_matrix(cls, hermitian, label: str = "A") -> "ObservableSpec":
        """Eigen-solve a dense Hermitian matrix.

        Convenience only; accuracy of the decomposition is ~1e-10, weaker than
        the 1e-12 contract of directly supplied decompositions.
        """
        h = np.asarray(hermitian, dtype=complex)
        if not np.max(np.abs(h - h.conj().T)) <= 1e-10:
            raise NormViolation("input matrix is not Hermitian")
        vals, vecs = np.linalg.eigh(h)
        return cls(vals, vecs, label=label)


def observable_power(obs: ObservableSpec, n: int) -> np.ndarray:
    """Dense matrix of the n-th power, sum_i a_i^n |a_i><a_i|."""
    if n < 0:
        raise ValueError("power must be non-negative")
    u = obs.eigenvectors
    return (u * (obs.eigenvalues**n)) @ u.conj().T


def overlap_matrix(a: ObservableSpec, b: ObservableSpec) -> np.ndarray:
    """Matrix of overlaps O[i, j] = <a_i|b_j>."""
    if a.dim != b.dim:
        raise DimensionMismatch("observables act on different dimensions")
    return a.eigenvectors.conj().T @ b.eigenvectors


def check_incompatibility(a: ObservableSpec, b: ObservableSpec, threshold: float):
    """Overlap matrix plus the index pairs whose overlap falls below threshold.

    An empty violation list means the pair is fully incompatible at this
    threshold (every |<a_i|b_j>| >= threshold), which the dual-frame division
    requires.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    overlaps = overlap_matrix(a, b)
    ii, jj = np.nonzero(np.abs(overlaps) < threshold)
    return overlaps, list(zip(ii.tolist(), jj.tolist()))


def expectation(state, m: np.ndarray) -> complex:
    """<psi|M|psi> for a pure state, Tr(M rho) for a density matrix."""
    m = np.asarray(m, dtype=complex)
    if isinstance(state, QuantumState):
        if m.shape != (state.dim, state.dim):
            raise DimensionMismatch("operator shape does not match state")
        return complex(state.amplitudes.conj() @ m @ state.amplitudes)
    if isinstance(state, DensityMatrix):
        if m.shape != (state.dim, state.dim):
            raise DimensionMismatch("operator shape does not match state")
        return complex(np.trace(m @ state.matrix))
    raise TypeError(f"unsupported state type {type(state).__name__}")


def as_density(state) -> DensityMatrix:
    return state.density() if isinstance(state, QuantumState) else state


# ---------------------------------------------------------------------------
# Seeded random test utilities (Haar-like via QR of a Gaussian matrix).

def haar_unitary(dim: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(dim: int, seed) -> QuantumState:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState.normalized(z)


def random_density(dim: int, seed, rank: int | None = None) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    rank = dim if rank is None else rank
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = z @ z.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_observable(dim: int, seed, eigenvalues=None, label: str = "A") -> ObservableSpec:
    """Random non-degenerate observable; eigenvalues default to 0..dim-1 plus jitter."""
    rng = np.random.default_rng(seed)
    if eigenvalues is None:
        eigenvalues = np.arange(dim) + 0.3 * rng.uniform(-1, 1, size=dim)
        eigenvalues = np.sort(eigenvalues)
    return ObservableSpec(eigenvalues, haar_unitary(dim, rng.integers(2**63)), label=label)


# Qubit conveniences used throughout the tests and CLI examples.

def pauli_spec(which: str, label: str | None = None) -> ObservableSpec:
    s = 1 / np.sqrt(2)
    if which == "z":
        vecs = np.eye(2, dtype=complex)
    elif which == "x":
        vecs = np.array([[s, s], [s, -s]], dtype=complex)
    elif which == "y":
        vecs = np.array([[s, s], [1j * s, -1j * s]], dtype=complex)
    else:
        raise ValueError(f"unknown Pauli axis {which!r}")
    return ObservableSpec([1.0, -1.0], vecs, label=label or f"sigma_{which}")
