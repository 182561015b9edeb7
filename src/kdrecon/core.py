"""Complex linear-algebra domain types and elementary quantum operations.

States are pure amplitude vectors or density matrices; observables are stored
as an eigen-decomposition (real eigenvalues plus a unitary matrix of
eigenvectors), never as a raw Hermitian matrix.  All operations are pure
functions of immutable inputs.  Tolerance checks here and across the package
are written as ``not deviation <= tol``, so that a NaN fails them.
``require_index`` is the one integer-range check, ``require_observables`` the
one check of a discrete problem's shape.  The value types here and
``cv.WaveFunction`` keep the read-only copy ``_read_only_copy`` makes of
their arrays, so no caller's array can change a value once it is checked.
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


def require_observables(what: str, observables, *states) -> int:
    """The one dimension d of ``observables`` and ``states``: refused if there
    is no observable (ValueError), if any of them acts on another dimension
    than the first observable (DimensionMismatch), or if a d**N tensor over
    the N observables passes TENSOR_CAP (SizeCap)."""
    if not observables:
        raise ValueError(f"{what} needs at least one observable")
    dims = [x.dim for x in (*observables, *states)]
    d, n = dims[0], len(observables)
    if any(dim != d for dim in dims):
        raise DimensionMismatch(f"{what}: observables and states of different dimensions {dims}")
    if d**n > TENSOR_CAP:
        raise SizeCap(f"{what}: tensor with {d}^{n} entries exceeds the 1e6 cap")
    return d


def require_grid_size(n: int) -> None:
    if n > GRID_CAP:
        raise SizeCap(f"grid of {n} points exceeds the cap of {GRID_CAP} for n x n arrays")


def require_index(i, size: int, what: str) -> int:
    """``i`` as a Python int in [0, size), refused (ValueError) outside it
    rather than wrapped round as a negative numpy index would be.  A bool or
    a non-integer is a TypeError that names ``what``: numpy would read a bool
    as a mask, not an index."""
    try:
        index = operator.index(i)
    except TypeError:
        index = None
    if index is None or isinstance(i, bool):
        raise TypeError(f"{what} must be an integer, got {i!r}")
    if not 0 <= index < size:
        raise ValueError(f"{what} {index} outside [0, {size})")
    return index


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


def _read_only_copy(a, dtype=complex) -> np.ndarray:
    """A read-only copy of ``a`` as ``dtype``: the caller's array stays
    writable, and changing it cannot change a checked value."""
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QuantumState:
    """Normalized pure state in a fixed orthonormal basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _read_only_copy(self.amplitudes)
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
        """|psi><psi|, checked as every DensityMatrix is."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _read_only_copy(self.matrix)
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
        # copies: the caller's array could be made writable again and change
        # the eigenvalues that ``reconstruct`` has built an operator from
        vals = _read_only_copy(self.eigenvalues, float)
        vecs = _read_only_copy(self.eigenvectors)
        d = vals.size
        if vecs.shape != (d, d):
            raise DimensionMismatch("eigenvector matrix shape must match eigenvalue count")
        if not np.max(np.abs(vecs.conj().T @ vecs - np.eye(d))) <= NORM_TOL:
            raise NormViolation("eigenvector matrix is not unitary within 1e-12")
        require_node_gap(vals)
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
    require_observables("overlap_matrix", (a, b))
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
    if not isinstance(state, (QuantumState, DensityMatrix)):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    m = np.asarray(m, dtype=complex)
    if m.shape != (state.dim, state.dim):
        raise DimensionMismatch("operator shape does not match state")
    if isinstance(state, QuantumState):
        return complex(state.amplitudes.conj() @ m @ state.amplitudes)
    return complex(np.trace(m @ state.matrix))


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
