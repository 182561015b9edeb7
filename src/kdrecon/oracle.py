"""Ground-truth Kirkwood-Dirac quantities computed directly from states.

Everything here is the quantum-mechanical oracle against which the
data-driven reconstruction paths are tested.  Index convention, fixed
repo-wide: the first axis runs over A-eigenvalues, the second over
B-eigenvalues, K[i, j] = <b_j|a_i><a_i|rho|b_j>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    ObservableSpec,
    QuantumState,
    check_incompatibility,
    overlap_matrix,
    require_index,
    require_observables,
    require_postselection,
)
from .errors import DimensionMismatch, IncompatibilityViolated, OrderingTagMismatch

INCOMPAT_THRESHOLD = 1e-12


@dataclass(frozen=True)
class PseudoDistribution:
    """Complex-valued pseudo-probability array.

    ``cell_weight`` is the integration measure per cell: sum(values) *
    cell_weight == 1 for an unconditioned distribution (1.0 for discrete
    distributions, dx*dp for phase-space grids).  The array given is kept,
    not copied, and made read-only in place, so an n x n joint is held once.
    """

    values: np.ndarray
    axes: tuple
    ordering_tag: str
    conditioning: str | None = None
    cell_weight: float = 1.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "axes", tuple(self.axes))

    @property
    def shape(self):
        return self.values.shape

    @property
    def total(self) -> complex:
        return complex(np.sum(self.values) * self.cell_weight)


def _require_incompatible(a: ObservableSpec, b: ObservableSpec) -> np.ndarray:
    overlaps, violations = check_incompatibility(a, b, INCOMPAT_THRESHOLD)
    if violations:
        raise IncompatibilityViolated(
            f"vanishing overlaps at index pairs {violations}; tilt one observable"
        )
    return overlaps


def _matrix(state) -> np.ndarray:
    """rho's matrix; |psi><psi| for a pure state, which holds DensityMatrix's
    checks by construction, so none is run."""
    if isinstance(state, QuantumState):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    return state.matrix


def _joint(rho: np.ndarray, a: ObservableSpec, b: ObservableSpec) -> np.ndarray:
    """K[i, j] = conj(<a_i|b_j>) <a_i|rho|b_j>, which divides by nothing, so a
    vanishing overlap is a zero entry, not a refusal."""
    # <a_i|rho|b_j> for all i, j in one product
    return overlap_matrix(a, b).conj() * (a.eigenvectors.conj().T @ rho @ b.eigenvectors)


def _postselection(rho: np.ndarray, b: ObservableSpec, j: int) -> float:
    bj = b.eigenvector(j)
    return float(np.real(bj.conj() @ rho @ bj))


def kd_joint(state, a: ObservableSpec, b: ObservableSpec) -> PseudoDistribution:
    """K[i, j] = <b_j|a_i><a_i|rho|b_j>."""
    require_observables("kd_joint", (a, b), state)
    return PseudoDistribution(_joint(_matrix(state), a, b), (a.label, b.label), ordering_tag="kd")


def postselection_probability(state, b: ObservableSpec, j: int) -> float:
    require_observables("postselection_probability", (b,), state)
    return _postselection(_matrix(state), b, j)


def kd_conditional(state, a: ObservableSpec, b: ObservableSpec, j: int) -> PseudoDistribution:
    """K[i|j] = K[i, j] / <b_j|rho|b_j>, conditioned on outcome b_j."""
    require_observables("kd_conditional", (a, b), state)
    j = require_index(j, b.dim, "eigenvector index")
    rho = _matrix(state)  # built once, for both uses below
    prob = _postselection(rho, b, j)
    require_postselection(prob, f"outcome {j} post-selection")
    return PseudoDistribution(
        _joint(rho, a, b)[:, j] / prob,
        (a.label,),
        ordering_tag="kd-conditional",
        conditioning=f"{b.label}[{j}]",
    )


def kd_npoint(psi: QuantumState, obs_list) -> PseudoDistribution:
    """Generalized N-point KD tensor of bracket chains.

    K[i_1..i_N] = <psi|o_i1><o_i1|o_i2>...<o_iN|psi>.  Plain evaluation, no
    dual-frame division, so adjacent overlaps may vanish.  For N = 2 this is
    the elementwise conjugate of kd_joint (the bracket chain starts with
    <psi|a_i> rather than <b_j|a_i>).
    """
    obs_list = list(obs_list)
    if not isinstance(psi, QuantumState):
        raise TypeError("kd_npoint takes pure states (QuantumState) only")
    require_observables("kd_npoint", obs_list, psi)
    n = len(obs_list)
    first = obs_list[0].eigenvectors.conj().T @ psi.amplitudes  # <o_i1|psi>
    tensor = np.conj(first)  # <psi|o_i1>
    for k in range(1, n):
        link = overlap_matrix(obs_list[k - 1], obs_list[k])  # <prev_i|next_j>
        tensor = tensor[..., :, None] * link
    last = obs_list[-1].eigenvectors.conj().T @ psi.amplitudes  # <o_iN|psi>
    tensor = tensor * last
    labels = tuple(obs.label for obs in obs_list)
    return PseudoDistribution(tensor, labels, ordering_tag="kd-npoint")


def reconstruct_state(k: PseudoDistribution, a: ObservableSpec, b: ObservableSpec) -> DensityMatrix:
    """rho = sum_ij K[i, j] |a_i><b_j| / conj(<a_i|b_j>) = U_a (K / conj(O)) U_b^dag,
    the dual-frame expansion of K: ``k`` if tagged "kd", its conjugate if tagged
    "kd-conjugate" (as correlation data give it); any other tag is refused."""
    if k.ordering_tag not in ("kd", "kd-conjugate"):
        raise OrderingTagMismatch(f"tag {k.ordering_tag!r} is not 'kd' or 'kd-conjugate'")
    if k.values.shape != (a.dim, b.dim):
        raise DimensionMismatch("distribution shape does not match observables")
    overlaps = _require_incompatible(a, b)
    values = k.values if k.ordering_tag == "kd" else k.values.conj()
    rho = a.eigenvectors @ (values / overlaps.conj()) @ b.eigenvectors.conj().T
    # round off tiny Hermiticity/trace violations inherited from the input
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho / np.trace(rho).real)


def kd_marginals(k: PseudoDistribution):
    """Born-rule marginals (pA, pB) of an unconditioned d x d distribution;
    DimensionMismatch for values with other than two axes."""
    if k.conditioning is not None:
        raise ValueError("marginals are defined for unconditioned distributions")
    if k.values.ndim != 2:
        raise DimensionMismatch(f"marginals need a 2-D distribution, got shape {k.values.shape}")
    pa = np.sum(k.values, axis=1)
    pb = np.sum(k.values, axis=0)
    return pa.real, pb.real
