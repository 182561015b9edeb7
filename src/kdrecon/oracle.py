"""Ground-truth Kirkwood-Dirac quantities computed directly from states.

Everything here is the quantum-mechanical oracle against which the
data-driven reconstruction paths are tested.  Index convention, fixed
repo-wide: the first axis runs over A-eigenvalues, the second over
B-eigenvalues, K[i, j] = <b_j|a_i><a_i|rho|b_j>.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DensityMatrix,
    ObservableSpec,
    QuantumState,
    as_density,
    check_incompatibility,
    overlap_matrix,
    require_postselection,
    require_tensor_size,
)
from .errors import DimensionMismatch, IncompatibilityViolated

INCOMPAT_THRESHOLD = 1e-12


@dataclass(frozen=True)
class PseudoDistribution:
    """Complex-valued pseudo-probability array.

    ``cell_weight`` is the integration measure per cell: sum(values) *
    cell_weight == 1 for an unconditioned distribution (1.0 for discrete
    distributions, dx*dp for phase-space grids).
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


def kd_joint(state, a: ObservableSpec, b: ObservableSpec) -> PseudoDistribution:
    """K[i, j] = <b_j|a_i><a_i|rho|b_j>."""
    rho = as_density(state)
    if rho.dim != a.dim or a.dim != b.dim:
        raise DimensionMismatch("state and observables must share one dimension")
    overlaps = _require_incompatible(a, b)
    # <a_i|rho|b_j> for all i, j in one product
    inner = a.eigenvectors.conj().T @ rho.matrix @ b.eigenvectors
    values = overlaps.conj() * inner
    return PseudoDistribution(values, (a.label, b.label), ordering_tag="kd")


def postselection_probability(state, b: ObservableSpec, j: int) -> float:
    rho = as_density(state)
    bj = b.eigenvector(j)
    return float(np.real(bj.conj() @ rho.matrix @ bj))


def kd_conditional(state, a: ObservableSpec, b: ObservableSpec, j: int) -> PseudoDistribution:
    """K[i|j] = K[i, j] / <b_j|rho|b_j>, conditioned on outcome b_j."""
    rho = as_density(state)  # built and checked once, for both calls below
    prob = postselection_probability(rho, b, j)
    require_postselection(prob, f"outcome {j} post-selection")
    joint = kd_joint(rho, a, b)
    return PseudoDistribution(
        joint.values[:, j] / prob,
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
    if not obs_list:
        raise ValueError("kd_npoint needs at least one observable")
    d = psi.dim
    for obs in obs_list:
        if obs.dim != d:
            raise DimensionMismatch("all observables must match the state dimension")
    n = len(obs_list)
    require_tensor_size(d, n)
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
    the dual-frame expansion (informational completeness of the KD frame)."""
    if k.values.shape != (a.dim, b.dim):
        raise DimensionMismatch("distribution shape does not match observables")
    overlaps = _require_incompatible(a, b)
    rho = a.eigenvectors @ (k.values / overlaps.conj()) @ b.eigenvectors.conj().T
    # round off tiny Hermiticity/trace violations inherited from the input
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho / np.trace(rho).real)


def kd_marginals(k: PseudoDistribution):
    """Born-rule marginals (pA, pB) of an unconditioned d x d distribution."""
    if k.conditioning is not None:
        raise ValueError("marginals are defined for unconditioned distributions")
    pa = np.sum(k.values, axis=1)
    pb = np.sum(k.values, axis=0)
    return pa.real, pb.real
