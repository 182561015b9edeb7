"""kdrecon: reconstruct Kirkwood-Dirac pseudo-distributions from
weak-measurement data, with direct quantum-mechanical oracles for validation.
"""

from .core import (
    DensityMatrix,
    ObservableSpec,
    QuantumState,
    check_incompatibility,
    expectation,
    observable_power,
    pauli_spec,
)
from .errors import KdreconError
from .moments import (
    char_fn_discrete,
    correlation_matrix,
    correlation_tensor,
    moment_vector,
    weak_value,
)
from .oracle import (
    PseudoDistribution,
    kd_conditional,
    kd_joint,
    kd_marginals,
    kd_npoint,
    reconstruct_state,
)
from .reconstruct import (
    conditional_from_moments,
    joint_from_correlations,
    npoint_from_correlations,
)
from .vandermonde import invert_vandermonde, solve_least_squares

__version__ = "0.1.0"
