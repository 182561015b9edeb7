"""Exception hierarchy shared across the package."""


class KdreconError(Exception):
    """Base class for all domain errors."""


class DimensionMismatch(KdreconError):
    pass


class DegenerateNodes(KdreconError):
    """Eigenvalues/nodes too close together for a stable Vandermonde system.

    Apply a small tilt to the operator to lift the degeneracy.
    """


class SizeCap(KdreconError):
    """Requested problem size exceeds the double-precision comfort zone."""


class IncompatibilityViolated(KdreconError):
    """Some basis overlap <a_i|b_j> is (numerically) zero, so the dual frame
    division is ill-defined."""


class PostSelectionTooWeak(KdreconError):
    """Post-selection probability below the configured floor."""


class NormViolation(KdreconError):
    pass


class OffGridParameter(KdreconError):
    """A characteristic-function parameter does not lie on the conjugate grid."""


class InvalidProbability(KdreconError):
    pass


class InsufficientCounts(KdreconError):
    pass


class ShapeMismatch(KdreconError):
    pass


class OrderingTagMismatch(KdreconError):
    """Refusing to compare distributions with different operator orderings."""


class ParseError(KdreconError):
    pass


class SchemaError(KdreconError):
    pass
