"""Exception types shared across the package, and the one check that a
weight or radius is positive and finite."""

import math


class SliceFockError(Exception):
    """Base class for all library-specific failures."""


class ZeroDivisor(SliceFockError):
    """Inversion of a quaternion whose modulus is numerically zero."""


class SingularPoint(SliceFockError):
    """Pointwise star-reciprocal requested at a zero of the symmetrization."""


class ZeroValue(SliceFockError):
    """Point transform requested where the function vanishes."""


class NotOrthogonal(SliceFockError):
    """Pair of imaginary units is not orthogonal to working precision."""


class UnitMismatch(SliceFockError):
    """Component polynomials live on different slices."""


class BadRadius(SliceFockError):
    """Dilation factor outside (0, 1]."""


class PointOffSlice(SliceFockError):
    """Synthesis point does not lie on the requested slice."""


class GridTooCoarse(SliceFockError):
    """Quadrature refinements failed to agree at the resolution cap.

    Carries the refinement trace as a list of (grid description, value)
    pairs so callers can report what was tried.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace or [])


def _require_positive_finite(name: str, value: float) -> None:
    """Refuse a weight or radius that is not in (0, inf); NaN is refused too."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")
