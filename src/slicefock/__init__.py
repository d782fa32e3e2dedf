"""Slice-regular functions on the quaternionic unit ball with Gaussian weights.

The package covers the quaternion algebra, truncated power series with the
star product, splitting and extension between a slice and the whole ball,
weighted p-norms and sup norms with certified slice comparisons, truncated
exponential kernels with atomic synthesis, and a seeded verification suite
(also available as the `slicefock` command line tool).
"""

from .errors import (BadRadius, GridTooCoarse, NotOrthogonal, PointOffSlice,
                     SingularPoint, SliceFockError, UnitMismatch,
                     ZeroDivisor, ZeroValue)
from .fock import (DerivativeCriterionReport, FockParams, LittleSpaceReport,
                   NormReport, derivative_criterion, dilation_convergence,
                   fock_norm_p, inner_product, little_space_profile,
                   slice_norm_p, slice_sup_norm, sup_norm)
from .kernels import (AtomicData, atomic_synthesis, kernel_series,
                      lattice_points, normalized_kernel_eval,
                      normalized_kernel_tail_bound, star_exp_eval,
                      star_exp_tail_bound)
from .quadrature import QuadratureGrid
from .quaternion import (ONE, UNIT_I, UNIT_J, UNIT_K, ImaginaryUnit,
                         Quaternion, SliceCoords, compose, decompose,
                         default_sphere, orthonormal_partner, sphere_sample)
from .series import (ComplexSlicePolynomial, MultiMonomial, MultiPolynomial,
                     SliceSeries, derivative, dilate, embed_complex, extend,
                     regular_conjugate, rep_eval, split, star_inverse_eval,
                     star_mul, symmetrization, tail_bound, transform_point,
                     truncate)
from .verify import PROPOSITIONS, PropositionResult, run_verify

__version__ = "0.1.0"

__all__ = [
    "BadRadius", "GridTooCoarse", "NotOrthogonal", "PointOffSlice",
    "SingularPoint", "SliceFockError", "UnitMismatch", "ZeroDivisor",
    "ZeroValue",
    "DerivativeCriterionReport", "FockParams", "LittleSpaceReport",
    "NormReport", "derivative_criterion", "dilation_convergence",
    "fock_norm_p", "inner_product", "little_space_profile", "slice_norm_p",
    "slice_sup_norm", "sup_norm",
    "AtomicData", "atomic_synthesis", "kernel_series", "lattice_points",
    "normalized_kernel_eval", "normalized_kernel_tail_bound", "star_exp_eval",
    "star_exp_tail_bound",
    "QuadratureGrid",
    "ONE", "UNIT_I", "UNIT_J", "UNIT_K", "ImaginaryUnit", "Quaternion",
    "SliceCoords", "compose", "decompose", "default_sphere",
    "orthonormal_partner", "sphere_sample",
    "ComplexSlicePolynomial", "MultiMonomial", "MultiPolynomial",
    "SliceSeries", "derivative", "dilate", "embed_complex", "extend",
    "regular_conjugate", "rep_eval", "split", "star_inverse_eval", "star_mul",
    "symmetrization", "tail_bound", "transform_point", "truncate",
    "PROPOSITIONS", "PropositionResult", "run_verify",
    "__version__",
]
