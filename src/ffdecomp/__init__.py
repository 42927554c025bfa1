"""Exact finite-field toolkit.

Decides and constructs rational-function decompositions f = g(h) over
F_q by counting points on the plane curve A(X)Q(Y) - B(X)P(Y) = 0, and
verifies the point-count bounds that sit under those counting arguments.
All arithmetic is exact; no verdict ever touches floating point.
"""

__version__ = "0.1.0"

from .errors import (
    ConstantInputError,
    SizeLimitError,
    SpecMismatchError,
    ValidationError,
)
from .bipoly import (
    build_F,
    count_affine,
    count_projective,
    is_absolutely_irreducible,
    kronecker_factor,
)
from .bounds import ap_interval, cm_band, verify_bounds_on_sample
from .decomp import (
    check_t1,
    check_t31,
    count_pairs,
    find_h,
    gen_g_family,
    small_fiber_diagnostics,
)
from .gf_core import FieldElement, FieldSpec, build_field, extend_field
from .mvar import (
    UNDEFINED,
    DecompReport,
    MPoly,
    MRatFun,
    check_t41,
    count_pairs_mv,
    find_h_mv,
    verify_h_mv,
)
from .upoly import INFINITY, Poly, RatFun, factor, fiber, rat_compose, roots

__all__ = [
    "build_F",
    "count_affine",
    "count_projective",
    "is_absolutely_irreducible",
    "kronecker_factor",
    "ap_interval",
    "cm_band",
    "verify_bounds_on_sample",
    "DecompReport",
    "check_t1",
    "check_t31",
    "count_pairs",
    "find_h",
    "gen_g_family",
    "small_fiber_diagnostics",
    "ConstantInputError",
    "SizeLimitError",
    "SpecMismatchError",
    "ValidationError",
    "FieldElement",
    "FieldSpec",
    "build_field",
    "extend_field",
    "UNDEFINED",
    "MPoly",
    "MRatFun",
    "check_t41",
    "count_pairs_mv",
    "find_h_mv",
    "verify_h_mv",
    "INFINITY",
    "Poly",
    "RatFun",
    "factor",
    "fiber",
    "rat_compose",
    "roots",
    "__version__",
]
