"""Desk-scale smooth-representation computations for rank-2 strata gluing."""

__version__ = "0.1.0"

from .lambda_core import (  # noqa: F401
    BadSqrt,
    BanalityViolation,
    CoeffRing,
    FgModule,
    LambdaMatrix,
    MissingSqrtQ,
    ModuleMap,
    free_module,
    howell_form,
    iso_class,
    kernel,
    kernel_cokernel,
    left_kernel,
    left_kernel_cokernel,
    make_ring,
    quotient_module,
)

from .char_engine import (  # noqa: F401
    GradedCharModule,
    TorusChar,
    UnramChar,
    compact_generator_ranks,
    glue,
    hc_tilde,
    jacquet_symbolic,
    verdier_dualize,
)
