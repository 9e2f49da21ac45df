"""Weighted composition operators on the Hardy space of the unit disk.

Construction of the symmetric parametric families, truncated-matrix
oracles for complex symmetry and normality, and named verification
suites cross-checking every closed-form predicate against them.
"""

from .errors import WcoError
from .families import (
    C1Params,
    C2InteriorTerms,
    C2NormalCase,
    C2NormalityTerms,
    C2Params,
    HyperbolicParams,
    InteriorParams,
    JParams,
    c1_normal_predicate,
    c2_interior_terms,
    c2_normal_predicate,
    c2_normality_terms,
    c2_parabolic_predicate,
    hyperbolic_aut_map,
    j_normal_predicate,
)
from .mobius import (
    INFINITY,
    ConstantMap,
    CowenTriple,
    MapClass,
    MapClassification,
    MobiusMap,
    classify,
    cowen_adjoint,
    evaluate,
    fixed_points,
    is_automorphism,
    is_self_map,
    mobius_equal,
)
from .operators import (
    Conjugation,
    build_wco,
    conjugation_matrix,
    involution_residual,
    normality_residual,
    symmetry_residual,
)
from .series import RationalSymbol
from .verify import (
    SuiteConfig,
    VerificationReport,
    SUITES,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
