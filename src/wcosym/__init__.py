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
    SymbolPair,
    c1_aut_form,
    c1_normal_predicate,
    c1_parabolic_symbols,
    c1_symbols,
    c2_aut_form,
    c2_interior_terms,
    c2_normal_predicate,
    c2_normality_terms,
    c2_parabolic_predicate,
    c2_symbols,
    hyperbolic_aut_map,
    j_aut_form,
    j_normal_predicate,
    j_symbols,
    normal_interior_symbols,
    parabolic_j_symbols,
)
from .mobius import (
    INFINITY,
    ConstantMap,
    CowenTriple,
    MapClass,
    MapClassification,
    MobiusMap,
    classify,
    compose,
    cowen_adjoint,
    evaluate,
    fixed_points,
    is_automorphism,
    is_self_map,
    mobius_equal,
)
from .operators import (
    Conjugation,
    adjoint_factorization_residual,
    build_wco,
    conjugation_matrix,
    involution_residual,
    normality_residual,
    symmetry_residual,
)
from .series import RationalSymbol, expand_rational
from .verify import (
    SuiteConfig,
    VerificationReport,
    SUITES,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
