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
    MapClass,
    MapClassification,
    classify,
    fixed_points,
    is_automorphism,
    is_self_map,
)
from .operators import Conjugation, conjugation_matrix, involution_residual
from .verify import (
    SuiteConfig,
    VerificationReport,
    SUITES,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
