"""Exception types shared across the package.

Each class tags one distinguishable failure condition; the CLI maps them
onto exit codes (bad input vs internal error).
"""


class WcoError(Exception):
    """Base class of the package's refusals of bad input."""


# ---- mobius ----------------------------------------------------------------

class IdentityMapError(WcoError):
    """Operation undefined for the identity map (every point is fixed)."""


class NotSelfMapError(WcoError):
    """Map does not send the open unit disk into itself."""


class DegenerateMapError(WcoError):
    """Coefficient quadruple vanishes, or has (numerically) vanishing
    determinant where a constant must be written (0, v, 0, d)."""


# ---- series ----------------------------------------------------------------

class PoleAtOriginError(WcoError):
    """Rational symbol has a pole at z = 0 and admits no Taylor expansion."""


# ---- operators -------------------------------------------------------------

class SymbolPoleError(WcoError):
    """Weight symbol has a pole inside or on the closed unit disk."""


class BlockTooLargeError(WcoError):
    """Requested residual block is empty or violates the padding protocol k + 32 <= N."""


class DimensionMismatchError(WcoError):
    """Operands were truncated at different dimensions."""


class BadParameterDomainError(WcoError):
    """Conjugation parameters outside their admissible domain."""


# ---- families --------------------------------------------------------------

class DomainViolationError(WcoError):
    """Family parameters outside the stated domain."""


class DegenerateSymbolError(WcoError):
    """Family parameters make the symbol pair degenerate."""


class BranchConditionError(WcoError):
    """Parabolic branch condition on the parameter is violated."""


class DiscriminantError(WcoError):
    """Parabolic discriminant identity is violated."""


# ---- verify / cli ----------------------------------------------------------

class UnknownSuiteError(WcoError):
    """No verification suite registered under the requested id."""


class CliParseError(WcoError):
    """Command-line argument could not be parsed."""


class SamplingBudgetError(RuntimeError):
    """A suite's sampler kept too few candidates: its fault, not bad input."""
