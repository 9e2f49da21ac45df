"""Parametric symbol families and their closed-form predicates.

Each family constructor returns the weight / composition symbol pair of a
complex-symmetric weighted composition operator; the predicates evaluate
the matching closed-form normality conditions exactly as displayed, with
a single algebraic tolerance, so they can be cross-checked against the
matrix oracles independently.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import (
    BranchConditionError,
    DegenerateSymbolError,
    DiscriminantError,
    DomainViolationError,
    NotSelfMapError,
)
from .mobius import (
    ConstantMap,
    MobiusMap,
    blaschke,
    compose,
    is_self_map,
    mobius_equal,
)
from .series import RationalSymbol

PRED_TOL = 1e-10
REBUILD_TOL = 1e-10
_UNIT_TOL = 1e-9


def _in_disk(z: complex, name: str):
    if abs(z) >= 1.0:
        raise DomainViolationError(f"{name} must lie in the open unit disk, got |{name}| = {abs(z)}")


def _unimodular(z: complex, name: str):
    if abs(abs(z) - 1.0) > _UNIT_TOL:
        raise DomainViolationError(f"{name} must be unimodular, got |{name}| = {abs(z)}")


@dataclass(frozen=True)
class SymbolPair:
    """Weight symbol and composition symbol of one operator."""

    psi: RationalSymbol
    phi: Union[MobiusMap, ConstantMap]


@dataclass(frozen=True)
class JParams:
    a0: complex
    a1: complex
    b: complex = 1.0

    def __post_init__(self):
        _in_disk(self.a0, "a0")
        _in_disk(self.a1, "a1")


@dataclass(frozen=True)
class C1Params:
    alpha: complex
    c0: complex
    c1: complex
    d: complex = 1.0

    def __post_init__(self):
        _unimodular(self.alpha, "alpha")
        _in_disk(self.c0, "c0")
        _in_disk(self.c1, "c1")


@dataclass(frozen=True)
class C2Params:
    alpha: complex
    c0: complex
    c1: complex
    c2: complex
    d: complex = 1.0

    def __post_init__(self):
        if not 0.0 < abs(self.alpha) < 1.0:
            raise DomainViolationError("alpha must lie in the punctured open disk")
        scale = max(1.0, abs(self.c0) ** 2, abs(self.c1))
        if abs(self.c0 ** 2 - self.alpha * self.c1) <= 1e-14 * scale:
            raise DegenerateSymbolError("c0^2 - alpha c1 must not vanish")

    @classmethod
    def from_c0_squared(cls, alpha, c0_squared, c1, c2, d=1.0) -> "C2Params":
        """Principal square root of c0^2; both roots give the same symbols
        since c0 enters only through its square."""
        return cls(alpha, cmath.sqrt(c0_squared), c1, c2, d)


@dataclass(frozen=True)
class InteriorParams:
    p: complex
    delta: complex
    gamma: complex = 1.0

    def __post_init__(self):
        _in_disk(self.p, "p")
        if abs(self.delta) > 1.0 + 1e-12:
            raise DomainViolationError("delta must satisfy |delta| <= 1")


@dataclass(frozen=True)
class HyperbolicParams:
    r: float
    t: complex = 0.0

    def __post_init__(self):
        if not self.r > 1.0:
            raise DomainViolationError("r must exceed 1")


@dataclass(frozen=True)
class C2NormalityTerms:
    """The seven bracket terms of the commuting-composite comparison."""

    a: complex
    b: float
    c: complex
    d: float
    e: float
    a_tilde: complex
    c_tilde: complex


@dataclass(frozen=True)
class C2InteriorTerms:
    i1: complex
    i2: complex
    i3: complex


class C2NormalCase(str, Enum):
    CASE_I = "CaseI"
    CASE_II = "CaseII"
    NOT_NORMAL = "NotNormal"


# aut-form results ------------------------------------------------------------

@dataclass(frozen=True)
class RotationForm:
    """phi(z) = beta z; on_boundary records whether |beta| = 1 (a true
    automorphism) or the rotation factor sits strictly inside the disk."""

    beta: complex
    on_boundary: bool


@dataclass(frozen=True)
class DiskForm:
    """phi(z) = beta (gamma - z)/(1 - conj(gamma) z)."""

    beta: complex
    gamma: complex

    def to_map(self) -> MobiusMap:
        return MobiusMap(-self.beta, self.beta * self.gamma, -self.gamma.conjugate(), 1.0)


@dataclass(frozen=True)
class IdentityForm:
    pass


AutForm = Union[RotationForm, DiskForm, IdentityForm, None]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

_CONSTANT_DET_TOL = 1e-14


def j_symbols(params: JParams) -> SymbolPair:
    """psi = b/(1 - a0 z), phi = a0 + a1 z/(1 - a0 z) as a single fraction.

    The determinant of the composition symbol is a1, so a1 = 0 is the
    constant map z -> a0.
    """
    a0, a1 = params.a0, params.a1
    psi = RationalSymbol(params.b, 0.0, 1.0, -a0)
    if abs(a1) <= _CONSTANT_DET_TOL:
        return SymbolPair(psi, ConstantMap(a0))
    phi = MobiusMap(a1 - a0 * a0, a0, -a0, 1.0)
    return SymbolPair(psi, phi)


def c1_symbols(params: C1Params) -> SymbolPair:
    """psi = d/(1 - alpha c0 z), phi = c0 + c1 z/(1 - alpha c0 z).

    The determinant of the composition symbol is c1, so c1 = 0 is the
    constant map z -> c0.
    """
    al, c0, c1 = params.alpha, params.c0, params.c1
    psi = RationalSymbol(params.d, 0.0, 1.0, -al * c0)
    if abs(c1) <= _CONSTANT_DET_TOL:
        return SymbolPair(psi, ConstantMap(c0))
    phi = MobiusMap(c1 - al * c0 * c0, c0, -al * c0, 1.0)
    return SymbolPair(psi, phi)


def c2_quadruple(params: C2Params) -> tuple:
    """(T, U, V, W) = (c1-c2, conj(alpha)c0^2-c1, c0^2-alpha c1,
    |alpha|^2 c1 - c2); every later formula is a combination of these."""
    al, c0, c1, c2 = params.alpha, params.c0, params.c1, params.c2
    t = c1 - c2
    u = al.conjugate() * c0 ** 2 - c1
    v = c0 ** 2 - al * c1
    w = abs(al) ** 2 * c1 - c2
    return t, u, v, w


def c2_symbols(params: C2Params) -> SymbolPair:
    """Symbol pair of the kernel-weighted symmetric family.

    psi = d V/(V - T z) and phi = (alpha U - W z)/(conj(alpha)(V - T z))
    in terms of the quadruple above.  phi need not map the disk into
    itself (the normality moduli equalities force |phi(0)| = 1); the
    caller decides whether the pair is usable.
    """
    al = params.alpha
    t, u, v, w = c2_quadruple(params)
    num = (al * u, -w)
    den = (al.conjugate() * v, -al.conjugate() * t)
    scale = max(abs(num[0]), abs(num[1]), abs(den[0]), abs(den[1]))
    det = num[0] * den[1] - num[1] * den[0]
    if scale == 0.0:
        raise DegenerateSymbolError("all phi coefficients vanish")
    psi = RationalSymbol(params.d * v, 0.0, v, -t)
    if abs(det) <= 1e-13 * scale * scale:
        return SymbolPair(psi, ConstantMap(num[0] / den[0]))
    return SymbolPair(psi, MobiusMap(num[1], num[0], den[1], den[0]))


def normal_interior_symbols(params: InteriorParams) -> SymbolPair:
    """The interior-fixed-point normal family.

    phi is the Blaschke composition phi_p o (delta phi_p), which at
    delta = 0 collapses to the constant map p; psi is the closed form
    gamma (1-|p|^2) / (1 - |p|^2 delta + conj(p)(delta - 1) z).
    """
    p, delta, gamma = params.p, params.delta, params.gamma
    pc = p.conjugate()
    psi = RationalSymbol(gamma * (1.0 - abs(p) ** 2), 0.0, 1.0 - abs(p) ** 2 * delta, pc * (delta - 1.0))
    if delta == 0:
        return SymbolPair(psi, ConstantMap(p))
    phi_p = blaschke(p)
    scaled = MobiusMap(-delta, delta * p, -pc, 1.0)  # delta * phi_p
    return SymbolPair(psi, compose(phi_p, scaled))


def interior_phi_closed_form(params: InteriorParams) -> Union[MobiusMap, ConstantMap]:
    """Independent construction path: the expanded single-fraction form."""
    p, delta = params.p, params.delta
    pc = p.conjugate()
    if delta == 0:
        return ConstantMap(p)
    return MobiusMap(delta - abs(p) ** 2, p * (1.0 - delta), pc * (delta - 1.0), 1.0 - abs(p) ** 2 * delta)


def parabolic_j_symbols(a0: complex, branch: int, d: complex = 1.0) -> SymbolPair:
    """Coefficient-conjugation-symmetric parabolic family.

    branch +1 needs Im a0 = |a0|^2 (fixed point 1); branch -1 needs
    Im a0 = -|a0|^2 (fixed point -1).  The constructed map always has a
    double fixed point at the branch sign with derivative 1; it is a
    self-map only when additionally branch * Re a0 >= |a0|^2.
    """
    if a0 == 0:
        raise BranchConditionError("a0 must be nonzero")
    if branch not in (1, -1):
        raise DomainViolationError("branch must be +1 or -1")
    if abs(a0.imag - branch * abs(a0) ** 2) > PRED_TOL:
        raise BranchConditionError(
            f"need Im a0 = {branch:+d}|a0|^2, got Im a0 = {a0.imag}, |a0|^2 = {abs(a0) ** 2}"
        )
    _in_disk(a0, "a0")
    psi = RationalSymbol(d, 0.0, 1.0, -a0)
    phi = MobiusMap(1.0 - 2.0 * branch * a0, a0, -a0, 1.0)
    return SymbolPair(psi, phi)


def c1_parabolic_symbols(zeta: complex, c0: complex, c1: complex) -> SymbolPair:
    """Rotation-conjugation-symmetric parabolic family with alpha = 1/zeta^2.

    Requires the discriminant identity (c1 - alpha c0^2 - 1)^2 =
    4 alpha c0^2 and the double fixed point to sit at zeta itself (the
    other discriminant branch puts it at -zeta and is rejected).
    """
    _unimodular(zeta, "zeta")
    _in_disk(c0, "c0")
    _in_disk(c1, "c1")
    alpha = 1.0 / zeta ** 2
    lhs = (c1 - alpha * c0 ** 2 - 1.0) ** 2
    rhs = 4.0 * alpha * c0 ** 2
    if abs(lhs - rhs) > PRED_TOL * max(1.0, abs(lhs), abs(rhs)):
        raise DiscriminantError(f"(c1 - alpha c0^2 - 1)^2 = {lhs} != 4 alpha c0^2 = {rhs}")
    psi = RationalSymbol(zeta ** 2, 0.0, zeta ** 2, -c0)
    phi = MobiusMap(zeta ** 2 * c1 - c0 ** 2, zeta ** 2 * c0, -c0, zeta ** 2)
    fixed_gap = abs(phi(zeta) - zeta)
    if fixed_gap > 1e-8:
        raise DiscriminantError(
            f"double fixed point is at -zeta, not zeta (|phi(zeta)-zeta| = {fixed_gap})"
        )
    return SymbolPair(psi, phi)


def hyperbolic_aut_map(params: HyperbolicParams) -> MobiusMap:
    """Hyperbolic self-map fixing 1 with derivative 1/r.

    ((r+1-t) z + r+t-1) / ((r-t-1) z + r+t+1): an automorphism exactly on
    the locus Re t = 0 and a self-map iff Re t >= 0.
    """
    r, t = params.r, params.t
    m = MobiusMap(r + 1 - t, r + t - 1, r - t - 1, r + t + 1)
    if not is_self_map(m):
        raise NotSelfMapError(f"(r, t) = ({r}, {t}) gives a non-self-map (Re t < 0)")
    return m


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def j_normal_expression(a0: complex, a1: complex) -> float:
    """Im a0 - |a0|^2 Im a0 + Im(conj(a0) a1), the normality defect."""
    return float(a0.imag * (1.0 - abs(a0) ** 2) + (a0.conjugate() * a1).imag)


def j_normal_predicate(a0: complex, a1: complex, tol: float = PRED_TOL) -> bool:
    _in_disk(a0, "a0")
    _in_disk(a1, "a1")
    return abs(j_normal_expression(a0, a1)) <= tol


def c1_normal_expression(alpha: complex, c0: complex, c1: complex) -> complex:
    """(conj(c0) - alpha c0)(1 - |c0|^2) + alpha c0 conj(c1) - conj(c0) c1."""
    c0c = c0.conjugate()
    return complex(
        (c0c - alpha * c0) * (1.0 - abs(c0) ** 2) + alpha * c0 * c1.conjugate() - c0c * c1
    )


def c1_normal_predicate(alpha: complex, c0: complex, c1: complex, tol: float = PRED_TOL) -> bool:
    _unimodular(alpha, "alpha")
    _in_disk(c0, "c0")
    _in_disk(c1, "c1")
    return abs(c1_normal_expression(alpha, c0, c1)) <= tol


def c2_normality_terms(params: C2Params) -> C2NormalityTerms:
    """The bracket terms, computed verbatim from their displayed forms."""
    al, c0, c1, c2 = params.alpha, params.c0, params.c1, params.c2
    c0c, c1c, c2c = c0.conjugate(), c1.conjugate(), c2.conjugate()
    asq = abs(al) ** 2
    term_a = (asq * c0 ** 2 - al * c1) * (al * c0c ** 2 - asq * c1c)
    term_b = asq * abs(al.conjugate() * c0 ** 2 - c1) ** 2
    term_c = al * (c1c - c2c) * (asq * c1 - c2)
    term_d = abs(asq * c1 - c2) ** 2
    term_e = asq * abs(c0 ** 2 - al * c1) ** 2
    term_at = -al * (asq * c1c - c2c) * (al.conjugate() * c0 ** 2 - c1)
    term_ct = asq * (c0 ** 2 - al * c1) * (c1c - c2c)
    return C2NormalityTerms(term_a, float(term_b), term_c, float(term_d), float(term_e), term_at, term_ct)


def c2_normal_predicate(params: C2Params, tol: float = PRED_TOL) -> C2NormalCase:
    """Case split of the stated normality conditions.

    Case I: |c1-c2| = |conj(alpha) c0^2 - c1| = |c0^2 - alpha c1| while
    differing from ||alpha|^2 c1 - c2| / |alpha|.  Case II: all four
    moduli agree and Im((conj A - conj C)(At + Ct)) = 0.  Everything else
    reports NotNormal, including parameter sets whose operator the matrix
    oracle shows to be normal; the discrepancies are surfaced by the
    verification suites, not patched here.
    """
    t, u, v, w = c2_quadruple(params)
    m1, m2, m3 = abs(t), abs(u), abs(v)
    m4 = abs(w) / abs(params.alpha)
    scale = max(1.0, m1, m2, m3, m4)
    if not (abs(m1 - m2) <= tol * scale and abs(m2 - m3) <= tol * scale):
        return C2NormalCase.NOT_NORMAL
    if abs(m1 - m4) > tol * scale:
        return C2NormalCase.CASE_I
    terms = c2_normality_terms(params)
    prod = (terms.a.conjugate() - terms.c.conjugate()) * (terms.a_tilde + terms.c_tilde)
    if abs(prod.imag) <= tol * max(1.0, abs(prod)):
        return C2NormalCase.CASE_II
    return C2NormalCase.NOT_NORMAL


def c2_parabolic_predicate(params: C2Params, tol: float = PRED_TOL) -> bool:
    """Parabolic discriminant identity plus unimodularity of the induced
    double fixed point."""
    t, u, v, w = c2_quadruple(params)
    al = params.alpha
    if abs(t) == 0.0:
        raise DegenerateSymbolError("c1 = c2 degenerates the parabolic relation")
    s = w + al.conjugate() * v
    lhs = s ** 2
    rhs = 4.0 * abs(al) ** 2 * t * u
    if abs(lhs - rhs) > tol * max(1.0, abs(lhs), abs(rhs)):
        return False
    zeta = s / (2.0 * al.conjugate() * t)
    return abs(abs(zeta) - 1.0) <= 1e-8


def c2_parabolic_dw_point(params: C2Params) -> complex:
    t, u, v, w = c2_quadruple(params)
    return (w + params.alpha.conjugate() * v) / (2.0 * params.alpha.conjugate() * t)


def c2_interior_terms(alpha: complex, p: float, delta: complex) -> C2InteriorTerms:
    """The three interior-reconstruction ratios.

    With the scale gauge c1 - c2 = 1 they determine (c0^2, c1, c2) via
    c0^2 - alpha c1 = I3, conj(alpha) c0^2 - c1 = I2 I3 and
    |alpha|^2 c1 - c2 = I1; the three relations are mutually consistent
    only when |alpha|^2 (1 + p^2) = 2 p Re(alpha).
    """
    if p == 0 or not -1.0 < p < 1.0:
        raise DomainViolationError("p must be real, nonzero, |p| < 1")
    if delta == 1:
        raise DomainViolationError("delta = 1 degenerates the terms")
    alc = alpha.conjugate()
    i1 = alc * (p ** 2 - delta) / (p * (1.0 - delta))
    i2 = alc * p * (1.0 - delta) / (alpha * (1.0 - p ** 2 * delta))
    i3 = (1.0 - p ** 2 * delta) / (p * (1.0 - delta))
    return C2InteriorTerms(i1, i2, i3)


def c2_interior_reconstruct(alpha: complex, p: float, delta: complex) -> C2Params:
    """(c0^2, c1, c2) from the interior terms under the gauge c1 - c2 = 1."""
    terms = c2_interior_terms(alpha, p, delta)
    c1 = (1.0 - terms.i1) / (1.0 - abs(alpha) ** 2)
    c2 = c1 - 1.0
    c0_sq = alpha * c1 + terms.i3
    return C2Params.from_c0_squared(alpha, c0_sq, c1, c2)


def c2_compatible_alpha(p: float, angle: float) -> complex:
    """A conjugation parameter consistent with interior parameter p.

    The consistency locus |alpha|^2 (1 + p^2) = 2 p Re(alpha) is the
    circle through 0 centered at p/(1+p^2); angle = pi (the origin) is
    excluded.
    """
    center = p / (1.0 + p ** 2)
    alpha = center * (1.0 + cmath.exp(1j * angle))
    if abs(alpha) < 1e-12:
        raise DomainViolationError("angle pi gives alpha = 0")
    return alpha


# ---------------------------------------------------------------------------
# automorphism normal forms
# ---------------------------------------------------------------------------

def _disk_form_or_none(gamma: complex, beta: complex, phi: MobiusMap) -> AutForm:
    if abs(gamma) >= 1.0 or abs(abs(beta) - 1.0) > _UNIT_TOL:
        return None
    form = DiskForm(beta, gamma)
    if not mobius_equal(form.to_map(), phi, REBUILD_TOL):
        return None
    return form


def j_aut_form(a0: complex, a1: complex) -> AutForm:
    """Rotation(a1) when a0 = 0, else Disk(gamma), accepted iff the
    rebuilt map reproduces phi.

    The recovery ratio is gamma = a0/(a0^2 - a1), the alpha = 1 case of
    the rotation-weighted family's extraction.  The ratio (a1 + 1)/a0
    agrees with it only for real gamma and fails the rebuild check off
    the real axis, so it is not used.
    """
    params = JParams(a0, a1)
    if a0 == 0:
        return RotationForm(a1, abs(abs(a1) - 1.0) <= _UNIT_TOL)
    den = a0 * a0 - a1
    if abs(den) == 0:
        return None
    gamma = a0 / den
    if abs(gamma) == 0:
        return None
    beta = gamma.conjugate() / gamma
    phi = j_symbols(params).phi
    if isinstance(phi, ConstantMap):
        return None
    return _disk_form_or_none(gamma, beta, phi)


def c1_aut_form(alpha: complex, c0: complex, c1: complex) -> AutForm:
    """Disk form with gamma = c0/(alpha c0^2 - c1), beta = conj(gamma)/(gamma alpha)."""
    params = C1Params(alpha, c0, c1)
    if c0 == 0:
        return RotationForm(c1, abs(abs(c1) - 1.0) <= _UNIT_TOL)
    den = alpha * c0 ** 2 - c1
    if abs(den) == 0:
        return None
    gamma = c0 / den
    if abs(gamma) == 0:
        return None
    beta = gamma.conjugate() / (gamma * alpha)
    return _disk_form_or_none(gamma, beta, c1_symbols(params).phi)


def c2_aut_form(params: C2Params) -> AutForm:
    """Identity when c1 = c2 and c0^2 = c1/conj(alpha); otherwise the disk
    form with gamma = alpha(conj(alpha) c0^2 - c1)/(|alpha|^2 c1 - c2)."""
    al = params.alpha
    t, u, v, w = c2_quadruple(params)
    scale = max(abs(params.c1), abs(params.c2), abs(params.c0) ** 2, 1.0)
    if abs(t) <= REBUILD_TOL * scale and abs(u) <= REBUILD_TOL * scale:
        return IdentityForm()
    if abs(w) == 0:
        return None
    gamma = al * u / w
    if abs(gamma) == 0:
        return None
    beta = (abs(al) ** 2 - al * gamma.conjugate()) / (al.conjugate() * gamma - abs(al) ** 2)
    phi = c2_symbols(params).phi
    if isinstance(phi, ConstantMap):
        return None
    return _disk_form_or_none(gamma, beta, phi)
