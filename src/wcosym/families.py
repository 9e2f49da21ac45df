"""Parametric symbol families and their closed-form predicates.

Each family constructor returns the weight / composition symbol pair of a
complex-symmetric weighted composition operator; the predicates evaluate
the matching closed-form normality conditions exactly as displayed, with
a single algebraic tolerance, so they can be cross-checked against the
matrix oracles independently.

Every formula is written once, for arrays: the ``*_quadruples``
constructors take parameter arrays of one length B and return the (B, 4)
stacks psi = (n0, n1, d0, d1) and phi = (a, b, c, d), phi canonical and
each constant of mobius.read_maps as (0, v, 0, 1); the parameter classes,
the predicates and the expressions take arrays or scalars alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np

from .errors import (
    BranchConditionError,
    DegenerateSymbolError,
    DiscriminantError,
    DomainViolationError,
    NotSelfMapError,
)
from .mobius import (
    BOUNDARY_TOL,
    canonical,
    coefficient_stack as _stack,
    compose_stack,
    is_self_map,
    proj_distance,
    read_maps,
)

PRED_TOL = 1e-10
REBUILD_TOL = 1e-10


def _in_disk(z, name: str):
    if not np.all(abs(z) < 1.0):  # NaN fails
        raise DomainViolationError(f"{name} must lie in the open unit disk, got |{name}| = {np.max(abs(z))}")


def _unimodular(z, name: str):
    if not np.all(abs(abs(z) - 1.0) <= BOUNDARY_TOL):  # NaN fails
        raise DomainViolationError(f"{name} must be unimodular, got |{name}| = {abs(z)}")


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
        if not np.all((0.0 < abs(self.alpha)) & (abs(self.alpha) < 1.0)):
            raise DomainViolationError("alpha must lie in the punctured open disk")
        scale = np.maximum(1.0, np.maximum(abs(self.c0) ** 2, abs(self.c1)))
        if np.any(abs(self.c0 ** 2 - self.alpha * self.c1) <= 1e-14 * scale):
            raise DegenerateSymbolError("c0^2 - alpha c1 must not vanish")

    @classmethod
    def from_c0_squared(cls, alpha, c0_squared, c1, c2) -> "C2Params":
        """Principal square root of c0^2; both roots give the same symbols
        since c0 enters only through its square."""
        return cls(alpha, np.sqrt(c0_squared + 0j), c1, c2)


@dataclass(frozen=True)
class InteriorParams:
    p: complex
    delta: complex
    gamma: complex = 1.0

    def __post_init__(self):
        _in_disk(self.p, "p")
        if not np.all(abs(self.delta) <= 1.0 + 1e-12):
            raise DomainViolationError("delta must satisfy |delta| <= 1")


@dataclass(frozen=True)
class HyperbolicParams:
    r: float
    t: complex = 0.0

    def __post_init__(self):
        if not np.all(self.r > 1.0):
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


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _arrays(*values):
    """The values as complex arrays of one length B: a scalar is an array of one."""
    arrays = [np.asarray(v, dtype=complex).reshape(-1) for v in values]
    count = min(len(a) for a in arrays) and max(len(a) for a in arrays)
    return [np.full(count, a[0]) if len(a) == 1 and count != 1 else a for a in arrays]


def _maps(quads: np.ndarray) -> np.ndarray:
    """The canonical quadruples, each constant as read_maps writes it from the raw quadruple."""
    maps, constant, _, _, q = read_maps(quads)
    return np.where(constant[:, None], maps, q)


def j_quadruples(a0, a1, b=1.0):
    """psi = b/(1 - a0 z), phi = a0 + a1 z/(1 - a0 z) as a single fraction:
    the rotation-weighted family at alpha = 1 (c0 = a0, c1 = a1, d = b)."""
    return c1_quadruples(1.0, a0, a1, b)


def c1_quadruples(alpha, c0, c1, d=1.0):
    """psi = d/(1 - alpha c0 z), phi = c0 + c1 z/(1 - alpha c0 z).

    The determinant of the composition symbol is c1, so c1 = 0 is the
    constant map z -> c0.
    """
    al, c0, c1, d = _arrays(alpha, c0, c1, d)
    psi = _stack(d, 0.0, 1.0, -al * c0)
    return psi, _maps(_stack(c1 - al * c0 * c0, c0, -al * c0, 1.0))


def c2_quadruple(params: C2Params) -> tuple:
    """(T, U, V, W) = (c1-c2, conj(alpha)c0^2-c1, c0^2-alpha c1,
    |alpha|^2 c1 - c2); every later formula is a combination of these."""
    al, c0, c1, c2 = params.alpha, params.c0, params.c1, params.c2
    t = c1 - c2
    u = al.conjugate() * c0 ** 2 - c1
    v = c0 ** 2 - al * c1
    w = abs(al) ** 2 * c1 - c2
    return t, u, v, w


def c2_params_from_tuv(alpha, t, u, v) -> C2Params:
    """The C2 parameters whose quadruple has these T, U and V."""
    c1 = (u - alpha.conjugate() * v) / (abs(alpha) ** 2 - 1.0)
    return C2Params.from_c0_squared(alpha, v + alpha * c1, c1, c1 - t)


def c2_aut_beta(alpha, gamma):
    """The beta of the C2 disk form with this gamma."""
    return (abs(alpha) ** 2 - alpha * gamma.conjugate()) / (alpha.conjugate() * gamma - abs(alpha) ** 2)


def c2_params_from_aut(alpha, beta, gamma, c1) -> C2Params:
    """Invert the disk form: the stated c0^2 and c2 relations with c1 free."""
    denom = beta * gamma - alpha
    c0_sq = (abs(alpha) ** 2 * beta * gamma - alpha) / (alpha.conjugate() * denom) * c1
    c2 = (1.0 - (alpha * gamma.conjugate() / alpha.conjugate()) * (abs(alpha) ** 2 - 1.0) / denom) * c1
    return C2Params.from_c0_squared(alpha, c0_sq, c1, c2)


def c2_raw_phi(alpha, t, u, v, w) -> np.ndarray:
    """The raw (B, 4) quadruple (-W, alpha U, -conj(alpha) T, conj(alpha) V) of the C2 family's
    phi = (alpha U - W z)/(conj(alpha)(V - T z)), valid where phi degenerates to a boundary constant
    and W has no truncation."""
    return _stack(-w, alpha * u, -alpha.conjugate() * t, alpha.conjugate() * v)


def c2_quadruples(params: C2Params):
    """Symbol stacks of the kernel-weighted symmetric family.

    psi = d V/(V - T z) and phi of c2_raw_phi.  phi need not map the disk
    into itself (the normality moduli equalities force |phi(0)| = 1); the
    caller decides whether the pair is usable.
    """
    al, t, u, v, w, d = _arrays(params.alpha, *c2_quadruple(params), params.d)
    return _stack(d * v, 0.0, v, -t), _maps(c2_raw_phi(al, t, u, v, w))


def interior_quadruples(p, delta, gamma=1.0):
    """The interior-fixed-point normal family.

    phi is the Blaschke composition phi_p o (delta phi_p), which at
    delta = 0 collapses to the constant map p; psi is the closed form
    gamma (1-|p|^2) / (1 - |p|^2 delta + conj(p)(delta - 1) z).
    """
    InteriorParams(p, delta, gamma)
    p, delta, gamma = _arrays(p, delta, gamma)
    pc, p2 = p.conjugate(), abs(p) ** 2
    psi = _stack(gamma * (1.0 - p2), 0.0, 1.0 - p2 * delta, pc * (delta - 1.0))
    blaschke = canonical(_stack(-1.0, p, -pc, 1.0))
    scaled = canonical(_stack(-delta, delta * p, -pc, 1.0))  # delta * phi_p
    return psi, _maps(compose_stack(blaschke, scaled))


def interior_closed_quadruples(p, delta) -> np.ndarray:
    """Independent construction path of the interior family's phi: the
    expanded single-fraction form."""
    p, delta = _arrays(p, delta)
    pc, p2 = p.conjugate(), abs(p) ** 2
    return _maps(_stack(delta - p2, p * (1.0 - delta), pc * (delta - 1.0), 1.0 - p2 * delta))


def parabolic_j_quadruples(a0, branch):
    """Coefficient-conjugation-symmetric parabolic family.

    branch +1 needs Im a0 = |a0|^2 (fixed point 1); branch -1 needs
    Im a0 = -|a0|^2 (fixed point -1).  The constructed map always has a
    double fixed point at the branch sign with derivative 1; it is a
    self-map only when additionally branch * Re a0 >= |a0|^2.
    """
    a0, branch = _arrays(a0, branch)
    if (a0 == 0).any():
        raise BranchConditionError("a0 must be nonzero")
    if ((branch != 1) & (branch != -1)).any():
        raise DomainViolationError("branch must be +1 or -1")
    if (abs(a0.imag - branch.real * abs(a0) ** 2) > PRED_TOL).any():
        raise BranchConditionError(f"need Im a0 = branch |a0|^2, got a0 = {a0}, branch = {branch.real}")
    _in_disk(a0, "a0")
    return _stack(1.0, 0.0, 1.0, -a0), canonical(_stack(1.0 - 2.0 * branch * a0, a0, -a0, 1.0))


def c1_parabolic_quadruples(zeta, c0, c1):
    """Rotation-conjugation-symmetric parabolic family with alpha = 1/zeta^2.

    Requires the discriminant identity (c1 - alpha c0^2 - 1)^2 =
    4 alpha c0^2 and the double fixed point to sit at zeta itself (the
    other discriminant branch puts it at -zeta and is rejected).
    """
    zeta, c0, c1 = _arrays(zeta, c0, c1)
    _unimodular(zeta, "zeta")
    _in_disk(c0, "c0")
    _in_disk(c1, "c1")
    z2 = zeta ** 2
    alpha = 1.0 / z2
    lhs = (c1 - alpha * c0 ** 2 - 1.0) ** 2
    rhs = 4.0 * alpha * c0 ** 2
    if (abs(lhs - rhs) > PRED_TOL * np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))).any():
        raise DiscriminantError(f"(c1 - alpha c0^2 - 1)^2 = {lhs} != 4 alpha c0^2 = {rhs}")
    phi = canonical(_stack(z2 * c1 - c0 ** 2, z2 * c0, -c0, z2))
    fixed_gap = abs((phi[:, 0] * zeta + phi[:, 1]) / (phi[:, 2] * zeta + phi[:, 3]) - zeta)
    if (fixed_gap > 1e-8).any():
        raise DiscriminantError(f"double fixed point is at -zeta, not zeta (|phi(zeta)-zeta| = {fixed_gap})")
    return _stack(z2, 0.0, z2, -c0), phi


def hyperbolic_aut_map(params: HyperbolicParams) -> np.ndarray:
    """The canonical (B, 4) stack of the hyperbolic self-maps fixing 1,
    derivative 1/r, of parameter arrays (or scalars) r and t.

    ((r+1-t) z + r+t-1) / ((r-t-1) z + r+t+1): an automorphism exactly on
    the locus Re t = 0 and a self-map iff Re t >= 0.  Divided as Python
    complex numbers (objects), which fix the sweeps' targets: numpy's
    division rounds some of them differently in the last place.
    """
    r, t = _arrays(params.r, params.t)
    maps = canonical(_stack(r + 1 - t, r + t - 1, r - t - 1, r + t + 1).astype(object)).astype(complex)
    refused = ~is_self_map(maps)
    if refused.any():
        i = refused.argmax()
        raise NotSelfMapError(f"(r, t) = ({r[i].real}, {t[i]}) gives a non-self-map (Re t < 0)")
    return maps


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def j_normal_expression(a0, a1):
    """Im a0 - |a0|^2 Im a0 + Im(conj(a0) a1), the normality defect."""
    return a0.imag * (1.0 - abs(a0) ** 2) + (a0.conjugate() * a1).imag


def j_normal_predicate(a0, a1, tol: float = PRED_TOL):
    _in_disk(a0, "a0")
    _in_disk(a1, "a1")
    return abs(j_normal_expression(a0, a1)) <= tol


def c1_normal_expression(alpha, c0, c1):
    """(conj(c0) - alpha c0)(1 - |c0|^2) + alpha c0 conj(c1) - conj(c0) c1."""
    c0c = c0.conjugate()
    return (c0c - alpha * c0) * (1.0 - abs(c0) ** 2) + alpha * c0 * c1.conjugate() - c0c * c1 + 0j


def c1_normal_locus(alpha, c0):
    """(base, kernel): the c1 with c1_normal_expression(alpha, c0, c1) = 0
    are base + x kernel, x real, for unimodular alpha and c0 != 0.

    The condition alpha c0 conj(c1) - conj(c0) c1 = k, k = -(conj(c0) -
    alpha c0)(1 - |c0|^2), is a real-linear 2 x 2 system M x = r in x =
    (Re c1, Im c1), r = (Re k, Im k), each row (x, y) of M held here as
    x + iy.  Its determinant |c0|^2 (1 - |alpha|^2) is 0, so M has rank
    one: base is the minimum-norm solution M^T r / ||M||_F^2 and kernel
    the unit vector orthogonal to the rows.
    """
    p, q = alpha * c0, c0.conjugate()
    k = -(q - p) * (1.0 - abs(c0) ** 2)
    row1, row2 = (p.real - q.real) + 1j * (p.imag + q.imag), (p.imag - q.imag) - 1j * (p.real + q.real)
    longer = np.where(abs(row1) >= abs(row2), row1, row2)
    return (row1 * k.real + row2 * k.imag) / (abs(row1) ** 2 + abs(row2) ** 2), 1j * longer / abs(longer)


def c1_normal_predicate(alpha, c0, c1, tol: float = PRED_TOL):
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
    return C2NormalityTerms(term_a, term_b, term_c, term_d, term_e, term_at, term_ct)


def c2_normal_predicate(params: C2Params, tol: float = PRED_TOL):
    """Case split of the stated normality conditions.

    Case I: |c1-c2| = |conj(alpha) c0^2 - c1| = |c0^2 - alpha c1| while
    differing from ||alpha|^2 c1 - c2| / |alpha|.  Case II: all four
    moduli agree and Im((conj A - conj C)(At + Ct)) = 0.  Everything else
    reports NotNormal, including parameter sets whose operator the matrix
    oracle shows to be normal; the discrepancies are surfaced by the
    verification suites, not patched here.  Array parameters give an
    array of the cases' values.
    """
    t, u, v, w = c2_quadruple(params)
    m1, m2, m3 = abs(t), abs(u), abs(v)
    m4 = abs(w) / abs(params.alpha)
    scale = np.maximum.reduce([np.ones_like(m1), m1, m2, m3, m4])
    moduli = (abs(m1 - m2) <= tol * scale) & (abs(m2 - m3) <= tol * scale)
    terms = c2_normality_terms(params)
    prod = (terms.a.conjugate() - terms.c.conjugate()) * (terms.a_tilde + terms.c_tilde) + 0j
    case_ii = abs(prod.imag) <= tol * np.maximum(1.0, abs(prod))
    cases = np.where(
        ~moduli, C2NormalCase.NOT_NORMAL.value,
        np.where(abs(m1 - m4) > tol * scale, C2NormalCase.CASE_I.value,
                 np.where(case_ii, C2NormalCase.CASE_II.value, C2NormalCase.NOT_NORMAL.value)),
    )
    return C2NormalCase(cases.item()) if cases.ndim == 0 else cases


def c2_parabolic_predicate(params: C2Params, tol: float = PRED_TOL) -> bool:
    """Parabolic discriminant identity plus unimodularity of the induced
    double fixed point."""
    t, u, v, w = c2_quadruple(params)
    al = params.alpha
    if np.any(abs(t) == 0.0):
        raise DegenerateSymbolError("c1 = c2 degenerates the parabolic relation")
    lhs = (w + al.conjugate() * v) ** 2
    rhs = 4.0 * abs(al) ** 2 * t * u
    discriminant = abs(lhs - rhs) <= tol * np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))
    return discriminant & (abs(abs(c2_parabolic_dw_point(params)) - 1.0) <= 1e-8)


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
    if np.any((p == 0) | (abs(p) >= 1.0)):
        raise DomainViolationError("p must be real, nonzero, |p| < 1")
    if np.any(delta == 1):
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
    alpha = center * (1.0 + np.exp(1j * angle))
    if np.any(abs(alpha) < 1e-12):
        raise DomainViolationError("angle pi gives alpha = 0")
    return alpha


# ---------------------------------------------------------------------------
# automorphism normal forms
# ---------------------------------------------------------------------------

def disk_form_quadruples(beta, gamma) -> np.ndarray:
    """The canonical quadruples of beta (gamma - z)/(1 - conj(gamma) z)."""
    beta, gamma = _arrays(beta, gamma)
    return canonical(_stack(-beta, beta * gamma, -gamma.conjugate(), 1.0))


def _disk_forms(names, gamma, beta, phi, usable):
    """names with "DiskForm" where usable, gamma lies in the disk, beta is
    unimodular and the rebuilt map reproduces phi (a constant never does)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        usable = usable & (abs(gamma) < 1.0) & (abs(abs(beta) - 1.0) <= BOUNDARY_TOL)
        rebuilt = proj_distance(disk_form_quadruples(np.where(usable, beta, 1.0), np.where(usable, gamma, 0.0)), phi)
    return np.where(usable & (rebuilt <= REBUILD_TOL), "DiskForm", names)


def j_aut_forms(a0, a1):
    """(form names, beta, gamma) arrays: c1_aut_forms at alpha = 1, so
    gamma = a0/(a0^2 - a1).  The ratio (a1 + 1)/a0 agrees with it only for
    real gamma and fails the rebuild check off the real axis, so it is not
    used."""
    JParams(a0, a1)
    return c1_aut_forms(1.0, a0, a1)


def c1_aut_forms(alpha, c0, c1):
    """(form names, beta, gamma) arrays: "RotationForm" (beta = c1) where
    c0 = 0, else "DiskForm" where the disk form with gamma =
    c0/(alpha c0^2 - c1), beta = conj(gamma)/(gamma alpha) rebuilds phi,
    else "NoneType"."""
    C1Params(alpha, c0, c1)
    alpha, c0, c1 = _arrays(alpha, c0, c1)
    rotation = c0 == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = c0 / (alpha * c0 ** 2 - c1)
        beta = gamma.conjugate() / (gamma * alpha)
    phi = c1_quadruples(alpha, c0, c1)[1]
    names = _disk_forms(np.where(rotation, "RotationForm", "NoneType"), gamma, beta, phi, ~rotation)
    return names, np.where(rotation, c1, beta), gamma


def c2_aut_forms(params: C2Params):
    """"IdentityForm" where c1 = c2 and c0^2 = c1/conj(alpha); otherwise the
    disk form with gamma = alpha(conj(alpha) c0^2 - c1)/(|alpha|^2 c1 - c2),
    as c1_aut_forms."""
    al, c0, c1, c2 = _arrays(params.alpha, params.c0, params.c1, params.c2)
    t, u, v, w = _arrays(*c2_quadruple(params))
    scale = np.maximum(np.maximum(abs(c1), abs(c2)), np.maximum(abs(c0) ** 2, 1.0))
    identity = (abs(t) <= REBUILD_TOL * scale) & (abs(u) <= REBUILD_TOL * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = al * u / w
        beta = c2_aut_beta(al, gamma)
    phi = c2_quadruples(params)[1]
    names = _disk_forms(np.where(identity, "IdentityForm", "NoneType"), gamma, beta, phi, ~identity)
    return names, beta, gamma
