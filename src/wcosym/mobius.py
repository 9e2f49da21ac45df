"""Exact algebra and classification of linear-fractional self-maps of the disk.

Maps are stored projectively as coefficient quadruples (a, b, c, d) of
z -> (az + b)/(cz + d), normalized so the coefficient of largest modulus
equals 1; two maps are equal iff their canonical quadruples agree.  The
classification (interior / hyperbolic / parabolic, automorphism or not)
is decided from the fixed-point quadratic and closed-form coefficient
criteria, never from boundary sampling.

The coefficient criteria (is_self_map, sup_modulus, is_automorphism,
the projective gap, the Cowen adjoint and the LFT normality defects) are
each one formula for a (B, 4) stack of quadruples, a constant map v being
(0, v, 0, 1), and for a single map: the suites' samplers pass whole
stacks.  Only the checks that are scalar by nature (classify,
fixed_points) read map objects alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple, Union

import numpy as np

from .errors import (
    ConstantMapError,
    DegenerateMapError,
    IdentityMapError,
    NotSelfMapError,
    PoleAtInputError,
)
from .series import RationalSymbol

INFINITY = complex(float("inf"), 0.0)

SELF_MAP_SLACK = 1e-10
BOUNDARY_TOL = 1e-9
PARABOLIC_TOL = 1e-9
AUT_TOL = 1e-9
EQUAL_TOL = 1e-9
_DEGENERATE_TOL = 1e-13
_POLE_EPS = 1e-13


def _is_inf(z: complex) -> bool:
    return cmath.isinf(z)


@dataclass(frozen=True)
class ConstantMap:
    """Constant map z -> value, kept distinct from degenerate quadruples."""

    value: complex


@dataclass(frozen=True)
class MobiusMap:
    """Non-degenerate linear-fractional map (az + b)/(cz + d).

    The stored quadruple is canonical: scaled so the largest-modulus
    coefficient is exactly 1 (ties broken in the order a, b, c, d).
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        a, b, c, d = complex(self.a), complex(self.b), complex(self.c), complex(self.d)
        if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c) and cmath.isfinite(d)):
            raise ValueError("coefficients must be finite")
        mods = (abs(a), abs(b), abs(c), abs(d))
        scale = max(mods)
        if scale == 0.0:
            raise DegenerateMapError("all coefficients vanish")
        if abs(a * d - b * c) <= _DEGENERATE_TOL * scale * scale:
            raise DegenerateMapError(
                "ad - bc vanishes; use ConstantMap for constant maps"
            )
        pivot = (a, b, c, d)[mods.index(scale)]  # canonical()'s rule, in Python complex division
        object.__setattr__(self, "a", a / pivot)
        object.__setattr__(self, "b", b / pivot)
        object.__setattr__(self, "c", c / pivot)
        object.__setattr__(self, "d", d / pivot)

    def __call__(self, z: complex) -> complex:
        return evaluate(self, z)

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def quadruple(self) -> Tuple[complex, complex, complex, complex]:
        return self.a, self.b, self.c, self.d

    def derivative(self, z: complex) -> complex:
        den = self.c * z + self.d
        return self.det / (den * den)


def coefficient_stack(a, b, c, d) -> np.ndarray:
    """The (B, 4) stack of four coefficient columns, scalars broadcast."""
    out = np.empty((max(len(x) for x in (a, b, c, d) if isinstance(x, np.ndarray)), 4), dtype=complex)
    out[:, 0], out[:, 1], out[:, 2], out[:, 3] = a, b, c, d
    return out


def canonical(quads: np.ndarray) -> np.ndarray:
    """Each quadruple of a (B, 4) stack divided by its coefficient of
    largest modulus (the first of equal ones), as MobiusMap scales one."""
    return quads / quads[np.arange(len(quads)), abs(quads).argmax(axis=1)][:, None]


def quadruples(maps) -> np.ndarray:
    """The (B, 4) stack of the maps' coefficients, a constant map v as (0, v, 0, 1)."""
    return np.array([(0.0, m.value, 0.0, 1.0) if isinstance(m, ConstantMap) else m.quadruple() for m in maps])


def is_constant(quads: np.ndarray) -> np.ndarray:
    """The rows (0, v, 0, d) of a stack: constant maps (a nondegenerate map has ad - bc != 0)."""
    return (quads[:, 0] == 0) & (quads[:, 2] == 0)


def _columns(m):
    """(a, b, c, d): a map's coefficients, or the coefficient columns of a
    (B, 4) stack.  The coefficient criteria below read nothing else, so
    each is one formula for a stack and for a single map."""
    if isinstance(m, MobiusMap):
        return m.quadruple()
    return m.T if isinstance(m, np.ndarray) else tuple(m)


def _elementwise(x, scalar, array):
    """scalar's function for Python numbers, array's for arrays: math's for
    one map costs a tenth of numpy's."""
    return array if isinstance(x, np.ndarray) else scalar


IDENTITY = MobiusMap(1.0, 0.0, 0.0, 1.0)


class MapClass(str, Enum):
    IDENTITY = "Identity"
    CONSTANT = "Constant"
    INTERIOR_FIXED_POINT = "InteriorFixedPoint"
    ELLIPTIC_AUTOMORPHISM = "EllipticAutomorphism"
    HYPERBOLIC_AUTOMORPHISM = "HyperbolicAutomorphism"
    HYPERBOLIC_NON_AUTOMORPHISM = "HyperbolicNonAutomorphism"
    PARABOLIC_AUTOMORPHISM = "ParabolicAutomorphism"
    PARABOLIC_NON_AUTOMORPHISM = "ParabolicNonAutomorphism"


@dataclass(frozen=True)
class MapClassification:
    map_class: MapClass
    dw_point: Optional[complex]
    dw_derivative: Optional[complex]
    is_automorphism: bool


@dataclass(frozen=True)
class CowenTriple:
    """Auxiliary functions of the adjoint factorization C_phi* = M_g C_sigma M_h*."""

    g: RationalSymbol
    sigma: MobiusMap
    h: RationalSymbol  # polynomial: h(z) = c z + d stored with unit denominator


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------

def evaluate(m: MobiusMap, z: complex) -> complex:
    den = m.c * z + m.d
    scale = max(abs(m.c) * abs(z), abs(m.d), 1.0)
    if abs(den) < _POLE_EPS * scale:
        raise PoleAtInputError(f"pole at z = {z}")
    return (m.a * z + m.b) / den


MapLike = Union[MobiusMap, ConstantMap]


def compose_stack(first: np.ndarray, second: np.ndarray):
    """The quadruples of first[b] o second[b] (the 2 x 2 coefficient
    matrices multiplied) for two (B, 4) stacks of maps, a constant v being
    (0, v, 0, 1), and where the composite is numerically degenerate: a
    constant, of value b/d where d != 0."""
    a1, b1, c1, d1 = first.T
    a2, b2, c2, d2 = second.T
    quads = coefficient_stack(a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)
    a, b, c, d = quads.T
    scale = abs(quads).max(axis=1)
    return quads, (scale == 0.0) | (abs(a * d - b * c) <= _DEGENERATE_TOL * scale * scale)


def proj_distance(m1, m2):
    """Projective distance between maps, or between the rows of two (B, 4)
    stacks: the scaled norm of the 2x2 minors for two Mobius maps, which is
    zero iff their quadruples are proportional (the maps are equal); the
    relative distance of the values for two constants; infinite between a
    constant and a Mobius map."""
    if isinstance(m1, MobiusMap) and isinstance(m2, MobiusMap):
        return float(quadruple_gap(m1, m2))
    if not isinstance(m1, np.ndarray):  # one of two maps is constant: a stack of one
        return float(proj_distance(quadruples([m1]), quadruples([m2]))[0])
    one, two = is_constant(m1), is_constant(m2)
    with np.errstate(divide="ignore", invalid="ignore"):
        v1, v2 = m1[:, 1] / m1[:, 3], m2[:, 1] / m2[:, 3]
        values = abs(v1 - v2) / np.maximum(1.0, np.maximum(abs(v1), abs(v2)))
        return np.where(one & two, values, np.where(one | two, np.inf, quadruple_gap(m1, m2)))


def _sum_sq(values):
    """Sum of the squared moduli."""
    return sum(z.real * z.real + z.imag * z.imag for z in values)


def quadruple_gap(v1, v2):
    """Scaled norm of the 2x2 minors of two coefficient quadruples (or
    maps), or of the rows of two (B, 4) stacks: each of the six minors
    enters the antisymmetric matrix v1 v2^T - v2 v1^T twice."""
    a1, b1, c1, d1 = v1 = _columns(v1)
    a2, b2, c2, d2 = v2 = _columns(v2)
    minors = (
        a1 * b2 - b1 * a2, a1 * c2 - c1 * a2, a1 * d2 - d1 * a2,
        b1 * c2 - c1 * b2, b1 * d2 - d1 * b2, c1 * d2 - d1 * c2,
    )
    sqrt = _elementwise(a1, math.sqrt, np.sqrt)
    return sqrt(2.0 * _sum_sq(minors)) / sqrt(_sum_sq(v1) * _sum_sq(v2))


def mobius_equal(m1: MapLike, m2: MapLike, tol: float = EQUAL_TOL) -> bool:
    return proj_distance(m1, m2) <= tol


def fixed_points(m: MobiusMap) -> list:
    """Fixed points in C union {INFINITY}, double roots repeated.

    Roots of c z^2 + (d - a) z - b = 0; the linear case (c = 0) fixes
    infinity as well.
    """
    if mobius_equal(m, IDENTITY):
        raise IdentityMapError("every point of the identity map is fixed")
    a, b, c, d = m.a, m.b, m.c, m.d
    if abs(c) <= _DEGENERATE_TOL:
        if abs(d - a) <= _DEGENERATE_TOL * max(abs(a), abs(d)):
            return [INFINITY, INFINITY]  # translation-like: only infinity fixed
        return [b / (d - a), INFINITY]
    disc = (d - a) * (d - a) + 4.0 * c * b
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if abs(disc) <= PARABOLIC_TOL * scale:
        z0 = (a - d) / (2.0 * c)
        return [z0, z0]
    sq = cmath.sqrt(disc)
    # stable quadratic: pick the sign avoiding cancellation; q != 0 once
    # the parabolic (disc ~ 0) branch above is excluded
    s = -(d - a)
    q = 0.5 * (s + sq) if abs(s + sq) >= abs(s - sq) else 0.5 * (s - sq)
    return [q / c, -b / q]


def _image_disk(m):
    """|d|^2 - |c|^2 and |b conj(d) - a conj(c)| + |ad - bc| of a map or of
    each row of a stack: the image of the disk is the disk with center
    (b conj(d) - a conj(c)) / (|d|^2 - |c|^2) and radius |ad - bc| /
    (|d|^2 - |c|^2)."""
    a, b, c, d = _columns(m)
    return abs(d) ** 2 - abs(c) ** 2, abs(b * d.conjugate() - a * c.conjugate()) + abs(a * d - b * c)


def sup_modulus(m):
    """sup of |m| over the closed unit disk (infinite if the pole intrudes),
    for a map or each row of a stack."""
    gap, num = _image_disk(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(gap > 0, np.divide(num, gap), np.inf)[()]


def is_self_map(m):
    """Exact criterion |b conj(d) - a conj(c)| + |ad - bc| <= |d|^2 - |c|^2,
    for a map or each row of a stack."""
    gap, num = _image_disk(m)
    return (gap > 0) & (num <= gap + SELF_MAP_SLACK)


def is_automorphism(m):
    """|a|^2 + |b|^2 = |c|^2 + |d|^2 and a conj(b) = c conj(d).

    Equivalent to |az + b| = |cz + d| on the unit circle; combined with
    non-degeneracy and the self-map property this characterizes the disk
    automorphisms.  Equality in the self-map criterion alone is not
    sufficient.
    """
    a, b, c, d = _columns(m)
    scale = _elementwise(a, max, lambda *x: np.maximum.reduce(x))(abs(a), abs(b), abs(c), abs(d)) ** 2
    mod_gap = abs(abs(a) ** 2 + abs(b) ** 2 - abs(c) ** 2 - abs(d) ** 2)
    cross_gap = abs(a * b.conjugate() - c * d.conjugate())
    return is_self_map(m) & (mod_gap <= AUT_TOL * scale) & (cross_gap <= AUT_TOL * scale)


def classify(m: MapLike) -> MapClassification:
    """Fixed-point classification with Denjoy-Wolff data.

    The Denjoy-Wolff point is the interior fixed point when one exists,
    otherwise the boundary fixed point with derivative at most 1.
    """
    if isinstance(m, ConstantMap):
        return MapClassification(MapClass.CONSTANT, m.value, 0.0 + 0.0j, False)
    if mobius_equal(m, IDENTITY):
        return MapClassification(MapClass.IDENTITY, None, 1.0 + 0.0j, True)
    if not is_self_map(m):
        raise NotSelfMapError(f"{m} is not a self-map of the unit disk")
    aut = bool(is_automorphism(m))
    points = fixed_points(m)
    finite = [p for p in points if not _is_inf(p)]
    interior = [p for p in finite if abs(p) < 1.0 - BOUNDARY_TOL]
    if interior:
        p = interior[0]
        cls = MapClass.ELLIPTIC_AUTOMORPHISM if aut else MapClass.INTERIOR_FIXED_POINT
        return MapClassification(cls, p, m.derivative(p), aut)
    boundary = [p for p in finite if abs(abs(p) - 1.0) <= BOUNDARY_TOL]
    if not boundary:
        raise NotSelfMapError("no fixed point in the closed disk")
    if len(boundary) == 2 and abs(boundary[0] - boundary[1]) <= 10 * BOUNDARY_TOL:
        zeta = boundary[0]
        cls = MapClass.PARABOLIC_AUTOMORPHISM if aut else MapClass.PARABOLIC_NON_AUTOMORPHISM
        return MapClassification(cls, zeta, m.derivative(zeta), aut)
    # hyperbolic: the Denjoy-Wolff point has |derivative| <= 1
    zeta = min(boundary, key=lambda p: abs(m.derivative(p)))
    deriv = m.derivative(zeta)
    if abs(deriv - 1.0) <= PARABOLIC_TOL:
        cls = MapClass.PARABOLIC_AUTOMORPHISM if aut else MapClass.PARABOLIC_NON_AUTOMORPHISM
    else:
        cls = MapClass.HYPERBOLIC_AUTOMORPHISM if aut else MapClass.HYPERBOLIC_NON_AUTOMORPHISM
    return MapClassification(cls, zeta, deriv, aut)


def cowen_adjoint(m: MapLike, sigma_sign: int = -1) -> CowenTriple:
    """Auxiliary functions g, sigma, h of the adjoint factorization of one
    map, from cowen_stack."""
    if isinstance(m, ConstantMap):
        raise ConstantMapError("adjoint factorization needs a non-constant map")
    g, sigma, h = (quads[0].tolist() for quads in cowen_stack(quadruples([m]), sigma_sign))
    return CowenTriple(RationalSymbol(*g), MobiusMap(*sigma), RationalSymbol(*h))


def cowen_stack(quads: np.ndarray, sigma_sign: int = -1):
    """(g, sigma, h) of the adjoint factorization C_phi* = M_g C_sigma M_h*
    for each map of a (B, 4) stack: g = 1/(conj(d) - conj(b) z) and
    h = d + c z as (n0, n1, d0, d1) rows, and sigma(z) = (conj(a) z -
    conj(c)) / (-conj(b) z + conj(d)) canonical.  The ``sigma_sign``
    switch flips the sign of the conj(c) term and exists only so the wrong
    variant can be exhibited failing the factorization residual."""
    a, b, c, d = quads.T
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    sigma = canonical(coefficient_stack(ac, sigma_sign * cc, -bc, dc))
    return coefficient_stack(1.0, 0.0, dc, -bc), sigma, coefficient_stack(d, c, 1.0, 0.0)


def lft_normality_defects(quads: np.ndarray):
    """(modulus gap, commuting defect) of the K_{sigma(0)}-normality
    condition for each raw coefficient quadruple of a (B, 4) stack (or of
    one quadruple, shape (4,)).

    The commuting defect is the residual of the three cross-multiplied
    coefficient equations of (phi o sigma)(z) = (sigma o phi)(z),
    normalized by the input scale so that degenerate quadruples (whose
    composites can vanish identically) are handled without blow-up:
    vanishing composites satisfy the written equations vacuously.  Both
    are infinite where d = 0.
    """
    a, b, c, d = np.asarray(quads, dtype=complex).T
    # sigma's quadruple (conj a, -conj c, -conj b, conj d)
    sa, sb, sc, sd = a.conjugate(), -c.conjugate(), -b.conjugate(), d.conjugate()
    # the two products of the 2 x 2 coefficient matrices: phi o sigma, sigma o phi
    p1, q1, r1, s1 = a * sa + b * sc, a * sb + b * sd, c * sa + d * sc, c * sb + d * sd
    p2, q2, r2, s2 = sa * a + sb * c, sa * b + sb * d, sc * a + sd * c, sc * b + sd * d
    cross = (p1 * r2 - p2 * r1, q1 * s2 - q2 * s1, p1 * s2 + q1 * r2 - p2 * s1 - q2 * r1)
    scale = _sum_sq((a, b, c, d)) * _sum_sq((sa, sb, sc, sd))
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = abs(abs(b / d) - abs(sb / sd))
        defect = np.sqrt(_sum_sq(cross)) / scale
    return np.where(d == 0, np.inf, gap), np.where(d == 0, np.inf, defect)
