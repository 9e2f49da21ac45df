"""Exact algebra and classification of linear-fractional self-maps of the disk.

A map z -> (az + b)/(cz + d) is its coefficient quadruple (a, b, c, d):
four numbers, or a row of a (B, 4) stack; a constant v is (0, v, 0, 1).
Canonical means divided by the coefficient of largest modulus; two maps
are equal iff their canonical quadruples agree.  is_degenerate is the one
degeneracy rule: ad - bc numerically zero makes a map a constant.  The
classification (interior / hyperbolic / parabolic, automorphism or not)
is decided from the fixed-point quadratic and closed-form coefficient
criteria, never from boundary sampling.

The coefficient criteria (is_degenerate, is_self_map, sup_modulus,
is_automorphism, the projective gap, the Cowen adjoint and the LFT
normality defects) are each one formula for a (B, 4) stack and for a
single quadruple: the suites' samplers pass whole stacks.  Only the checks
scalar by nature (classify, fixed_points) take one quadruple alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateMapError, IdentityMapError, NotSelfMapError

INFINITY = complex(float("inf"), 0.0)
IDENTITY = (1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)

SELF_MAP_SLACK = 1e-10
BOUNDARY_TOL = 1e-9
PARABOLIC_TOL = 1e-9
AUT_TOL = 1e-9
EQUAL_TOL = 1e-9
_DEGENERATE_TOL = 1e-13


def coefficient_stack(a, b, c, d) -> np.ndarray:
    """The (B, 4) stack of four coefficient columns, scalars broadcast."""
    out = np.empty((max(len(x) for x in (a, b, c, d) if isinstance(x, np.ndarray)), 4), dtype=complex)
    out[:, 0], out[:, 1], out[:, 2], out[:, 3] = a, b, c, d
    return out


def canonical(quads: np.ndarray) -> np.ndarray:
    """Each quadruple of a (B, 4) stack divided by its coefficient of
    largest modulus (the first of equal ones)."""
    return quads / quads[np.arange(len(quads)), abs(quads).argmax(axis=1)][:, None]


def canonical_quadruple(quad) -> Tuple[complex, complex, complex, complex]:
    """One quadruple as Python complex numbers divided by its coefficient of
    largest modulus (the first of equal ones): canonical's rule in Python
    complex division.  Refuses a non-finite coefficient and the zero
    quadruple."""
    quad = tuple(complex(x) for x in quad)
    if not all(cmath.isfinite(x) for x in quad):
        raise ValueError("coefficients must be finite")
    mods = tuple(abs(x) for x in quad)
    scale = max(mods)
    if scale == 0.0:
        raise DegenerateMapError("all coefficients vanish")
    pivot = quad[mods.index(scale)]
    return tuple(x / pivot for x in quad)


def is_constant(quads: np.ndarray) -> np.ndarray:
    """The rows (0, v, 0, d) of a stack: constant maps (a nondegenerate map has ad - bc != 0)."""
    return (quads[:, 0] == 0) & (quads[:, 2] == 0)


def _columns(m):
    """(a, b, c, d): a quadruple, or the coefficient columns of a (B, 4)
    stack.  The coefficient criteria below read nothing else, so each is
    one formula for a stack and for a single map."""
    return m.T if isinstance(m, np.ndarray) else tuple(m)


def _elementwise(x, scalar, array):
    """scalar's function for Python numbers, array's for arrays: math's for
    one map costs a tenth of numpy's."""
    return array if isinstance(x, np.ndarray) else scalar


def _max_modulus(a, b, c, d):
    """The largest coefficient modulus of a quadruple, or of each row of a stack."""
    return _elementwise(a, max, lambda *x: np.maximum.reduce(x))(abs(a), abs(b), abs(c), abs(d))


def is_degenerate(m):
    """|ad - bc| <= _DEGENERATE_TOL scale^2, scale the largest coefficient
    modulus, for a quadruple or each row of a stack: the map is a constant
    (the zero quadruple included)."""
    a, b, c, d = _columns(m)
    scale = _max_modulus(a, b, c, d)
    return (scale == 0.0) | (abs(a * d - b * c) <= _DEGENERATE_TOL * scale * scale)


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


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------

def compose_stack(first: np.ndarray, second: np.ndarray):
    """The quadruples of first[b] o second[b] (the 2 x 2 coefficient
    matrices multiplied) for two (B, 4) stacks of maps, a constant v being
    (0, v, 0, 1), and where the composite is degenerate: a constant, of
    value b/d where d != 0."""
    a1, b1, c1, d1 = first.T
    a2, b2, c2, d2 = second.T
    quads = coefficient_stack(a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)
    return quads, is_degenerate(quads)


def proj_distance(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Projective distance between the rows of two (B, 4) stacks: the scaled
    norm of the 2x2 minors for two Mobius maps, which is zero iff their
    quadruples are proportional (the maps are equal); the relative distance
    of the values for two constants (0, v, 0, d); infinite between a
    constant and a Mobius map."""
    one, two = is_constant(m1), is_constant(m2)
    with np.errstate(divide="ignore", invalid="ignore"):
        v1, v2 = m1[:, 1] / m1[:, 3], m2[:, 1] / m2[:, 3]
        values = abs(v1 - v2) / np.maximum(1.0, np.maximum(abs(v1), abs(v2)))
        return np.where(one & two, values, np.where(one | two, np.inf, quadruple_gap(m1, m2)))


def _sum_sq(values):
    """Sum of the squared moduli."""
    return sum(z.real * z.real + z.imag * z.imag for z in values)


def quadruple_gap(v1, v2):
    """Scaled norm of the 2x2 minors of two coefficient quadruples, or of
    the rows of two (B, 4) stacks: each of the six minors enters the
    antisymmetric matrix v1 v2^T - v2 v1^T twice."""
    a1, b1, c1, d1 = v1 = _columns(v1)
    a2, b2, c2, d2 = v2 = _columns(v2)
    minors = (
        a1 * b2 - b1 * a2, a1 * c2 - c1 * a2, a1 * d2 - d1 * a2,
        b1 * c2 - c1 * b2, b1 * d2 - d1 * b2, c1 * d2 - d1 * c2,
    )
    sqrt = _elementwise(a1, math.sqrt, np.sqrt)
    return sqrt(2.0 * _sum_sq(minors)) / sqrt(_sum_sq(v1) * _sum_sq(v2))


def fixed_points(quad) -> list:
    """Fixed points in C union {INFINITY} of a map, double roots repeated.

    Roots of c z^2 + (d - a) z - b = 0 for the canonical quadruple; the
    linear case (c = 0) fixes infinity as well.
    """
    a, b, c, d = q = canonical_quadruple(quad)
    if quadruple_gap(q, IDENTITY) <= EQUAL_TOL:
        raise IdentityMapError("every point of the identity map is fixed")
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
    """|d|^2 - |c|^2 and |b conj(d) - a conj(c)| + |ad - bc| of a quadruple
    or of each row of a stack: the image of the disk is the disk with center
    (b conj(d) - a conj(c)) / (|d|^2 - |c|^2) and radius |ad - bc| /
    (|d|^2 - |c|^2)."""
    a, b, c, d = _columns(m)
    return abs(d) ** 2 - abs(c) ** 2, abs(b * d.conjugate() - a * c.conjugate()) + abs(a * d - b * c)


def sup_modulus(m):
    """sup of |m| over the closed unit disk (infinite if the pole intrudes),
    for a quadruple or each row of a stack."""
    gap, num = _image_disk(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(gap > 0, np.divide(num, gap), np.inf)[()]


def is_self_map(m):
    """Exact criterion |b conj(d) - a conj(c)| + |ad - bc| <= |d|^2 - |c|^2,
    for a quadruple or each row of a stack."""
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
    scale = _max_modulus(a, b, c, d) ** 2
    mod_gap = abs(abs(a) ** 2 + abs(b) ** 2 - abs(c) ** 2 - abs(d) ** 2)
    cross_gap = abs(a * b.conjugate() - c * d.conjugate())
    return is_self_map(m) & (mod_gap <= AUT_TOL * scale) & (cross_gap <= AUT_TOL * scale)


def _derivative(quad, z: complex) -> complex:
    a, b, c, d = quad
    den = c * z + d
    return (a * d - b * c) / (den * den)


def classify(quad) -> MapClassification:
    """Fixed-point classification with Denjoy-Wolff data of one map.

    A degenerate quadruple is the constant b/d (a/c where d = 0), refused
    off the open disk.  The Denjoy-Wolff point is the interior fixed point
    when one exists, otherwise the boundary fixed point with derivative at
    most 1.  The criteria read the canonical quadruple.
    """
    q = canonical_quadruple(quad)
    if is_degenerate(quad):
        a, b, c, d = (complex(x) for x in quad)
        value = b / d if d else a / c if c else INFINITY
        if abs(value) >= 1.0:
            raise NotSelfMapError(f"the constant {value} does not map the disk into itself")
        return MapClassification(MapClass.CONSTANT, value, 0.0 + 0.0j, False)
    if quadruple_gap(q, IDENTITY) <= EQUAL_TOL:
        return MapClassification(MapClass.IDENTITY, None, 1.0 + 0.0j, True)
    if not is_self_map(q):
        raise NotSelfMapError(f"{tuple(quad)} is not a self-map of the unit disk")
    aut = bool(is_automorphism(q))
    points = fixed_points(quad)  # from the same canonical quadruple
    finite = [p for p in points if not cmath.isinf(p)]
    interior = [p for p in finite if abs(p) < 1.0 - BOUNDARY_TOL]
    if interior:
        p = interior[0]
        cls = MapClass.ELLIPTIC_AUTOMORPHISM if aut else MapClass.INTERIOR_FIXED_POINT
        return MapClassification(cls, p, _derivative(q, p), aut)
    boundary = [p for p in finite if abs(abs(p) - 1.0) <= BOUNDARY_TOL]
    if not boundary:
        raise NotSelfMapError("no fixed point in the closed disk")
    if len(boundary) == 2 and abs(boundary[0] - boundary[1]) <= 10 * BOUNDARY_TOL:
        zeta = boundary[0]
        cls = MapClass.PARABOLIC_AUTOMORPHISM if aut else MapClass.PARABOLIC_NON_AUTOMORPHISM
        return MapClassification(cls, zeta, _derivative(q, zeta), aut)
    # hyperbolic: the Denjoy-Wolff point has |derivative| <= 1
    zeta = min(boundary, key=lambda p: abs(_derivative(q, p)))
    deriv = _derivative(q, zeta)
    if abs(deriv - 1.0) <= PARABOLIC_TOL:
        cls = MapClass.PARABOLIC_AUTOMORPHISM if aut else MapClass.PARABOLIC_NON_AUTOMORPHISM
    else:
        cls = MapClass.HYPERBOLIC_AUTOMORPHISM if aut else MapClass.HYPERBOLIC_NON_AUTOMORPHISM
    return MapClassification(cls, zeta, deriv, aut)


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
