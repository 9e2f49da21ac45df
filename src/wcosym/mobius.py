"""Exact algebra and classification of linear-fractional self-maps of the disk.

A map z -> (az + b)/(cz + d) is its coefficient quadruple (a, b, c, d), a
row of a (B, 4) stack.  Canonical means divided by the coefficient of
largest modulus; two maps are equal iff their canonical quadruples agree.
is_degenerate is the one degeneracy rule: ad - bc numerically zero makes
a map the constant constant_value.  read_maps is the one reading of a
stack, for classify, the family constructors and the operator seams: it
writes each constant v as (0, v, 0, 1).  The classification (interior /
hyperbolic / parabolic, automorphism or not) is decided from the
fixed-point quadratic and closed-form criteria, not boundary sampling.

Every coefficient criterion (is_degenerate, is_self_map, sup_modulus,
is_automorphism, the projective gap, fixed_points, classify, the Cowen
adjoint and the LFT normality defects) takes a (B, 4) stack and decides
each row with array masks; one map is a stack of one.  A stack refused
raises the refusal of its first offending row.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

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
    out = np.empty(np.broadcast(a, b, c, d).shape + (4,), dtype=complex)
    out[:, 0], out[:, 1], out[:, 2], out[:, 3] = a, b, c, d
    return out


def canonical(quads: np.ndarray) -> np.ndarray:
    """Each quadruple of a (B, 4) stack divided by its coefficient of
    largest modulus (the first of equal ones)."""
    return quads / quads[np.arange(len(quads)), abs(quads).argmax(axis=1)][:, None]


def is_degenerate(m: np.ndarray) -> np.ndarray:
    """|ad - bc| <= _DEGENERATE_TOL scale^2, scale the largest coefficient
    modulus, for each row of a stack: the map is a constant (the zero
    quadruple included)."""
    a, b, c, d = m.T
    scale = abs(m).max(axis=1)
    return (scale == 0.0) | (abs(a * d - b * c) <= _DEGENERATE_TOL * scale * scale)


def constant_value(m: np.ndarray) -> np.ndarray:
    """b/d, a/c where d = 0, INFINITY where c = d = 0: each row of a stack
    read as a constant, for callers that hold the division warnings."""
    a, b, c, d = m.T
    return np.where(d != 0, b / d, np.where(c != 0, a / c, INFINITY))


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
    (0, v, 0, 1)."""
    a1, b1, c1, d1 = first.T
    a2, b2, c2, d2 = second.T
    return coefficient_stack(a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def proj_distance(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Projective distance between the rows of two (B, 4) stacks: the scaled
    norm of the 2x2 minors for two Mobius maps, which is zero iff their
    quadruples are proportional (the maps are equal); the relative distance
    of the values for two constants; infinite between a constant and a
    Mobius map."""
    with np.errstate(divide="ignore", invalid="ignore"):
        one, two = is_degenerate(m1), is_degenerate(m2)
        v1, v2 = constant_value(m1), constant_value(m2)
        values = abs(v1 - v2) / np.maximum(1.0, np.maximum(abs(v1), abs(v2)))
        return np.where(one & two, values, np.where(one | two, np.inf, quadruple_gap(m1, m2)))


def _sum_sq(values):
    """Sum of the squared moduli."""
    return sum(z.real * z.real + z.imag * z.imag for z in values)


def quadruple_gap(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Scaled norm of the 2x2 minors of the rows of two (B, 4) stacks (a
    stack of one broadcasts): each of the six minors enters the
    antisymmetric matrix v1 v2^T - v2 v1^T twice."""
    a1, b1, c1, d1 = v1 = v1.T
    a2, b2, c2, d2 = v2 = v2.T
    minors = (
        a1 * b2 - b1 * a2, a1 * c2 - c1 * a2, a1 * d2 - d1 * a2,
        b1 * c2 - c1 * b2, b1 * d2 - d1 * b2, c1 * d2 - d1 * c2,
    )
    return np.sqrt(2.0 * _sum_sq(minors)) / np.sqrt(_sum_sq(v1) * _sum_sq(v2))


def refuse(refusals) -> None:
    """Raise the refusal of the first offending row of a stack.  refusals
    are (mask, error) pairs in order of precedence, error(i) the exception
    of row i; a row's refusal is the first whose mask holds there."""
    masks = np.array([mask for mask, _ in refusals])
    offending = masks.any(axis=0)
    if offending.any():
        row = int(offending.argmax())
        raise refusals[int(masks[:, row].argmax())][1](row)


def read_maps(quads: np.ndarray):
    """(maps, constant, refusals, nonzero, q) of a (B, 4) stack: nonzero
    marks the rows of finite coefficients not all zero, constant those that
    is_degenerate marks; maps writes each constant (0, v, 0, 1), v its
    constant_value, and keeps every other row; q is canonical.  refusals()
    (a call, which the families skip) lists by precedence a non-finite row,
    the zero row, a constant off the disk and a non-constant non-self-map."""
    quads = np.asarray(quads, dtype=complex)
    finite = np.isfinite(quads).all(axis=1)
    nonzero = finite & quads.any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = canonical(quads)
        constant = nonzero & is_degenerate(quads)
        value = constant_value(quads)

    def refusals():
        with np.errstate(invalid="ignore", over="ignore"):
            self_map = is_self_map(q)
        return [
            (~finite, lambda i: ValueError("coefficients must be finite")),
            (finite & ~nonzero, lambda i: DegenerateMapError("all coefficients vanish")),
            (constant & (abs(value) >= 1.0),
             lambda i: NotSelfMapError(f"the constant {complex(value[i])} does not map the disk into itself")),
            (nonzero & ~constant & ~self_map,
             lambda i: NotSelfMapError(f"{tuple(quads[i].tolist())} is not a self-map of the unit disk")),
        ]

    maps = np.where(constant[:, None], coefficient_stack(0.0, value, 0.0, 1.0), quads) if constant.any() else quads
    return maps, constant, refusals, nonzero, q


def fixed_points(quads: np.ndarray) -> np.ndarray:
    """The (B, 2) fixed points in C union {INFINITY} of a stack of maps,
    double roots repeated: the roots of c z^2 + (d - a) z - b = 0 for the
    canonical quadruple; the linear case (c = 0) fixes infinity as well,
    and only infinity where also d = a (a translation).  Refuses a
    non-finite coefficient, the zero quadruple and the identity."""
    _, _, refusals, _, q = read_maps(quads)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        identity = quadruple_gap(q, np.array([IDENTITY])) <= EQUAL_TOL
        refuse(refusals()[:2] + [(identity, lambda i: IdentityMapError("every point of the identity map is fixed"))])
        a, b, c, d = q.T
        disc = (d - a) * (d - a) + 4.0 * c * b
        sq = np.sqrt(disc)
        # stable quadratic: the sign avoiding cancellation; big != 0 once
        # the double root (disc ~ 0) is excluded
        s = -(d - a)
        big = np.where(abs(s + sq) >= abs(s - sq), 0.5 * (s + sq), 0.5 * (s - sq))
        double = abs(disc) <= PARABOLIC_TOL * abs(q).max(axis=1)
        z0 = (a - d) / (2.0 * c)
        roots = np.stack([np.where(double, z0, big / c), np.where(double, z0, -b / big)], axis=1)
        translation = abs(d - a) <= _DEGENERATE_TOL * np.maximum(abs(a), abs(d))
        linear = np.stack([np.where(translation, INFINITY, b / (d - a)), np.full(len(q), INFINITY)], axis=1)
    return np.where((abs(c) <= _DEGENERATE_TOL)[:, None], linear, roots)


def _image_disk(m):
    """|d|^2 - |c|^2 and |b conj(d) - a conj(c)| + |ad - bc| of each row of
    a stack: the image of the disk is the disk with center
    (b conj(d) - a conj(c)) / (|d|^2 - |c|^2) and radius |ad - bc| /
    (|d|^2 - |c|^2)."""
    a, b, c, d = m.T
    return abs(d) ** 2 - abs(c) ** 2, abs(b * d.conjugate() - a * c.conjugate()) + abs(a * d - b * c)


def sup_modulus(m: np.ndarray) -> np.ndarray:
    """sup of |m| over the closed unit disk (infinite if the pole intrudes),
    for each row of a stack."""
    gap, num = _image_disk(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(gap > 0, np.divide(num, gap), np.inf)


def is_self_map(m: np.ndarray) -> np.ndarray:
    """Exact criterion |b conj(d) - a conj(c)| + |ad - bc| <= |d|^2 - |c|^2,
    for each row of a stack."""
    gap, num = _image_disk(m)
    return (gap > 0) & (num <= gap + SELF_MAP_SLACK)


def is_automorphism(m: np.ndarray) -> np.ndarray:
    """|a|^2 + |b|^2 = |c|^2 + |d|^2 and a conj(b) = c conj(d), for each
    row of a stack.

    Equivalent to |az + b| = |cz + d| on the unit circle; combined with
    non-degeneracy and the self-map property this characterizes the disk
    automorphisms.  Equality in the self-map criterion alone is not
    sufficient.
    """
    a, b, c, d = m.T
    scale = abs(m).max(axis=1) ** 2
    mod_gap = abs(abs(a) ** 2 + abs(b) ** 2 - abs(c) ** 2 - abs(d) ** 2)
    cross_gap = abs(a * b.conjugate() - c * d.conjugate())
    return is_self_map(m) & (mod_gap <= AUT_TOL * scale) & (cross_gap <= AUT_TOL * scale)


def classify(quads: np.ndarray) -> List[MapClassification]:
    """Fixed-point classification with Denjoy-Wolff data of each map of a
    stack.

    The refusals are those of read_maps, then a map with no fixed point in
    the closed disk.  The Denjoy-Wolff point is the interior fixed point
    when one exists (the first of two), otherwise the boundary fixed point:
    a double one, or the one of smaller |derivative| (the first of equal
    ones).  A boundary point with derivative 1 is parabolic, any other
    hyperbolic.  The criteria read the canonical quadruple.
    """
    quads = np.asarray(quads, dtype=complex)
    maps, constant, refusals, nonzero, q = read_maps(quads)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        identity = (quadruple_gap(q, np.array([IDENTITY])) <= EQUAL_TOL) & ~constant
        proper = nonzero & ~constant & ~identity
        points = np.full((len(q), 2), INFINITY)
        points[proper] = fixed_points(quads[proper])  # from the same canonical quadruples
        qa, qb, qc, qd = q.T[:, :, None]
        den = qc * points + qd
        derivative = (qa * qd - qb * qc) / (den * den)
        interior = abs(points) < 1.0 - BOUNDARY_TOL
        boundary = abs(abs(points) - 1.0) <= BOUNDARY_TOL
        double = boundary.all(axis=1) & (abs(points[:, 0] - points[:, 1]) <= 10 * BOUNDARY_TOL)
        smaller = abs(derivative[:, 0]) <= abs(derivative[:, 1])
    inside = interior.any(axis=1)
    nowhere = proper & ~inside & ~boundary.any(axis=1)
    refuse(refusals() + [(nowhere, lambda i: NotSelfMapError("no fixed point in the closed disk"))])
    # the Denjoy-Wolff point: the first interior one, else the double
    # boundary one, else the boundary one of smaller |derivative|
    second = boundary[:, 1] & ~(boundary[:, 0] & smaller)
    rows, pick = np.arange(len(q)), np.where(inside, interior.argmax(axis=1), ~double & second)
    zeta, slope = points[rows, pick], derivative[rows, pick]
    parabolic = double | (abs(slope - 1.0) <= PARABOLIC_TOL)
    aut = identity | (proper & is_automorphism(q))
    kind = np.select([constant, identity, inside, parabolic], [0, 1, 2, 3], 4)
    names = (  # (not an automorphism, an automorphism) of each kind
        (MapClass.CONSTANT,) * 2, (MapClass.IDENTITY,) * 2,
        (MapClass.INTERIOR_FIXED_POINT, MapClass.ELLIPTIC_AUTOMORPHISM),
        (MapClass.PARABOLIC_NON_AUTOMORPHISM, MapClass.PARABOLIC_AUTOMORPHISM),
        (MapClass.HYPERBOLIC_NON_AUTOMORPHISM, MapClass.HYPERBOLIC_AUTOMORPHISM),
    )
    points = np.where(constant, maps[:, 1], zeta).tolist()
    slopes = np.where(constant, 0.0j, np.where(identity, 1.0 + 0.0j, slope)).tolist()
    return [
        MapClassification(names[k][flag], None if k == 1 else p, s, flag)
        for k, flag, p, s in zip(kind.tolist(), aut.tolist(), points, slopes)
    ]


def cowen_stack(quads: np.ndarray, sigma_sign: int = -1):
    """(g, sigma, h) of the adjoint factorization C_phi* = M_g C_sigma M_h*
    for each map of a (B, 4) stack: g = 1/(conj(d) - conj(b) z) and
    h = d + c z as (n0, n1, d0, d1) rows, and Cowen's adjoint map sigma(z) =
    (conj(a) z - conj(c)) / (-conj(b) z + conj(d)), not canonical (sigma's one
    writer; a caller that expands or prints it canonicalizes it).  The ``sigma_sign``
    switch flips the sign of the conj(c) term and exists only so the wrong
    variant can be exhibited failing the factorization residual."""
    a, b, c, d = quads.T
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    sigma = coefficient_stack(ac, sigma_sign * cc, -bc, dc)
    return coefficient_stack(1.0, 0.0, dc, -bc), sigma, coefficient_stack(d, c, 1.0, 0.0)


def lft_normality_defects(quads: np.ndarray):
    """(modulus gap, commuting defect) of the K_{sigma(0)}-normality
    condition for each raw coefficient quadruple of a (B, 4) stack.

    The commuting defect is the residual of the three cross-multiplied
    coefficient equations of (phi o sigma)(z) = (sigma o phi)(z),
    normalized by the input scale so that degenerate quadruples (whose
    composites can vanish identically) are handled without blow-up:
    vanishing composites satisfy the written equations vacuously.  Both
    are infinite where d = 0.  sigma is Cowen's adjoint map as cowen_stack
    writes it, not canonical: its rounding fixes the recorded defects.
    """
    a, b, c, d = quads.T
    sigma = cowen_stack(quads)[1]
    (p1, q1, r1, s1), (p2, q2, r2, s2) = compose_stack(quads, sigma).T, compose_stack(sigma, quads).T
    cross = (p1 * r2 - p2 * r1, q1 * s2 - q2 * s1, p1 * s2 + q1 * r2 - p2 * s1 - q2 * r1)
    scale = _sum_sq((a, b, c, d)) * _sum_sq(sigma.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = abs(abs(b / d) - abs(sigma[:, 1] / sigma[:, 3]))
        defect = np.sqrt(_sum_sq(cross)) / scale
    return np.where(d == 0, np.inf, gap), np.where(d == 0, np.inf, defect)
