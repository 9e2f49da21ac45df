import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcosym.errors import IdentityMapError, NotSelfMapError
from wcosym.mobius import (
    EQUAL_TOL,
    IDENTITY,
    MapClass,
    canonical_quadruple,
    classify,
    compose_stack,
    fixed_points,
    is_automorphism,
    is_degenerate,
    is_self_map,
    proj_distance,
    quadruple_gap,
)
from wcosym.operators import build_wco
from wcosym.verify import SuiteConfig, lft_oracle

from conftest import cowen, rational

ONE = (1.0, 0.0, 1.0, 0.0)  # the weight 1


def blaschke(p):
    """The disk involution (p - z)/(1 - conj(p) z)."""
    return (-1.0, p, -complex(p).conjugate(), 1.0)


def small_complex(r):
    return st.complex_numbers(max_magnitude=r, allow_nan=False, allow_infinity=False)


def disk_autos():
    """Strategy for genuine disk automorphisms beta (gamma - z)/(1 - conj(gamma) z)."""
    return st.builds(
        lambda g, th: (-cmath.exp(1j * th), cmath.exp(1j * th) * g, -np.conj(g), 1.0),
        small_complex(0.85),
        st.floats(0, 2 * cmath.pi),
    )


# a map is refused where one is read alone (classify) and where an operator
# is built from it, a weight where an operator is built from it; the ids
# name the form of the quadruple
@pytest.mark.parametrize("form", ["map", "weight"], ids=["MobiusMap", "RationalSymbol"])
@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize(
    "bad", [complex("nan"), complex("inf"), complex(0.0, float("nan")), complex(0.5, float("-inf"))]
)
def test_nonfinite_coefficient_rejected(form, slot, bad):
    coeffs = [0.5, 0.25, 0.1, 1.0]
    coeffs[slot] = bad
    if form == "map":
        calls = [lambda: classify(coeffs), lambda: build_wco(ONE, coeffs, 8)]
    else:
        calls = [lambda: build_wco(coeffs, IDENTITY, 8)]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


def composite(first, second):
    """compose_stack of two maps: the composite's quadruple and whether it is degenerate."""
    quads, degenerate = compose_stack(np.array([first], dtype=complex), np.array([second], dtype=complex))
    return quads[0], degenerate[0]


def value(m, z):
    """m(z), read off the composite of m with the constant z: the constant m(z)."""
    (a, b, c, d), degenerate = composite(m, (0.0, z, 0.0, 1.0))
    assert degenerate and a == c == 0
    return b / d


class TestEvaluate:
    """A map evaluated by composing it with a constant."""

    def test_identity(self):
        assert value(IDENTITY, 0.3 + 0.1j) == 0.3 + 0.1j

    def test_scaling(self):
        assert value((0.5, 0, 0, 1), 1.0) == 0.5

    def test_hyperbolic_fixed_point(self):
        assert abs(value((3, 1, 1, 3), 1.0) - 1.0) < 1e-15

    def test_pole_rejected(self):
        # at the pole the constant's denominator vanishes: the value is
        # infinite, and classify refuses it
        quad, degenerate = composite((0, 1, -1, 1), (0.0, 1.0, 0.0, 1.0))
        assert degenerate and quad[3] == 0
        with pytest.raises(NotSelfMapError):
            classify(quad)


class TestCompose:
    """compose_stack, the 2 x 2 coefficient product, on stacks of one."""

    def test_rotation_family(self):
        # p = 0 member: phi_0 = -z composed with 0.5 * phi_0 gives 0.5 z
        phi0 = blaschke(0.0)
        scaled = (-0.5, 0.0, 0.0, 1.0)
        assert quadruple_gap(composite(phi0, scaled)[0], (0.5, 0, 0, 1)) <= 1e-14

    def test_blaschke_composition(self):
        phi_p = blaschke(0.5)
        minus_phi_p = (1.0, -0.5, -0.5, 1.0)
        got, degenerate = composite(phi_p, minus_phi_p)
        expected = (-1.0, 0.8, -0.8, 1.0)
        assert not degenerate and quadruple_gap(got, expected) <= 1e-13

    def test_identity_neutral(self):
        m = (0.2 + 0.1j, 0.05, -0.04j, 1.0)
        assert quadruple_gap(composite(IDENTITY, m)[0], m) <= 1e-14
        assert quadruple_gap(composite(m, IDENTITY)[0], m) <= 1e-14

    def test_constant_propagation(self):
        # a constant v is (0, v, 0, 1): m o v is the constant m(v), and the
        # outer constant of two is the composite's value
        m = (0.5, 0.1, 0, 1)
        (a, b, c, d), degenerate = composite(m, (0, 0.2, 0, 1))
        assert degenerate and a == c == 0
        assert abs(b / d - (0.5 * 0.2 + 0.1)) < 1e-15
        (a, b, c, d), degenerate = composite((0, 0.3, 0, 1), (0, 0.1, 0, 1))
        assert degenerate and (a, b, c, d) == (0, 0.3, 0, 1)
        (a, b, c, d), degenerate = composite((0, 0.3, 0, 1), m)
        assert degenerate and b / d == 0.3

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(small_complex(1), small_complex(1), small_complex(1)),
        st.tuples(small_complex(1), small_complex(1), small_complex(1)),
        st.tuples(small_complex(1), small_complex(1), small_complex(1)),
    )
    def test_associativity(self, t1, t2, t3):
        maps = [(1.0 + a, b, c, 2.0) for a, b, c in (t1, t2, t3)]
        if any(is_degenerate(m) for m in maps):
            return
        maps = [np.array([canonical_quadruple(m)]) for m in maps]
        left = compose_stack(compose_stack(maps[0], maps[1])[0], maps[2])[0]
        right = compose_stack(maps[0], compose_stack(maps[1], maps[2])[0])[0]
        assert proj_distance(left, right)[0] < 1e-12


class TestFixedPoints:
    def test_scaling(self):
        pts = fixed_points((0.5, 0, 0, 1))
        assert 0.0 in [p for p in pts if not cmath.isinf(p)]
        assert any(cmath.isinf(p) for p in pts)

    def test_parabolic_double_root(self):
        a0 = (1 + 1j) / 2
        pts = fixed_points((1 - 2 * a0, a0, -a0, 1.0))
        assert len(pts) == 2
        assert abs(pts[0] - 1) < 1e-9 and abs(pts[1] - 1) < 1e-9

    def test_hyperbolic_pair(self):
        pts = sorted(fixed_points((3, 1, 1, 3)), key=lambda z: z.real)
        assert abs(pts[0] + 1) < 1e-12 and abs(pts[1] - 1) < 1e-12

    def test_identity_rejected(self):
        with pytest.raises(IdentityMapError):
            fixed_points(IDENTITY)

    @settings(max_examples=80, deadline=None)
    @given(small_complex(0.4), small_complex(0.35), small_complex(0.35))
    def test_fixed_points_are_fixed(self, a, b, c):
        m = (0.5 + a, b, c, 1.0)
        if is_degenerate(m):
            return
        m = canonical_quadruple(m)
        if not is_self_map(m) or quadruple_gap(m, IDENTITY) <= EQUAL_TOL:
            return
        for p in fixed_points(m):
            if cmath.isinf(p):
                continue
            # quadratic conditioning scales as |p|^2 for the exterior root
            # of a nearly-affine map, so the tolerance must follow
            assert abs(value(m, p) - p) <= 1e-10 * max(1.0, abs(p) ** 2)


class TestSelfMap:
    def test_identity(self):
        assert is_self_map(IDENTITY)

    def test_dilation_fails(self):
        assert not is_self_map((2, 0, 0, 1))

    def test_boundary_automorphism(self):
        assert is_self_map((3, 1, 1, 3))


def same_classification(one, two):
    """Equal classes and automorphism flags, Denjoy-Wolff data equal to rounding."""
    def close(z, w):
        return z is w is None or abs(z - w) <= 1e-12
    return (one.map_class, one.is_automorphism) == (two.map_class, two.is_automorphism) and \
        close(one.dw_point, two.dw_point) and close(one.dw_derivative, two.dw_derivative)


class TestClassify:
    def test_interior(self):
        cls = classify((0.5, 0, 0, 1))
        assert cls.map_class is MapClass.INTERIOR_FIXED_POINT
        assert abs(cls.dw_point) < 1e-14
        assert abs(cls.dw_derivative - 0.5) < 1e-14

    def test_hyperbolic_automorphism(self):
        cls = classify((3, 1, 1, 3))
        assert cls.map_class is MapClass.HYPERBOLIC_AUTOMORPHISM
        assert abs(cls.dw_point - 1) < 1e-12
        assert abs(cls.dw_derivative - 0.5) < 1e-12

    def test_parabolic_non_automorphism(self):
        cls = classify((0, 0.5, -0.5, 1))
        assert cls.map_class is MapClass.PARABOLIC_NON_AUTOMORPHISM
        assert abs(cls.dw_point - 1) < 1e-10
        assert abs(cls.dw_derivative - 1) < 1e-10
        assert not cls.is_automorphism

    def test_identity_and_constant(self):
        assert classify(IDENTITY).map_class is MapClass.IDENTITY
        assert classify((0, 0.3, 0, 1)).map_class is MapClass.CONSTANT

    def test_rejects_non_self_map(self):
        with pytest.raises(NotSelfMapError):
            classify((2, 0, 0, 1))

    @pytest.mark.parametrize("quad, value", [((0.5, 0.25, 2, 1), 0.25), ((0, 0.6j, 0, 2), 0.3j), ((0.2, 0, 1, 0), 0.2)])
    def test_degenerate_is_constant(self, quad, value):
        # any quadruple with ad - bc = 0 is the constant b/d, a/c where d = 0
        cls = classify(quad)
        assert (cls.map_class, cls.dw_derivative, cls.is_automorphism) == (MapClass.CONSTANT, 0, False)
        assert abs(cls.dw_point - value) <= 1e-15

    @pytest.mark.parametrize("quad", [(1, 2, 1, 2), (0, 1, 0, 0), (1, 0, 0, 0), (0, 3, 0, 2)])
    def test_degenerate_off_the_disk_refused(self, quad):
        with pytest.raises(NotSelfMapError, match="does not map the disk into itself"):
            classify(quad)

    @pytest.mark.parametrize("quad", [
        (3, 1, 1, 3), (0.5, 0, 0, 1), (0, 0.5, -0.5, 1), IDENTITY, (-1, 0.5, -0.5, 1), (0.3 - 0.2j, 0.1, 0.2j, 1),
        (0.5, 0.25, 2, 1), (0, 0.6j, 0, 2),
    ])
    def test_scale_invariant(self, quad):
        assert same_classification(classify(quad), classify([2j * x for x in quad]))

    @settings(max_examples=40, deadline=None)
    @given(disk_autos())
    def test_boundary_derivative_real_in_unit_interval(self, m):
        cls = classify(m)
        if cls.map_class in (
            MapClass.HYPERBOLIC_AUTOMORPHISM,
            MapClass.PARABOLIC_AUTOMORPHISM,
        ):
            d = cls.dw_derivative
            assert abs(d.imag) <= 1e-9
            assert 0 < d.real <= 1 + 1e-9


class TestCowenAdjoint:
    def test_identity(self):
        g, sigma, h = cowen(IDENTITY)
        assert quadruple_gap(sigma, IDENTITY) <= 1e-14
        assert rational(g, 0.3) == 1.0
        assert rational(h, 0.3) == 1.0

    def test_rotation_weighted_family_form(self):
        # phi = ((c1 - alpha c0^2) z + c0)/(1 - alpha c0 z)
        alpha, c0, c1 = cmath.exp(0.4j), 0.3 - 0.2j, 0.25 + 0.1j
        _, sigma, _ = cowen((c1 - alpha * c0 ** 2, c0, -alpha * c0, 1.0))
        expected = (np.conj(c1 - alpha * c0 ** 2), np.conj(alpha * c0), -np.conj(c0), 1.0)
        assert quadruple_gap(sigma, expected) < 1e-14

    def test_hyperbolic(self):
        _, sigma, _ = cowen((3, 1, 1, 3))
        assert quadruple_gap(sigma, (3, -1, -1, 3)) < 1e-14


def lft_normal(m):
    return lft_oracle(np.array([canonical_quadruple(m)]), SuiteConfig.pred_tol)[0]["normal"]


class TestNormalityLftCheck:
    def test_dilation(self):
        assert lft_normal((0.5, 0, 0, 1))

    def test_hyperbolic_automorphism(self):
        assert lft_normal((3, 1, 1, 3))

    def test_j_family_violation(self):
        a0, a1 = 0.5j, 0.5
        assert not lft_normal((a1 - a0 ** 2, a0, -a0, 1.0))

    def test_matrix_oracle_agreement_on_automorphisms(self):
        # commuting holds for every automorphism, and the truncation
        # oracle confirms at moderate gamma
        from wcosym.operators import normality_residual

        rng = np.random.default_rng(17)
        for _ in range(20):
            g = 0.5 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            th = rng.uniform(0, 2 * np.pi)
            m = (-np.exp(1j * th), np.exp(1j * th) * g, -np.conj(g), 1.0)
            assert lft_normal(m)
            _, sigma, _ = cowen(canonical_quadruple(m))
            s0 = sigma[1] / sigma[3]  # sigma(0)
            psi = (1.0, 0.0, 1.0, -np.conj(s0))
            res = normality_residual(build_wco(psi, m, 96), 12)
            assert res <= 1e-7


def test_automorphism_criterion_vs_boundary_equality():
    # equality in the self-map criterion alone is not sufficient
    m = (0, 0.5, -0.5, 1)
    assert is_self_map(m)
    assert not is_automorphism(m)


def test_canonical_normalization_pivot():
    m = canonical_quadruple((6, 2, 2, 6))
    assert m[0] == 1.0 and abs(m[1] - 1 / 3) < 1e-15
