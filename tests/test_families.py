import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcosym.errors import (
    BranchConditionError,
    DegenerateSymbolError,
    DiscriminantError,
    DomainViolationError,
    NotSelfMapError,
)
from wcosym.families import (
    C1Params,
    C2NormalCase,
    C2Params,
    HyperbolicParams,
    InteriorParams,
    JParams,
    c1_aut_forms,
    c1_normal_expression,
    c1_normal_locus,
    c1_normal_predicate,
    c1_parabolic_quadruples,
    c1_quadruples,
    c2_aut_forms,
    c2_interior_terms,
    c2_normal_predicate,
    c2_normality_terms,
    c2_parabolic_dw_point,
    c2_parabolic_predicate,
    c2_params_from_tuv,
    c2_quadruple,
    c2_quadruples,
    disk_form_quadruples,
    hyperbolic_aut_map,
    interior_closed_quadruples,
    interior_quadruples,
    j_aut_forms,
    j_normal_predicate,
    j_quadruples,
    parabolic_j_quadruples,
)
from wcosym.mobius import (
    IDENTITY,
    MapClass,
    classify,
    is_degenerate,
    is_self_map,
    proj_distance,
)

from conftest import first, gap, mobius, rational


NAN = float("nan")


def derivative(quad, z):
    """The derivative at z of the map (az + b) / (cz + d), quad = (a, b, c, d)."""
    a, b, c, d = quad
    return (a * d - b * c) / (c * z + d) ** 2


def first_row(forms):
    """Row 0 of an ``*_aut_forms`` result: (form name, beta, gamma)."""
    return tuple(x[0].item() for x in forms)


class TestJSymbols:
    def test_pure_rotation(self):
        psi, phi = first(*j_quadruples(0.0, 0.5, 1.0))
        assert gap(phi, (0.5, 0, 0, 1)) <= 1e-14
        assert psi[0] == 1 and psi[3] == 0

    def test_automorphism_member(self):
        name, beta, gamma = first_row(j_aut_forms(0.5, -0.75))
        assert name == "DiskForm"
        assert abs(gamma - 0.5) < 1e-12
        assert proj_distance(disk_form_quadruples(beta, gamma), j_quadruples(0.5, -0.75)[1])[0] < 1e-12

    def test_parabolic_member(self):
        # double fixed point at 1 requires a1 = (1 - a0)^2; the printed
        # relation a1 = a0 - 1 contradicts the displayed parabolic map
        # (see the decision ledger)
        a0 = (1 + 1j) / 2
        a1 = (1 - a0) ** 2
        phi = j_quadruples(a0, a1)[1]
        (cls,) = classify(phi)
        assert cls.map_class is MapClass.PARABOLIC_AUTOMORPHISM
        assert abs(cls.dw_point - 1) < 1e-9
        assert proj_distance(phi, parabolic_j_quadruples(a0, +1)[1])[0] <= 1e-12

    def test_domain_validation(self):
        with pytest.raises(DomainViolationError):
            JParams(1.2, 0.5)

    def test_nan_refused(self):
        with pytest.raises(DomainViolationError):
            JParams(NAN, 0.1)


class TestC1Symbols:
    @pytest.mark.parametrize("params", [(NAN, 0.1, 0.1), (1.0, NAN, 0.1)], ids=["alpha", "c0"])
    def test_nan_refused(self, params):
        with pytest.raises(DomainViolationError):
            C1Params(*params)

    def test_alpha_one_reduces_to_j(self):
        jpsi, jphi = j_quadruples(0.4, 0.3, 1.2)
        cpsi, cphi = c1_quadruples(1.0, 0.4, 0.3, 1.2)
        assert proj_distance(jphi, cphi)[0] < 1e-14
        assert np.array_equal(jpsi, cpsi)

    def test_automorphism_member(self):
        name, beta, gamma = first_row(c1_aut_forms(1.0, 0.5, -0.75))
        assert name == "DiskForm"
        assert abs(gamma - 0.5) < 1e-12
        assert abs(beta - 1.0) < 1e-12

    def test_parabolic_member(self):
        (cls,) = classify(c1_quadruples(1.0, 0.5, 0.25)[1])
        assert cls.map_class in (
            MapClass.PARABOLIC_AUTOMORPHISM,
            MapClass.PARABOLIC_NON_AUTOMORPHISM,
        )
        assert abs(cls.dw_point - 1.0) < 1e-9

    def test_zero_c1_is_constant(self):
        assert c1_quadruples(1j, 0.5, 0.0)[1].tolist() == [[0.0, 0.5, 0.0, 1.0]]
        phi = c1_quadruples(1j, 0.5, 0.0)[1][0]
        assert phi[0] == phi[2] == 0
        assert phi[1] / phi[3] == 0.5


class TestC2Symbols:
    def test_identity_member(self):
        params = C2Params.from_c0_squared(0.5, 0.72, 0.36, 0.36)
        psi, phi = first(*c2_quadruples(params))
        assert gap(phi, IDENTITY) <= 1e-12
        assert abs(rational(psi, 0.3) - 1.0) < 1e-12

    def test_automorphism_member(self):
        params = C2Params.from_c0_squared(0.5, 1.4, 1.0, 0.7)
        name, beta, gamma = first_row(c2_aut_forms(params))
        assert name == "DiskForm"
        assert abs(beta + 1.0) < 1e-12
        assert abs(gamma - 1 / 3) < 1e-12

    def test_moduli_equal_parameters_are_never_self_maps(self):
        # |c1-c2| = |conj(a)c0^2-c1| = |c0^2 - a c1| forces |phi(0)| = 1
        params = C2Params(0.5, 0.6, 0.36, 0.54)
        phi = c2_quadruples(params)[1]
        assert not is_self_map(phi)[0]
        assert abs(abs(phi[0, 1] / phi[0, 3]) - 1.0) < 1e-12

    def test_sqrt_sign_irrelevant(self):
        base = C2Params.from_c0_squared(0.4 + 0.1j, 0.5 - 0.2j, 0.3, 0.1)
        flipped = C2Params(base.alpha, -base.c0, base.c1, base.c2)
        psi1, phi1 = c2_quadruples(base)
        psi2, phi2 = c2_quadruples(flipped)
        assert proj_distance(phi1, phi2)[0] < 1e-14
        assert np.array_equal(psi1, psi2)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSymbolError):
            C2Params.from_c0_squared(0.5, 0.5 * 0.3, 0.3, 0.1)


class TestNormalInteriorSymbols:
    def test_origin(self):
        psi, phi = first(*interior_quadruples(0.0, 0.5, 1.0))
        assert gap(phi, (0.5, 0, 0, 1)) <= 1e-14
        assert abs(rational(psi, 0.2) - 1.0) < 1e-14

    def test_involution_case(self):
        phi = interior_quadruples(0.5, -1.0, 1.0)[1]
        assert proj_distance(phi, np.array([(-1, 0.8, -0.8, 1)]))[0] <= 1e-13

    def test_constant_branch(self):
        s, phi = first(*interior_quadruples(0.5, 0.0, 1.0))
        assert phi[0] == phi[2] == 0
        assert phi[1] / phi[3] == 0.5
        assert abs(rational(s, 0.0) - 0.75) < 1e-14 and abs(-s[3] / s[2] - 0.5) < 1e-14

    @pytest.mark.parametrize("params", [(NAN, 0.3), (0.2, NAN)], ids=["p", "delta"])
    def test_nan_refused(self, params):
        with pytest.raises(DomainViolationError):
            InteriorParams(*params)

    def test_closed_form_matches_composition(self):
        params = InteriorParams(0.3 - 0.2j, 0.4 + 0.5j, 0.7)
        closed = interior_closed_quadruples(params.p, params.delta)
        assert proj_distance(interior_quadruples(params.p, params.delta, params.gamma)[1], closed)[0] < 1e-13

    def test_weight_value_at_fixed_point(self):
        psi = interior_quadruples(0.4j, 0.3, 2.5)[0][0]
        assert abs(rational(psi, 0.4j) - 2.5) < 1e-12

    def test_domain_validated_by_interior_params(self):
        # the constructor refuses what InteriorParams refuses, also inside an array
        for p, delta in [(1.0, 0.5), (np.array([0.2, 1.1j]), 0.5), (0.2, 1.01), (0.2, np.array([0.3, -1.2]))]:
            with pytest.raises(DomainViolationError):
                InteriorParams(p, delta)
            with pytest.raises(DomainViolationError):
                interior_quadruples(p, delta)


class TestNormalPredicates:
    def test_c1_normal_locus_is_a_line_of_solutions(self):
        # base + x kernel solves the rotation-weighted normality condition
        # for every real x; base is the minimum-norm solution (orthogonal to
        # the unit kernel vector), which the 2 x 2 least-squares solve gives
        rng = np.random.default_rng(51)
        alpha = np.exp(2j * np.pi * rng.uniform(size=200))
        c0 = np.sqrt(rng.uniform(0.05 ** 2, 0.52 ** 2, 200)) * np.exp(2j * np.pi * rng.uniform(size=200))
        base, kernel = c1_normal_locus(alpha, c0)
        assert np.allclose(abs(kernel), 1.0, rtol=0, atol=1e-15)
        assert np.max(abs((base * kernel.conjugate()).real)) <= 1e-15
        for x in (-0.4, 0.0, 0.3):
            assert np.max(abs(c1_normal_expression(alpha, c0, base + x * kernel))) <= 1e-15
        for al, z, b in zip(alpha[:20], c0[:20], base[:20]):
            p, q, k = al * z, z.conjugate(), -(z.conjugate() - al * z) * (1 - abs(z) ** 2)
            mat = np.array([[p.real - q.real, p.imag + q.imag], [p.imag - q.imag, -(p.real + q.real)]])
            sol = np.linalg.lstsq(mat, np.array([k.real, k.imag]), rcond=None)[0]
            assert abs(complex(*sol) - b) <= 1e-15

    def test_j_real_parameters(self):
        assert j_normal_predicate(0.3, 0.2)

    def test_j_balanced_imaginary(self):
        assert j_normal_predicate(0.5j, 0.75)

    def test_j_unbalanced(self):
        assert not j_normal_predicate(0.5j, 0.5)

    def test_c1_real(self):
        assert c1_normal_predicate(1.0, 0.3, 0.5)

    def test_c1_rotated_alpha(self):
        assert not c1_normal_predicate(1j, 0.3, 0.5)
        expr = c1_normal_expression(1j, 0.3, 0.5)
        assert abs(expr - (0.123 - 0.123j)) < 1e-12

    def test_c1_negative_alpha(self):
        assert c1_normal_predicate(-1.0, 0.5, 0.75)


class TestC2NormalityTerms:
    def test_real_inputs_real_terms(self):
        terms = c2_normality_terms(C2Params(0.5, 0.6, 0.36, 0.18))
        prod = (np.conj(terms.a) - np.conj(terms.c)) * (terms.a_tilde + terms.c_tilde)
        assert abs(prod.imag) < 1e-15

    def test_worked_values(self):
        terms = c2_normality_terms(C2Params(0.5, 0.6, 0.36, 0.54))
        assert abs(terms.d - 0.2025) < 1e-12
        assert abs(terms.b - 0.0081) < 1e-12
        assert terms.d != terms.b

    def test_identity_case_vanishing(self):
        terms = c2_normality_terms(C2Params.from_c0_squared(0.5, 0.72, 0.36, 0.36))
        assert abs(terms.c) < 1e-15
        assert abs(terms.a_tilde) < 1e-15
        assert terms.b < 1e-15


class TestC2NormalPredicate:
    def test_case_i(self):
        assert c2_normal_predicate(C2Params(0.5, 0.6, 0.36, 0.54)) is C2NormalCase.CASE_I

    def test_case_ii(self):
        assert c2_normal_predicate(C2Params(0.5, 0.6, 0.36, 0.18)) is C2NormalCase.CASE_II

    def test_identity_case_rejected(self):
        # the identity operator is normal, yet the stated conditions
        # reject it: the documented discrepancy
        params = C2Params.from_c0_squared(0.5, 0.72, 0.36, 0.36)
        assert c2_normal_predicate(params) is C2NormalCase.NOT_NORMAL
        t, u, v, w = c2_quadruple(params)
        assert abs(t) < 1e-15 and abs(u) < 1e-15
        assert abs(abs(v) - 0.36 * (1 - 0.25) / 0.5) < 1e-12

    def test_case_i_implies_commuting_terms_match(self):
        # |c1 - c2| = |conj(a) c0^2 - c1| already forces A - C = At + Ct
        terms = c2_normality_terms(C2Params(0.5, 0.6, 0.36, 0.54))
        assert abs((terms.a - terms.c) - (terms.a_tilde + terms.c_tilde)) < 1e-14


class TestAutForms:
    def test_j_rotation_flag(self):
        name, beta, _ = first_row(j_aut_forms(0.0, 0.3))
        assert name == "RotationForm"
        assert beta == 0.3 and abs(beta) < 1  # the rotation factor sits inside the disk

    def test_j_gamma_outside(self):
        assert first_row(j_aut_forms(0.5, 0.5))[0] == "NoneType"

    def test_c1_rotation(self):
        name, beta, _ = first_row(c1_aut_forms(1.0, 0.0, 0.3))
        assert name == "RotationForm" and abs(beta) < 1

    def test_c1_rebuild_failure(self):
        assert first_row(c1_aut_forms(1j, 0.5, 0.25))[0] == "NoneType"

    def test_c2_case_i_not_automorphism(self):
        assert first_row(c2_aut_forms(C2Params(0.5, 0.6, 0.36, 0.54)))[0] == "NoneType"

    def test_c2_identity(self):
        assert first_row(c2_aut_forms(C2Params.from_c0_squared(0.5, 0.72, 0.36, 0.36)))[0] == "IdentityForm"

    @settings(max_examples=40, deadline=None)
    @given(
        st.complex_numbers(min_magnitude=0.05, max_magnitude=0.85, allow_nan=False),
    )
    def test_j_disk_round_trip(self, g):
        a0 = np.conj(g)
        a1 = np.conj(g) * (abs(g) ** 2 - 1.0) / g
        name, beta, gamma = first_row(j_aut_forms(a0, a1))
        assert name == "DiskForm"
        assert abs(gamma - g) <= 1e-9
        assert proj_distance(disk_form_quadruples(beta, gamma), j_quadruples(a0, a1)[1])[0] <= 1e-12


DISK = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(DISK, DISK, st.booleans()), min_size=1, max_size=5),
       st.complex_numbers(min_magnitude=0.05, max_magnitude=0.9, allow_nan=False, allow_infinity=False))
def test_constructors_write_each_degenerate_row_as_its_constant(draws, alpha):
    # rows made degenerate (c1 = 0, delta = 0, W V = alpha U T) among generic
    # ones: each constructor writes every row that is_degenerate marks as
    # (0, v, 0, 1), v the constant read off the quadruple, and makes every
    # other row canonical
    z, w, degenerate = (np.array(column) for column in zip(*draws))
    v = 0.5 + 0.4 * z  # C2: V, bounded away from 0; U from the degeneracy relation where forced
    u = np.where(degenerate, v * (alpha.conjugate() * v - w) / (v - alpha * w), z + w)
    params = c2_params_from_tuv(alpha, w, u, v)
    zero_where_forced = np.where(degenerate, 0.0, w)
    cases = {
        "c1": (c1_quadruples(alpha / abs(alpha), z, zero_where_forced)[1], z),
        "interior": (interior_quadruples(z, zero_where_forced)[1], z),
        "interior-closed": (interior_closed_quadruples(z, zero_where_forced), z),
        "c2": (c2_quadruples(params)[1], alpha * u / (alpha.conjugate() * v)),
    }
    for name, (maps, value) in cases.items():
        marked = is_degenerate(maps)
        assert marked[degenerate].all(), name
        constants = maps[marked]
        assert (constants[:, [0, 2, 3]] == (0, 0, 1)).all(), name
        assert np.allclose(constants[:, 1], value[marked], rtol=1e-12, atol=1e-12), name
        assert np.allclose(abs(maps[~marked]).max(axis=1), 1.0), name


class TestParabolicConstructors:
    def test_j_branch_plus(self):
        a0 = (1 + 1j) / 2
        phi = parabolic_j_quadruples(a0, +1)[1][0]
        assert abs(mobius(phi, 1.0) - 1.0) < 1e-14
        assert abs(derivative(phi, 1.0) - 1.0) < 1e-14

    def test_j_branch_minus(self):
        a0 = (1 - 1j) / 2
        phi = parabolic_j_quadruples(a0, -1)[1][0]
        assert abs(mobius(phi, -1.0) + 1.0) < 1e-13
        assert abs(derivative(phi, -1.0) - 1.0) < 1e-13

    def test_j_branch_violation(self):
        with pytest.raises(BranchConditionError):
            parabolic_j_quadruples(0.3, +1)

    def test_c1_worked_instance(self):
        phi = c1_parabolic_quadruples(1.0, 0.5, 0.25)[1]
        assert gap(phi[0], (0, 0.5, -0.5, 1)) < 1e-13
        (cls,) = classify(phi)
        assert cls.map_class is MapClass.PARABOLIC_NON_AUTOMORPHISM
        assert abs(cls.dw_derivative - 1.0) < 1e-10
        # the rotated weight satisfies the rotation-weighted normality
        # condition automatically on the discriminant locus
        assert abs(c1_normal_expression(1.0, 0.5, 0.25)) < 1e-14

    def test_c1_discriminant_violation(self):
        with pytest.raises(DiscriminantError):
            c1_parabolic_quadruples(1.0, 0.5, 0.3)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(0, 2 * cmath.pi),
        st.complex_numbers(max_magnitude=0.4, allow_nan=False),
    )
    def test_c1_parabolic_classifies(self, th, dw):
        zeta = cmath.exp(1j * th)
        w = 0.5 + 0.45 * dw / 0.4 if dw != 0 else 0.5
        c0 = zeta * w
        c1 = (1 - w) ** 2
        (cls,) = classify(c1_parabolic_quadruples(zeta, c0, c1)[1])
        assert cls.map_class in (
            MapClass.PARABOLIC_AUTOMORPHISM,
            MapClass.PARABOLIC_NON_AUTOMORPHISM,
        )
        assert abs(cls.dw_point - zeta) <= 1e-8
        assert abs(cls.dw_derivative - 1.0) <= 1e-10


class TestHyperbolicAutMap:
    def test_standard_automorphism(self):
        m = hyperbolic_aut_map(HyperbolicParams(2.0, 0.0))
        assert gap(m[0], (3, 1, 1, 3)) < 1e-14
        (cls,) = classify(m)
        assert cls.map_class is MapClass.HYPERBOLIC_AUTOMORPHISM
        assert abs(cls.dw_derivative - 0.5) < 1e-12

    def test_damped_variant_is_self_map(self):
        m = hyperbolic_aut_map(HyperbolicParams(2.0, 1.0))
        assert gap(m[0], (1, 1, 0, 2)) < 1e-14
        (cls,) = classify(m)
        assert cls.map_class is MapClass.HYPERBOLIC_NON_AUTOMORPHISM
        assert abs(cls.dw_point - 1.0) < 1e-12

    def test_derivative_scaling(self):
        (cls,) = classify(hyperbolic_aut_map(HyperbolicParams(1.5, 0.0)))
        assert abs(cls.dw_derivative - 2 / 3) < 1e-12

    def test_negative_real_part_rejected(self):
        with pytest.raises(NotSelfMapError):
            hyperbolic_aut_map(HyperbolicParams(2.0, -0.5))

    def test_domain(self):
        with pytest.raises(DomainViolationError):
            HyperbolicParams(0.9, 0.0)

    @pytest.mark.parametrize(
        "r", [1.0, NAN, np.array([1.5, 1.0]), np.array([NAN, 2.0])], ids=["one", "nan", "array-one", "array-nan"]
    )
    def test_r_at_most_one_or_nan_refused(self, r):
        with pytest.raises(DomainViolationError, match="r must exceed 1"):
            HyperbolicParams(r, 0.0)

    def test_arrays_give_a_stack(self):
        # each row is the map of its own parameters
        r, t = np.array([1.2, 1.5]), np.array([0, 0.3j])
        maps = hyperbolic_aut_map(HyperbolicParams(r, t))
        assert maps.shape == (2, 4)
        for i in range(2):
            assert np.array_equal(maps[i:i + 1], hyperbolic_aut_map(HyperbolicParams(r[i], t[i])))

    def test_stack_refusal_names_its_first_non_self_map(self):
        with pytest.raises(NotSelfMapError, match=r"^\(r, t\) = \(1.5, \(-0.5\+0j\)\)"):
            hyperbolic_aut_map(HyperbolicParams(np.array([2.0, 1.5, 3.0]), np.array([0.1, -0.5, -1.0])))


class TestC2Parabolic:
    @staticmethod
    def _construct(alpha, sign, c1, t):
        amod = abs(alpha)
        rho = (2 * amod ** 2 - 1) + 2j * sign * amod * np.sqrt(1 - amod ** 2)
        return C2Params.from_c0_squared(alpha, (c1 + rho * t) / np.conj(alpha), c1, c1 - t)

    def test_construct_then_check(self):
        params = self._construct(0.4 + 0.2j, 1, 1.0 + 0.3j, 0.04 - 0.02j)
        assert c2_parabolic_predicate(params)
        zeta = c2_parabolic_dw_point(params)
        assert abs(abs(zeta) - 1.0) < 1e-10
        (cls,) = classify(c2_quadruples(params)[1])
        assert cls.map_class in (
            MapClass.PARABOLIC_AUTOMORPHISM,
            MapClass.PARABOLIC_NON_AUTOMORPHISM,
        )
        assert abs(cls.dw_point - zeta) < 1e-8

    def test_degenerate(self):
        with pytest.raises(DegenerateSymbolError):
            c2_parabolic_predicate(C2Params(0.5, 0.7, 0.3, 0.3))

    def test_elliptic_instance_is_not_parabolic(self):
        assert not c2_parabolic_predicate(C2Params(0.5, 0.6, 0.36, 0.54))


class TestC2InteriorTerms:
    def test_i3(self):
        terms = c2_interior_terms(0.5, 0.5, 0.5)
        assert abs(terms.i3 - 3.5) < 1e-14

    def test_i1(self):
        terms = c2_interior_terms(0.5, 0.5, -1.0)
        assert abs(terms.i1 - 0.625) < 1e-14

    def test_i2_i3_product(self):
        alpha = 0.3 + 0.4j
        terms = c2_interior_terms(alpha, 0.4, 0.2 + 0.1j)
        assert abs(terms.i2 * terms.i3 - np.conj(alpha) / alpha) < 1e-14

    def test_delta_one_rejected(self):
        with pytest.raises(DomainViolationError):
            c2_interior_terms(0.5, 0.5, 1.0)

    def test_zero_p_rejected(self):
        with pytest.raises(DomainViolationError):
            c2_interior_terms(0.5, 0.0, 0.5)
