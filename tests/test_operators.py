import ast
import collections
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcosym import families as fam
from wcosym.errors import (
    BadParameterDomainError,
    BlockTooLargeError,
    DegenerateMapError,
    NotSelfMapError,
    PoleAtOriginError,
    SymbolPoleError,
    WcoError,
)
from wcosym import operators, verify
from wcosym.mobius import IDENTITY, MapClass, classify, is_degenerate, is_self_map, read_maps
from wcosym.operators import (
    MAX_DIM,
    _TILE,
    Conjugation,
    _double,
    _filled,
    _gram,
    _mobius_recurrence,
    _prepare,
    _rectangle,
    _row_step,
    _runs,
    _strip_parts,
    adjoint_factorization_stack,
    conjugation_matrix,
    conjugation_residual_stack,
    involution_residual,
    wco_residual_stack,
)
from wcosym.series import poles, quotient_series

from conftest import (
    convolution_columns,
    cowen,
    first,
    mobius,
    normality_defect,
    phi_series,
    psi_series,
    rational,
    symmetry_defect,
)

ONE = (1.0, 0, 1, 0)  # the weight 1


def stacks(psi, phi):
    """A weight and a map as the (1, 4) coefficient stacks the seams take."""
    return np.array([psi], dtype=complex), np.array([phi], dtype=complex)


def conjugations(c):
    """A conjugation as the kind and the lam / alpha arrays the seams take."""
    return {"kind": c.kind, "lam": np.array([c.lam]), "alpha": np.array([c.alpha])}


ALL = slice(None)  # the one chunk of a stack of one draw


def fill(run, n):
    """The first n rows of a run (head, start, step) of operators._runs of a
    stack of one draw, filled by operators._double: the rows that the Gram
    kernel sums."""
    head, start, step = run
    rows = np.empty((1, n, head.shape[-1]), dtype=complex)
    rows[:, 0], rows[:, 1] = head, start
    _double(rows[:, 1:], step)
    return rows[0]


def cross(psi, phi, n, k):
    """The first k rows and the first k columns of W of a stack of one
    draw, filled from the runs the seams sum (operators._runs)."""
    rows, strip = _runs(_prepare(*stacks(psi, phi), k), ALL)
    return fill(rows, n).T, fill(strip, n)[:, :k]


def block(psi, phi, n, k):
    """The leading k x k block, operators._rectangle at k columns, of a
    stack of one draw: the k-truncation, whatever n."""
    rows, _ = _prepare(*stacks(psi, phi), k, strip=False)
    return _rectangle(rows, ALL, k)[0]


def row_step(psi, phi, k):
    """operators._row_step of a stack of one draw, from its _strip_parts."""
    psi_q, phi_q = stacks(psi, phi)
    return _row_step(*_strip_parts(psi_q, quotient_series(psi_q, 3), phi_q, k)[2:])[0]


def one_draw(psi, phi, n, k, conj=None, normality=True):
    """operators.wco_residual_stack of a stack of one draw."""
    kind = {} if conj is None else conjugations(conj)
    return {key: r[0] for key, r in wco_residual_stack(*stacks(psi, phi), n, k, normality=normality, **kind).items()}


def one_conjugation(c, n, k):
    """operators.conjugation_residual_stack of a stack of one conjugation."""
    inv, iso = conjugation_residual_stack(*conjugations(c).values(), n, k)
    return inv[0], iso[0]


def one_factorization(m, n, k, sigma_sign=-1):
    """operators.adjoint_factorization_stack of a stack of one map, at one sign."""
    correct, flipped = adjoint_factorization_stack(np.array([m], dtype=complex), n, k)
    return (correct if sigma_sign == -1 else flipped)[0]


def whole(psi, phi, n):
    """All of W of the n-truncation by the Mobius recurrence that
    conjugation_matrix runs, which TestTileWavefront checks against the
    convolution reference; it refuses nothing."""
    return _mobius_recurrence(psi_series(psi, n), np.array(phi, dtype=complex))


def j_family(a0, a1, b=1.0):
    psi = (b, 0, 1, -a0)
    phi = (a1 - a0 ** 2, a0, -a0, 1.0)
    return psi, phi


class TestBuildWco:
    """Closed forms of W, of the recurrence and of the seams, and the
    seams' refusals.  (The class name is historical: it is kept so that
    its test ids stay comparable.)"""

    def test_identity_operator(self):
        t = whole(ONE, IDENTITY, 8)
        assert np.allclose(t, np.eye(8))

    def test_diagonal_family(self):
        t = whole((0.7, 0, 1, 0), (0.5, 0, 0, 1), 6)
        assert np.allclose(t, np.diag(0.7 * 0.5 ** np.arange(6)))

    def test_kernel_weight_toeplitz(self):
        n = 8
        t = whole((1, 0, 1, -0.5), IDENTITY, n)
        for j in range(n):
            col = t[:, j]
            assert np.allclose(col[:j], 0)
            assert np.allclose(col[j:], 0.5 ** np.arange(n - j))

    def test_constant_map_columns(self):
        t = whole((0.75, 0, 1, -0.5), (0, 0.5, 0, 1), 5)
        psi = 0.75 * 0.5 ** np.arange(5)
        for j in range(5):
            assert np.allclose(t[:, j], psi * 0.5 ** j)

    def test_pole_guard(self):
        with pytest.raises(SymbolPoleError):
            one_draw((1, 0, 1, -1.0), IDENTITY, 48, 16)

    def test_self_map_guard(self):
        with pytest.raises(NotSelfMapError):
            one_draw(ONE, (2, 0, 0, 1), 48, 16)

    # the id is the one this case had beside two other degenerate maps
    @pytest.mark.parametrize("phi", [pytest.param((0, 0, 0, 0), id="phi2")])
    def test_degenerate_map_guard(self, phi):
        # the zero quadruple is refused as classify refuses it
        with pytest.raises(DegenerateMapError, match="^all coefficients vanish$"):
            one_draw(ONE, phi, 48, 16)

    def test_constant_off_the_disk_refused_as_classify_refuses_it(self):
        # (1, 2, 1, 2) has ad - bc = 0: the constant 1, which no seam takes
        with pytest.raises(NotSelfMapError) as by_classify:
            classify(np.array([(1, 2, 1, 2)], dtype=complex))
        for seam in (lambda: one_draw(ONE, (1, 2, 1, 2), 48, 16), lambda: one_factorization((1, 2, 1, 2), 48, 16)):
            with pytest.raises(NotSelfMapError) as by_seam:
                seam()
            assert str(by_seam.value) == str(by_classify.value) == "the constant (1+0j) does not map the disk into itself"

    def test_degenerate_map_read_as_its_constant(self):
        # (0.5, 0.25, 2, 1) has ad - bc = 0: the constant 0.25, bit for bit
        for conj in (None, Conjugation("J"), Conjugation("C1", 1j, -1), Conjugation("C2", 1.0, 0.3 + 0.2j)):
            assert one_draw(ONE, (0.5, 0.25, 2, 1), 48, 16, conj) == one_draw(ONE, (0, 0.25, 0, 1), 48, 16, conj)
        for sign in (-1, 1):
            assert one_factorization((0.5, 0.25, 2, 1), 48, 16, sign) == one_factorization((0, 0.25, 0, 1), 48, 16, sign)

    @pytest.mark.parametrize("n", [0, 1025])
    def test_dimension_cap(self, n):
        with pytest.raises(ValueError):
            one_draw(ONE, IDENTITY, n, 16)
        with pytest.raises(ValueError):
            one_factorization(IDENTITY, n, 16)
        for c in (Conjugation("J"), Conjugation("C1", 1.0, 1j), Conjugation("C2", 1.0, 0.3)):
            with pytest.raises(ValueError):
                conjugation_matrix(c, n)

    def test_intertwining_sample_check(self):
        psi = (1.2, 0.3, 1, -0.4)
        phi = (0.3, 0.25, -0.1, 1.0)
        _, t = cross(psi, phi, 96, 16)  # the strip the seams build
        z = 0.2
        powers = z ** np.arange(96)
        for j in (0, 1, 3, 7):
            col_val = np.dot(t[:, j], powers)
            assert abs(col_val - rational(psi, z) * mobius(phi, z) ** j) <= 1e-10


def test_constant_maps_are_read_in_one_place():
    # the kernels read phi only as its coefficients (a, b, c, d), a constant
    # map v as (0, v, 0, 1): no operators or families code tests for a type
    # or a degeneracy, or computes a constant's value; the seams and the
    # family constructors read a map stack with mobius.read_maps alone
    found = collections.Counter()
    for module in (operators, fam):
        for top in ast.parse(pathlib.Path(module.__file__).read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in (
                        "isinstance", "is_degenerate", "constant_value", "read_maps"):
                    found[getattr(top, "name", "<module>"), node.func.id] += 1
    assert found == {("_checked_series", "read_maps"): 1, ("adjoint_factorization_stack", "read_maps"): 1,
                     ("_maps", "read_maps"): 1}
    (cls,) = classify(np.array([(0, 0.3 - 0.4j, 0, 1)]))
    assert (cls.map_class, cls.dw_point) == (MapClass.CONSTANT, 0.3 - 0.4j)


COEFFICIENT = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
SCALE = st.floats(1e-3, 1e3)
# s (a, b, c, 1), full rank but for measure zero, and the scaled rank-one
# matrix s u v^T, the constant u0 / u1
FULL_RANK = st.builds(lambda a, b, c, s: (s * a, s * b, s * c, s), COEFFICIENT, COEFFICIENT, COEFFICIENT, SCALE)
RANK_ONE = st.builds(lambda u0, u1, v0, v1, s: (s * u0 * v0, s * u0 * v1, s * u1 * v0, s * u1 * v1),
                     COEFFICIENT, COEFFICIENT, COEFFICIENT, COEFFICIENT, SCALE)


def refusal(call):
    """None, or the type and the message of the refusal that call raises."""
    try:
        call()
    except WcoError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(FULL_RANK, RANK_ONE), min_size=1, max_size=5))
def test_seams_refuse_what_classify_refuses(rows):
    # each row alone, then the whole stack: the seams take a stack iff
    # classify does, and refuse it with classify's refusal
    maps = np.array(rows, dtype=complex)
    weights = np.tile(np.array([ONE], dtype=complex), (len(maps), 1))
    for quads in [maps[i:i + 1] for i in range(len(maps))] + [maps]:
        expected = refusal(lambda: classify(quads))
        assert refusal(lambda: wco_residual_stack(weights[:len(quads)], quads, 48, 16)) == expected
        assert refusal(lambda: adjoint_factorization_stack(quads, 48, 16)) == expected


# (weight, map) pairs across the decay regimes the suites draw from
BUILD_PATH_CASES = {
    "prop21-fast-decay": first(*fam.interior_quadruples(0.1 - 0.05j, 0.2j, 1.3)),
    "disk-automorphism": ((1.0, 0.2, 1, -0.3), fam.disk_form_quadruples(np.exp(0.4j), 0.5 + 0.2j)[0]),
    "multiplication": ((0.8, 0.3, 1, -0.6j), IDENTITY),
    "pole-near-circle": ((1.0, 0.0, 1, -0.99), (0.3, 0.25, -0.1, 1.0)),
}


def c2_symbols(c):
    """The (weight, map) pair conjugation_matrix builds for a C2 conjugation."""
    a = c.alpha
    weight = (c.lam * np.sqrt(1.0 - abs(a) ** 2), 0.0, 1.0, -np.conj(a))
    return weight, (-np.conj(a) / a, np.conj(a), -np.conj(a), 1.0)


C2_SLOW_DECAY = Conjugation("C2", np.exp(0.3j), 0.95 * np.exp(1.1j))


class TestBuildPaths:
    """A whole W is the Mobius recurrence at every N; it must agree with
    the convolution reference to rounding, and the leading block of a
    large build with the small build.  The seams refuse what a build of W
    cannot take."""

    N_SMALL, N_LARGE = 96, 192

    # N = 1, sizes that are not powers of two, and sizes that are not
    # multiples of the tile side
    @pytest.mark.parametrize("n", [1, 2, 3, 48, 64, 95, 191])
    def test_doubling_matches_convolutions(self, n):
        pairs = [pair for _, pair in sorted(BUILD_PATH_CASES.items())] + [(ONE, IDENTITY)]
        for psi, phi in pairs:
            reference = convolution_columns(psi_series(psi, n), phi, n)
            got = whole(psi, phi, n)
            assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))
        weight, vmap = c2_symbols(C2_SLOW_DECAY)
        reference = convolution_columns(psi_series(weight, n), vmap, n)
        got = conjugation_matrix(C2_SLOW_DECAY, n)
        assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("case", sorted(BUILD_PATH_CASES))
    def test_leading_block_agrees(self, case):
        psi, phi = BUILD_PATH_CASES[case]
        small = whole(psi, phi, self.N_SMALL)
        large = whole(psi, phi, self.N_LARGE)
        k = self.N_SMALL
        assert np.max(np.abs(large[:k, :k] - small)) <= 1e-13 * np.max(np.abs(small))
        reference = convolution_columns(psi_series(psi, self.N_LARGE), phi, self.N_LARGE)
        assert np.max(np.abs(large - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_c2_kernel_map_agrees(self):
        small = conjugation_matrix(C2_SLOW_DECAY, self.N_SMALL)
        large = conjugation_matrix(C2_SLOW_DECAY, self.N_LARGE)
        k = self.N_SMALL
        assert np.max(np.abs(large[:k, :k] - small)) <= 1e-13 * np.max(np.abs(small))

    def test_build_refusals(self):
        n = 192
        # a denominator vanishing at 0 has its pole at the origin
        with pytest.raises(PoleAtOriginError):
            one_draw((1.0, 0.0, 1e-15, 0.0), IDENTITY, n, 12)
        with pytest.raises(NotSelfMapError):
            one_draw(ONE, (2, 0, 0, 1), n, 12)
        with pytest.raises(SymbolPoleError):
            one_draw((1, 0, 1, -1.0), IDENTITY, n, 12)
        with pytest.raises(ValueError):
            one_draw(ONE, IDENTITY, MAX_DIM + 1, 12)
        # an infinite denominator coefficient expands to finite zeros, so only
        # the finiteness check refuses it
        for psi, phi in (((1, 0, 1, np.inf), IDENTITY), (ONE, (0.5, 0, 0.1, np.inf))):
            with pytest.raises(ValueError, match="finite"):
                one_draw(psi, phi, n, 12)


# small and large dimensions, sizes that are not powers of two
LEADING_DIMS = [48, 64, 95, 191, 192, 384]


def build_cases():
    """Every BUILD_PATH_CASES pair, a constant map and the slow-decay C2 conjugation."""
    pairs = dict(sorted(BUILD_PATH_CASES.items()))
    pairs["constant-map"] = ((0.75, 0.1, 1, -0.5), (0, 0.6 - 0.3j, 0, 1))
    pairs["c2-slow-decay"] = c2_symbols(C2_SLOW_DECAY)
    return pairs


class TestLeadingBuilds:
    """The cross (first k rows and columns) and the block of W must be the
    slices of the whole truncation, and every seam must refuse the same
    inputs."""

    @pytest.mark.parametrize("n", LEADING_DIMS)
    def test_cross_and_block_match_convolutions(self, n):
        for name, (psi, phi) in build_cases().items():
            reference = convolution_columns(psi_series(psi, n), phi, n)
            scale = np.max(np.abs(reference))
            for k in (1, 12, 16):
                rows, cols = cross(psi, phi, n, k)
                assert rows.shape == (k, n) and cols.shape == (n, k), name
                assert np.max(np.abs(rows - reference[:k])) <= 1e-13 * scale, (name, k)
                assert np.max(np.abs(cols - reference[:, :k])) <= 1e-13 * scale, (name, k)
                leading = block(psi, phi, n, k)
                assert np.max(np.abs(leading - reference[:k, :k])) <= 1e-13 * scale, (name, k)
            assert np.max(np.abs(whole(psi, phi, n) - reference)) <= 1e-13 * scale, name

    @pytest.mark.parametrize("n", [64, 192])
    def test_refusals(self, n):
        # every builder refuses the same symbols; a truncation (N, k) is
        # refused before any draw by the seams alone (check_truncation), so
        # the cross and the block, which _prepare makes past it, never see one
        seams = {
            "normality": one_draw,
            "j-symmetry": lambda psi, phi, n, k: one_draw(psi, phi, n, k, Conjugation("J"), False),
            "c2-symmetry": lambda psi, phi, n, k: one_draw(psi, phi, n, k, C2_SLOW_DECAY, False),
        }
        for build in (cross, block, *seams.values()):
            with pytest.raises(PoleAtOriginError):
                build((1.0, 0.0, 1e-15, 0.0), IDENTITY, n, 12)
            with pytest.raises(NotSelfMapError):
                build(ONE, (2, 0, 0, 1), n, 12)
            with pytest.raises(NotSelfMapError):
                build(ONE, (0, 1.0, 0, 1), n, 12)
            with pytest.raises(SymbolPoleError):
                build((1, 0, 1, -1.0), IDENTITY, n, 12)
        for build in seams.values():
            for dim in (0, MAX_DIM + 1):
                with pytest.raises(ValueError):
                    build(ONE, IDENTITY, dim, 12)
            for k in (0, n - 31):
                with pytest.raises(BlockTooLargeError):
                    build(ONE, IDENTITY, n, k)
        for c in (Conjugation("J"), Conjugation("C1", 1.0, 1j), C2_SLOW_DECAY):
            with pytest.raises(ValueError):
                one_conjugation(c, MAX_DIM + 1, 12)
            with pytest.raises(BlockTooLargeError):
                one_conjugation(c, n, n - 31)


def strip_cases():
    """build_cases() and C2 conjugations from fast to slow decay."""
    pairs = build_cases()
    for modulus in (0.3, 0.9, 0.99):
        pairs[f"c2-{modulus}"] = c2_symbols(Conjugation("C2", np.exp(0.3j), modulus * np.exp(1.1j)))
    return pairs


def refuse(*args, **kwargs):
    raise AssertionError("refused builder reached")


class TestFftDoubling:
    """The one doubling kernel, operators._double, builds every part of W a
    seam reads: the first k columns (the strip) by the row recurrence, the
    first k rows and the block by the Toeplitz step of phi.  They must match
    the convolution reference to 1e-13 max|T|; none of them reaches the tile
    recurrence or numpy.fft, no doubling steps with a matrix wider than
    k + 1, and a whole W is always the tile recurrence.  (The class name is
    historical: it is kept so that its 19 test ids stay comparable.)"""

    @pytest.mark.parametrize("n", [48, 96, 191, 192, 193, 384, 389, MAX_DIM])
    def test_strip_matches_convolutions(self, n):
        for name, (psi, phi) in strip_cases().items():
            psi_s = psi_series(psi, n)
            for k in (1, 2, 12, 16):
                reference = convolution_columns(psi_s, phi, n, k)
                rows_reference = convolution_columns(psi_s[:k], phi, k, n)
                scale = max(np.max(np.abs(reference)), np.max(np.abs(rows_reference)))
                rows, cols = cross(psi, phi, n, k)
                assert cols.shape == (n, k) and rows.shape == (k, n), (name, k)
                assert np.max(np.abs(cols - reference)) <= 1e-13 * scale, (name, k)
                assert np.max(np.abs(rows - rows_reference)) <= 1e-13 * scale, (name, k)
                leading = block(psi, phi, n, k)
                assert np.max(np.abs(leading - reference[:k])) <= 1e-13 * scale, (name, k)

    def test_large_block_matches_convolutions(self):
        n, k = 448, 400
        for name, (psi, phi) in build_cases().items():
            reference = convolution_columns(psi_series(psi, n), phi, n)
            scale = np.max(np.abs(reference))
            leading = block(psi, phi, n, k)
            assert np.max(np.abs(leading - reference[:k, :k])) <= 1e-13 * scale, name
            rows, cols = cross(psi, phi, n, k)
            assert np.max(np.abs(rows - reference[:k])) <= 1e-13 * scale, name
            assert np.max(np.abs(cols - reference[:, :k])) <= 1e-13 * scale, name

    @pytest.mark.parametrize("n", [48, 192, 384, MAX_DIM])
    def test_strip_never_reaches_the_recurrence(self, n, monkeypatch):
        monkeypatch.setattr(operators, "_mobius_recurrence", refuse)
        for psi, phi in build_cases().values():
            cross(psi, phi, n, 16)
            block(psi, phi, n, 16)
            one_draw(psi, phi, n, 16, Conjugation("C1", 1.0, 1j))
        one_conjugation(C2_SLOW_DECAY, n, 16)
        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, refuse)
        for name, (psi, phi) in strip_cases().items():
            psi_s = psi_series(psi, n)
            reference = convolution_columns(psi_s, phi, n, 16)
            error = np.max(np.abs(cross(psi, phi, n, 16)[1] - reference))
            assert error <= 1e-13 * np.max(np.abs(reference)), name
            # the C2 symmetry alone reads W only through the strip, and U only
            # through the conjugation's first k rows and columns
            got = one_draw(psi, phi, n, 16, C2_SLOW_DECAY, normality=False)
            assert list(got) == ["symmetry"], name
        with pytest.raises(AssertionError, match="refused builder"):
            conjugation_matrix(C2_SLOW_DECAY, n)

    @pytest.mark.parametrize("n", [48, 191, 192, 448, MAX_DIM])
    def test_doubling_steps_at_most_k_plus_1_wide(self, n, monkeypatch):
        # every seam doubles with a step of at most (k+1) x (k+1), so none
        # is O(N^3); a whole W never doubles
        seen = []
        real = operators._double

        def spy(run, step):
            seen.append(step.shape[-2:])  # one draw's step
            return real(run, step)

        monkeypatch.setattr(operators, "_double", spy)
        psi, phi = BUILD_PATH_CASES["disk-automorphism"]
        for k in (16, min(n - 32, 400)):
            seen.clear()
            cross(psi, phi, n, k)
            block(psi, phi, n, k)
            for c in (Conjugation("J"), C2_SLOW_DECAY):
                one_draw(psi, phi, n, k, c)
                one_draw(psi, phi, n, k, c, normality=False)
            one_factorization(phi, n, k)
            assert seen and max(max(shape) for shape in seen) <= k + 1, k
        seen.clear()
        conjugation_matrix(C2_SLOW_DECAY, n)
        assert not seen

    def test_whole_build_is_the_recurrence(self):
        # the C2 conjugation's weight and map as conjugation_matrix forms them: a stack of one
        weight, vmap = operators._c2_symbols(np.array([C2_SLOW_DECAY.lam]), np.array([C2_SLOW_DECAY.alpha]))
        for n in (1, 48, 96, 384):
            got = conjugation_matrix(C2_SLOW_DECAY, n)
            assert np.array_equal(got, _mobius_recurrence(quotient_series(weight, n)[0], vmap[0])), n


def contraction(rng, count, width, norm):
    """count random complex width x width steps of spectral norm norm."""
    steps = rng.standard_normal((count, width, width)) + 1j * rng.standard_normal((count, width, width))
    return steps * (norm / np.linalg.norm(steps, 2, axis=(1, 2)))[:, None, None]


def filled_sum(x, p, y, q, length):
    """sum_{m < length} (x p^m)^H (y q^m) for each draw: every row of both
    runs formed one product at a time, then one contraction."""
    runs = []
    for start, step in ((x, p), (y, q)):
        run = np.empty((len(start), length, start.shape[-1]), dtype=complex)
        run[:, 0] = start
        for m in range(1, length):
            run[:, m] = (run[:, m - 1, None] @ step)[:, 0]
        runs.append(run)
    return runs[0].conj().swapaxes(1, 2) @ runs[1]


def gram(x, p, y, q, length):
    """operators._gram of the runs x p^m and y q^m, m < length, as the
    seams call it: each distinct run filled once by _fill."""
    pairs = [(x, x, p)] if x is y and p is q else [(x, x, p), (y, y, q)]
    filled = operators._fill(pairs, length + 1)
    (_, run_x, power_x), (_, run_y, power_y) = filled[0], filled[-1]
    return _gram(run_x, power_x, run_y, power_y, length)


class TestGramKernel:
    """operators._fill fills h0 rows of each run and _gram sums sum_{m < L}
    (x p^m)^H (y q^m) by doubling the sum past them, h0 the least power of
    two >= 2 x the run width.  It must equal the sum of the filled and
    contracted runs to 1e-13 relative at every length, in the Hermitian (x
    is y, p is q: one run) and the cross case, and no seam may fill more
    than h0 rows a draw."""

    def test_filled_rows_are_the_least_power_of_two_over_twice_the_width(self):
        assert [_filled(width) for width in (1, 12, 13, 16, 17, 33)] == [2, 32, 32, 32, 64, 128]

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(17, 17), (16, 17), (12, 12), (13, 5)]))
    def test_doubled_sum_equals_the_filled_sum(self, seed, widths):
        rng = np.random.default_rng(seed)
        a, b = widths
        h0 = _filled(max(a, b))
        count = 3
        x = rng.standard_normal((count, a)) + 1j * rng.standard_normal((count, a))
        y = rng.standard_normal((count, b)) + 1j * rng.standard_normal((count, b))
        norms = rng.uniform(0.9, 1.0, count)
        norms[0] = 1.0  # a run that never decays
        p, q = contraction(rng, count, a, norms), contraction(rng, count, b, norms)
        for length in (1, h0 - 1, h0, h0 + 1, 2 * h0, 1023):
            for args in ((x, p, x, p), (x, p, y, q)):
                got, want = gram(*args, length), filled_sum(*args, length)
                assert got.shape == want.shape, (length, widths)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (length, widths)
                # each draw's sum is that of its stack of one, bit for bit
                xs, ps, ys, qs = (arg[1:2] for arg in args)
                if args[0] is args[2]:
                    ys, qs = xs, ps  # still the Hermitian case
                assert np.array_equal(gram(xs, ps, ys, qs, length)[0], got[1]), (length, widths)

    def test_no_seam_fills_more_than_h0_rows(self, monkeypatch):
        # at N = 1024 and k = 16 every run a seam fills holds at most h0 =
        # 64 rows a draw (the first k columns are 17 wide), not N
        n, k, filled = MAX_DIM, 16, []
        real = operators._double

        def spy(run, step):
            filled.append(run.shape[-2])
            return real(run, step)

        monkeypatch.setattr(operators, "_double", spy)
        psi, phi = stacks(*BUILD_PATH_CASES["disk-automorphism"])
        wco_residual_stack(psi, phi, n, k)
        for c in (Conjugation("J"), Conjugation("C1", 1.0, 1j), C2_SLOW_DECAY):
            wco_residual_stack(psi, phi, n, k, **conjugations(c))
            wco_residual_stack(psi, phi, n, k, normality=False, **conjugations(c))
            conjugation_residual_stack(*conjugations(c).values(), n, k)
        adjoint_factorization_stack(phi, n, k)
        assert filled and max(filled) == 64 == _filled(k + 1), filled


    def test_each_run_is_filled_once(self, monkeypatch):
        # a C2 symmetry reads W's strip against both runs of U, and
        # normality reads the strip again: each distinct run of a chunk is
        # filled once (strip, U's rows and strip, then W's rows), as are
        # the two runs of the C2 involution
        fills = []
        real = operators._double

        def spy(run, step):
            fills.append(run.shape)
            return real(run, step)

        monkeypatch.setattr(operators, "_double", spy)
        psi, phi = stacks(*BUILD_PATH_CASES["disk-automorphism"])
        c2 = conjugations(C2_SLOW_DECAY)
        counts = []
        for call in (lambda: wco_residual_stack(psi, phi, 96, 12, **c2), lambda: wco_residual_stack(psi, phi, 96, 12),
                     lambda: wco_residual_stack(psi, phi, 96, 12, normality=False, **c2),
                     lambda: conjugation_residual_stack(*c2.values(), 96, 12)):
            fills.clear()
            call()
            counts.append(len(fills))
        assert counts == [4, 2, 3, 2]


C2_MODULI = (0.3, 0.9, 0.97, 0.99)


def tile_cases():
    """build_cases() and C2 conjugations from fast to very slow decay."""
    pairs = build_cases()
    for modulus in C2_MODULI:
        pairs[f"c2-{modulus}"] = c2_symbols(Conjugation("C2", np.exp(0.3j), modulus * np.exp(1.1j)))
    return pairs


def assert_matches(got, reference, label):
    assert got.shape == reference.shape, label
    assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference)), label


class TestTileWavefront:
    """A whole W is _mobius_recurrence, which sweeps the recurrence over
    _TILE x _TILE tiles, one GEMM per anti-diagonal of tiles.  Every
    shape, also one not a multiple of the tile side, must match the
    convolution reference to 1e-13 max|T|, and a whole build must
    allocate about one padded (N + _TILE + 1)^2 buffer."""

    DIMS = [1, 2, 3, 7, 8, 9, 17, 95, 191, 192, 193, 383, 389]

    def test_dimensions_cut_tiles_unevenly(self):
        assert {n % _TILE == 0 for n in self.DIMS} == {True, False}

    @pytest.mark.parametrize("n", DIMS)
    def test_whole_build_matches_convolutions(self, n):
        for name, (psi, phi) in tile_cases().items():
            psi_s = psi_series(psi, n)
            reference = convolution_columns(psi_s, phi, n)
            assert_matches(whole(psi, phi, n), reference, name)
        for modulus in C2_MODULI:
            c = Conjugation("C2", np.exp(0.3j), modulus * np.exp(1.1j))
            reference = convolution_columns(psi_series(c2_symbols(c)[0], n), c2_symbols(c)[1], n)
            assert_matches(conjugation_matrix(c, n), reference, modulus)

    @pytest.mark.parametrize("rows, cols", [(192, 2), (192, 9), (200, 17), (389, 193), (193, 389), (250, 1024)])
    def test_rectangles_match_convolutions(self, rows, cols):
        # rows < cols doubles (_rectangle, the first rows); rows > cols is the
        # leading columns of a whole W of the rows-truncation (the recurrence)
        assert rows >= 192 and rows != cols
        n = max(rows, cols)
        for name, (psi, phi) in tile_cases().items():
            psi_s = psi_series(psi, n)
            reference = convolution_columns(psi_s[:rows], phi, rows, cols)
            if rows < cols:
                got = _rectangle(_prepare(*stacks(psi, phi), rows, strip=False)[0], ALL, cols)[0]
            else:
                got = whole(psi, phi, rows)[:, :cols]
            assert_matches(got, reference, name)

    def test_leading_block_of_the_largest_build(self):
        n, k = MAX_DIM, 389
        for name, (psi, phi) in tile_cases().items():
            reference = convolution_columns(psi_series(psi, k), phi, k)
            assert_matches(whole(psi, phi, n)[:k, :k], reference, name)

    @pytest.mark.parametrize("n", [384, MAX_DIM])
    def test_whole_build_allocates_one_padded_buffer(self, n):
        c = Conjugation("C2", np.exp(0.3j), 0.9 * np.exp(1.1j))
        conjugation_matrix(c, n)  # first-call caches are not the build's
        tracemalloc.start()
        try:
            u = conjugation_matrix(c, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert u.shape == (n, n)
        # the lower bound shows tracemalloc sees numpy's buffers at all
        assert n * n * 16 <= peak <= 1.25 * (n + _TILE + 1) ** 2 * 16


def c2_selfmap(rng, alpha_hi=0.5):
    """(params, (psi, phi)) of the first C2 candidate with |alpha| in [0.1,
    alpha_hi] and |T|, |U| <= 0.3 that the C2 sampler's rule keeps."""
    disk = lambda lo, hi: np.sqrt(rng.uniform(lo * lo, hi * hi, 1)) * np.exp(2j * np.pi * rng.uniform(size=1))
    while True:
        keep, params, psi, phi = verify._c2_candidates(disk(0.1, alpha_hi), disk(0.0, 0.3), disk(0.0, 0.3))
        if keep[0]:
            c2 = fam.C2Params(*(complex(x[0]) for x in (params.alpha, params.c0, params.c1, params.c2)))
            return c2, first(psi, phi)


def family_self_maps(rng, per_family):
    """(family, psi, phi) with phi a nonconstant self-map, per_family from
    each of the J, C1, C2, interior, parabolic and hyperbolic families."""
    disk = lambda radius: radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    draws = {
        "j": lambda: first(*fam.j_quadruples(disk(0.9), disk(0.9))),
        "c1": lambda: first(*fam.c1_quadruples(np.exp(2j * np.pi * rng.uniform()), disk(0.9), disk(0.9))),
        "c2": lambda: c2_selfmap(rng, alpha_hi=0.99)[1],
        "c2-conjugation": lambda: c2_symbols(Conjugation("C2", np.exp(2j * np.pi * rng.uniform()), disk(0.99))),
        "interior": lambda: first(*fam.interior_quadruples(disk(0.95), disk(1.0))),
        "parabolic": lambda: first(*fam.parabolic_j_quadruples(0.5j + 0.5 * np.exp(1j * rng.uniform(-np.pi / 2, 0)), 1)),
        "hyperbolic": lambda: (
            (1.0, 0.0, 1.0, -disk(0.9)),
            fam.hyperbolic_aut_map(fam.HyperbolicParams(rng.uniform(1.05, 6.0), complex(*rng.uniform(0, 2, 2))))[0]),
    }
    for family, draw in draws.items():
        kept = 0
        while kept < per_family:
            try:
                psi, phi = draw()
            except WcoError:
                continue
            phi_q = stacks(psi, phi)[1]
            if is_degenerate(phi_q)[0] or not is_self_map(phi_q)[0]:
                continue
            kept += 1
            yield family, psi, phi


class TestRowStep:
    """The step of the strip's row recurrence: its k x k part is the
    transposed Toeplitz matrix of chi = conj o sigma o conj, sigma Cowen's
    adjoint map, a self-map whenever phi is; so every power of it is a
    contraction and doubling on it is stable."""

    K = 16

    def test_step_is_the_adjoint_map_toeplitz(self):
        k = self.K
        for family, psi, phi in family_self_maps(np.random.default_rng(11), 20):
            chi = np.conj(cowen(phi)[1])
            toeplitz = convolution_columns(phi_series(chi, k), IDENTITY, k)
            step = row_step(psi, phi, k)
            assert np.max(np.abs(step[:k, :k] - toeplitz.T)) <= 1e-14 * max(1.0, np.max(np.abs(toeplitz))), family
            assert not np.any(step[:k, k])
            assert np.allclose(step[k, :k], mobius(phi, 0.0) ** np.arange(k), rtol=1e-14, atol=1e-15), family
            assert step[k, k] == pytest.approx(1.0 / poles([psi])[0], rel=1e-14, abs=0.0), family

    def test_step_powers_are_contractions(self):
        k, worst = self.K, 0.0
        for family, psi, phi in family_self_maps(np.random.default_rng(13), 60):
            power = row_step(psi, phi, k)[:k, :k]
            for _ in range(11):  # R^h for h = 2^0 ... 2^10
                worst = max(worst, np.linalg.norm(power, 2))
                assert np.linalg.norm(power, 2) <= 1.0 + 1e-12, family
                power = power @ power
        assert worst > 0.9  # the automorphisms reach near the bound


class TestSeams:
    """Each symbol-level residual equals the residual of the whole matrices
    within 1e-13 max(1, r)."""

    K = 12

    @staticmethod
    def close(got, want):
        return abs(got - want) <= 1e-13 * max(1.0, want)

    @pytest.mark.parametrize("n", [64, 191, 192, 384])
    def test_residuals_match_whole_matrices(self, n):
        k = self.K
        psi, phi = BUILD_PATH_CASES["disk-automorphism"]
        conjugations = (Conjugation("J"), Conjugation("C1", np.exp(0.3j), np.exp(0.7j)), C2_SLOW_DECAY)
        perturbed = (psi[0], psi[1] + 0.3, psi[2], psi[3])
        for pair in [(psi, phi), (perturbed, phi), (psi, (0, 0.4j, 0, 1))]:
            t = whole(*pair, n)
            normal = normality_defect(t, k)
            assert self.close(one_draw(*pair, n, k)["normality"], normal)
            for c in conjugations:
                sym = symmetry_defect(t, conjugation_matrix(c, n), k)
                both = one_draw(*pair, n, k, c)
                assert self.close(both["normality"], normal) and self.close(both["symmetry"], sym), c
                alone = one_draw(*pair, n, k, c, normality=False)
                assert list(alone) == ["symmetry"] and self.close(alone["symmetry"], sym), c
        for c in conjugations:
            want = involution_residual(conjugation_matrix(c, n), k)
            got = one_conjugation(c, n, k)
            assert all(self.close(g, w) for g, w in zip(got, want)), c

    @pytest.mark.parametrize("n", [96, 384, MAX_DIM])
    def test_c2_symmetry_in_band_with_whole_matrix_form(self, n):
        """On 60 c2sym-form draws, every second one a perturbed control,
        the seam and the symmetry defect of the whole matrices agree within
        1e-13 max(1, r), so they fall in the same pass / fail band."""
        rng = np.random.default_rng(5)
        cfg, k = verify.SuiteConfig(), 16
        for i in range(60):
            params, (psi, phi) = c2_selfmap(rng)
            if i % 2:
                psi = verify._perturbed(np.array([psi]))[0]
            c = Conjugation("C2", 1.0, params.alpha)
            seam = one_draw(psi, phi, n, k, c, normality=False)["symmetry"]
            reference = symmetry_defect(whole(psi, phi, n), conjugation_matrix(c, n), k)
            assert self.close(seam, reference), (i, seam, reference)
            bands = verify._records(cfg, {"i": [0, 1]}, oracle={"symmetry": [seam, reference]}).oracles["symmetry_band"]
            assert bands[0] == bands[1], (i, seam, reference)
            assert seam >= 0.1 if i % 2 else seam <= 1e-13, (i, seam)

    @pytest.mark.parametrize("n", [192, 384, MAX_DIM])
    def test_no_seam_reads_all_of_w(self, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("whole W built")

        monkeypatch.setattr(operators, "_mobius_recurrence", refuse)
        psi, phi = BUILD_PATH_CASES["disk-automorphism"]
        for c in (Conjugation("J"), Conjugation("C1", 1.0, 1j), C2_SLOW_DECAY):
            for normality in (True, False):
                got = one_draw(psi, phi, n, 16, c, normality)
                assert sorted(got) == (["normality", "symmetry"] if normality else ["symmetry"])

    @pytest.mark.parametrize("n", [64, 191, 192, 384])
    @pytest.mark.parametrize("sigma_sign", [-1, 1])
    def test_factorization_matches_whole_matrices(self, n, sigma_sign):
        m = (0.5 + 0.1j, 0.25 - 0.05j, 0.1 + 0.2j, 1.0)
        k = 16
        g, sigma, h = cowen(m, sigma_sign)
        c_phi = whole(ONE, m, n)
        m_g, m_h = whole(g, IDENTITY, n), whole(h, IDENTITY, n)
        # the flipped-sign sigma is not a self-map: it takes the convolution reference
        c_sigma = convolution_columns(psi_series(ONE, n), sigma, n)
        full = np.linalg.norm((c_phi.conj().T - m_g @ c_sigma @ m_h.conj().T)[:k, :k])
        assert self.close(one_factorization(m, n, k, sigma_sign=sigma_sign), full)


class TestBlockResiduals:
    """Each residual forms only the block it reads; it must equal the full
    N x N products sliced to the block: involution_residual, and the
    block forms of the normality and symmetry defects that TestSeams
    compares the seams with."""

    N, K = 160, 16

    def _random(self, rng):
        shape = (self.N, self.N)
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(self.N)

    def test_matrix_residuals_match_full_products(self):
        rng = np.random.default_rng(5)
        t, u = self._random(rng), self._random(rng)
        n, k = self.N, self.K
        eye = np.eye(n)
        inv, iso = involution_residual(u, k)
        assert abs(inv - np.linalg.norm((u @ u.conj() - eye)[:k, :k])) <= 1e-13
        assert abs(iso - np.linalg.norm((u.conj().T @ u - eye)[:k, :k])) <= 1e-13
        full_sym = np.linalg.norm((u @ t.conj() - t.conj().T @ u)[:k, :k])
        assert abs(symmetry_defect(t, u, k) - full_sym) <= 1e-13
        full_normal = np.linalg.norm((t.conj().T @ t - t @ t.conj().T)[:k, :k])
        assert abs(normality_defect(t, k) - full_normal) <= 1e-13

    @pytest.mark.parametrize("sigma_sign", [-1, 1])
    def test_factorization_residual_matches_full_products(self, sigma_sign):
        m = (0.5 + 0.1j, 0.25 - 0.05j, 0.1 + 0.2j, 1.0)
        n, k = self.N, self.K
        g, sigma, h = cowen(m, sigma_sign)
        one = psi_series(ONE, n)
        c_phi = convolution_columns(one, m, n)
        m_g = convolution_columns(psi_series(g, n), IDENTITY, n)
        c_sigma = convolution_columns(one, sigma, n)
        m_h = convolution_columns(psi_series(h, n), IDENTITY, n)
        full = np.linalg.norm((c_phi.conj().T - m_g @ c_sigma @ m_h.conj().T)[:k, :k])
        got = one_factorization(m, n, k, sigma_sign=sigma_sign)
        assert abs(got - full) <= 1e-13 * max(1.0, full)


class TestDimensionCapScale:
    def test_c2_conjugation_at_max_dim(self):
        # the first check at the dimension cap: |alpha| = 0.9 needs N far
        # beyond the default suites' 96 before the block converges
        u = conjugation_matrix(Conjugation("C2", np.exp(0.7j), 0.9 * np.exp(-0.4j)), MAX_DIM)
        inv, iso = involution_residual(u, 16)
        assert inv <= 1e-12 and iso <= 1e-12


class TestConjugationMatrix:
    def test_j_is_identity(self):
        u = conjugation_matrix(Conjugation("J"), 10)
        assert np.array_equal(u, np.eye(10))

    def test_c1_diagonal(self):
        u = conjugation_matrix(Conjugation("C1", 1.0, 1j), 4)
        assert np.allclose(np.diag(u), [1, 1j, -1, -1j])

    def test_domain_validation(self):
        with pytest.raises(BadParameterDomainError):
            Conjugation("C1", 1.0, 0.5)
        with pytest.raises(BadParameterDomainError):
            Conjugation("C2", 1.0, 1.2)
        with pytest.raises(BadParameterDomainError):
            Conjugation("C2", 2.0, 0.5)
        # NaN fails every domain check, so no conjugation carries one
        nan = float("nan")
        for kind, lam, alpha in [("C1", nan, 1.0), ("C1", 1.0, nan), ("C1", complex(1.0, nan), 1j),
                                 ("C2", nan, 0.5), ("C2", 1.0, nan), ("C2", 1.0, complex(nan, 0.5))]:
            with pytest.raises(BadParameterDomainError):
                Conjugation(kind, lam, alpha)

    def test_involution_exact_for_j_and_c1(self):
        j = conjugation_matrix(Conjugation("J"), 48)
        assert involution_residual(j, 16) == (0.0, 0.0)
        c1 = conjugation_matrix(Conjugation("C1", np.exp(0.3j), np.exp(0.7j)), 48)
        inv, iso = involution_residual(c1, 16)
        assert inv <= 1e-14 and iso <= 1e-14

    def test_c2_involution_small_alpha_at_48(self):
        c2 = conjugation_matrix(Conjugation("C2", 1.0, 0.3), 48)
        inv, iso = involution_residual(c2, 16)
        assert inv <= 1e-8 and iso <= 1e-8

    def test_c2_involution_alpha_half(self):
        # at alpha = 0.5 the truncation floor sits near 3e-2 for N = 48
        # and reaches 1e-8 only around N = 96 (see the decision ledger)
        c2 = conjugation_matrix(Conjugation("C2", 1.0, 0.5), 96)
        inv, iso = involution_residual(c2, 16)
        assert inv <= 1e-8 and iso <= 1e-8

    def test_anti_linear_isometry_axiom(self):
        # <Ax, Ay> = conj(<x, y>) on leading basis vectors
        u = conjugation_matrix(Conjugation("C2", np.exp(0.2j), 0.3 + 0.1j), 64)
        k = 12
        for i in range(k):
            for j in range(k):
                x = np.eye(64)[i].astype(complex)
                y = np.eye(64)[j].astype(complex)
                ax = u @ np.conj(x)
                ay = u @ np.conj(y)
                lhs = np.vdot(ay, ax)  # <Ax, Ay> with numpy's conjugation on the first arg
                rhs = np.conj(np.vdot(y, x))
                assert abs(lhs - rhs) <= 1e-8

    def test_block_padding_guard(self):
        u = conjugation_matrix(Conjugation("J"), 40)
        with pytest.raises(BlockTooLargeError):
            involution_residual(u, 12)
        # an empty or negative block would slice nothing or the corrupted tail
        for k in (0, -5):
            with pytest.raises(BlockTooLargeError):
                involution_residual(u, k)


class TestSymmetryResidual:
    def test_diagonal_exact(self):
        psi, phi = j_family(0.0, 0.3, 0.8)
        assert one_draw(psi, phi, 48, 16, Conjugation("J"), False)["symmetry"] <= 1e-15

    def test_j_family_in_family(self):
        psi, phi = j_family(0.3, 0.2)
        assert one_draw(psi, phi, 64, 16, Conjugation("J"), False)["symmetry"] <= 1e-9

    def test_out_of_family_weight(self):
        phi = (0.2, 0, 0, 1)
        assert one_draw((1, 0.3, 1, 0), phi, 64, 16, Conjugation("J"), False)["symmetry"] >= 1e-2

    def test_double_application_restores_block(self):
        psi = (1.0, 0.2, 1, -0.3)
        t = whole(psi, (0.35, 0.1, -0.05, 1.0), 80)
        u = conjugation_matrix(Conjugation("C2", 1.0, 0.3), 80)
        k = 12
        once = u @ t.T @ u.conj()
        twice = u @ once.T @ u.conj()
        assert np.linalg.norm((twice - t)[:k, :k]) <= 1e-12


class TestNormalityResidual:
    def test_diagonal_zero(self):
        assert one_draw((1.3, 0, 1, 0), (0.6j, 0, 0, 1), 48, 12)["normality"] <= 1e-14

    def test_interior_family_normal(self):
        p, delta, gamma = 0.3, 0.5j, 1.0
        pc = np.conj(p)
        psi = (gamma * (1 - abs(p) ** 2), 0, 1 - abs(p) ** 2 * delta, pc * (delta - 1))
        phi = (delta - abs(p) ** 2, p * (1 - delta), pc * (delta - 1), 1 - abs(p) ** 2 * delta)
        assert one_draw(psi, phi, 64, 12)["normality"] <= 1e-7

    def test_damped_map_not_normal(self):
        phi = (1.85, 1, 1, 2)
        sigma0 = -np.conj(phi[2]) / np.conj(phi[3])
        psi = (1, 0, 1, -np.conj(sigma0))
        assert one_draw(psi, phi, 64, 12)["normality"] >= 1e-3

    def test_residual_decay_with_dimension(self):
        # doubling the dimension must not let the residual grow; the
        # padding protocol k + 32 <= N caps the smallest usable dimension
        # at 44, so the progression starts at 48 rather than 32
        p, delta = 0.3, 0.5j
        pc = np.conj(p)
        psi = (1 - abs(p) ** 2, 0, 1 - abs(p) ** 2 * delta, pc * (delta - 1))
        phi = (delta - abs(p) ** 2, p * (1 - delta), pc * (delta - 1), 1 - abs(p) ** 2 * delta)
        residuals = [one_draw(psi, phi, n, 12)["normality"] for n in (48, 96, 192)]
        assert residuals[1] <= residuals[0] + 1e-12
        assert residuals[2] <= residuals[1] + 1e-12
        assert residuals[2] <= 1e-8


class TestInteriorSpectrum:
    """The spectrum of the interior-fixed-point normal operator is
    {psi(p) phi'(p)^n : n >= 0} with phi'(p) = delta (Gunatillake, Proc. AMS
    135, 2007): each leading predicted eigenvalue must be an eigenvalue of
    the N = 96 truncation to relative 1e-10.  Past |p| = 0.6 or |delta| =
    0.7 the truncation is too coarse for that bound (4.5e-5 at |p| <= 0.8,
    |delta| <= 0.9)."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 0.6), st.floats(0.0, 2 * np.pi),
        st.floats(0.05, 0.7), st.floats(0.0, 2 * np.pi),
        st.floats(0.5, 1.5),
    )
    def test_predicted_eigenvalues_of_build_wco(self, p_mod, p_arg, delta_mod, delta_arg, gamma):
        p, delta = p_mod * np.exp(1j * p_arg), delta_mod * np.exp(1j * delta_arg)
        psi, phi = first(*fam.interior_quadruples(p, delta, gamma))
        eigenvalues = np.linalg.eigvals(whole(psi, phi, 96))
        top = rational(psi, p)
        predicted = [top * delta ** n for n in range(8) if abs(delta) ** n >= 1e-6]
        for n, value in enumerate(predicted):
            error = np.min(np.abs(eigenvalues - value))
            assert error <= 1e-10 * abs(value), (n, value, error)


class TestAdjointFactorization:
    def test_identity(self):
        assert one_factorization(IDENTITY, 48, 16) <= 1e-15

    def test_dilation(self):
        assert one_factorization((0.5, 0, 0, 1), 48, 16) <= 1e-12

    def test_affine(self):
        assert one_factorization((0.5, 0.25, 0, 1), 64, 16) <= 1e-8

    def test_flipped_sigma_sign_fails(self):
        m = (0.5 + 0.1j, 0.25 - 0.05j, 0.1 + 0.2j, 1.0)
        assert one_factorization(m, 64, 16, sigma_sign=-1) <= 1e-8
        assert one_factorization(m, 64, 16, sigma_sign=+1) >= 1e-3

    def test_reads_only_the_probes_maps(self, monkeypatch):
        # M_g and M_h are Toeplitz views of the series of g and h: every map
        # stack the factorization reads is the probe's own, no identity maps
        cfg = verify.default_config("cowen-factorization")
        keep, drawn = verify.draw_cowen(np.random.default_rng(6), cfg, np.arange(40))
        phi, read = drawn["phi"][keep], []

        def spy(quads):
            read.append(np.array(quads))
            return read_maps(quads)

        monkeypatch.setattr(operators, "read_maps", spy)
        got = verify.measure(cfg, verify.Probe(phi=phi))
        rows = set(map(tuple, phi.tolist()))
        assert (cfg.dim, cfg.block) == (64, 16) and read
        assert all(set(map(tuple, stack.tolist())) <= rows for stack in read)
        assert np.all(got["factorization"] <= 1e-8) and np.all(got["flipped_sign"] >= 1e-3)
