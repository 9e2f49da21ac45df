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
from wcosym.mobius import IDENTITY, MapClass, classify, is_degenerate, is_self_map
from wcosym.operators import (
    MAX_DIM,
    _TILE,
    Conjugation,
    _block,
    _cross,
    _mobius_recurrence,
    _rectangle,
    _row_step,
    _strip,
    adjoint_factorization_stack,
    build_wco,
    conjugation_matrix,
    conjugation_residual_stack,
    involution_residual,
    normality_residual,
    symmetry_residual,
    wco_residual_stack,
)
from wcosym.series import poles, quotient_series

from conftest import cowen, first, mobius, rational

ONE = (1.0, 0, 1, 0)  # the weight 1


def stacks(psi, phi):
    """A weight and a map as the (1, 4) coefficient stacks the seams take."""
    return np.array([psi], dtype=complex), np.array([phi], dtype=complex)


def conjugations(c):
    """A conjugation as the kind and the lam / alpha arrays the seams take."""
    return {"kind": c.kind, "lam": np.array([c.lam]), "alpha": np.array([c.alpha])}


def cross(psi, phi, n, k):
    """operators._cross of a stack of one draw."""
    rows, cols = _cross(*stacks(psi, phi), n, k)
    return rows[0], cols[0]


def block(psi, phi, n, k):
    """operators._block of a stack of one draw."""
    return _block(*stacks(psi, phi), n, k)[0]


def one_draw(psi, phi, n, k, conj=None, normality=True):
    """operators.wco_residual_stack of a stack of one draw."""
    kind = {} if conj is None else conjugations(conj)
    return {key: r[0] for key, r in wco_residual_stack(*stacks(psi, phi), n, k, normality=normality, **kind).items()}


def one_conjugation(c, n, k):
    """operators.conjugation_residual_stack of a stack of one conjugation."""
    inv, iso = conjugation_residual_stack(*conjugations(c).values(), n, k)
    return inv[0], iso[0]


def one_factorization(m, n, k, sigma_sign=-1):
    """operators.adjoint_factorization_stack of a stack of one map and one sign."""
    return adjoint_factorization_stack(np.array([m], dtype=complex), n, k, (sigma_sign,))[0][0]


def j_family(a0, a1, b=1.0):
    psi = (b, 0, 1, -a0)
    phi = (a1 - a0 ** 2, a0, -a0, 1.0)
    return psi, phi


class TestBuildWco:
    def test_identity_operator(self):
        t = build_wco(ONE, IDENTITY, 8)
        assert np.allclose(t, np.eye(8))

    def test_diagonal_family(self):
        t = build_wco((0.7, 0, 1, 0), (0.5, 0, 0, 1), 6)
        assert np.allclose(t, np.diag(0.7 * 0.5 ** np.arange(6)))

    def test_kernel_weight_toeplitz(self):
        n = 8
        t = build_wco((1, 0, 1, -0.5), IDENTITY, n)
        for j in range(n):
            col = t[:, j]
            assert np.allclose(col[:j], 0)
            assert np.allclose(col[j:], 0.5 ** np.arange(n - j))

    def test_constant_map_columns(self):
        t = build_wco((0.75, 0, 1, -0.5), (0, 0.5, 0, 1), 5)
        psi = 0.75 * 0.5 ** np.arange(5)
        for j in range(5):
            assert np.allclose(t[:, j], psi * 0.5 ** j)

    def test_pole_guard(self):
        with pytest.raises(SymbolPoleError):
            build_wco((1, 0, 1, -1.0), IDENTITY, 8)

    def test_self_map_guard(self):
        with pytest.raises(NotSelfMapError):
            build_wco(ONE, (2, 0, 0, 1), 8)

    @pytest.mark.parametrize("phi", [(0.5, 0.25, 2, 1), (1, 2, 1, 2), (0, 0, 0, 0)])
    def test_degenerate_map_guard(self, phi):
        # a degenerate map is a constant, which build_wco takes only as (0, v, 0, d)
        with pytest.raises(DegenerateMapError if any(phi) else NotSelfMapError):
            build_wco(ONE, phi, 8)

    @pytest.mark.parametrize("n", [0, 1025])
    def test_dimension_cap(self, n):
        with pytest.raises(ValueError):
            build_wco(ONE, IDENTITY, n)
        with pytest.raises(ValueError):
            one_factorization(IDENTITY, n, 16)
        for c in (Conjugation("J"), Conjugation("C1", 1.0, 1j), Conjugation("C2", 1.0, 0.3)):
            with pytest.raises(ValueError):
                conjugation_matrix(c, n)

    def test_intertwining_sample_check(self):
        psi = (1.2, 0.3, 1, -0.4)
        phi = (0.3, 0.25, -0.1, 1.0)
        t = build_wco(psi, phi, 96)
        z = 0.2
        powers = z ** np.arange(96)
        for j in (0, 1, 3, 7):
            col_val = np.dot(t[:, j], powers)
            assert abs(col_val - rational(psi, z) * mobius(phi, z) ** j) <= 1e-10


def test_constant_maps_are_read_in_one_place():
    # the kernels read phi only as its coefficients (a, b, c, d), a constant
    # map v as (0, v, 0, 1): no operators code tests for a type, only
    # _checked_series reads the constant rows, to refuse |v| >= 1, and
    # build_wco, to refuse a degenerate map written otherwise
    tree = ast.parse(pathlib.Path(operators.__file__).read_text())
    found = collections.Counter()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in (
                    "isinstance", "is_constant"):
                found[getattr(top, "name", "<module>"), node.func.id] += 1
    assert found == {("_checked_series", "is_constant"): 1, ("build_wco", "is_constant"): 1}
    cls = classify((0, 0.3 - 0.4j, 0, 1))
    assert (cls.map_class, cls.dw_point) == (MapClass.CONSTANT, 0.3 - 0.4j)


def psi_series(psi, n):
    """The first n Taylor coefficients of a weight."""
    return quotient_series([psi], n)[0]


def phi_series(phi, n):
    """The first n Taylor coefficients of a Mobius map or a constant (0, v, 0, d)."""
    a, b, c, d = phi
    if a == c == 0:
        return np.eye(1, n, dtype=complex)[0] * (b / d)
    return quotient_series([(b, a, d, c)], n)[0]


def convolution_columns(psi_s, phi, n, cols=None):
    """Reference build at any N: column j < cols (default n) = psi phi^j by Cauchy products."""
    phi_s = phi_series(phi, n)
    cols = n if cols is None else cols
    mat = np.zeros((n, cols), dtype=complex)
    mat[:, 0] = psi_s
    for j in range(1, cols):
        mat[:, j] = np.convolve(mat[:, j - 1], phi_s)[:n]
    return mat


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
    """build_wco runs the Mobius recurrence at every N; it must agree with
    the convolution reference to rounding, and the leading block of a
    large build with the small build."""

    N_SMALL, N_LARGE = 96, 192

    # N = 1, sizes that are not powers of two, and sizes that are not
    # multiples of the tile side
    @pytest.mark.parametrize("n", [1, 2, 3, 48, 64, 95, 191])
    def test_doubling_matches_convolutions(self, n):
        pairs = [pair for _, pair in sorted(BUILD_PATH_CASES.items())] + [(ONE, IDENTITY)]
        for psi, phi in pairs:
            reference = convolution_columns(psi_series(psi, n), phi, n)
            got = build_wco(psi, phi, n)
            assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))
        weight, vmap = c2_symbols(C2_SLOW_DECAY)
        reference = convolution_columns(psi_series(weight, n), vmap, n)
        got = conjugation_matrix(C2_SLOW_DECAY, n)
        assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("case", sorted(BUILD_PATH_CASES))
    def test_leading_block_agrees(self, case):
        psi, phi = BUILD_PATH_CASES[case]
        small = build_wco(psi, phi, self.N_SMALL)
        large = build_wco(psi, phi, self.N_LARGE)
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
            build_wco((1.0, 0.0, 1e-15, 0.0), IDENTITY, n)
        with pytest.raises(NotSelfMapError):
            build_wco(ONE, (2, 0, 0, 1), n)
        with pytest.raises(SymbolPoleError):
            build_wco((1, 0, 1, -1.0), IDENTITY, n)
        with pytest.raises(ValueError):
            build_wco(ONE, IDENTITY, MAX_DIM + 1)


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
    slices of the whole truncation, and refuse whatever build_wco refuses."""

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
            whole = build_wco(psi, phi, n)
            assert np.max(np.abs(whole - reference)) <= 1e-13 * scale, name

    @pytest.mark.parametrize("n", [64, 192])
    def test_refusals(self, n):
        builders = {
            "whole": lambda psi, phi, n, k: build_wco(psi, phi, n),
            "cross": cross,
            "block": block,
            "normality": one_draw,
            "j-symmetry": lambda psi, phi, n, k: one_draw(psi, phi, n, k, Conjugation("J"), False),
            "c2-symmetry": lambda psi, phi, n, k: one_draw(psi, phi, n, k, C2_SLOW_DECAY, False),
        }
        for name, build in builders.items():
            with pytest.raises(PoleAtOriginError):
                build((1.0, 0.0, 1e-15, 0.0), IDENTITY, n, 12)
            with pytest.raises(NotSelfMapError):
                build(ONE, (2, 0, 0, 1), n, 12)
            with pytest.raises(NotSelfMapError):
                build(ONE, (0, 1.0, 0, 1), n, 12)
            with pytest.raises(SymbolPoleError):
                build((1, 0, 1, -1.0), IDENTITY, n, 12)
            for dim in (0, MAX_DIM + 1):
                with pytest.raises(ValueError):
                    build(ONE, IDENTITY, dim, 12)
            if name != "whole":
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
            psi_q, phi_q = stacks(psi, phi)
            error = np.max(np.abs(_strip(psi_q, psi_s[None], phi_q, 16)[0] - reference))
            assert error <= 1e-13 * np.max(np.abs(reference)), name
            # the C2 symmetry alone reads W only through the strip, and U only
            # through the conjugation's first k rows and columns
            got = one_draw(psi, phi, n, 16, C2_SLOW_DECAY, normality=False)
            assert list(got) == ["symmetry"], name
        with pytest.raises(AssertionError, match="refused builder"):
            build_wco(*BUILD_PATH_CASES["disk-automorphism"], n)

    @pytest.mark.parametrize("n", [48, 191, 192, 448, MAX_DIM])
    def test_doubling_steps_at_most_k_plus_1_wide(self, n, monkeypatch):
        # every seam doubles with a step of at most (k+1) x (k+1), so none
        # is O(N^3); a whole W never doubles
        seen = []
        real = operators._double

        def spy(run, step):
            seen.append(step.shape[1:])  # one draw's step
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
        build_wco(psi, phi, n)
        conjugation_matrix(C2_SLOW_DECAY, n)
        assert not seen

    def test_whole_build_is_the_recurrence(self):
        # the C2 conjugation's weight and map as conjugation_matrix forms them: a stack of one
        weight, vmap = operators._c2_symbols(np.array([C2_SLOW_DECAY.lam]), np.array([C2_SLOW_DECAY.alpha]))
        for n in (1, 48, 96, 384):
            for name, (psi, phi) in build_cases().items():  # a constant map v is the recurrence of (0, v, 0, 1)
                got = build_wco(psi, phi, n)
                want = _mobius_recurrence(psi_series(psi, n), np.array(phi, dtype=complex))
                assert np.array_equal(got, want), (name, n)
            got = conjugation_matrix(C2_SLOW_DECAY, n)
            assert np.array_equal(got, _mobius_recurrence(quotient_series(weight, n)[0], vmap[0])), n


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
            assert_matches(build_wco(psi, phi, n), reference, name)
        for modulus in C2_MODULI:
            c = Conjugation("C2", np.exp(0.3j), modulus * np.exp(1.1j))
            reference = convolution_columns(psi_series(c2_symbols(c)[0], n), c2_symbols(c)[1], n)
            assert_matches(conjugation_matrix(c, n), reference, modulus)

    @pytest.mark.parametrize("rows, cols", [(192, 2), (192, 9), (200, 17), (389, 193), (193, 389), (250, 1024)])
    def test_rectangles_match_convolutions(self, rows, cols):
        # rows < cols doubles (_rectangle, the first rows); rows > cols is the
        # leading columns of a whole W of the rows-truncation (build_wco)
        assert rows >= 192 and rows != cols
        n = max(rows, cols)
        for name, (psi, phi) in tile_cases().items():
            psi_s = psi_series(psi, n)
            reference = convolution_columns(psi_s[:rows], phi, rows, cols)
            if rows < cols:
                got = _rectangle(psi_s[None], phi_series(phi, n)[None], rows, cols)[0]
            else:
                got = build_wco(psi, phi, rows)[:, :cols]
            assert_matches(got, reference, name)

    def test_leading_block_of_the_largest_build(self):
        n, k = MAX_DIM, 389
        for name, (psi, phi) in tile_cases().items():
            reference = convolution_columns(psi_series(psi, k), phi, k)
            assert_matches(build_wco(psi, phi, n)[:k, :k], reference, name)

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
            fam.hyperbolic_aut_map(fam.HyperbolicParams(rng.uniform(1.05, 6.0), complex(*rng.uniform(0, 2, 2))))),
    }
    for family, draw in draws.items():
        kept = 0
        while kept < per_family:
            try:
                psi, phi = draw()
            except WcoError:
                continue
            if is_degenerate(phi) or not is_self_map(phi):
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
            step = _row_step(*stacks(psi, phi), k)[0]
            assert np.max(np.abs(step[:k, :k] - toeplitz.T)) <= 1e-14 * max(1.0, np.max(np.abs(toeplitz))), family
            assert not np.any(step[:k, k])
            assert np.allclose(step[k, :k], mobius(phi, 0.0) ** np.arange(k), rtol=1e-14, atol=1e-15), family
            assert step[k, k] == pytest.approx(1.0 / poles([psi])[0], rel=1e-14, abs=0.0), family

    def test_step_powers_are_contractions(self):
        k, worst = self.K, 0.0
        for family, psi, phi in family_self_maps(np.random.default_rng(13), 60):
            power = _row_step(*stacks(psi, phi), k)[0, :k, :k]
            for _ in range(11):  # R^h for h = 2^0 ... 2^10
                worst = max(worst, np.linalg.norm(power, 2))
                assert np.linalg.norm(power, 2) <= 1.0 + 1e-12, family
                power = power @ power
        assert worst > 0.9  # the automorphisms reach near the bound


class TestSeams:
    """Each symbol-level residual equals the public residual of the whole
    matrices within 1e-13 max(1, r)."""

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
            t = build_wco(*pair, n)
            normal = normality_residual(t, k)
            assert self.close(one_draw(*pair, n, k)["normality"], normal)
            for c in conjugations:
                sym = symmetry_residual(t, conjugation_matrix(c, n), k)
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
        the seam and symmetry_residual of the whole matrices agree within
        1e-13 max(1, r), so they fall in the same pass / fail band."""
        rng = np.random.default_rng(5)
        cfg, k = verify.SuiteConfig(), 16
        for i in range(60):
            params, (psi, phi) = c2_selfmap(rng)
            if i % 2:
                psi = verify._perturbed(np.array([psi]))[0]
            c = Conjugation("C2", 1.0, params.alpha)
            seam = one_draw(psi, phi, n, k, c, normality=False)["symmetry"]
            whole = symmetry_residual(build_wco(psi, phi, n), conjugation_matrix(c, n), k)
            assert self.close(seam, whole), (i, seam, whole)
            assert verify.band_verdict(seam, cfg) == verify.band_verdict(whole, cfg), (i, seam, whole)
            assert seam >= 0.1 if i % 2 else seam <= 1e-13, (i, seam)

    @pytest.mark.parametrize("n", [192, 384, MAX_DIM])
    def test_no_seam_reads_all_of_w(self, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("whole W built")

        monkeypatch.setattr(operators, "build_wco", refuse)
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
        c_phi = build_wco(ONE, m, n)
        m_g, m_h = build_wco(g, IDENTITY, n), build_wco(h, IDENTITY, n)
        # the flipped-sign sigma is not a self-map, so build_wco refuses it
        c_sigma = convolution_columns(psi_series(ONE, n), sigma, n)
        whole = np.linalg.norm((c_phi.conj().T - m_g @ c_sigma @ m_h.conj().T)[:k, :k])
        assert self.close(one_factorization(m, n, k, sigma_sign=sigma_sign), whole)


class TestBlockResiduals:
    """Each residual forms only the block it reads; it must equal the full
    N x N products sliced to the block."""

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
        assert abs(symmetry_residual(t, u, k) - full_sym) <= 1e-13
        full_normal = np.linalg.norm((t.conj().T @ t - t @ t.conj().T)[:k, :k])
        assert abs(normality_residual(t, k) - full_normal) <= 1e-13

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
        t = build_wco(psi, phi, 48)
        u = conjugation_matrix(Conjugation("J"), 48)
        assert symmetry_residual(t, u, 16) <= 1e-15

    def test_j_family_in_family(self):
        psi, phi = j_family(0.3, 0.2)
        t = build_wco(psi, phi, 64)
        u = conjugation_matrix(Conjugation("J"), 64)
        assert symmetry_residual(t, u, 16) <= 1e-9

    def test_out_of_family_weight(self):
        phi = (0.2, 0, 0, 1)
        t = build_wco((1, 0.3, 1, 0), phi, 64)
        u = conjugation_matrix(Conjugation("J"), 64)
        assert symmetry_residual(t, u, 16) >= 1e-2

    def test_dimension_mismatch(self):
        from wcosym.errors import DimensionMismatchError

        t = build_wco(ONE, IDENTITY, 48)
        u = conjugation_matrix(Conjugation("J"), 64)
        with pytest.raises(DimensionMismatchError):
            symmetry_residual(t, u, 12)

    def test_double_application_restores_block(self):
        psi = (1.0, 0.2, 1, -0.3)
        t = build_wco(psi, (0.35, 0.1, -0.05, 1.0), 80)
        u = conjugation_matrix(Conjugation("C2", 1.0, 0.3), 80)
        k = 12
        once = u @ t.T @ u.conj()
        twice = u @ once.T @ u.conj()
        assert np.linalg.norm((twice - t)[:k, :k]) <= 1e-12


class TestNormalityResidual:
    def test_diagonal_zero(self):
        t = build_wco((1.3, 0, 1, 0), (0.6j, 0, 0, 1), 48)
        assert normality_residual(t, 12) <= 1e-14

    def test_interior_family_normal(self):
        p, delta, gamma = 0.3, 0.5j, 1.0
        pc = np.conj(p)
        psi = (gamma * (1 - abs(p) ** 2), 0, 1 - abs(p) ** 2 * delta, pc * (delta - 1))
        phi = (delta - abs(p) ** 2, p * (1 - delta), pc * (delta - 1), 1 - abs(p) ** 2 * delta)
        t = build_wco(psi, phi, 64)
        assert normality_residual(t, 12) <= 1e-7

    def test_damped_map_not_normal(self):
        phi = (1.85, 1, 1, 2)
        sigma0 = -np.conj(phi[2]) / np.conj(phi[3])
        psi = (1, 0, 1, -np.conj(sigma0))
        t = build_wco(psi, phi, 64)
        assert normality_residual(t, 12) >= 1e-3

    def test_residual_decay_with_dimension(self):
        # doubling the dimension must not let the residual grow; the
        # padding protocol k + 32 <= N caps the smallest usable dimension
        # at 44, so the progression starts at 48 rather than 32
        p, delta = 0.3, 0.5j
        pc = np.conj(p)
        psi = (1 - abs(p) ** 2, 0, 1 - abs(p) ** 2 * delta, pc * (delta - 1))
        phi = (delta - abs(p) ** 2, p * (1 - delta), pc * (delta - 1), 1 - abs(p) ** 2 * delta)
        residuals = [normality_residual(build_wco(psi, phi, n), 12) for n in (48, 96, 192)]
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
        eigenvalues = np.linalg.eigvals(build_wco(psi, phi, 96))
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
