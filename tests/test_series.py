import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcosym.errors import PoleAtOriginError
from wcosym.series import poles, quotient_series

from conftest import rational


def small_complex(r):
    return st.complex_numbers(max_magnitude=r, allow_nan=False, allow_infinity=False)


class TestExpandRational:
    """quotient_series on stacks of one (n0, n1, d0, d1) row; the class name
    is kept so that its test ids stay comparable."""

    def test_geometric(self):
        s = quotient_series([(1, 0, 1, -0.5)], 4)[0]
        assert np.allclose(s, [1, 0.5, 0.25, 0.125])

    def test_constant(self):
        s = quotient_series([(0.7, 0, 1, 0)], 4)[0]
        assert np.allclose(s, [0.7, 0, 0, 0])

    def test_interior_weight(self):
        # gamma (1 - p^2) / (1 - conj(p) z) at p = 0.5, delta = 0
        s = quotient_series([(0.75, 0, 1, -0.5)], 6)[0]
        assert np.allclose(s, 0.75 * 0.5 ** np.arange(6))

    def test_pole_at_origin(self):
        with pytest.raises(PoleAtOriginError):
            quotient_series([(1, 0, 0, 1)], 4)

    def test_pole_inside_disk_overflows(self):
        # pole at 1/3: the coefficients 3^k overflow before k = 1024
        with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
            quotient_series([(1, 0, 1, -3)], 1024)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_short_expansions(self, n):
        s = quotient_series([(0.6, 0.5, 2.0, -1.0)], n)[0]
        assert s.shape == (n,)
        assert np.allclose(s, [0.3, 0.4][:n])

    @settings(max_examples=50, deadline=None)
    @given(small_complex(0.9), small_complex(0.9), small_complex(0.9))
    def test_matches_loop_reference(self, n0, n1, d1):
        r0, r1, q0, q1 = r = (complex(n0), complex(n1), 1.0 + 0j, complex(d1))
        n = 96
        ref = np.zeros(n, dtype=complex)
        ref[0] = r0 / q0
        ref[1] = (r1 - q1 * ref[0]) / q0
        for k in range(2, n):
            ref[k] = -q1 / q0 * ref[k - 1]
        got = quotient_series([r], n)[0]
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @settings(max_examples=50, deadline=None)
    @given(small_complex(0.8), small_complex(0.8), small_complex(0.6))
    def test_evaluation_matches_direct(self, n0, n1, d1):
        r = (n0, n1, 1.0, d1)
        s = quotient_series([r], 64)[0]
        z = 0.1
        assert abs(np.polyval(s[::-1], z) - rational(r, z)) <= 1e-12


class TestKernelSeries:
    @settings(max_examples=40, deadline=None)
    @given(small_complex(0.8), small_complex(0.8), small_complex(0.5))
    def test_reproducing_property(self, w, n1, d1):
        # <f, K_w> = f(w) for rational f analytic past the closed disk
        f = (1.0, n1, 1.0, 0.6 * d1)
        fs = quotient_series([f], 128)[0]
        kw = np.conj(w) ** np.arange(128)  # K_w(z) = 1/(1 - conj(w) z)
        inner = np.dot(fs, np.conj(kw))
        assert abs(inner - rational(f, w)) <= 1e-10


class TestPoles:
    def test_subnormal_d1_is_infinity(self):
        # a polynomial's pole and one where -d0/d1 overflows are complex
        # infinity, without an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = poles(np.array([[1, 0, 1, 0], [1, 0, 1, -0.5], [1, 0, 1, 5e-324], [1, 0, -1j, -5e-324j]]))
        assert got.tolist() == [complex(np.inf, 0.0), 2.0, complex(np.inf, 0.0), complex(np.inf, 0.0)]
