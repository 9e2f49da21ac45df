"""Truncated power series on the monomial basis.

A function analytic at 0 is represented by a plain complex vector of its
first ``N`` Taylor coefficients; in this basis the coefficient vectors are
exactly the coordinates used by the operator truncations: the weight's
vector is the first column of W, and the Mobius map's vector drives the
columns after it (``operators`` doubles with its Toeplitz matrix for the
first rows and the leading block; a whole W comes from a recurrence in
the map's four coefficients).
Products are exact through the truncation order (the Cauchy product of
index n only touches indices <= n); the only genuinely lossy operation
is composition, where the tail of the outer series spills into every
coefficient.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import PoleAtOriginError

if TYPE_CHECKING:  # pragma: no cover
    from .mobius import MobiusMap

_POLE_EPS = 1e-14


@dataclass(frozen=True)
class RationalSymbol:
    """Degree-(1,1) rational function (n0 + n1 z) / (d0 + d1 z).

    Every weight symbol used by the operator builder has this shape; a
    polynomial of degree <= 1 is the special case d1 = 0.
    """

    n0: complex
    n1: complex
    d0: complex
    d1: complex

    def __post_init__(self):
        for name in ("n0", "n1", "d0", "d1"):
            v = complex(getattr(self, name))
            if not cmath.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)

    @classmethod
    def constant(cls, value: complex) -> "RationalSymbol":
        return cls(value, 0.0, 1.0, 0.0)

    def pole(self) -> complex:
        """Location of the pole, or complex infinity for a polynomial."""
        if self.d1 == 0:
            return complex(np.inf, 0.0)
        return -self.d0 / self.d1

    def __call__(self, z: complex) -> complex:
        return (self.n0 + self.n1 * z) / (self.d0 + self.d1 * z)


def expand_rational(r: RationalSymbol, n: int) -> np.ndarray:
    """First ``n`` Taylor coefficients of a rational symbol at 0.

    Uses the geometric recurrence c_k = -(d1/d0) c_{k-1}, run as one
    cumulative product; each step is a single multiply, so relative error
    stays at rounding level.  A pole inside the disk makes the
    coefficients grow; once they overflow the expansion is refused.
    """
    if abs(r.d0) < _POLE_EPS:
        raise PoleAtOriginError("denominator vanishes at 0")
    c = np.zeros(n, dtype=complex)
    if n > 0:
        c[0] = r.n0 / r.d0
    if n > 1:
        c[1] = (r.n1 - r.d1 * c[0]) / r.d0
        c[2:] = -r.d1 / r.d0
        np.cumprod(c[1:], out=c[1:])
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    return c


def mobius_series(m: "MobiusMap", n: int) -> np.ndarray:
    """Taylor coefficients of a Mobius map (az + b)/(cz + d) at 0."""
    return expand_rational(RationalSymbol(m.b, m.a, m.d, m.c), n)
