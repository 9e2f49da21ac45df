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
coefficient.  ``quotient_series`` expands a stack of quotients at once
(the operators' stacks of draws); a single expansion is a stack of one.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import PoleAtOriginError

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
        n0, n1, d0, d1 = complex(self.n0), complex(self.n1), complex(self.d0), complex(self.d1)
        if not (cmath.isfinite(n0) and cmath.isfinite(n1) and cmath.isfinite(d0) and cmath.isfinite(d1)):
            name = next(k for k, v in zip(("n0", "n1", "d0", "d1"), (n0, n1, d0, d1)) if not cmath.isfinite(v))
            raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "d1", d1)

    def pole(self) -> complex:
        """Location of the pole, or complex infinity for a polynomial."""
        return complex(poles(np.array([self.coefficients()]))[0])

    def coefficients(self):
        return self.n0, self.n1, self.d0, self.d1

    def __call__(self, z: complex) -> complex:
        return (self.n0 + self.n1 * z) / (self.d0 + self.d1 * z)


def poles(quads: np.ndarray) -> np.ndarray:
    """The pole -d0/d1 of each (n0, n1, d0, d1) row of a (B, 4) stack, or
    complex infinity where d1 = 0 (a polynomial)."""
    quads = np.asarray(quads, dtype=complex)
    out = np.full(len(quads), complex(np.inf, 0.0))
    return np.divide(-quads[:, 2], quads[:, 3], out=out, where=quads[:, 3] != 0)


def quotient_series(quads: np.ndarray, n: int) -> np.ndarray:
    """Row b: the first ``n`` Taylor coefficients at 0 of
    (n0 + n1 z) / (d0 + d1 z), (n0, n1, d0, d1) = quads[b], for a (B, 4)
    stack.

    Uses the geometric recurrence c_k = -(d1/d0) c_{k-1}, run as one
    cumulative product along each row; each step is a single multiply, so
    relative error stays at rounding level.  A pole inside the disk makes
    the coefficients grow; once they overflow the expansion is refused.
    Each row equals the expansion of its quotient alone.
    """
    n0, n1, d0, d1 = np.asarray(quads, dtype=complex).T
    if (abs(d0) < _POLE_EPS).any():
        raise PoleAtOriginError("denominator vanishes at 0")
    c = np.empty((len(d0), n), dtype=complex)
    if n > 0:
        c[:, 0] = n0 / d0
    if n > 1:
        c[:, 1] = (n1 - d1 * c[:, 0]) / d0
        c[:, 2:] = (-d1 / d0)[:, None]
    np.cumprod(c[:, 1:], axis=1, out=c[:, 1:])
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    return c
