"""Truncated power-series arithmetic on the monomial basis.

A function analytic at 0 is represented by its first ``N`` Taylor
coefficients; in this basis the coefficient vectors are exactly the
coordinates used by the operator truncations, so everything downstream
reduces to convolutions of these vectors.  Products are exact through the
truncation order (the Cauchy product of index n only touches indices
<= n); the only genuinely lossy operation is composition, where the tail
of the outer series spills into every coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import OrderMismatchError, PoleAtOriginError

if TYPE_CHECKING:  # pragma: no cover
    from .mobius import MobiusMap

MAX_ORDER = 1024
COEFF_ATOL = 1e-12
COEFF_RTOL = 1e-9
_POLE_EPS = 1e-14


@dataclass(frozen=True)
class PowerSeries:
    """First ``order`` Taylor coefficients of a function analytic at 0."""

    coeffs: np.ndarray
    order: int = field(default=-1)

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 1:
            raise ValueError("coefficients must be a 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        order = len(arr) if self.order < 0 else self.order
        if len(arr) != order:
            raise OrderMismatchError(
                f"declared order {order} != coefficient count {len(arr)}"
            )
        if order > MAX_ORDER:
            raise ValueError(f"order {order} exceeds cap {MAX_ORDER}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "order", order)

    def __len__(self):
        return self.order

    def __getitem__(self, n):
        return self.coeffs[n]

    def __call__(self, z: complex) -> complex:
        """Evaluate the truncated polynomial at ``z`` (Horner)."""
        acc = 0.0 + 0.0j
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc

    def allclose(self, other: "PowerSeries", atol=COEFF_ATOL, rtol=COEFF_RTOL) -> bool:
        if self.order != other.order:
            return False
        return bool(
            np.all(np.abs(self.coeffs - other.coeffs) <= atol + rtol * np.abs(other.coeffs))
        )


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
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
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

    def scale(self, factor: complex) -> "RationalSymbol":
        return RationalSymbol(factor * self.n0, factor * self.n1, self.d0, self.d1)


def expand_rational(r: RationalSymbol, n: int) -> PowerSeries:
    """First ``n`` Taylor coefficients of a rational symbol at 0.

    Uses the geometric recurrence c_k = -(d1/d0) c_{k-1}; each step is a
    single multiply, so relative error stays at rounding level.
    """
    if abs(r.d0) < _POLE_EPS:
        raise PoleAtOriginError("denominator vanishes at 0")
    c = np.zeros(n, dtype=complex)
    if n > 0:
        c[0] = r.n0 / r.d0
    if n > 1:
        c[1] = (r.n1 - r.d1 * c[0]) / r.d0
        ratio = -r.d1 / r.d0
        for k in range(2, n):
            c[k] = ratio * c[k - 1]
    return PowerSeries(c)


def mobius_series(m: "MobiusMap", n: int) -> PowerSeries:
    """Taylor coefficients of a Mobius map (az + b)/(cz + d) at 0."""
    return expand_rational(RationalSymbol(m.b, m.a, m.d, m.c), n)
