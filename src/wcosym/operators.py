"""Finite truncations of weighted composition operators and conjugations.

Everything acts on span{1, z, ..., z^(N-1)} with the monomial basis, which
is orthonormal in the norm sum |a_n|^2, so adjoints are conjugate
transposes and anti-linear operators are matrices applied to conjugated
coordinates.  Matrices are plain N x N complex arrays: column j of an
operator holds the coefficients of the image of z^j, and an anti-linear
operator is the matrix U of x -> U conj(x).  N is capped at MAX_DIM = 1024,
checked before any N x N array is allocated.

Column j of W is psi phi^j.  A whole W is built by the Mobius recurrence
(cz + d) psi phi^j = (az + b) psi phi^(j-1), swept in square tiles as a
wavefront: one GEMM per anti-diagonal of tiles, about 2N / _TILE
Python-level steps in O(N^2).  Every part of W that a residual reads is
built by one doubling kernel, _double, which fills run[m] = run[m - 1] @ step
from run[0] in about log2 of the run's length products: the first k rows
and the leading block with the transposed Toeplitz matrix of phi as the
step, the first k columns (_strip) with the (k+1)-wide step of their row
recurrence.

Residuals are always measured on a leading k x k block with k + 32 <= N:
truncation corrupts the trailing rows and columns of products, and the
geometric decay of the symbol coefficients confines that corruption away
from the leading block.  Each residual forms only the rows and columns of
its products that reach the block: the k x k block of the N-truncation is
the k-truncation, the first k rows and the first k columns cost O(N k^2).
No seam reads all of W: every symmetry residual, symmetry_residual too, is
the commutator U conj(T) - T^H U on the block, which reads only the first
k columns of T.
build_wco and conjugation_matrix remain the public whole-matrix builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Literal, Optional, Tuple, Union

import numpy as np

from .errors import (
    BadParameterDomainError,
    BlockTooLargeError,
    DimensionMismatchError,
    NotSelfMapError,
    SymbolPoleError,
)
from .mobius import ConstantMap, MobiusMap, cowen_adjoint, is_self_map, IDENTITY
from .series import RationalSymbol, expand_rational, mobius_series

BLOCK_PAD = 32
MAX_DIM = 1024
# tile side of _mobius_recurrence.  Whole C2 W at |alpha| = 0.9, 2-vCPU VM, one
# BLAS thread, ms for sides 4 / 6 / 8 / 12 / 16: 2.9-3.9 / 2.1-2.9 / 2.0-2.7 /
# 1.9-2.5 / 2.3-2.9 at N = 384, 22-26 / 14-16 / 13-17 / 13-14 / 14-15 at 1024.
_TILE = 8
_POLE_GUARD = 1.0 + 1e-9


@dataclass(frozen=True)
class Conjugation:
    """Parameters of the three conjugations.

    kind "J": plain coefficient conjugation, lam and alpha unused.
    kind "C1": weight lam, composition z -> alpha z, |lam| = |alpha| = 1.
    kind "C2": weight lam k_alpha, composition the alpha-involution of the
    disk, |lam| = 1 and 0 < |alpha| < 1.
    """

    kind: Literal["J", "C1", "C2"]
    lam: complex = 1.0
    alpha: complex = 0.0

    def __post_init__(self):
        if self.kind not in ("J", "C1", "C2"):
            raise BadParameterDomainError(f"unknown conjugation kind {self.kind!r}")
        if self.kind != "J":
            if abs(abs(complex(self.lam)) - 1.0) > 1e-12:
                raise BadParameterDomainError("|lam| must equal 1")
        if self.kind == "C1" and abs(abs(complex(self.alpha)) - 1.0) > 1e-12:
            raise BadParameterDomainError("C1 needs |alpha| = 1")
        if self.kind == "C2" and not 0.0 < abs(complex(self.alpha)) < 1.0:
            raise BadParameterDomainError("C2 needs 0 < |alpha| < 1")
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "alpha", complex(self.alpha))


def _checked_series(psi: RationalSymbol, phi: Union[MobiusMap, ConstantMap], n: int):
    """Every refusal of build_wco, then the length-n expansions of psi and
    of phi (None for a constant map), which refuse non-finite coefficients."""
    _check_dim(n)
    pole = psi.pole()
    if abs(pole) <= _POLE_GUARD:
        raise SymbolPoleError(f"weight pole at {pole} not outside the closed disk")
    if isinstance(phi, ConstantMap):
        if abs(phi.value) >= 1.0:
            raise NotSelfMapError("constant map value must lie inside the disk")
        return expand_rational(psi, n), None
    if not is_self_map(phi):
        raise NotSelfMapError("composition symbol is not a self-map")
    return expand_rational(psi, n), mobius_series(phi, n)  # refuses a pole at 0


def _rectangle(psi_s: np.ndarray, phi_s, phi, rows: int, cols: int) -> np.ndarray:
    """W[:rows, :cols] of the rows-truncation, rows <= len(psi_s).  The whole
    W (rows = len(psi_s)) is the Mobius recurrence.  Fewer rows (the leading
    block or the first rows) double column j = T column (j - 1), T the
    Toeplitz matrix of phi[:rows]: a finite section of the analytic Toeplitz
    operator T_phi, so every power of T has norm at most sup|phi| <= 1
    (Brown and Halmos, J. reine angew. Math. 213, 1964)."""
    if phi_s is None:  # column j is psi value^j
        mat = np.full((rows, cols), phi.value, dtype=complex)
        mat[:, 0] = psi_s[:rows]
        return np.cumprod(mat, axis=1, out=mat)
    if rows == len(psi_s):
        return _mobius_recurrence(psi_s, phi, cols)
    run = np.empty((cols, rows), dtype=complex)
    run[0] = psi_s[:rows]
    return _double(run, _toeplitz(phi_s[:rows]).T).T


def _strip(
    psi: RationalSymbol, psi_s: np.ndarray, phi: Union[MobiusMap, ConstantMap], k: int
) -> np.ndarray:
    """W[:, :k] of the truncation at N = len(psi_s) >= 3, by doubling the row recurrence.

    Write a, b, c for the coefficients of phi divided by d and g_m for
    W[m, :k].  The generating function sum_j psi phi^j t^j equals
    sigma(z) / ((1 - bt)(1 - z chi(t))), with sigma = (1 + cz) psi and
    chi(t) = (at - c)/(1 - bt), so g_m = g_(m-1) R + sigma_m q: R is the
    upper-triangular Toeplitz matrix of chi, q the series of 1/(1 - bt).
    sigma is geometric from m = 2 on, so s_m = [g_m, sigma_(m+1)] obeys
    s_m = s_(m-1) A (A from _row_step) from m = 2 on, and _double fills
    the rows m >= 1 from row 1 in about log2(N) products of k + 1
    columns, O(N k^2) in all.  chi is conj(sigma_C(conj t)) for Cowen's
    adjoint map sigma_C, a self-map whenever phi is, so every power of R
    is a contraction and doubling on it is stable.
    """
    n = len(psi_s)
    if isinstance(phi, ConstantMap):
        return _rectangle(psi_s, None, phi, n, k)
    c = phi.c / phi.d
    step = _row_step(psi, phi, k)
    s = np.empty((n, k + 1), dtype=complex)
    s[0, :k], s[0, k] = psi_s[0] * step[k, :k], psi_s[1] + c * psi_s[0]
    s[1] = s[0] @ step
    s[1, k] = psi_s[2] + c * psi_s[1]  # sigma_2 need not be r sigma_1
    _double(s[1:], step)
    return s[:, :k]


def _double(run: np.ndarray, step: np.ndarray) -> np.ndarray:
    """run with run[m] = run[m - 1] @ step filled in from run[0], doubling:
    rows [h, 2h) are rows [0, h) times step^h, so about log2(len(run))
    products and squarings of step."""
    power, h = step, 1
    while h < len(run):
        m = min(h, len(run) - h)
        run[h:h + m] = run[:m] @ power
        if 2 * h < len(run):
            power = power @ power
        h *= 2
    return run


def _toeplitz(coeffs: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrix [i, j] = coeffs[i - j], a strided
    view over len(coeffs) - 1 zeros and then coeffs: at k = 16 about 1 us,
    where fancy indexing takes 4."""
    n = len(coeffs)
    padded = np.zeros(2 * n - 1, dtype=complex)
    padded[n - 1:] = coeffs
    item = padded.itemsize
    return np.ndarray((n, n), complex, padded, (n - 1) * item, (item, -item))


def _row_step(psi: RationalSymbol, phi: MobiusMap, k: int) -> np.ndarray:
    """The (k+1) x (k+1) step A = [[R, 0], [q, r]] of s_m = s_(m-1) A in
    _strip.  chi = -c + (a - bc) t q(t), and r = -d1/d0 is the ratio of
    psi's symbol: the ratio of its series would be 0/0 for a weight whose
    sigma is a polynomial (the C2 weight)."""
    a, b, c = phi.a / phi.d, phi.b / phi.d, phi.c / phi.d
    step = np.zeros((k + 1, k + 1), dtype=complex)
    step[k, :k] = q = b ** np.arange(k)
    chi = np.concatenate(([-c], (a - b * c) * q[:-1]))
    step[:k, :k] = _toeplitz(chi).T  # R[i, j] = chi_(j - i)
    step[k, k] = -psi.d1 / psi.d0
    return step


def _cross(psi: RationalSymbol, phi: Union[MobiusMap, ConstantMap], n: int, k: int):
    """(W[:k], W[:, :k]) of the n-truncation: all W*W and WW* read on the block."""
    psi_s, phi_s = _checked_series(psi, phi, n)
    _check_block(n, k)
    return _rectangle(psi_s, phi_s, phi, k, n), _strip(psi, psi_s, phi, k)


def _block(psi: RationalSymbol, phi: Union[MobiusMap, ConstantMap], n: int, k: int) -> np.ndarray:
    """W[:k, :k] of the n-truncation, which is the k-truncation."""
    psi_s, phi_s = _checked_series(psi, phi, n)
    _check_block(n, k)
    return _rectangle(psi_s, phi_s, phi, k, k)


def _mobius_recurrence(psi_s: np.ndarray, phi: MobiusMap, cols: int) -> np.ndarray:
    """G[m, j] = coefficient m of psi phi^j, j < cols, for phi = (az + b)/(cz + d).

    Comparing coefficients of z^m in (cz + d) G[:, j] = (az + b) G[:, j-1]
    gives d G[m, j] = b G[m, j-1] + a G[m-1, j-1] - c G[m-1, j], which
    reaches back only to the row above and the column to the left.  G is
    stored below one zero row (the m = -1 terms), right of its psi column,
    in _TILE x _TILE tiles (rows and columns padded to multiples of _TILE).
    A tile's interior is its boundary (the row above with the corner, then
    the column to the left) times _tile_transfer(phi), and tiles I + J = s
    need only tiles I + J < s: one GEMM per anti-diagonal of tiles, about
    2N / _TILE steps (Lamport's wavefront).
    """
    n, size = len(psi_s), _TILE
    rows, width = -(-n // size) * size, -(-(cols - 1) // size) * size + 1
    buf = np.zeros((rows + 1) * width, dtype=complex)
    buf.reshape(rows + 1, width)[1:n + 1, 0] = psi_s
    transfer, item = _tile_transfer(phi), buf.itemsize
    down, across, skip = rows // size, (width - 1) // size, size * (width - 1) * item
    edge = np.empty((min(down, across), 2 * size + 1), dtype=complex)
    for s in range(down + across - 1):
        # tiles (I, s - I), I in lo..hi: the corner of tile I is skip bytes past tile I - 1's
        lo, hi = max(0, s - across + 1), min(s, down - 1)
        at, t = (s + lo * (width - 1)) * size * item, hi - lo + 1
        edge[:t, :size + 1] = np.ndarray((t, size + 1), complex, buf, at, (skip, item))
        edge[:t, size + 1:] = np.ndarray((t, size), complex, buf, at + width * item, (skip, width * item))
        inside = np.ndarray((t, size, size), complex, buf, at + (width + 1) * item, (skip, width * item, item))
        inside[...] = (edge[:t] @ transfer).reshape(t, size, size)
    return buf.reshape(rows + 1, width)[1:n + 1, :cols]


def _tile_transfer(phi: MobiusMap) -> np.ndarray:
    """(2 _TILE + 1) x _TILE^2 map of a tile's boundary to its row-major interior:
    the recurrence run on all unit boundaries at once, a tile anti-diagonal per step."""
    a, b, c = phi.a / phi.d, phi.b / phi.d, phi.c / phi.d
    size, side = _TILE, _TILE + 1
    tile = np.zeros((side * side, 2 * size + 1), dtype=complex)  # cell (i, j) in row i side + j
    tile[:side, :side] = np.eye(side)
    tile[side::side, side:] = np.eye(size)
    for s in range(2, 2 * size + 1):  # cells (i, s - i) have stride size
        lo, hi = max(1, s - size), min(size, s - 1)
        start, stop = lo * size + s, hi * size + s + 1
        left, up = tile[start - 1:stop - 1:size], tile[start - side:stop - side:size]
        tile[start:stop:size] = b * left + a * tile[start - side - 1:stop - side - 1:size] - c * up
    return tile.reshape(side, side, -1)[1:, 1:].reshape(size * size, -1).T


def build_wco(
    psi: RationalSymbol,
    phi: Union[MobiusMap, ConstantMap],
    n: int,
) -> np.ndarray:
    """Truncation of f -> psi (f o phi): column j = series of psi * phi^j.

    The weight must be analytic on the closed disk (pole strictly
    outside); phi must be a self-map.  Coefficient m of psi phi^j depends
    only on coefficients <= m of psi and phi, so each column is the exact
    truncation up to rounding.  Built at every N by the tile wavefront of
    the Mobius recurrence (a constant map by a cumulative product); the
    result is a view of its padded (N + _TILE + 1)^2 buffer.
    """
    psi_s, phi_s = _checked_series(psi, phi, n)
    return _rectangle(psi_s, phi_s, phi, n, n)


def conjugation_matrix(c: Conjugation, n: int) -> np.ndarray:
    """Matrix U with the conjugation acting as x -> U conj(x)."""
    _check_dim(n)
    if c.kind == "J":
        return np.eye(n, dtype=complex)
    if c.kind == "C1":
        return np.diag(c.lam * c.alpha ** np.arange(n))
    return build_wco(*_c2_symbols(c), n)


def _c2_symbols(c: Conjugation) -> Tuple[RationalSymbol, MobiusMap]:
    """Weight lam k_alpha (normalized) and the alpha-involution of a C2 conjugation."""
    alpha = c.alpha
    weight = RationalSymbol(c.lam * np.sqrt(1.0 - abs(alpha) ** 2), 0.0, 1.0, -np.conj(alpha))
    return weight, MobiusMap(-np.conj(alpha) / alpha, np.conj(alpha), -np.conj(alpha), 1.0)


def _check_dim(n: int):
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension N = {n} outside 1..{MAX_DIM}")


def _check_block(n: int, k: int):
    if not 1 <= k <= n - BLOCK_PAD:
        raise BlockTooLargeError(f"need 1 <= k and k + {BLOCK_PAD} <= N, got k={k}, N={n}")


def involution_residual(u: np.ndarray, k: int) -> Tuple[float, float]:
    """(involution defect, isometry defect) on the leading k x k block.

    C^2 x = U conj(U) x, so the first component is ||U conj(U) - I||; the
    anti-linear isometry axiom reduces to U^H U = I, the second component.
    """
    _check_block(len(u), k)
    return _involution_defect(u[:k], u[:, :k])


def _involution_defect(rows: np.ndarray, cols: np.ndarray) -> Tuple[float, float]:
    eye = np.eye(len(rows), dtype=complex)
    inv = rows @ cols.conj() - eye
    iso = cols.conj().T @ cols - eye
    return float(np.linalg.norm(inv)), float(np.linalg.norm(iso))


def symmetry_residual(t: np.ndarray, u: np.ndarray, k: int) -> float:
    """|| U conj(T) - T^H U || on the leading block, the defect the seam
    wco_residuals measures.

    For anti-linear C: x -> U conj(x) this is || CW - W*C ||, and T is
    C-symmetric (T = C T* C) iff it vanishes.  It reads only the first k
    rows and columns of U and the first k columns of T.
    """
    if t.shape != u.shape:
        raise DimensionMismatchError(f"shapes differ: {t.shape} != {u.shape}")
    _check_block(len(t), k)
    return _symmetry_defect(t[:, :k], u[:k], u[:, :k])


def _symmetry_defect(t: np.ndarray, u_rows: np.ndarray, u_cols: np.ndarray) -> float:
    """|| U conj(T) - T^H U || on the block, t = T[:len(u_cols), :k]."""
    return float(np.linalg.norm(u_rows @ t.conj() - t.conj().T @ u_cols))


def normality_residual(t: np.ndarray, k: int) -> float:
    """|| T*T - TT* || on the leading block."""
    _check_block(len(t), k)
    return _normality_defect(t[:k], t[:, :k])


def _normality_defect(rows: np.ndarray, cols: np.ndarray) -> float:
    return float(np.linalg.norm(cols.conj().T @ cols - rows @ rows.conj().T))


def wco_residuals(
    psi: RationalSymbol, phi: Union[MobiusMap, ConstantMap], n: int, k: int,
    conj: Optional[Conjugation] = None, normality: bool = True,
) -> Dict[str, float]:
    """normality_residual (unless normality is False) and, given conj, the
    symmetry defect || U conj(T) - T^H U || = || CW - W*C || of
    T = build_wco(psi, phi, n) on block k, with the same refusals.  It
    builds only what they read: the first k rows and columns of W for
    normality; for the symmetry, T[:, :k] for C2 and the k x k block for
    the diagonal J and C1, sliced from that cross when normality built it.
    The suites and `wcosym check` call it through verify.measure."""
    out = {}
    if normality:
        rows, cols = _cross(psi, phi, n, k)
    else:
        series = _checked_series(psi, phi, n)
        _check_block(n, k)
    if conj is not None:
        u_rows, u_cols = _conjugation_cross(conj, n, k)
        if normality:
            t = cols[:len(u_cols)]
        elif conj.kind == "C2":
            t = _strip(psi, series[0], phi, k)
        else:
            t = _rectangle(*series, phi, k, k)
        out["symmetry"] = _symmetry_defect(t, u_rows, u_cols)
    if normality:
        out["normality"] = _normality_defect(rows, cols)
    return out


def conjugation_residuals(c: Conjugation, n: int, k: int) -> Tuple[float, float]:
    """involution_residual(conjugation_matrix(c, n), k), building only the
    first k rows and columns of U; called through verify.measure."""
    return _involution_defect(*_conjugation_cross(c, n, k))


def _conjugation_cross(c: Conjugation, n: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """(U[:k], U[:, :k]) of conjugation_matrix(c, n): all the residuals read of U."""
    if c.kind == "C2":
        return _cross(*_c2_symbols(c), n, k)
    _check_dim(n)
    _check_block(n, k)
    u = conjugation_matrix(c, k)  # diagonal: the block is all that is nonzero
    return u, u


def adjoint_factorization_residual(
    m: MobiusMap, n: int, k: int, sigma_sign: int = -1
) -> float:
    """|| (C_phi)^H - M_g C_sigma (M_h)^H || on the leading block.

    M_g is lower triangular and M_h* upper triangular, so only the four
    k x k blocks (k-truncations, refused and expanded as at dimension n)
    reach it; it holds to rounding when the sigma sign is the correct one.
    """
    _check_dim(n)
    _check_block(n, k)
    if not is_self_map(m):
        raise NotSelfMapError("factorization residual needs a self-map")
    triple = cowen_adjoint(m, sigma_sign=sigma_sign)
    if sigma_sign == -1 and not is_self_map(triple.sigma):
        raise NotSelfMapError("sigma is not a self-map")
    one = np.eye(1, n, dtype=complex)[0]  # the series of 1
    c_phi = _rectangle(one, mobius_series(m, n), m, k, k)
    m_g = _block(triple.g, IDENTITY, n, k)
    # the flipped-sign variant of sigma need not be a self-map; build its
    # block without that check so the wrong convention can be exhibited failing
    c_sigma = _rectangle(one, mobius_series(triple.sigma, n), triple.sigma, k, k)
    m_h = _block(triple.h, IDENTITY, n, k)
    res = c_phi.conj().T - (m_g @ c_sigma) @ m_h.conj().T
    return float(np.linalg.norm(res))
