"""Finite truncations of weighted composition operators and conjugations.

Everything acts on span{1, z, ..., z^(N-1)} with the monomial basis, which
is orthonormal in the norm sum |a_n|^2, so adjoints are conjugate
transposes and anti-linear operators are matrices applied to conjugated
coordinates.  Matrices are plain N x N complex arrays: column j of an
operator holds the coefficients of the image of z^j, and an anti-linear
operator is the matrix U of x -> U conj(x).  N is capped at MAX_DIM = 1024,
checked before any N x N array is allocated.

Column j of W is psi phi^j.  The kernels read phi only as its coefficients
(a, b, c, d) of (az + b)/(cz + d), and a constant map z -> v as
(0, v, 0, 1).  A whole W is built by the Mobius recurrence
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
build_wco(psi, phi, n), of a weight and a map given as quadruples, and
conjugation_matrix remain the public whole-matrix builds.

The seams work on stacks of draws given as coefficient arrays: weights
psi (B, 4) = (n0, n1, d0, d1), maps phi (B, 4) = (a, b, c, d) and a
conjugation as its kind with lam and alpha arrays (B,).  The refusals,
the series, the Toeplitz and row steps, the doubling and the defects are
vector operations along the leading draw axis, so one numpy call serves
every draw of a stack; each is elementwise or one GEMM per draw, so a
draw's residual is bit-identical to its stack of one.  At the suites' N
of 48-96 and k of 12-16 a residual is some 25 numpy calls on arrays
12-17 columns wide, and their per-call overhead, not the arithmetic,
sets its cost.  wco_residual_stack, conjugation_residual_stack and
adjoint_factorization_stack are what verify.measure calls, on stacks of
at most max(1, STACK_ROWS // N) draws: a larger stack saves little more
time and costs peak memory.  The public residuals of whole matrices
are stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Optional, Tuple

import numpy as np

from .errors import (
    BadParameterDomainError,
    BlockTooLargeError,
    DegenerateMapError,
    DimensionMismatchError,
    NotSelfMapError,
    SymbolPoleError,
)
from .mobius import (
    canonical,
    coefficient_stack,
    cowen_stack,
    is_constant,
    is_degenerate,
    is_self_map,
)
from .series import poles, quotient_series

BLOCK_PAD = 32
MAX_DIM = 1024
# tile side of _mobius_recurrence.  Whole C2 W at |alpha| = 0.9, 2-vCPU VM, one
# BLAS thread, ms for sides 4 / 6 / 8 / 12 / 16: 2.9-3.9 / 2.1-2.9 / 2.0-2.7 /
# 1.9-2.5 / 2.3-2.9 at N = 384, 22-26 / 14-16 / 13-17 / 13-14 / 14-15 at 1024.
_TILE = 8
# row budget of a stack: verify.measure evaluates at most max(1, STACK_ROWS // N)
# draws at once.  The measure calls of three all-suite passes at registry
# defaults (1,300 probes a pass, N 48-96) replayed on a 2-vCPU VM, one BLAS
# thread, budgets 1 / 192 / 384 / 768 / 1536 / uncut: median 320 / 184 / 160 /
# 144 / 123 / 135 ms a pass; peak RSS of a whole pass 39.0 / 39.1 / 38.9 / 39.2 /
# 40.0 / 48.1 MB.  Past 768 the time gain is within noise and the peak grows.
STACK_ROWS = 768
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
        _check_conjugations(self.kind, np.array([self.lam], dtype=complex), np.array([self.alpha], dtype=complex))
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "alpha", complex(self.alpha))


def _check_conjugations(kind: str, lam: np.ndarray, alpha: np.ndarray):
    """Refuse a kind, or any lam / alpha of a stack, outside the domains
    above; each check is phrased so that NaN fails it."""
    if kind not in ("J", "C1", "C2"):
        raise BadParameterDomainError(f"unknown conjugation kind {kind!r}")
    if kind != "J" and not (abs(abs(lam) - 1.0) <= 1e-12).all():
        raise BadParameterDomainError("|lam| must equal 1")
    if kind == "C1" and not (abs(abs(alpha) - 1.0) <= 1e-12).all():
        raise BadParameterDomainError("C1 needs |alpha| = 1")
    if kind == "C2" and not ((0.0 < abs(alpha)) & (abs(alpha) < 1.0)).all():
        raise BadParameterDomainError("C2 needs 0 < |alpha| < 1")


def _checked_series(psi: np.ndarray, phi: np.ndarray, n: int):
    """Every refusal of the seams for a stack of weights psi (B, 4) and
    maps phi (B, 4), then the (B, n) expansions of both, which refuse
    non-finite coefficients and a pole at 0."""
    _check_dim(n)
    pole = poles(psi)
    inside = abs(pole) <= _POLE_GUARD
    if inside.any():
        raise SymbolPoleError(f"weight pole at {pole[inside][0]} not outside the closed disk")
    constant = is_constant(phi)
    if constant.any() and (constant & (abs(phi[:, 1]) >= abs(phi[:, 3]))).any():
        raise NotSelfMapError("constant map value must lie inside the disk")
    if (~constant & ~is_self_map(phi)).any():
        raise NotSelfMapError("composition symbol is not a self-map")
    series = quotient_series(np.concatenate([psi, phi[:, [1, 0, 3, 2]]]), n)
    return series[:len(psi)], series[len(psi):]


def _rectangle(psi_s: np.ndarray, phi_s: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """W[:rows, :cols] of the rows-truncation for each draw (the leading
    block or the first rows), by doubling column j = T column (j - 1), T
    the Toeplitz matrix of phi[:rows]: a finite section of the analytic
    Toeplitz operator T_phi, so every power of T has norm at most
    sup|phi| <= 1 (Brown and Halmos, J. reine angew. Math. 213, 1964)."""
    run = np.empty((len(psi_s), cols, rows), dtype=complex)
    run[:, 0] = psi_s[:, :rows]
    return _double(run, _toeplitz(phi_s[:, :rows]).swapaxes(1, 2)).swapaxes(1, 2)


def _strip(psi: np.ndarray, psi_s: np.ndarray, phi: np.ndarray, k: int) -> np.ndarray:
    """W[:, :k] of the truncation at N = psi_s.shape[1] >= 3 for each draw,
    by doubling the row recurrence.

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
    n = psi_s.shape[1]
    sigma = psi_s[:, 1:3] + (phi[:, 2] / phi[:, 3])[:, None] * psi_s[:, :2]  # sigma_1, sigma_2
    step = _row_step(psi, phi, k)
    s = np.empty((len(psi_s), n, k + 1), dtype=complex)
    s[:, 0, :k], s[:, 0, k] = psi_s[:, :1] * step[:, k, :k], sigma[:, 0]
    s[:, 1:2] = s[:, :1] @ step
    s[:, 1, k] = sigma[:, 1]  # sigma_2 need not be r sigma_1
    _double(s[:, 1:], step)
    return s[:, :, :k]


def _double(run: np.ndarray, step: np.ndarray) -> np.ndarray:
    """run with run[:, m] = run[:, m - 1] @ step filled in from run[:, 0] for
    each draw, doubling: rows [h, 2h) are rows [0, h) times step^h, so
    about log2(run.shape[1]) products and squarings of step.  A stacked @
    is one GEMM per draw, bit-identical to the product of that draw alone."""
    power, h, length = step, 1, run.shape[1]
    while h < length:
        m = min(h, length - h)
        run[:, h:h + m] = run[:, :m] @ power
        if 2 * h < length:
            power = power @ power
        h *= 2
    return run


def _toeplitz(coeffs: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrices [b, i, j] = coeffs[b, i - j], a
    strided view over n - 1 zeros and then coeffs[b] for each draw b: at
    k = 16 about 1 us, where fancy indexing takes 4."""
    count, n = coeffs.shape
    padded = np.zeros((count, 2 * n - 1), dtype=complex)
    padded[:, n - 1:] = coeffs
    item = padded.itemsize
    return np.ndarray((count, n, n), complex, padded, (n - 1) * item, ((2 * n - 1) * item, item, -item))


def _row_step(psi: np.ndarray, phi: np.ndarray, k: int) -> np.ndarray:
    """The (k+1) x (k+1) step A = [[R, 0], [q, r]] of s_m = s_(m-1) A in
    _strip for each draw.  chi = -c + (a - bc) t q(t), and r = -d1/d0 is
    the ratio of psi's symbol: the ratio of its series would be 0/0 for a
    weight whose sigma is a polynomial (the C2 weight)."""
    a, b, c, d = phi.T
    a, b, c = a / d, b / d, c / d
    step = np.zeros((len(phi), k + 1, k + 1), dtype=complex)
    step[:, k, :k] = q = b[:, None] ** np.arange(k)
    chi = np.concatenate(((-c)[:, None], (a - b * c)[:, None] * q[:, :-1]), axis=1)
    step[:, :k, :k] = _toeplitz(chi).swapaxes(1, 2)  # R[i, j] = chi_(j - i)
    step[:, k, k] = -psi[:, 3] / psi[:, 2]
    return step


def _cross(psi: np.ndarray, phi: np.ndarray, n: int, k: int):
    """(W[:, :k], W[:, :, :k]) of the n-truncation for each draw: all W*W
    and WW* read on the block."""
    psi_s, phi_s = _checked_series(psi, phi, n)
    _check_block(n, k)
    return _rectangle(psi_s, phi_s, k, n), _strip(psi, psi_s, phi, k)


def _block(psi: np.ndarray, phi: np.ndarray, n: int, k: int) -> np.ndarray:
    """W[:, :k, :k] of the n-truncation for each draw, which is the k-truncation."""
    psi_s, phi_s = _checked_series(psi, phi, n)
    _check_block(n, k)
    return _rectangle(psi_s, phi_s, k, k)


def _mobius_recurrence(psi_s: np.ndarray, quad) -> np.ndarray:
    """G[m, j] = coefficient m of psi phi^j, m, j < N = len(psi_s), for phi =
    (az + b)/(cz + d), quad = (a, b, c, d).

    Comparing coefficients of z^m in (cz + d) G[:, j] = (az + b) G[:, j-1]
    gives d G[m, j] = b G[m, j-1] + a G[m-1, j-1] - c G[m-1, j], which
    reaches back only to the row above and the column to the left.  G is
    stored below one zero row (the m = -1 terms), right of its psi column,
    in _TILE x _TILE tiles (rows and columns padded to multiples of _TILE).
    A tile's interior is its boundary (the row above with the corner, then
    the column to the left) times _tile_transfer(quad), and tiles I + J = s
    need only tiles I + J < s: one GEMM per anti-diagonal of tiles, about
    2N / _TILE steps (Lamport's wavefront).
    """
    n, size = len(psi_s), _TILE
    rows, width = -(-n // size) * size, -(-(n - 1) // size) * size + 1
    buf = np.zeros((rows + 1) * width, dtype=complex)
    buf.reshape(rows + 1, width)[1:n + 1, 0] = psi_s
    transfer, item = _tile_transfer(quad), buf.itemsize
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
    return buf.reshape(rows + 1, width)[1:n + 1, :n]


def _tile_transfer(quad) -> np.ndarray:
    """(2 _TILE + 1) x _TILE^2 map of a tile's boundary to its row-major interior:
    the recurrence run on all unit boundaries at once, a tile anti-diagonal per step."""
    a, b, c, d = quad
    a, b, c = a / d, b / d, c / d
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


def build_wco(psi, phi, n: int) -> np.ndarray:
    """Truncation of f -> psi (f o phi): column j = series of psi * phi^j,
    for a weight psi = (n0, n1, d0, d1) and a map phi = (a, b, c, d).

    The coefficients must be finite and the weight analytic on the closed
    disk (pole strictly outside); phi must be a self-map, and a degenerate
    phi a constant v written (0, v, 0, d).  Coefficient m of psi phi^j
    depends only on coefficients <= m of psi and phi, so each column is the
    exact truncation up to rounding.  Built at every N by the tile
    wavefront of the Mobius recurrence; the result is a view of its padded
    (N + _TILE + 1)^2 buffer.
    """
    psi, phi = np.array([psi], dtype=complex), np.array([phi], dtype=complex)
    if not (np.isfinite(psi).all() and np.isfinite(phi).all()):
        raise ValueError("coefficients must be finite")
    if is_degenerate(phi)[0] and not is_constant(phi)[0]:
        raise DegenerateMapError("ad - bc vanishes: write a constant map v as (0, v, 0, 1)")
    return _whole(psi, phi, n)


def _whole(psi: np.ndarray, phi: np.ndarray, n: int) -> np.ndarray:
    """All of W for a stack of one weight and one map."""
    psi_s, _ = _checked_series(psi, phi, n)
    return _mobius_recurrence(psi_s[0], phi[0])


def conjugation_matrix(c: Conjugation, n: int) -> np.ndarray:
    """Matrix U with the conjugation acting as x -> U conj(x)."""
    _check_dim(n)
    if c.kind == "J":
        return np.eye(n, dtype=complex)
    if c.kind == "C1":
        return np.diag(c.lam * c.alpha ** np.arange(n))
    return _whole(*_c2_symbols(np.array([c.lam]), np.array([c.alpha])), n)


def _c2_symbols(lam: np.ndarray, alpha: np.ndarray):
    """Weights lam k_alpha (normalized) and alpha-involutions of a stack of
    C2 conjugations, as (B, 4) stacks."""
    ac = alpha.conjugate()
    return coefficient_stack(lam * np.sqrt(1.0 - abs(alpha) ** 2), 0.0, 1.0, -ac), canonical(coefficient_stack(-ac / alpha, ac, -ac, 1.0))


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
    (inv,), (iso,) = _involution_defect(u[None, :k], u[None, :, :k])
    return float(inv), float(iso)


def _involution_defect(rows: np.ndarray, cols: np.ndarray):
    """The involution and the isometry defect of each draw, as two arrays."""
    eye = np.eye(rows.shape[1], dtype=complex)
    inv = rows @ cols.conj() - eye
    iso = cols.conj().swapaxes(1, 2) @ cols - eye
    return _norms(inv), _norms(iso)


def symmetry_residual(t: np.ndarray, u: np.ndarray, k: int) -> float:
    """|| U conj(T) - T^H U || on the leading block, the defect the seam
    wco_residual_stack measures.

    For anti-linear C: x -> U conj(x) this is || CW - W*C ||, and T is
    C-symmetric (T = C T* C) iff it vanishes.  It reads only the first k
    rows and columns of U and the first k columns of T.
    """
    if t.shape != u.shape:
        raise DimensionMismatchError(f"shapes differ: {t.shape} != {u.shape}")
    _check_block(len(t), k)
    return float(_symmetry_defect(t[None, :, :k], u[None, :k], u[None, :, :k])[0])


def _symmetry_defect(t: np.ndarray, u_rows: np.ndarray, u_cols: np.ndarray) -> np.ndarray:
    """|| U conj(T) - T^H U || on the block for each draw, t = T[:, :u_cols.shape[1], :k]."""
    return _norms(u_rows @ t.conj() - t.conj().swapaxes(1, 2) @ u_cols)


def normality_residual(t: np.ndarray, k: int) -> float:
    """|| T*T - TT* || on the leading block."""
    _check_block(len(t), k)
    return float(_normality_defect(t[None, :k], t[None, :, :k])[0])


def _normality_defect(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return _norms(cols.conj().swapaxes(1, 2) @ cols - rows @ rows.conj().swapaxes(1, 2))


def _norms(x: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of the contiguous stack x, summed as
    np.linalg.norm sums one matrix: a dot of the real parts plus a dot of
    the imaginary parts, here one stacked @ each."""
    flat = x.reshape(len(x), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0]


def wco_residual_stack(
    psi: np.ndarray, phi: np.ndarray, n: int, k: int,
    kind: Optional[str] = None, lam: Optional[np.ndarray] = None, alpha: Optional[np.ndarray] = None,
    normality: bool = True,
) -> Dict[str, np.ndarray]:
    """For each draw of a stack of weights psi (B, 4) = (n0, n1, d0, d1)
    and maps phi (B, 4) = (a, b, c, d), a constant map v as (0, v, 0, 1):
    normality_residual (unless normality is False) and, given a
    conjugation kind with its lam and alpha arrays (B,), the symmetry
    defect || U conj(T) - T^H U || = || CW - W*C || of T = build_wco(psi,
    phi, n) on block k, with the same refusals.  It builds only what they
    read: the first k rows and columns of W for normality; for the
    symmetry, T[:, :k] for C2 and the k x k block for the diagonal J and
    C1, sliced from that cross when normality built it.  The suites and
    `wcosym check` call it through verify.measure."""
    out = {}
    if normality:
        rows, cols = _cross(psi, phi, n, k)
    else:
        series = _checked_series(psi, phi, n)
        _check_block(n, k)
    if kind is not None:
        u_rows, u_cols = _conjugation_cross(kind, lam, alpha, n, k)
        if normality:
            t = cols[:, :u_cols.shape[1]]
        elif kind == "C2":
            t = _strip(psi, series[0], phi, k)
        else:
            t = _rectangle(*series, k, k)
        out["symmetry"] = _symmetry_defect(t, u_rows, u_cols)
    if normality:
        out["normality"] = _normality_defect(rows, cols)
    return out


def conjugation_residual_stack(kind: str, lam: np.ndarray, alpha: np.ndarray, n: int, k: int):
    """(involution, isometry) arrays: involution_residual(conjugation_matrix(c,
    n), k) for each conjugation of one kind with parameters lam, alpha (B,),
    building only the first k rows and columns of U; called through
    verify.measure."""
    return _involution_defect(*_conjugation_cross(kind, lam, alpha, n, k))


def _conjugation_cross(kind: str, lam: np.ndarray, alpha: np.ndarray, n: int, k: int):
    """(U[:, :k], U[:, :, :k]) of conjugation_matrix for each conjugation of
    a stack: all the residuals read of U."""
    _check_conjugations(kind, lam, alpha)
    if kind == "C2":
        return _cross(*_c2_symbols(lam, alpha), n, k)
    _check_dim(n)
    _check_block(n, k)
    # diagonal: the block is all that is nonzero
    diagonal = lam[:, None] * alpha[:, None] ** np.arange(k) if kind == "C1" else np.ones((len(lam), k))
    u = diagonal[:, :, None] * np.eye(k, dtype=complex)
    return u, u


def adjoint_factorization_stack(phi: np.ndarray, n: int, k: int, signs=(-1, 1)) -> List[np.ndarray]:
    """For each sigma sign of signs, the array over a stack of maps phi
    (B, 4) of || (C_phi)^H - M_g C_sigma (M_h)^H || on the leading block.

    M_g is lower triangular and M_h* upper triangular, so only the four
    k x k blocks (k-truncations, refused and expanded as at dimension n)
    reach it; it holds to rounding when the sigma sign is the correct one,
    -1.  The flipped-sign sigma need not be a self-map; its block is built
    without that check so the wrong convention can be exhibited failing.
    verify.measure evaluates both signs of a suite's maps at once.
    """
    _check_dim(n)
    _check_block(n, k)
    if not is_self_map(phi).all():
        raise NotSelfMapError("factorization residual needs a self-map")
    stacks = [cowen_stack(phi, sign) for sign in signs]
    if -1 in signs and not is_self_map(stacks[signs.index(-1)][1]).all():
        raise NotSelfMapError("sigma is not a self-map")
    (g, _, h), count = stacks[0], len(phi)
    maps = np.concatenate([phi, *(sigma for _, sigma, _ in stacks)])
    ones = np.eye(1, n, dtype=complex).repeat(len(maps), axis=0)  # the series of 1
    blocks = _rectangle(ones, quotient_series(maps[:, [1, 0, 3, 2]], n), k, k)
    identity = np.tile(np.array([1.0, 0.0, 0.0, 1.0], dtype=complex), (2 * count, 1))
    m_g, m_h = _block(np.concatenate([g, h]), identity, n, k).reshape(2, count, k, k)
    c_phi_h, m_h_h = blocks[:count].conj().swapaxes(1, 2), m_h.conj().swapaxes(1, 2)
    return [_norms(c_phi_h - (m_g @ c_sigma) @ m_h_h) for c_sigma in blocks[count:].reshape(len(signs), count, k, k)]
