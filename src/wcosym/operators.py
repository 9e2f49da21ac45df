"""Finite truncations of weighted composition operators and conjugations.

Everything acts on span{1, z, ..., z^(N-1)} with the monomial basis, which
is orthonormal in the norm sum |a_n|^2, so adjoints are conjugate
transposes and anti-linear operators are matrices applied to conjugated
coordinates.  Matrices are plain N x N complex arrays: column j of an
operator holds the coefficients of the image of z^j, and an anti-linear
operator is the matrix U of x -> U conj(x).  N is capped at MAX_DIM = 1024,
checked before any N x N array is allocated.

Column j of W is psi phi^j.  The kernels read phi only as its coefficients
(a, b, c, d) of (az + b)/(cz + d), read by mobius.read_maps as classify
reads them: a constant z -> v is (0, v, 0, 1).

Residuals are always measured on a leading k x k block with k + 32 <= N:
truncation corrupts the trailing rows and columns of products, and the
geometric decay of the symbol coefficients confines that corruption away
from the leading block.  check_truncation alone states this rule and the
cap, for verify.SuiteConfig and every residual.  The block of the N-truncation is the
k-truncation: the J and C1 symmetries (U diagonal) and the adjoint
factorization (M_g, M_h Toeplitz views) read k x k blocks alone.  Every
other residual is made of sums over m < N of a_m^H b_m, a_m and b_m row m
of the first k columns or column m of the first k rows of T or U (normality
is sum_m t_m^H t_m - conj(sum_j w_j^H w_j), t_m = T[m, :k], w_j = T[:k, j]).
Each such part is a run, row m being row m - 1 times a step (the first k
columns' (k+1)-wide step of their row recurrence holds from row 1 on), and
_gram sums it: _fill has _double fill its first h rows, h the least power
of two >= 2 (k + 1), once a chunk for every sum that reads it, and the sum
doubles itself past them, so O(k^3 log N) time and O(h k) memory a draw;
no expansion goes past coefficient max(k, 3).
The one whole N x N build is conjugation_matrix, whose C2 matrix comes
from the Mobius recurrence (cz + d) psi phi^j = (az + b) psi phi^(j-1),
swept in square tiles as a wavefront: one GEMM per anti-diagonal of
tiles, about 2N / _TILE Python-level steps in O(N^2).

The seams work on stacks of draws given as coefficient arrays: weights
psi (B, 4) = (n0, n1, d0, d1), maps phi (B, 4) = (a, b, c, d) and a
conjugation as its kind with lam and alpha arrays (B,).  The refusals,
the series, the steps, the doubling and the defects are vector
operations along the leading draw axis, so one numpy call serves every
draw of a stack; each is elementwise or one GEMM per draw, so a draw's
residual is bit-identical to its stack of one.  At the suites' N of
48-96 and k of 12-16 a residual is some tens of numpy calls on arrays
12-17 columns wide, and their per-call overhead, not the arithmetic,
sets its cost.  wco_residual_stack, conjugation_residual_stack and
adjoint_factorization_stack are what verify.measure calls, on whole
probes, and _chunked is their one loop: it prepares the draws (the
refusals, the expansions and what the steps are made of, O(k) numbers a
draw) a piece of k + 1 chunks at a time, and doubles them and forms
their defects a chunk of max(1, STACK_ROWS // min(N, h)) draws at a
time: a larger chunk saves little more time and costs peak memory.
involution_residual, the one residual of a whole matrix, is a stack of
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Optional, Tuple

import numpy as np

from .errors import (
    BadParameterDomainError,
    BlockTooLargeError,
    NotSelfMapError,
    SymbolPoleError,
)
from .mobius import (
    BOUNDARY_TOL,
    canonical,
    coefficient_stack,
    cowen_stack,
    is_self_map,
    read_maps,
    refuse,
)
from .series import poles, quotient_series

BLOCK_PAD = 32
MAX_DIM = 1024
# tile side of _mobius_recurrence.  Whole C2 W at |alpha| = 0.9, 2-vCPU VM, one
# BLAS thread, ms for sides 4 / 6 / 8 / 12 / 16: 2.9-3.9 / 2.1-2.9 / 2.0-2.7 /
# 1.9-2.5 / 2.3-2.9 at N = 384, 22-26 / 14-16 / 13-17 / 13-14 / 14-15 at 1024.
_TILE = 8
# row budget of a chunk: the seams double at most max(1, STACK_ROWS // rows)
# draws at once, rows = min(N, h) the most a run fills a draw, and prepare at
# most k + 1 chunks at once (at 768, 24 draws a chunk at k = 12, 12 at k = 16).
# In-process all-suite pass at registry defaults (N 48-96, reports serialized),
# 2-vCPU VM, one BLAS thread, median of 10 passes, two runs per budget, budgets
# 1 / 192 / 384 / 768 / 1536 / uncut: 224-245 / 118-126 / 106-108 / 101-104 /
# 111-115 / 118-122 ms; peak RSS 39.7 / 39.7 / 39.6-39.7 / 39.8-40.0 / 41.1-41.2 / 46.4-46.5 MB.
STACK_ROWS = 768
_POLE_GUARD = 1.0 + 1e-9


def check_truncation(n: int, k: Optional[int] = None):
    """The one rule of a truncation: 1 <= N <= MAX_DIM, else ValueError, and, given
    a block, 1 <= k and k + BLOCK_PAD <= N, else BlockTooLargeError (a ValueError)."""
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension N = {n} outside 1..{MAX_DIM}")
    if k is not None and not 1 <= k <= n - BLOCK_PAD:
        raise BlockTooLargeError(f"need 1 <= k and k + {BLOCK_PAD} <= N, got k={k}, N={n}")


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
    if kind != "J" and not (abs(abs(lam) - 1.0) <= BOUNDARY_TOL).all():
        raise BadParameterDomainError("|lam| must equal 1")
    if kind == "C1" and not (abs(abs(alpha) - 1.0) <= BOUNDARY_TOL).all():
        raise BadParameterDomainError("C1 needs |alpha| = 1")
    if kind == "C2" and not ((0.0 < abs(alpha)) & (abs(alpha) < 1.0)).all():
        raise BadParameterDomainError("C2 needs 0 < |alpha| < 1")


def _checked_series(psi: np.ndarray, phi: np.ndarray, n: int):
    """Every refusal of the seams for weights psi and maps phi (B, 4), in
    order non-finite, a weight pole, read_maps's; then the (B, n) expansions
    of both, which refuse a pole at 0, and phi as read_maps writes it."""
    if not (np.isfinite(psi).all() and np.isfinite(phi).all()):
        raise ValueError("coefficients must be finite")
    pole = poles(psi)
    inside = abs(pole) <= _POLE_GUARD
    if inside.any():
        raise SymbolPoleError(f"weight pole at {pole[inside][0]} not outside the closed disk")
    phi, _, refusals, *_ = read_maps(phi)
    refuse(refusals())
    series = quotient_series(np.concatenate([psi, phi[:, [1, 0, 3, 2]]]), n)
    return series[:len(psi)], series[len(psi):], phi


def _prepare(psi: np.ndarray, phi: np.ndarray, k: int, strip: bool = True):
    """Every refusal of the symbols of W for a piece of draws psi, phi
    (B, 4), then what the runs of its first k rows and, with strip, of its
    first k columns are made of (_runs): O(k) numbers a draw, the Toeplitz
    matrices being views.  Past coefficient 1 neither series grows once the
    refusals pass, so expanding max(k, 3) refuses what expanding N does."""
    psi_s, phi_s, phi = _checked_series(psi, phi, max(k, 3))
    rows = psi_s[:, :k], _toeplitz(phi_s[:, :k]).swapaxes(1, 2)
    return rows, (_strip_parts(psi, psi_s, phi, k) if strip else None)


def _rectangle(rows, chunk, cols: int) -> np.ndarray:
    """W[:k, :cols] for each draw of a chunk (the leading block for cols =
    k), by doubling column j = T column (j - 1), T the Toeplitz matrix of
    phi[:k]: a finite section of the analytic Toeplitz operator T_phi, so
    every power of T has norm at most sup|phi| <= 1 (Brown and Halmos, J.
    reine angew. Math. 213, 1964).  rows is (columns 0, steps T^T) of a
    piece, along one leading axis or more, and chunk indexes them."""
    first, step = rows[0][chunk], rows[1][chunk]
    run = np.empty(first.shape[:-1] + (cols, first.shape[-1]), dtype=complex)
    run[..., 0, :] = first
    _double(run, step)
    return run.swapaxes(-1, -2)


def _runs(steps, chunk):
    """Runs (head, start, step), row 0 head and row m >= 1 start step^(m-1),
    for each draw of a chunk: of column m of W[:k] (step T^T, _rectangle's)
    and, if prepared, of s_m = [W[m, :k], sigma_(m+1)] (step A, assembled
    here so that no piece holds it; sigma_2 need not be r sigma_1)."""
    (first, step), strip = steps
    head, step = first[chunk], step[chunk]
    runs = [(head, (head[:, None] @ step)[:, 0], step)]
    if strip is not None:
        head, sigma_2, *parts = (x[chunk] for x in strip)
        step = _row_step(*parts)
        start = (head[:, None] @ step)[:, 0]
        start[:, -1] = sigma_2
        runs.append((head, start, step))
    return runs


def _sum(a, b, n: int) -> np.ndarray:
    """sum_{m < n} a_m^H b_m for each draw of two runs a and b of _fill."""
    (head_a, run_a, power_a), (head_b, run_b, power_b) = a, b
    return head_a.conj()[:, :, None] * head_b[:, None, :] + _gram(run_a, power_a, run_b, power_b, n - 1)


def _filled(width: int) -> int:
    """The rows _fill fills of runs up to width wide: as costly as a doubling level."""
    return 1 << (2 * width - 1).bit_length()


def _fill(runs, n: int) -> list:
    """Runs (head, start, step) of _runs that _sum pairs at dimension n as
    (head, run, power): _double fills the first h = min(n - 1,
    _filled(widest)) rows of each, once for every sum that reads it, and
    power is its last power, step^(h/2)."""
    h = min(n - 1, _filled(max(start.shape[-1] for _, start, _ in runs)))
    filled = []
    for head, start, step in runs:
        run = np.empty(start.shape[:-1] + (h, start.shape[-1]), dtype=complex)
        run[..., 0, :] = start
        filled.append((head, run, _double(run, step)))
    return filled


def _gram(x: np.ndarray, p: np.ndarray, y: np.ndarray, q: np.ndarray, length: int) -> np.ndarray:
    """S = sum_{m < length} (x_m)^H (y_m) for each draw of two runs x (B,
    h, a) and y (B, h, b) whose first h rows _fill filled, row m the row
    before times a step, and p and q the steps' (h/2)-th powers.

    The contraction of the filled rows is S(h).  Past that the sum doubles
    itself, S(2h) = S(h) + (P^h)^H S(h) Q^h (Smith's squared iteration,
    SIAM J. Appl. Math. 16, 1968), P^h and Q^h squared from p and q, over
    the binary digits of length // h, plus the Gram of the first length %
    h rows.  Its powers are bounded as _double's are, so it is as stable."""
    h = x.shape[-2]
    left = x.conj().swapaxes(-1, -2)
    block = left @ y
    if length == h:
        return block
    count, tail = divmod(length, h)
    total = left[..., :tail] @ y[..., :tail, :] if tail else None
    while count:
        p, q = (p @ p,) * 2 if q is p else (p @ p, q @ q)  # the steps to the s-th power, s the rows block sums
        before, after = p.conj().swapaxes(-1, -2), q
        if count & 1:
            total = block if total is None else block + before @ total @ after
        count >>= 1
        if count:
            block = block + before @ block @ after
    return total


def _strip_parts(psi: np.ndarray, psi_s: np.ndarray, phi: np.ndarray, k: int):
    """(s_0, sigma_2, R, q, r) of the row recurrence of W[:, :k] for each draw.

    Write a, b, c for the coefficients of phi divided by d and g_m for
    W[m, :k].  The generating function sum_j psi phi^j t^j equals
    sigma(z) / ((1 - bt)(1 - z chi(t))), with sigma = (1 + cz) psi and
    chi(t) = (at - c)/(1 - bt), so g_m = g_(m-1) R + sigma_m q: R is the
    upper-triangular Toeplitz matrix of chi (here a view), q the series of
    1/(1 - bt).  sigma is geometric from m = 2 on, with ratio r = -d1/d0
    of psi's symbol (the ratio of its series would be 0/0 for a weight
    whose sigma is a polynomial, the C2 weight), so s_m = [g_m,
    sigma_(m+1)] obeys s_m = s_(m-1) A, A = _row_step(R, q, r), from m = 2
    on: the run of the first k columns is regular from row 1.  chi is
    conj(sigma_C(conj t)) for Cowen's adjoint map sigma_C, a self-map
    whenever phi is, so every power of R is a contraction, |r| < 1 by the
    weight-pole guard, and the powers of A are bounded.
    """
    a, b, c, d = phi.T
    a, b, c = a / d, b / d, c / d
    q = b[:, None] ** np.arange(k)
    chi = np.concatenate(((-c)[:, None], (a - b * c)[:, None] * q[:, :-1]), axis=1)
    sigma = psi_s[:, 1:3] + c[:, None] * psi_s[:, :2]  # sigma_1, sigma_2
    first = np.concatenate((psi_s[:, :1] * q, sigma[:, :1]), axis=1)
    return first, sigma[:, 1], _toeplitz(chi).swapaxes(1, 2), q, -psi[:, 3] / psi[:, 2]


def _row_step(r_matrix: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The (k+1) x (k+1) step A = [[R, 0], [q, r]] of s_m = s_(m-1) A in
    _strip_parts for each draw, R[i, j] = chi_(j - i)."""
    k = q.shape[1]
    step = np.zeros((len(q), k + 1, k + 1), dtype=complex)
    step[:, :k, :k], step[:, k, :k], step[:, k, k] = r_matrix, q, r
    return step


def _double(run: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Fill run[..., m, :] = run[..., m - 1, :] @ step from run[..., 0, :]
    for each draw, doubling: rows [h, 2h) are rows [0, h) times step^h, so
    about log2(run.shape[-2]) products and squarings of step.  Returns the
    last power it multiplied by, step^(h/2) for a run of h rows, h a power
    of two >= 2.  A stacked @ is one GEMM per draw, bit-identical to the
    product of that draw alone."""
    power, h, length = step, 1, run.shape[-2]
    while h < length:
        m = min(h, length - h)
        run[..., h:h + m, :] = run[..., :m, :] @ power
        if 2 * h < length:
            power = power @ power
        h *= 2
    return power


def _toeplitz(coeffs: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrices [b, i, j] = coeffs[b, i - j], a
    strided view over n - 1 zeros and then coeffs[b] for each draw b: at
    k = 16 about 1 us, where fancy indexing takes 4."""
    count, n = coeffs.shape
    padded = np.zeros((count, 2 * n - 1), dtype=complex)
    padded[:, n - 1:] = coeffs
    item = padded.itemsize
    return np.ndarray((count, n, n), complex, padded, (n - 1) * item, ((2 * n - 1) * item, item, -item))


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


def conjugation_matrix(c: Conjugation, n: int) -> np.ndarray:
    """Matrix U with the conjugation acting as x -> U conj(x)."""
    check_truncation(n)
    if c.kind == "J":
        return np.eye(n, dtype=complex)
    if c.kind == "C1":
        return np.diag(c.lam * c.alpha ** np.arange(n))
    psi, phi = _c2_symbols(np.array([c.lam]), np.array([c.alpha]))
    psi_s, _, phi = _checked_series(psi, phi, n)
    return _mobius_recurrence(psi_s[0], phi[0])


def _c2_symbols(lam: np.ndarray, alpha: np.ndarray):
    """Weights lam k_alpha (normalized) and alpha-involutions of a stack of
    C2 conjugations, as (B, 4) stacks."""
    ac = alpha.conjugate()
    return coefficient_stack(lam * np.sqrt(1.0 - abs(alpha) ** 2), 0.0, 1.0, -ac), canonical(coefficient_stack(-ac / alpha, ac, -ac, 1.0))


def involution_residual(u: np.ndarray, k: int) -> Tuple[float, float]:
    """(involution defect, isometry defect) on the leading k x k block.

    C^2 x = U conj(U) x, so the first component is ||U conj(U) - I||; the
    anti-linear isometry axiom reduces to U^H U = I, the second component.
    """
    check_truncation(len(u), k)
    (inv,), (iso,) = _block_involution(u[None, :k], u[None, :, :k])
    return float(inv), float(iso)


def _block_involution(rows: np.ndarray, cols: np.ndarray):
    """_involution_defect of U's first k rows and columns given whole."""
    return _involution_defect(rows.conj() @ cols, cols.conj().swapaxes(1, 2) @ cols)


def _involution_defect(cross: np.ndarray, square: np.ndarray):
    """The involution and the isometry defect of each draw, as two arrays,
    from sum_m u_m^H v_m and sum_m v_m^H v_m, u_m = U[:k, m], v_m = U[m, :k]."""
    eye = np.eye(cross.shape[-1], dtype=complex)
    return _norms(cross.conj() - eye), _norms(square - eye)


def _symmetry_defect(cross: np.ndarray, square: np.ndarray) -> np.ndarray:
    """|| U conj(T) - T^H U || on the block, from sum_m u_m^H t_m and sum_m t_m^H v_m."""
    return _norms(cross.conj() - square)


def _normality_defect(columns: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|| T^H T - T T^H || on the block, from sum_m t_m^H t_m and sum_j w_j^H w_j."""
    return _norms(columns - rows.conj())


def _norms(x: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of the contiguous stack x, summed as
    np.linalg.norm sums one matrix: a dot of the real parts plus a dot of
    the imaginary parts, here one stacked @ each."""
    flat = x.reshape(len(x), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0]


def _chunked(count: int, n: int, k: int, prepare, width: int) -> List[np.ndarray]:
    """The one loop of the seams over a stack of count draws at dimension n
    and block k: width residual arrays, in row order.

    prepare(piece) makes every refusal and per-draw preparation of a slice
    of the draws (the expansions and what the doubling steps are made of,
    O(k) numbers a draw) and returns the function of a chunk, a slice of
    the piece, that doubles and forms the chunk's width defects.  No run
    holds more than min(n, _filled(k + 1)) rows a draw, so a chunk holds
    at most max(1, STACK_ROWS // min(n, _filled(k + 1))) draws and its
    doubling runs and (chunk, k + 1, k + 1) steps stay out of the peak
    memory; a piece holds at most k + 1 chunks, so no (piece, k) array of
    its preparation outgrows a chunk's run, and the preparation costs its
    numpy calls once a piece, not once a chunk.  Every draw's defects
    equal those of its stack of one.  The dimension and the block are
    refused (check_truncation) before any draw."""
    check_truncation(n, k)
    size = max(1, STACK_ROWS // min(n, _filled(k + 1)))
    piece = size * (k + 1)
    parts = []
    for start in range(0, count, piece):
        evaluate = prepare(slice(start, start + piece))
        parts += [evaluate(slice(at, at + size)) for at in range(0, min(piece, count - start), size)]
    return [np.concatenate([part[j] for part in parts] or [np.empty(0)]) for j in range(width)]


def wco_residual_stack(
    psi: np.ndarray, phi: np.ndarray, n: int, k: int,
    kind: Optional[str] = None, lam: Optional[np.ndarray] = None, alpha: Optional[np.ndarray] = None,
    normality: bool = True,
) -> Dict[str, np.ndarray]:
    """For each draw of a stack of weights psi (B, 4) = (n0, n1, d0, d1)
    and maps phi (B, 4) = (a, b, c, d), read by mobius.read_maps: the
    normality defect || T*T - TT* || (unless normality is False) and,
    given a conjugation kind with its lam and alpha arrays (B,), the
    symmetry defect || U conj(T) - T^H U || = || CW - W*C ||, which
    vanishes iff T is C-symmetric, of the n-truncation T of W, both on the
    leading k x k block, from sums (_sum) over what they read: the first
    k rows and columns of W for normality, T[:, :k] and the first k rows
    and columns of U for the C2 symmetry, the k x k block for the diagonal
    J and C1.  The suites and `wcosym check` call it through
    verify.measure, on whole probes."""
    keys = ("symmetry",) * (kind is not None) + ("normality",) * normality

    def prepare(piece):
        steps = _prepare(psi[piece], phi[piece], k, strip=normality or kind == "C2")
        conjugation = None if kind is None else _conjugation_cross(kind, lam[piece], alpha[piece], k)

        def evaluate(chunk):
            out = []
            if steps[1] is not None:
                rows, strip = _runs(steps, chunk)
                (strip,) = _fill([strip], n)
            if kind == "C2":
                u_rows, u_strip = _fill(conjugation(chunk), n)
                out.append(_symmetry_defect(_sum(u_rows, strip, n)[:, :, :k], _sum(strip, u_strip, n)[:, :k, :k]))
            elif kind is not None:
                t, (u, _) = _rectangle(steps[0], chunk, k), conjugation(chunk)
                out.append(_symmetry_defect(u.conj() @ t, t.conj().swapaxes(1, 2) @ u))
            if normality:  # each run summed right after its filling, while it is in cache
                columns = _sum(strip, strip, n)[:, :k, :k]
                (rows,) = _fill([rows], n)
                out.append(_normality_defect(columns, _sum(rows, rows, n)))
            return out

        return evaluate

    return dict(zip(keys, _chunked(len(phi), n, k, prepare, len(keys))))


def conjugation_residual_stack(kind: str, lam: np.ndarray, alpha: np.ndarray, n: int, k: int):
    """[involution, isometry] arrays: involution_residual(conjugation_matrix(c,
    n), k) for each conjugation of one kind with parameters lam, alpha (B,),
    from sums over the runs of the first k rows and columns of U (C2) or
    from U's k x k block (J and C1); called through verify.measure."""

    def prepare(piece):
        cross = _conjugation_cross(kind, lam[piece], alpha[piece], k)
        if kind != "C2":
            return lambda chunk: _block_involution(*cross(chunk))

        def evaluate(chunk):
            rows, cols = _fill(cross(chunk), n)
            return _involution_defect(_sum(rows, cols, n)[:, :, :k], _sum(cols, cols, n)[:, :k, :k])

        return evaluate

    return _chunked(len(lam), n, k, prepare, 2)


def _conjugation_cross(kind: str, lam: np.ndarray, alpha: np.ndarray, k: int):
    """The refusals of a piece of conjugations of one kind, and the function
    of a chunk of it giving what the residuals read of U of
    conjugation_matrix: the runs of its first k rows and columns (_runs)
    for C2, its k x k block twice for the diagonal J and C1."""
    _check_conjugations(kind, lam, alpha)
    if kind == "C2":
        steps = _prepare(*_c2_symbols(lam, alpha), k)
        return lambda chunk: _runs(steps, chunk)
    # diagonal: the block is all that is nonzero
    diagonal = lam[:, None] * alpha[:, None] ** np.arange(k) if kind == "C1" else np.ones((len(lam), k))

    def block(chunk):
        u = diagonal[chunk, :, None] * np.eye(k, dtype=complex)
        return u, u

    return block


def adjoint_factorization_stack(phi: np.ndarray, n: int, k: int) -> List[np.ndarray]:
    """[correct, flipped]: for the correct sigma sign -1 and the flipped
    sign +1, the array over a stack of maps phi (B, 4) of
    || (C_phi)^H - M_g C_sigma (M_h)^H || on the leading block.

    M_g is lower triangular and M_h* upper triangular, so only the four
    k x k blocks (k-truncations) reach it, M_g and M_h as Toeplitz views;
    it holds to rounding for the correct sign.  Both sigmas, expanded canonical,
    share the denominator of the correct one, a self-map, so, as in _prepare, their
    expansions to max(k, 3) refuse what expansions to n do.
    phi is read by read_maps, and the correct sigma is refused unless it
    is a self-map (for a self-map phi it always is); the flipped-sign
    sigma need not be one, and its block is built without that check so
    the wrong convention can be exhibited failing (inf where it overflows
    the norm).  verify.measure evaluates both signs of a suite's maps at once.
    """

    def prepare(piece):
        maps, _, refusals, *_ = read_maps(phi[piece])
        refuse(refusals())
        stacks = [cowen_stack(maps, sign) for sign in (-1, 1)]
        (g, _, h), count = stacks[0], len(maps)
        sigmas = canonical(np.concatenate([s for _, s, _ in stacks]))
        if not is_self_map(sigmas[:count]).all():
            raise NotSelfMapError("sigma is not a self-map")
        weights, phi_s, _ = _checked_series(np.concatenate([g, h]), maps, max(k, 3))
        series = np.concatenate([phi_s, quotient_series(sigmas[:, [1, 0, 3, 2]], max(k, 3))])
        # the blocks of C_phi and of each C_sigma (the series of 1 times phi^j), then of M_g and M_h
        ones = np.eye(1, k, dtype=complex).repeat(len(series), axis=0)
        compositions = ones.reshape(-1, count, k), _toeplitz(series[:, :k]).swapaxes(1, 2).reshape(-1, count, k, k)
        factors = _toeplitz(weights[:, :k]).reshape(2, count, k, k)

        def evaluate(chunk):
            (c_phi, *c_sigmas), (m_g, m_h) = _rectangle(compositions, (slice(None), chunk), k), factors[:, chunk]
            c_phi_h, m_h_h = c_phi.conj().swapaxes(1, 2), m_h.conj().swapaxes(1, 2)
            correct, flipped = (c_phi_h - (m_g @ c_sigma) @ m_h_h for c_sigma in c_sigmas)
            with np.errstate(over="ignore"):  # a flipped sigma that is no self-map may overflow to inf
                flipped = _norms(flipped)
            return [_norms(correct), flipped]

        return evaluate

    return _chunked(len(phi), n, k, prepare, 2)
