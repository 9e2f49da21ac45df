"""Named verification suites cross-checking predicates against matrix oracles.

Each suite samples one parametric statement about these operator families,
evaluates the closed-form predicate and an independent truncation (or
coefficient-level) oracle on every sample, and classifies the outcome with
an explicit inconclusive band between the pass and fail thresholds so that
truncation noise can never silently misclassify a near-boundary draw.
Disagreements are reported as discrepancy records, never patched.

A suite is a sampler and a recorder.  The sampler ``(rng, cfg, idx)``
draws, as arrays, one candidate for each sample index in the int array
idx (the kind of a draw is a function of its index, such as i % 4) and
returns the mask of the candidates it keeps (None keeps all) and a dict
of columns, arrays whose first axis is len(idx).  ``run_suite`` is the
one sampling loop: it enforces the suite's minimum dim and block, seeds one
generator and draws every index, then only the rejected ones, until each
holds an accepted draw (a rejected index is redrawn, never dropped); the
recorder ``(cfg, draws)`` gets the columns in index order, computes its
predicates and gaps on the arrays, map classes included (``classify``
takes the whole stack), and makes one record per index in one ``_records``
call; a row lacks the keys that an ``_at`` column leaves absent there.

``measure`` is the one seam to the matrix residuals: the suites and
``wcosym check`` (a probe of one row) take every normality, symmetry,
involution, isometry and adjoint-factorization residual through it, and
it alone picks the truncation.  A ``Probe`` is a stack of B draws as
coefficient arrays: weights psi (B, 4) = (n0, n1, d0, d1), maps phi
(B, 4) = (a, b, c, d), a constant map v being (0, v, 0, 1), and a
conjugation as its kind with lam and alpha arrays (B,).  measure hands
the whole probe to one seam of ``operators``, which prepares its rows a
piece at a time (refusals, expansions, steps) and sums them in chunks
of at most max(1, STACK_ROWS // min(cfg.dim, h)) rows, h the rows a run
fills a draw, so that per-call numpy overhead, which sets a residual's
cost at the suites' small N, is shared while the chunks stay out of the
peak memory; each row's residuals equal those of a stack of one.

``_record`` is the one verdict rule: ``_records`` builds every suite
record with it, ``wcosym check`` its verdict, and it is the one caller of
``band_verdict`` and ``agreement``.  Every closed-form gap (a quantity the
paper's formulas make zero) is recorded under its name and is "fail" above
cfg.pred_tol; only the conjugation axioms keep tolerances of their own.
Every oracle value (a matrix residual, a sweep deficiency, a moduli
violation) goes through ``band_verdict``, which alone reads cfg.pass_tol
and cfg.fail_tol, so a value in the band between them is "inconclusive",
never "fail".  An exact decision (the coefficient-level LFT oracle, used
where no truncation is usable) is normal, not normal or undecided, and
never meets those two thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from . import families as fam
from .errors import SamplingBudgetError, UnknownSuiteError
from .mobius import (
    MapClass,
    canonical,
    classify,
    coefficient_stack as _stack,
    cowen_stack,
    is_automorphism,
    is_degenerate,
    is_self_map,
    lft_normality_defects,
    proj_distance,
    quadruple_gap,
    sup_modulus,
)
from .operators import (
    adjoint_factorization_stack,
    check_truncation,
    conjugation_residual_stack,
    wco_residual_stack,
)
from .series import poles


@dataclass(frozen=True)
class SuiteConfig:
    """A run's truncation (dim, block), samples and seed; the band (pass_tol,
    fail_tol) of every oracle value; pred_tol, of every gap and predicate.
    (dim, block) obeys operators.check_truncation, and block >= 2: at k = 1 the (0, 0) entry of
    T*T - TT* vanishes for J and C1 symmetric T, and that of CW - W*C for any W if C is C2."""

    dim: int = 64
    block: int = 12
    samples: int = 200
    seed: int = 2024
    pass_tol: float = 1e-7
    fail_tol: float = 1e-3
    pred_tol: float = fam.PRED_TOL

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"need samples >= 1, got {self.samples}")
        check_truncation(self.dim, self.block)
        if self.block < 2:
            raise ValueError(f"need block >= 2 for a verdict, got block {self.block}")
        if not self.pass_tol < self.fail_tol:
            raise ValueError("pass_tol must be below fail_tol")


@dataclass
class SampleRecord:
    params: Dict[str, object]
    residuals: Dict[str, float] = field(default_factory=dict)
    predicates: Dict[str, object] = field(default_factory=dict)
    oracles: Dict[str, object] = field(default_factory=dict)
    verdict: str = "pass"
    note: str = ""


@dataclass
class VerificationReport:
    suite_id: str
    config: SuiteConfig
    records: List[SampleRecord]

    @property
    def summary(self) -> Dict[str, int]:
        counts = {"pass": 0, "fail": 0, "inconclusive": 0, "discrepancy": 0}
        for r in self.records:
            counts[r.verdict] += 1
        counts["total"] = len(self.records)
        return counts

    @property
    def known_discrepancy(self) -> bool:
        """Some record is a discrepancy and every discrepancy carries a
        note: a note is how a suite documents a disagreement it expects."""
        notes = [r.note for r in self.records if r.verdict == "discrepancy"]
        return bool(notes) and all(notes)

    @property
    def exit_status(self) -> int:
        """0 clean, 3 when the only disagreements are documented ones, else 1."""
        s = self.summary
        if s["fail"] == 0 and s["discrepancy"] == 0:
            return 0
        return 3 if s["fail"] == 0 and self.known_discrepancy else 1


# ---------------------------------------------------------------------------
# sampling helpers and oracles
# ---------------------------------------------------------------------------

def _annulus(rng: np.random.Generator, count: int, radius=1.0, min_radius=0.0) -> np.ndarray:
    """count points uniform on the annulus min_radius <= |z| <= radius."""
    modulus = radius * np.sqrt(rng.uniform((min_radius / radius) ** 2, 1.0, count))
    return modulus * _circle(rng, count)


def _circle(rng: np.random.Generator, count: int) -> np.ndarray:
    """count points uniform on the unit circle."""
    return np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, count))


def _signs(rng: np.random.Generator, count: int) -> np.ndarray:
    return np.where(rng.random(count) < 0.5, 1.0, -1.0)


_ABSENT = object()  # the cell of a row that lacks the key; not None, which `decided` reads as undecided


def _cells(column, count: int) -> list:
    """A column's cells as plain Python values: an array's, a list's own objects, or count copies of one value."""
    if isinstance(column, np.ndarray):
        return column.tolist()
    return column if isinstance(column, list) else [column] * count


def _at(mask, values, others=_ABSENT) -> list:
    """The column of values where the bool array mask holds and of others
    elsewhere, each one cell per such row, in order, or one value; by
    default the other rows' cells are absent, so their records lack the key."""
    held = mask.tolist()
    on, off = iter(_cells(values, len(held))), iter(_cells(others, len(held)))
    return [next(on) if h else next(off) for h in held]


def _dicts(columns: dict, count: int) -> List[dict]:
    """The count rows of a dict of columns (see _cells) as dicts without their absent cells."""
    cells = [_cells(column, count) for column in columns.values()]
    if any(isinstance(column, list) and _ABSENT in column for column in columns.values()):  # only lists hold them
        return [{key: cell for key, cell in zip(columns, row) if cell is not _ABSENT} for row in zip(*cells)]
    return [dict(zip(columns, row)) for row in zip(*cells)] if cells else [{} for _ in range(count)]


def _modulus(z) -> np.ndarray:
    """|z| rounded as Python's abs of a complex (libm hypot); numpy's complex abs can differ in the last place."""
    return np.hypot(z.real, z.imag)


def band_verdict(residual: float, cfg) -> str:
    """"pass" at or below cfg.pass_tol, "fail" at or above cfg.fail_tol,
    "band" in between; cfg is anything carrying those two thresholds."""
    if residual <= cfg.pass_tol:
        return "pass"
    if residual >= cfg.fail_tol:
        return "fail"
    return "band"


def agreement(claims_normal: bool, oracle_band: str) -> str:
    """Verdict of a claim against an oracle band; a residual in the band is inconclusive."""
    if oracle_band == "band":
        return "inconclusive"
    if claims_normal == (oracle_band == "pass"):
        return "pass"
    return "discrepancy"


def lft_oracle(quads: np.ndarray, tol: float) -> Dict[str, np.ndarray]:
    """Coefficient-level normality oracle for the weight K_{sigma(0)} of each
    quadruple of a (B, 4) stack, as columns: normal when both defects are at
    most tol.  It needs no truncation, so it also covers symbols without one."""
    gap, defect = lft_normality_defects(quads)
    return {"modulus_gap": gap, "commute_defect": defect, "normal": np.maximum(gap, defect) <= tol}


def cowen_weights(phi: np.ndarray) -> np.ndarray:
    """The kernel weights K_{sigma(0)} = 1/(1 - conj(sigma(0)) z), sigma
    Cowen's adjoint map of mobius.cowen_stack, of a stack of maps."""
    sigma = cowen_stack(phi)[1]
    return _stack(1.0, 0.0, 1.0, -(sigma[:, 1] / sigma[:, 3]).conjugate())


class Probe(NamedTuple):
    """The residual arrays a stack of B draws asks `measure` for: given psi
    and phi, W's normality (unless normality is False) and, given a
    conjugation kind, W's symmetry against it; given a kind alone, the
    conjugation's involution and isometry; given phi alone, the adjoint
    factorization of C_phi with the correct and the flipped sigma sign.
    lam and alpha default to ones and zeros (J reads neither)."""

    psi: Optional[np.ndarray] = None
    phi: Optional[np.ndarray] = None
    kind: Optional[str] = None
    lam: Optional[np.ndarray] = None
    alpha: Optional[np.ndarray] = None
    normality: bool = True


def measure(cfg: SuiteConfig, probe: Probe) -> Dict[str, np.ndarray]:
    """The residual arrays of a probe on the leading cfg.block block of the
    cfg.dim-truncation, one array per key even for a probe of no rows.  The
    seam it calls prepares the rows a piece at a time and sums them in
    chunks of at most max(1, STACK_ROWS // min(cfg.dim, h)) rows, in
    order; each row's residuals equal those of a stack of one.  A refused
    row raises its refusal."""
    psi, phi, kind, lam, alpha, normality = probe
    count = len(phi) if phi is not None else len(alpha if lam is None else lam)
    lam = np.ones(count, dtype=complex) if lam is None else lam
    alpha = np.zeros(count, dtype=complex) if alpha is None else alpha
    dim, block = cfg.dim, cfg.block
    if phi is None:
        return dict(zip(("involution", "isometry"), conjugation_residual_stack(kind, lam, alpha, dim, block)))
    if psi is None:
        return dict(zip(("factorization", "flipped_sign"), adjoint_factorization_stack(phi, dim, block)))
    return wco_residual_stack(psi, phi, dim, block, kind, lam, alpha, normality)


_SEVERITY = ("pass", "inconclusive", "discrepancy")
_DECISION_BAND = {True: "pass", False: "fail", None: "band"}


def _record(cfg, params, oracle=None, claim=True, exact=True, gaps=None, decided=None, residuals=None, oracles=None, **fields):
    """The one verdict rule.  gaps are closed-form quantities that must be
    zero: each is recorded in residuals, and one above cfg.pred_tol (or a
    failed structural check, exact False) makes the record "fail".
    Otherwise each oracle value gets its band from `band_verdict`, and each
    exact decision (an oracle deciding normality with no truncation:
    True normal, False not normal, None undecided) the band "pass", "fail"
    or "band", never placed by cfg.pass_tol or cfg.fail_tol.  Each band,
    recorded as "<key>_band" in oracles, meets the claim (that the value
    is zero, or the operator normal) in `agreement`, and the least
    favourable result is the verdict: discrepancy, then inconclusive, then
    pass.  The oracle values lead the residuals, then the gaps; fields are
    the remaining SampleRecord fields."""
    oracle, gaps = oracle or {}, gaps or {}
    bands = {f"{key}_band": band_verdict(value, cfg) for key, value in oracle.items()}
    bands.update({f"{key}_band": _DECISION_BAND[normal] for key, normal in (decided or {}).items()})
    verdict = max((agreement(claim, band) for band in bands.values()), key=_SEVERITY.index, default="pass")
    exact = exact and all(gap <= cfg.pred_tol for gap in gaps.values())
    return SampleRecord(params, residuals={**oracle, **gaps, **(residuals or {})}, oracles={**bands, **(oracles or {})},
                        verdict=verdict if exact else "fail", **fields)


def _records(cfg, params, claim=True, exact=True, note="", **columns) -> List[SampleRecord]:
    """One `_record` per row: params and each dict keyword of `_record`
    (oracle, gaps, decided, residuals, oracles) map report keys to columns,
    and claim, exact and note are columns.  A column is an array, a list (its
    objects are kept) or one value; an `_at` column's absent cells drop the key."""
    count = len(next(iter(params.values())))
    groups = {"params": params, **columns}
    rows = zip(*(_cells(flag, count) for flag in (claim, exact, note)), *(_dicts(group, count) for group in groups.values()))
    return [_record(cfg, claim=c, exact=e, note=n, **dict(zip(groups, dicts))) for c, e, n, *dicts in rows]


# ---------------------------------------------------------------------------
# individual suites: a sampler draw_* and a recorder suite_* each
# ---------------------------------------------------------------------------

def _params(d, *names) -> Dict[str, np.ndarray]:
    """The records' params: the named columns of the draws."""
    return {name: getattr(d, name) for name in names}


def draw_prop21(rng, cfg: SuiteConfig, idx):
    n = len(idx)
    return None, {"p": _annulus(rng, n, 0.5), "delta": _annulus(rng, n, 0.7), "gamma": 0.5 + rng.uniform(0.0, 1.0, n)}


def suite_prop21_normal(cfg: SuiteConfig, d) -> List[SampleRecord]:
    """Interior-fixed-point family: every member passes the normality oracle."""
    oracle = measure(cfg, Probe(*fam.interior_quadruples(d.p, d.delta, d.gamma)))
    return _records(cfg, _params(d, "p", "delta", "gamma"), oracle=oracle, predicates={"in_family": [True] * len(d.p)})


def _parabolic_j_arc(rng, n: int, branch) -> np.ndarray:
    return branch * 0.5j * (1.0 + np.exp(1j * rng.uniform(math.pi + 0.3, 1.5 * math.pi - 0.35, n)))


def draw_prop22(rng, cfg: SuiteConfig, idx):
    """Kind i % 4: a generic self-map, generically non-normal (0); an
    automorphism, commuting and normal (1); real coefficients with b = -c,
    so sigma = phi (2); a strict parabolic map from the branch arc (3).
    Rejected: a constant or non-self-map, and sup |phi| > 0.9 of kind 0."""
    kind, n = idx % 4, len(idx)
    generic = canonical(_stack(0.4 + 0.3 * _annulus(rng, n), _annulus(rng, n, 0.35), _annulus(rng, n, 0.35), 1.0))
    automorphism = fam.disk_form_quadruples(_circle(rng, n), _annulus(rng, n, 0.5, 0.05))
    real = fam.j_quadruples(rng.uniform(-0.5, 0.5, n), rng.uniform(-0.55, 0.55, n))[1]
    parabolic = fam.parabolic_j_quadruples(_parabolic_j_arc(rng, n, 1), 1)[1]
    phi = np.choose(kind[:, None], (generic, automorphism, real, parabolic))
    return ~is_degenerate(phi) & is_self_map(phi) & ((kind != 0) | (sup_modulus(phi) <= 0.9)), {"phi": phi}


def suite_prop22_commutation(cfg: SuiteConfig, d) -> List[SampleRecord]:
    """Weight K_{sigma(0)}: matrix normality iff the commuting condition."""
    lft, oracle = lft_oracle(d.phi, cfg.pred_tol), measure(cfg, Probe(cowen_weights(d.phi), d.phi))
    return _records(cfg, dict(zip("abcd", d.phi.T)), lft["normal"], oracle=oracle,
                    predicates={"lft_condition": lft["normal"]}, oracles=lft)


def draw_conjugation(rng, cfg: SuiteConfig, idx):
    """Index 0 is J, which is C1 with lam = alpha = 1, the next
    samples // 2 indices C1 and the remaining (samples - 1) // 2 C2."""
    n, kind = len(idx), np.where(idx == 0, 0, np.where(idx <= cfg.samples // 2, 1, 2))
    alpha = np.where(kind == 2, _annulus(rng, n, 0.32, 0.05), np.where(kind == 1, _circle(rng, n), 1.0 + 0j))
    return None, {"kind": kind, "lam": np.where(kind == 0, 1.0 + 0j, _circle(rng, n)), "alpha": alpha}


def suite_conjugation_axioms(cfg: SuiteConfig, d) -> List[SampleRecord]:
    """Involution and anti-linear isometry axioms for the three kinds.

    J and C1 are exact at any dimension, but lam alpha^j is rounded power by
    power, so their tolerance 1e-14 grows as (k / 16)^2 past block k = 16:
    the worst of 500,000 draws is 0.93 of it at k = 16, 0.88 at 17 and 0.68
    at 32.  C2 converges geometrically in |alpha|: at N = 48 and block 16 it
    stays below 1e-8 for |alpha| up to roughly 0.35, so draws stay below 0.32.
    """
    c2, named = d.kind == 2, d.kind > 0  # J and C1: one stack
    got = [measure(cfg, Probe(kind=kind, lam=d.lam[rows], alpha=d.alpha[rows])) for kind, rows in (("C1", ~c2), ("C2", c2))]
    residuals = {key: _at(c2, got[1][key], got[0][key]) for key in got[0]}
    tol = np.where(c2, 1e-8, 1e-14 * max(1.0, cfg.block / 16) ** 2)
    params = {"kind": np.where(c2, "C2", np.where(named, "C1", "J")), "lam": _at(named, d.lam[named]),
              "alpha": _at(named, d.alpha[named])}
    return _records(cfg, params, exact=np.maximum(*residuals.values()) <= tol, residuals=residuals)


def _perturbed(psi: np.ndarray) -> np.ndarray:
    """The weights with n1 bumped by 0.3 max(1, |n0|)."""
    out = psi.copy()
    out[:, 1] += 0.3 * np.maximum(1.0, abs(psi[:, 0]))
    return out


def _symmetry_records(cfg: SuiteConfig, params: dict, d, kind: str, alpha=None) -> List[SampleRecord]:
    """Shared records of the three symmetric-form suites: in-family draws
    must pass, perturbed controls (the indices past cfg.samples) must fail."""
    member = np.arange(len(d.psi)) < cfg.samples
    psi = np.where(member[:, None], d.psi, _perturbed(d.psi))
    oracle = measure(cfg, Probe(psi, d.phi, kind, alpha=alpha, normality=False))
    return _records(cfg, {**params, "perturbed": _at(~member, True)}, member, oracle=oracle, predicates={"in_family": member})


def draw_jsym(rng, cfg: SuiteConfig, idx):
    n = len(idx)
    a0, a1, b = _annulus(rng, n, 0.7), _annulus(rng, n, 0.75, 0.02), 0.5 + rng.uniform(0.0, 1.0, n)
    psi, phi = fam.j_quadruples(a0, a1, b)
    return is_self_map(phi), {"a0": a0, "a1": a1, "b": b, "psi": psi, "phi": phi}


def suite_jsym_form(cfg: SuiteConfig, d) -> List[SampleRecord]:
    return _symmetry_records(cfg, _params(d, "a0", "a1", "b"), d, "J")


def draw_c1sym(rng, cfg: SuiteConfig, idx):
    n = len(idx)
    alpha, c0, c1, dd = _circle(rng, n), _annulus(rng, n, 0.7), _annulus(rng, n, 0.75, 0.02), 0.5 + rng.uniform(0, 1, n)
    psi, phi = fam.c1_quadruples(alpha, c0, c1, dd)
    return is_self_map(phi), {"alpha": alpha, "c0": c0, "c1": c1, "d": dd, "psi": psi, "phi": phi}


def suite_c1sym_form(cfg: SuiteConfig, d) -> List[SampleRecord]:
    return _symmetry_records(cfg, _params(d, "alpha", "c0", "c1", "d"), d, "C1", d.alpha)


def _c2_usable(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """A strict self-map whose weight pole stays well outside the closed
    disk: phi not constant, sup |phi| <= 0.9 (which rejects every
    non-self-map) and |pole of psi| >= 1.8."""
    return ~is_degenerate(phi) & (sup_modulus(phi) <= 0.9) & (abs(poles(psi)) >= 1.8)


def _c2_candidates(alpha, t, u):
    """(keep, params, psi, phi) of the C2 candidates with V = 1 and the
    given alpha, T and U, kept where _c2_usable."""
    params = fam.c2_params_from_tuv(alpha, t, u, 1.0)
    psi, phi = fam.c2_quadruples(params)
    return _c2_usable(psi, phi), params, psi, phi


def _draw_c2_selfmap(rng, n: int):
    """_c2_candidates at |alpha| in [0.1, 0.5] and |T|, |U| <= 0.3."""
    return _c2_candidates(_annulus(rng, n, 0.5, 0.1), _annulus(rng, n, 0.3), _annulus(rng, n, 0.3))


_C2 = ("alpha", "c0", "c1", "c2")


def draw_c2sym(rng, cfg: SuiteConfig, idx):
    keep, params, psi, phi = _draw_c2_selfmap(rng, len(idx))
    return keep, {**_params(params, *_C2), "psi": psi, "phi": phi}


def suite_c2sym_form(cfg: SuiteConfig, d) -> List[SampleRecord]:
    return _symmetry_records(cfg, _params(d, *_C2), d, "C2", d.alpha)


# --- automorphism lemmas -----------------------------------------------------

def draw_lemma31(rng, cfg: SuiteConfig, idx):
    """Even indices: a forward-built rotation-free automorphism of gamma;
    odd ones: a random map, rejected when constant or an automorphism."""
    count, even = len(idx), idx % 2 == 0
    g = _annulus(rng, count, 0.8, 0.05)
    a0 = np.where(even, g.conjugate(), _annulus(rng, count, 0.6, 0.05))
    a1 = np.where(even, g.conjugate() * (abs(g) ** 2 - 1.0) / g, _annulus(rng, count, 0.6))
    phi = fam.j_quadruples(a0, a1)[1]
    keep = even | ~(is_degenerate(phi) | is_automorphism(phi))
    return keep, {"even": even, "gamma": g, "a0": a0, "a1": a1, "phi": phi}


def suite_lemma31_aut(cfg: SuiteConfig, d) -> List[SampleRecord]:
    """Forward-built rotation-free automorphisms are recovered with
    gamma = (a1 + 1)/a0; random non-automorphisms come back empty."""
    forms, beta, gamma = fam.j_aut_forms(d.a0, d.a1)
    disk, g = d.even & (forms == "DiskForm"), d.gamma
    map_gap = proj_distance(fam.disk_form_quadruples(beta, gamma), d.phi)
    return _records(
        cfg, {"a0": d.a0, "a1": d.a1, "gamma": _at(d.even, g[d.even])},
        exact=forms == np.where(d.even, "DiskForm", "NoneType"),
        gaps={"gamma_gap": _at(disk, _modulus(gamma[disk] - g[disk])), "map_gap": _at(disk, map_gap[disk])},
        predicates={"expected": np.where(d.even, "disk", "none")}, oracles={"form": forms},
    )


def draw_lemma32(rng, cfg: SuiteConfig, idx):
    count, even = len(idx), idx % 2 == 0
    alpha, g = _circle(rng, count), _annulus(rng, count, 0.8, 0.05)
    c0 = np.where(even, g.conjugate() / alpha, _annulus(rng, count, 0.6, 0.05))
    c1 = np.where(even, (abs(g) ** 2 - 1.0) * g.conjugate() / (g * alpha), _annulus(rng, count, 0.6))
    phi = fam.c1_quadruples(alpha, c0, c1)[1]
    keep = even | ~(is_degenerate(phi) | is_automorphism(phi))
    return keep, {"even": even, "gamma": g, "alpha": alpha, "c0": c0, "c1": c1}


def suite_lemma32_aut(cfg: SuiteConfig, d) -> List[SampleRecord]:
    forms, beta, gamma = fam.c1_aut_forms(d.alpha, d.c0, d.c1)
    disk, g = d.even & (forms == "DiskForm"), d.gamma
    expected_beta = g.conjugate() / (g * d.alpha)
    return _records(
        cfg, {"alpha": d.alpha, "c0": d.c0, "c1": d.c1, "gamma": _at(d.even, g[d.even])},
        exact=forms == np.where(d.even, "DiskForm", "NoneType"),
        gaps={"gamma_gap": _at(disk, _modulus(gamma[disk] - g[disk])),
              "beta_gap": _at(disk, _modulus(beta[disk] - expected_beta[disk]))},
        predicates={"expected": np.where(d.even, "disk", "none")}, oracles={"form": forms},
    )


def draw_lemma33(rng, cfg: SuiteConfig, idx):
    """Indices i % 3 == 2 draw the identity case, the others a disk form
    (rejected when beta gamma comes within 0.05 of alpha)."""
    count, identity = len(idx), idx % 3 == 2
    alpha, c1, g = _annulus(rng, count, 0.8, 0.1), _annulus(rng, count, 0.8, 0.1), _annulus(rng, count, 0.8, 0.05)
    beta = fam.c2_aut_beta(alpha, g)
    keep = identity | (abs(beta * g - alpha) >= 0.05)
    return keep, {"identity": identity, "alpha": alpha, "c1": c1, "gamma": g, "beta": beta}


def suite_lemma33_aut(cfg: SuiteConfig, d) -> List[SampleRecord]:
    identity, disk = d.identity, ~d.identity
    al, c1 = d.alpha[identity], d.c1[identity]
    params = fam.C2Params.from_c0_squared(al, c1 / al.conjugate(), c1, c1)
    map_gap = proj_distance(fam.c2_quadruples(params)[1], np.array([[1.0, 0.0, 0.0, 1.0]]))
    g, beta = d.gamma[disk], d.beta[disk]
    disk_forms, got_b, got_g = fam.c2_aut_forms(fam.c2_params_from_aut(d.alpha[disk], beta, g, 1.0 + 0j))
    forms = np.array(_at(identity, fam.c2_aut_forms(params)[0], disk_forms))
    found, ok = disk & (forms == "DiskForm"), disk_forms == "DiskForm"
    return _records(
        cfg, {"alpha": d.alpha, "c1": _at(identity, c1), "gamma": _at(disk, g), "beta": _at(disk, beta)},
        exact=forms == np.where(identity, "IdentityForm", "DiskForm"),
        gaps={"map_gap": _at(identity, map_gap), "gamma_gap": _at(found, _modulus(got_g[ok] - g[ok])),
              "beta_gap": _at(found, _modulus(got_b[ok] - beta[ok]))},
        predicates={"expected": np.where(identity, "identity", "disk")}, oracles={"form": forms},
    )


# --- normality iff suites ----------------------------------------------------

def draw_prop41(rng, cfg: SuiteConfig, idx):
    """Even indices draw on the normality locus, odd ones off it."""
    count, even = len(idx), idx % 2 == 0
    a0 = _annulus(rng, count, 0.52, 0.05)
    y = -a0.imag * (1.0 - abs(a0) ** 2) / abs(a0) ** 2
    a1 = np.where(even, (rng.uniform(-0.6, 0.6, count) + 1j * y) * a0, _annulus(rng, count, 0.7, 0.02))
    expression = fam.j_normal_expression(a0, a1)
    psi, phi = fam.j_quadruples(a0, a1)
    keep = np.where(even, abs(a1) <= 0.7, abs(expression) >= 1e-3) & ~is_degenerate(phi) & is_self_map(phi)
    return keep, {"a0": a0, "a1": a1, "expression": expression, "psi": psi, "phi": phi}


def _iff_records(cfg: SuiteConfig, d, names, normal) -> List[SampleRecord]:
    """The records of the two iff statements: the predicate column normal
    claims the matrix normality of each draw, whose params are names."""
    oracle = measure(cfg, Probe(d.psi, d.phi))
    return _records(cfg, _params(d, *names), normal, oracle=oracle, predicates={"normal": normal, "expression": d.expression})


def suite_prop41_iff(cfg: SuiteConfig, d) -> List[SampleRecord]:
    return _iff_records(cfg, d, ("a0", "a1"), fam.j_normal_predicate(d.a0, d.a1, cfg.pred_tol))


def draw_thm51(rng, cfg: SuiteConfig, idx):
    """Even indices draw on the normality locus, odd ones off it."""
    count, even = len(idx), idx % 2 == 0
    alpha, c0 = _circle(rng, count), _annulus(rng, count, 0.52, 0.05)
    base, kernel = fam.c1_normal_locus(alpha, c0)  # on the locus: a uniform real multiple in [-0.4, 0.4] of kernel
    c1 = np.where(even, base + rng.uniform(-0.4, 0.4, count) * kernel, _annulus(rng, count, 0.7, 0.02))
    expression = fam.c1_normal_expression(alpha, c0, c1)
    on_locus = (abs(c1) <= 0.7) & (abs(c1) >= 1e-3) & (abs(expression) <= 1e-12)
    psi, phi = fam.c1_quadruples(alpha, c0, c1)
    keep = np.where(even, on_locus, abs(expression) >= 1e-3) & ~is_degenerate(phi) & is_self_map(phi)
    return keep, {"alpha": alpha, "c0": c0, "c1": c1, "expression": expression, "psi": psi, "phi": phi}


def suite_thm51_iff(cfg: SuiteConfig, d) -> List[SampleRecord]:
    return _iff_records(cfg, d, ("alpha", "c0", "c1"), fam.c1_normal_predicate(d.alpha, d.c0, d.c1, cfg.pred_tol))


_THM61_NOTES = {
    2: "identity-case parameters: stated conditions reject the identity operator",
    4: "interior-normal reconstruction: normal operator outside the stated conditions",
}


def draw_thm61(rng, cfg: SuiteConfig, idx):
    """Kind i % 5: a case I construction (rejected within 1e-2 of the
    case I moduli); a case II construction, all-real sign pattern; the
    identity case; a generic draw with a usable self-map; an
    interior-normal reconstruction.  Each kind is drawn for every index."""
    n, kind = len(idx), idx % 5
    alpha, m = _annulus(rng, n, 0.6, 0.2), rng.uniform(0.2, 0.5, n)
    t, u, v = (m * _circle(rng, n) for _ in range(3))
    case_i = fam.c2_params_from_tuv(alpha, t, u, v)
    real = _signs(rng, n) * rng.uniform(0.1, 0.4, n) + 0j
    case_ii = fam.c2_params_from_tuv(rng.uniform(0.2, 0.8, n) + 0j, real, -real, -real)
    al, c1 = _annulus(rng, n, 0.7, 0.2), _annulus(rng, n, 0.5, 0.1)
    identity = fam.C2Params.from_c0_squared(al, c1 / al.conjugate(), c1, c1)
    usable, generic, _, _ = _draw_c2_selfmap(rng, n)
    p = rng.uniform(0.2, 0.6, n) * _signs(rng, n)
    angle = rng.uniform(0.45 * math.pi, 0.8 * math.pi, n)
    interior = fam.c2_interior_reconstruct(fam.c2_compatible_alpha(p, angle), p, _annulus(rng, n, 0.6))
    keep = np.choose(kind, (abs(abs(t + u - alpha.conjugate() * v) / abs(alpha) - m) > 1e-2, True, True, usable, True))
    kinds = (case_i, case_ii, identity, generic, interior)
    return keep, {"kind": kind, **{name: np.choose(kind, [getattr(q, name) for q in kinds]) for name in _C2}}


def suite_thm61_consistency(cfg: SuiteConfig, d) -> List[SampleRecord]:
    """Stated case conditions versus the normality oracles.

    Parameter sets satisfying the case conditions force |phi(0)| = 1, so
    no nonconstant self-map exists there and the oracle is the exact
    decision of the coefficient-level commuting check; a draw of the last
    three kinds with a usable truncation is decided by its matrix
    normality instead.  The identity-case draws (predicate rejects,
    operator is the identity) and the interior-normal reconstructions are
    the documented discrepancies.
    """
    params = fam.C2Params(d.alpha, d.c0, d.c1, d.c2)
    cases = fam.c2_normal_predicate(params, cfg.pred_tol)
    claims = np.isin(cases, (fam.C2NormalCase.CASE_I.value, fam.C2NormalCase.CASE_II.value))
    lft = lft_oracle(fam.c2_raw_phi(d.alpha, *fam.c2_quadruple(params)), cfg.pred_tol)
    psi, phi = fam.c2_quadruples(params)
    usable = (d.kind >= 2) & ~is_degenerate(phi) & is_self_map(phi) & (abs(poles(psi)) > 1.5)
    normality = measure(cfg, Probe(psi[usable], phi[usable]))["normality"]
    return _records(
        cfg, _params(d, *_C2), claims, note=[_THM61_NOTES.get(kind, "") for kind in d.kind.tolist()],
        oracle={"normality": _at(usable, normality)}, decided={"lft": _at(~usable, lft["normal"][~usable])},
        predicates={"case": cases, "claims_normal": claims}, oracles=lft,
    )


# --- worked-example suites ---------------------------------------------------

def draw_ex41(rng, cfg: SuiteConfig, idx):
    """Indices i % 4 != 3 draw a real interior parameter p (rejected unless
    the coefficient-conjugation parameters lie within 0.9), the others p
    at least 0.1 off the real axis."""
    count, real = len(idx), idx % 4 != 3
    p_real, delta_real = rng.uniform(0.12, 0.62, count) * _signs(rng, count), _annulus(rng, count, 0.7)
    p_off, delta_off = _annulus(rng, count, 0.5, 0.15), _annulus(rng, count, 0.6)
    lift = np.where(p_off.imag >= 0, 1.0, -1.0) * (0.1 + abs(p_off.imag))
    p_off = np.where(abs(p_off.imag) < 0.1, p_off.real + 1j * lift, p_off)
    p, delta = np.where(real, p_real, p_off), np.where(real, delta_real, delta_off)
    a0 = p * (1.0 - delta) / (1.0 - p ** 2 * delta)
    a1 = delta * (p ** 2 - 1.0) ** 2 / (1.0 - p ** 2 * delta) ** 2
    keep = ~real | ((abs(a0) < 0.9) & (abs(a1) < 0.9))
    return keep, {"real": real, "p": p, "delta": delta, "a0": a0, "a1": a1}


def suite_ex41_equivalence(cfg: SuiteConfig, d) -> List[SampleRecord]:
    """Real interior parameter: the interior-normal symbols coincide with
    the coefficient-conjugation family; off the real axis the symmetry
    residual is bounded away from zero."""
    p, delta, real, off = d.p, d.delta, d.real, ~d.real
    gamma = np.where(real, (1.0 - p ** 2 * delta) / (1.0 - p ** 2), 1.0)  # makes psi(0) = 1
    psi, phi = fam.interior_quadruples(p, delta, gamma)
    jpsi, jphi = fam.j_quadruples(d.a0, d.a1, 1.0)
    symmetry = measure(cfg, Probe(psi[off], phi[off], "J", normality=False))["symmetry"]
    return _records(  # a real p is recorded as a float
        cfg, {"p": _at(real, p.real[real], p[off]), "delta": delta, "a0": _at(real, d.a0[real]), "a1": _at(real, d.a1[real])},
        real, oracle={"j_symmetry": _at(off, symmetry)}, predicates={"real_p": real},
        gaps={"phi_gap": _at(real, proj_distance(phi, jphi)[real]), "psi_gap": _at(real, quadruple_gap(psi, jpsi)[real])},
    )


def draw_cor41(rng, cfg: SuiteConfig, idx):
    return None, {"alpha": _annulus(rng, len(idx), 0.5, 0.05)}


def suite_cor41_aut(cfg: SuiteConfig, d) -> List[SampleRecord]:
    """Disk-form automorphism parameters always satisfy the normality
    condition of the coefficient-conjugation family."""
    al = d.alpha
    a0, a1 = al.conjugate(), al.conjugate() / al * (abs(al) ** 2 - 1.0)
    expression = fam.j_normal_expression(a0, a1)
    psi, phi = fam.j_quadruples(a0, a1)
    classes = classify(phi)
    return _records(
        cfg, {"alpha": al, "a0": a0, "a1": a1}, exact=[cls.is_automorphism for cls in classes],
        oracle=measure(cfg, Probe(psi, phi)), gaps={"expression_gap": _modulus(expression)},
        predicates={"expression": expression, "map_class": [cls.map_class.value for cls in classes]},
    )


_PARABOLIC = (MapClass.PARABOLIC_NON_AUTOMORPHISM, MapClass.PARABOLIC_AUTOMORPHISM)


def _parabolic(phi, zeta):
    """The map class names of a stack of maps, the mask of the parabolic
    ones and, as columns absent on the other rows, their gaps to
    Denjoy-Wolff point zeta (an array over the stack) and derivative 1."""
    classes = classify(phi)
    parabolic = np.array([cls.map_class in _PARABOLIC for cls in classes], dtype=bool)
    found = [(cls.dw_point, cls.dw_derivative) for cls in classes if cls.map_class in _PARABOLIC]
    point, slope = np.array(found, dtype=complex).reshape(-1, 2).T
    gaps = {"dw_gap": _modulus(point - zeta[parabolic]), "derivative_gap": _modulus(slope - 1.0)}
    return [cls.map_class.value for cls in classes], parabolic, {key: _at(parabolic, gap) for key, gap in gaps.items()}


def draw_ex44(rng, cfg: SuiteConfig, idx):
    branch = np.where(idx % 2 == 0, 1, -1)
    return None, {"a0": _parabolic_j_arc(rng, len(idx), branch), "branch": branch}


def suite_ex44_parabolic(cfg: SuiteConfig, d) -> List[SampleRecord]:
    psi, phi = fam.parabolic_j_quadruples(d.a0, d.branch)
    expression = fam.j_normal_expression(d.a0, (1.0 - d.branch * d.a0) ** 2)
    names, parabolic, dw_gaps = _parabolic(phi, d.branch)
    return _records(cfg, {"a0": d.a0, "branch": d.branch}, exact=parabolic, oracle=measure(cfg, Probe(psi, phi)), gaps=dw_gaps,
                    predicates={"map_class": names, "expression": expression})


def draw_ex51(rng, cfg: SuiteConfig, idx):
    """conj(p) = alpha p branch, plus the delta = 0 constant-map branch
    (every fourth index); rejected unless c0 and c1 lie within 0.9."""
    count = len(idx)
    p = _annulus(rng, count, 0.55, 0.1)
    delta = np.where(idx % 4 == 3, 0j, _annulus(rng, count, 0.65))
    alpha, p2 = p.conjugate() / p, abs(p) ** 2
    c0 = np.where(delta == 0, p, p * (1.0 - delta) / (1.0 - p2 * delta))
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = alpha * c0 ** 2 + alpha * c0 * (p2 - delta) / (p.conjugate() * (delta - 1.0))
    c1 = np.where(delta == 0, 0j, c1)
    keep = (abs(c0) < 0.9) & (abs(c1) < 0.9)
    return keep, {"p": p, "delta": delta, "alpha": alpha, "c0": c0, "c1": c1}


def suite_ex51_interior(cfg: SuiteConfig, d) -> List[SampleRecord]:
    """Rotation-weighted interior case."""
    p2 = abs(d.p) ** 2
    psi, phi = fam.interior_quadruples(d.p, d.delta, (1.0 - p2 * d.delta) / (1.0 - p2))
    phi_gap = proj_distance(phi, fam.c1_quadruples(d.alpha, d.c0, d.c1)[1])
    expression_gap = abs(fam.c1_normal_expression(d.alpha, d.c0, d.c1))
    return _records(
        cfg, _params(d, "p", "delta", "alpha", "c0", "c1"), oracle=measure(cfg, Probe(psi, phi, "C1", alpha=d.alpha)),
        gaps={"phi_gap": phi_gap, "expression_gap": expression_gap}, predicates={"c1_normal": expression_gap <= cfg.pred_tol},
    )


def draw_ex51_aut(rng, cfg: SuiteConfig, idx):
    return None, {"p": _annulus(rng, len(idx), 0.55, 0.1)}


def suite_ex51_aut_corollary(cfg: SuiteConfig, d) -> List[SampleRecord]:
    """delta = -1 is the only automorphism branch; the displayed map
    matches the composed construction."""
    p, ap2 = d.p, abs(d.p) ** 2  # alpha p^2 with alpha = conj(p)/p
    phi = fam.interior_quadruples(p, -1.0, 1.0)[1]
    phi_gap = proj_distance(phi, _stack(-(1.0 + ap2), 2.0 * p, -2.0 * p.conjugate(), 1.0 + ap2))
    classes = classify(phi)
    return _records(cfg, {"p": p}, exact=[cls.is_automorphism for cls in classes], gaps={"phi_gap": phi_gap},
                    predicates={"map_class": [cls.map_class.value for cls in classes]})


def draw_ex54(rng, cfg: SuiteConfig, idx):
    count = len(idx)
    return None, {"zeta": _circle(rng, count), "w": 0.5 + 0.33 * _annulus(rng, count)}


def suite_ex54_parabolic(cfg: SuiteConfig, d) -> List[SampleRecord]:
    zeta = d.zeta
    c0, c1 = zeta * d.w, (1.0 - d.w) ** 2
    psi, phi = fam.c1_parabolic_quadruples(zeta, c0, c1)
    expression = fam.c1_normal_expression(1.0 / zeta ** 2, c0, c1)
    names, parabolic, dw_gaps = _parabolic(phi, zeta)
    return _records(cfg, {"zeta": zeta, "c0": c0, "c1": c1}, exact=parabolic, oracle=measure(cfg, Probe(psi, phi)),
                    gaps={"expression_gap": _modulus(expression), **dw_gaps},
                    predicates={"map_class": names, "expression": expression})


def draw_cor62(rng, cfg: SuiteConfig, idx):
    """Even indices draw the moduli-equality construction, odd ones a
    forced automorphism (rejected when beta gamma comes within 0.05 of
    alpha)."""
    count, even = len(idx), idx % 2 == 0
    alpha, m = _annulus(rng, count, 0.7, 0.15), rng.uniform(0.2, 0.6, count)
    t, u, v = (m * _circle(rng, count) for _ in range(3))
    g = _annulus(rng, count, 0.8, 0.1)
    beta = fam.c2_aut_beta(alpha, g)
    keep = even | (abs(beta * g - alpha) >= 0.05)
    return keep, {"even": even, "alpha": alpha, "t": t, "u": u, "v": v, "gamma": g, "beta": beta}


def suite_cor62_no_aut(cfg: SuiteConfig, d) -> List[SampleRecord]:
    """Moduli-equality draws never come back as automorphisms, and forced
    automorphism parameters violate the moduli equalities."""
    even, odd = d.even, ~d.even
    params = fam.c2_params_from_tuv(d.alpha[even], d.t[even], d.u[even], d.v[even])
    forms = fam.c2_aut_forms(params)[0]
    _, u, v, _ = fam.c2_quadruple(fam.c2_params_from_aut(d.alpha[odd], d.beta[odd], d.gamma[odd], 1.0 + 0j))
    violation = abs(abs(u) - abs(v)) / np.maximum(abs(u), abs(v))
    built = {name: _at(even, getattr(params, name)) for name in _C2[1:]}
    return _records(
        cfg, {"alpha": d.alpha, **built, "gamma": _at(odd, d.gamma[odd])}, even, _at(even, forms == "NoneType", True),
        oracle={"moduli_violation": _at(odd, violation)},
        # phi's (b, c, d) is a common multiple of (alpha U, -conj(alpha) T, conj(alpha) V): the spread of |T|, |U|, |V|
        gaps={"moduli_gap": _at(even, _c2_deficiency(fam.c2_quadruples(params)[1])[0])},
        predicates={"moduli_equal": _at(even, True), "aut_constructed": _at(odd, True)}, oracles={"form": _at(even, forms)},
    )


def draw_ex61(rng, cfg: SuiteConfig, idx):
    count = len(idx)
    p = rng.uniform(0.15, 0.6, count) * _signs(rng, count)
    return None, {"p": p, "angle": rng.uniform(0.45 * math.pi, 0.8 * math.pi, count), "delta": _annulus(rng, count, 0.6)}


def suite_ex61_interior(cfg: SuiteConfig, d) -> List[SampleRecord]:
    """Interior reconstruction through the I-ratios under the gauge
    c1 - c2 = 1, on the compatibility locus of the conjugation parameter."""
    alpha = fam.c2_compatible_alpha(d.p, d.angle)
    params = fam.c2_interior_reconstruct(alpha, d.p, d.delta)
    _, u, _, _ = fam.c2_quadruple(params)
    consistency = abs(u - alpha.conjugate() / alpha)  # gauge c1 - c2 = 1
    psi, phi = fam.c2_quadruples(params)
    phi_gap = proj_distance(phi, fam.interior_closed_quadruples(d.p, d.delta))
    return _records(cfg, {"p": d.p, "delta": d.delta, "alpha": alpha}, oracle=measure(cfg, Probe(psi, phi, "C2", alpha=alpha)),
                    gaps={"phi_gap": phi_gap, "consistency": consistency})


def draw_ex63(rng, cfg: SuiteConfig, idx):
    """Construct-then-check round trip for the kernel-weighted parabolic
    discriminant: the double fixed point always lands on the circle, but
    only about half the draws give self-maps; the rest are rejected."""
    count = len(idx)
    sgn = np.where(idx % 2 == 0, 1.0, -1.0)
    alpha = _annulus(rng, count, 0.6, 0.25)
    amod = abs(alpha)
    rho = (2.0 * amod ** 2 - 1.0) + 2.0j * sgn * amod * np.sqrt(1.0 - amod ** 2)
    c1 = _circle(rng, count) * rng.uniform(0.8, 1.2, count)
    t = 0.05 * _annulus(rng, count, 1.0, 0.3)
    params = fam.C2Params.from_c0_squared(alpha, (c1 + rho * t) / alpha.conjugate(), c1, c1 - t)
    psi, phi = fam.c2_quadruples(params)
    return ~is_degenerate(phi) & is_self_map(phi), {**_params(params, *_C2), "psi": psi, "phi": phi}


def suite_ex63_parabolic(cfg: SuiteConfig, d) -> List[SampleRecord]:
    params = fam.C2Params(d.alpha, d.c0, d.c1, d.c2)
    parabolic = fam.c2_parabolic_predicate(params, cfg.pred_tol)
    zeta = fam.c2_parabolic_dw_point(params)
    names, dw, dw_gaps = _parabolic(d.phi, zeta)
    return _records(cfg, _params(d, *_C2), exact=parabolic & dw, oracle=measure(cfg, Probe(d.psi, d.phi)),
                    gaps={"zeta_modulus_gap": abs(_modulus(zeta) - 1.0), **dw_gaps},
                    predicates={"parabolic": parabolic, "zeta": zeta, "map_class": names})


def draw_cowen(rng, cfg: SuiteConfig, idx):
    """A self-map with sup |phi| <= 0.9 and |c| > 0.02."""
    count = len(idx)
    phi = canonical(_stack(0.4 + 0.3 * _annulus(rng, count), _annulus(rng, count, 0.3), _annulus(rng, count, 0.3), 1.0))
    return is_self_map(phi) & (sup_modulus(phi) <= 0.9) & (abs(phi[:, 2]) > 0.02), {"phi": phi}


def suite_cowen_factorization(cfg: SuiteConfig, d) -> List[SampleRecord]:
    """Adjoint factorization residual; the flipped sigma sign must fail."""
    got = measure(cfg, Probe(phi=d.phi))
    return _records(cfg, dict(zip("abcd", d.phi.T)), gaps={"factorization": got["factorization"]},
                    residuals={"flipped_sign": got["flipped_sign"]})


# ---------------------------------------------------------------------------
# nonexistence sweeps
# ---------------------------------------------------------------------------

SWEEP_R_GRID = (1.2, 1.5, 2.0, 3.0)
SWEEP_T_AUT = (0.0 + 0.0j, 0.6j, 1.2j)
SWEEP_T_NONAUT = (0.3 + 0.0j, 0.8 + 0.0j, 0.4 + 0.5j)


def _target_quadruples(include_aut=True):
    """The (r, t) pairs of the 24 hyperbolic targets, or of the 12 non-automorphisms."""
    return [(r, t) for r in SWEEP_R_GRID for t in (SWEEP_T_AUT if include_aut else ()) + SWEEP_T_NONAUT]


def draw_target(rng, cfg: SuiteConfig, idx):
    """A fixed-target suite draws nothing: index i is target i."""
    return None, {"i": idx}


def _targets(idx, include_aut=True):
    """The r and t arrays of the targets idx and the (B, 4) stack of their maps."""
    r, t = np.array(_target_quadruples(include_aut))[idx].T
    return r.real, t, fam.hyperbolic_aut_map(fam.HyperbolicParams(r.real, t))


def _preimage(targets, alpha=None):
    """The one point (alpha, c0, c1) per target (a, b, c, d) of a stack,
    b, d != 0, whose quadruple (c1 - alpha c0^2, c0, -alpha c0, 1) can be
    proportional to it: c0 = b/d, alpha = -c/b (projected onto the unit
    circle unless given) and c1 = a/d + alpha c0^2.  Returns the arrays
    (gap, alpha, c0, c1), gap the projective distance to the target: zero
    iff the family realizes it, else the value at this one candidate.
    """
    a, b, c, d = targets.T
    if alpha is None:
        alpha = -c / b / abs(c / b)
    c0 = b / d
    c1 = a / d + alpha * c0 * c0
    return quadruple_gap(_stack(c1 - alpha * c0 * c0, c0, -alpha * c0, 1.0), targets), alpha, c0, c1


def _j_deficiency(targets):
    """max(gap, |normality expression|) at each target's preimage under
    alpha = 1: zero iff a normal J-symmetric realization exists, which
    needs b + c = 0 (on the grid, b + c = 2(r - 1))."""
    gap, _, a0, a1 = _preimage(targets, alpha=1.0)
    return np.maximum(gap, abs(fam.j_normal_expression(a0, a1))), {"a0": a0, "a1": a1}


def _c1_deficiency(targets):
    """max(gap, |normality expression|) at each target's preimage, alpha
    unimodular: zero iff a normal C1-symmetric realization exists, which
    needs |b| = |c| (on the grid, exactly the automorphisms Re t = 0)."""
    gap, alpha, c0, c1 = _preimage(targets)
    return np.maximum(gap, abs(fam.c1_normal_expression(alpha, c0, c1))), {"alpha": alpha, "c0": c0, "c1": c1}


def _c2_deficiency(targets):
    """The kernel-weighted family pins (T, U, V) to the target, so the
    stated moduli equalities are violated by exactly the spread of the
    target's own coefficient moduli.  alpha only enters the match defect
    |(1 - a)|alpha|^2 + c alpha - b conj(alpha)| <= |alpha|^2 |1 - a| +
    |alpha| (|b| + |c|), whose infimum over 0 < |alpha| < 1 is 0; the
    deficiency is therefore the alpha-free spread of each target, with no
    witness."""
    moduli = _modulus(targets)[:, 1:]
    return 1.0 - moduli.min(axis=1) / moduli.max(axis=1), {}


def _sweep(deficiency):
    """The recorder deciding the 24 hyperbolic targets as one stack by
    `deficiency(targets) -> (values, witnesses)`, arrays over the targets:
    zero iff the family has a symmetric normal realization, so a value at
    or below cfg.pass_tol is a discrepancy and one below cfg.fail_tol
    inconclusive (the two cfg fields read).  Each record keeps its witness
    parameters; only an automorphism target's discrepancy is noted."""

    def record(cfg: SuiteConfig, d) -> List[SampleRecord]:
        rs, ts, targets = _targets(d.i)
        values, witnesses = deficiency(targets)
        records = _records(cfg, {"r": rs, "t": ts, **witnesses}, claim=False, oracle={"deficiency": values})
        for rec, aut in zip(records, is_automorphism(targets).tolist()):
            if rec.verdict == "discrepancy" and aut:
                rec.note = (
                    "hyperbolic automorphism target admits a symmetric normal "
                    "realization; documented deviation from the claimed nonexistence"
                )
        return records

    return record


def suite_hyperbolic_nonaut(cfg: SuiteConfig, d) -> List[SampleRecord]:
    """Examples 4.3 and 5.3: on non-automorphism hyperbolic target i of
    12, W with the kernel weight at sigma(0) is not normal.  Reads cfg.dim
    and cfg.block (the truncation) and the pass_tol / fail_tol band."""
    rs, ts, phi = _targets(d.i, include_aut=False)
    normality = measure(cfg, Probe(cowen_weights(phi), phi))["normality"]
    return _records(cfg, {"r": rs, "t": ts}, claim=False, oracle={"normality": normality}, residuals={"deficiency": normality})


# ---------------------------------------------------------------------------
# registry and sampling loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Suite:
    """One registry entry: the sampler and the recorder, the default
    config, the smallest dim and block at which its checks hold, whether
    its samples are a fixed target set (defaults.samples of them), and
    whether max(1, samples // 5) perturbed controls follow its samples."""

    draw: Callable[[np.random.Generator, SuiteConfig, np.ndarray], tuple]
    record: Callable[[SuiteConfig, SimpleNamespace], List[SampleRecord]]
    defaults: SuiteConfig
    min_dim: int = 0
    min_block: int = 0
    fixed_samples: bool = False
    controls: bool = False


# smaller default sample counts for the heavier suites; the minima are
# the dim and block below which a suite's tolerances stop holding
SUITES: Dict[str, Suite] = {
    "prop21-normal": Suite(draw_prop21, suite_prop21_normal, SuiteConfig(samples=100, dim=96)),
    "prop22-commutation": Suite(draw_prop22, suite_prop22_commutation, SuiteConfig(samples=60, dim=96), min_dim=96),
    "conjugation-axioms": Suite(
        draw_conjugation, suite_conjugation_axioms, SuiteConfig(samples=101, dim=48, block=16),
        min_dim=48, min_block=16,
    ),
    "jsym-form": Suite(draw_jsym, suite_jsym_form, SuiteConfig(samples=100), controls=True),
    "c1sym-form": Suite(draw_c1sym, suite_c1sym_form, SuiteConfig(samples=100), controls=True),
    "c2sym-form": Suite(draw_c2sym, suite_c2sym_form, SuiteConfig(samples=100), controls=True),
    "lemma31-aut": Suite(draw_lemma31, suite_lemma31_aut, SuiteConfig(samples=120)),
    "lemma32-aut": Suite(draw_lemma32, suite_lemma32_aut, SuiteConfig(samples=120)),
    "lemma33-aut": Suite(draw_lemma33, suite_lemma33_aut, SuiteConfig(samples=120)),
    "prop41-iff": Suite(draw_prop41, suite_prop41_iff, SuiteConfig(samples=200)),
    "cor41-aut": Suite(draw_cor41, suite_cor41_aut, SuiteConfig(samples=60)),
    "ex41-equivalence": Suite(draw_ex41, suite_ex41_equivalence, SuiteConfig(samples=80)),
    "ex44-parabolic": Suite(draw_ex44, suite_ex44_parabolic, SuiteConfig(samples=40, dim=96), min_dim=96),
    "thm51-iff": Suite(draw_thm51, suite_thm51_iff, SuiteConfig(samples=200)),
    "ex51-interior": Suite(draw_ex51, suite_ex51_interior, SuiteConfig(samples=40, dim=96), min_dim=96),
    "ex51-aut-corollary": Suite(draw_ex51_aut, suite_ex51_aut_corollary, SuiteConfig(samples=60)),
    "ex54-parabolic": Suite(draw_ex54, suite_ex54_parabolic, SuiteConfig(samples=40, dim=96), min_dim=96),
    "thm61-consistency": Suite(draw_thm61, suite_thm61_consistency, SuiteConfig(samples=60, dim=96), min_dim=96),
    "cor62-no-aut": Suite(draw_cor62, suite_cor62_no_aut, SuiteConfig(samples=100)),
    "ex61-interior": Suite(draw_ex61, suite_ex61_interior, SuiteConfig(samples=30, dim=96), min_dim=96),
    "ex63-parabolic": Suite(draw_ex63, suite_ex63_parabolic, SuiteConfig(samples=30, dim=96), min_dim=96),
    "cowen-factorization": Suite(
        draw_cowen, suite_cowen_factorization, SuiteConfig(samples=50, dim=64, block=16), min_dim=64, min_block=16
    ),
    "ex42-sweep": Suite(draw_target, _sweep(_j_deficiency), SuiteConfig(samples=24), fixed_samples=True),
    "ex43-sweep": Suite(draw_target, suite_hyperbolic_nonaut, SuiteConfig(samples=12), fixed_samples=True),
    "ex52-sweep": Suite(draw_target, _sweep(_c1_deficiency), SuiteConfig(samples=24), fixed_samples=True),
    "ex53-sweep": Suite(draw_target, suite_hyperbolic_nonaut, SuiteConfig(samples=12), fixed_samples=True),
    "ex62-sweep": Suite(draw_target, _sweep(_c2_deficiency), SuiteConfig(samples=24), fixed_samples=True),
}

# every verified statement must own at least one registered suite
ANCHOR_SUITES: Dict[str, List[str]] = {
    "adjoint-factorization": ["cowen-factorization"],
    "interior-normal-family": ["prop21-normal"],
    "boundary-normal-commutation": ["prop22-commutation"],
    "rotation-conjugation": ["conjugation-axioms"],
    "kernel-conjugation": ["conjugation-axioms"],
    "j-symmetric-form": ["jsym-form"],
    "c1-symmetric-form": ["c1sym-form"],
    "c2-symmetric-form": ["c2sym-form"],
    "j-aut-normal-form": ["lemma31-aut"],
    "c1-aut-normal-form": ["lemma32-aut"],
    "c2-aut-normal-form": ["lemma33-aut"],
    "j-normal-iff": ["prop41-iff"],
    "j-normal-aut-corollary": ["cor41-aut"],
    "j-interior": ["ex41-equivalence"],
    "j-hyperbolic-aut-nonexistence": ["ex42-sweep"],
    "j-hyperbolic-nonaut-nonexistence": ["ex43-sweep"],
    "j-parabolic": ["ex44-parabolic"],
    "c1-normal-iff": ["thm51-iff"],
    "c1-interior": ["ex51-interior"],
    "c1-interior-aut-corollary": ["ex51-aut-corollary"],
    "c1-hyperbolic-aut-nonexistence": ["ex52-sweep"],
    "c1-hyperbolic-nonaut-nonexistence": ["ex53-sweep"],
    "c1-parabolic": ["ex54-parabolic"],
    "c2-normal-cases": ["thm61-consistency"],
    "c2-no-normal-aut": ["cor62-no-aut"],
    "c2-interior": ["ex61-interior"],
    "c2-hyperbolic-nonexistence": ["ex62-sweep", "ex43-sweep"],
    "c2-parabolic": ["ex63-parabolic"],
}


def check_registry() -> None:
    """Raise if any anchored statement lacks a registered suite."""
    missing = {
        anchor: ids
        for anchor, ids in ANCHOR_SUITES.items()
        if not ids or any(i not in SUITES for i in ids)
    }
    if missing:
        raise UnknownSuiteError(f"anchors without registered suites: {sorted(missing)}")


def _lookup(suite_id: str) -> Suite:
    if suite_id not in SUITES:
        raise UnknownSuiteError(f"unknown suite id {suite_id!r}")
    return SUITES[suite_id]


def default_config(suite_id: str) -> SuiteConfig:
    return _lookup(suite_id).defaults


def run_suite(suite_id: str, cfg: Optional[SuiteConfig] = None) -> VerificationReport:
    """Run one registered suite; deterministic given (suite, config, seed).

    The one sampling loop: the suite's sampler draws every open index at once
    until each holds an accepted draw, so the report holds exactly
    cfg.samples records (plus the controls of a suite that has them), in
    index order.  A config below the suite's minimum dim or block raises
    ValueError, and so does a samples count other than a fixed target
    set's size.  A sampler that keeps too few candidates raises
    SamplingBudgetError.
    """
    suite = _lookup(suite_id)
    if cfg is None:
        cfg = suite.defaults
    if cfg.dim < suite.min_dim or cfg.block < suite.min_block:
        raise ValueError(
            f"suite {suite_id} needs dim >= {suite.min_dim} and block >= {suite.min_block}, "
            f"got dim {cfg.dim} and block {cfg.block}"
        )
    if suite.fixed_samples and cfg.samples != suite.defaults.samples:
        raise ValueError(
            f"suite {suite_id} decides a fixed set of {suite.defaults.samples} targets, "
            f"got samples {cfg.samples}"
        )
    count = cfg.samples + (max(1, cfg.samples // 5) if suite.controls else 0)
    draws = _sample(suite_id, suite.draw, np.random.default_rng(cfg.seed), cfg, count)
    return VerificationReport(suite_id, cfg, suite.record(cfg, draws))


# the most candidates a round of _sample draws for one open index: a
# sampler that would need more keeps almost nothing, a fault of its suite
_MAX_COPIES = 2 ** 16


def _sample(suite_id: str, draw, rng: np.random.Generator, cfg: SuiteConfig, count: int) -> SimpleNamespace:
    """The columns of one accepted draw per index 0..count-1, in index
    order.  draw(rng, cfg, idx) gives a candidate for each entry of idx
    and the mask of those it keeps (None keeps all).  The first round
    draws one candidate per index; each later round draws, for every
    index still open, at least twice as many candidates as the round
    before and enough that about three would be kept at the acceptance
    rate seen so far, and raises SamplingBudgetError where that is more
    than _MAX_COPIES.  An index takes its first kept candidate."""
    keep, columns = draw(rng, cfg, np.arange(count))
    open_ = np.flatnonzero(~keep) if keep is not None else np.arange(0)
    copies, tried, kept = 1, count, count - len(open_)
    while len(open_):
        copies = max(2 * copies, -(-3 * tried // max(kept, 1)))
        if copies > _MAX_COPIES:
            raise SamplingBudgetError(f"suite {suite_id}: indices {open_.tolist()} still open with {kept} of {tried} "
                                      f"candidates kept; the next round needs {copies} per open index")
        keep, drawn = draw(rng, cfg, np.repeat(open_, copies))
        hits = keep.reshape(len(open_), copies)
        found = hits.any(axis=1)
        first = np.flatnonzero(found) * copies + hits[found].argmax(axis=1)
        for name, values in drawn.items():
            columns[name][open_[found]] = values[first]
        tried, kept, open_ = tried + hits.size, kept + int(hits.sum()), open_[~found]
    return SimpleNamespace(**columns)
