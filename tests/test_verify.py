import ast
import cmath
import collections
import dataclasses
import math
import pathlib
import sys

import numpy as np
import pytest

from wcosym import operators, verify
from wcosym.cli import main, report_to_json, validate_report_dict, report_to_dict
from wcosym.errors import SamplingBudgetError, UnknownSuiteError, WcoError
from wcosym.families import (
    C1Params,
    HyperbolicParams,
    JParams,
    c1_normal_expression,
    c1_quadruples,
    hyperbolic_aut_map,
    j_normal_expression,
    j_quadruples,
)
from wcosym import families as fam
from wcosym.mobius import (
    canonical_quadruple,
    is_automorphism,
    is_constant,
    is_self_map,
    proj_distance,
    quadruple_gap,
    sup_modulus,
)
from wcosym.operators import STACK_ROWS
from wcosym.series import poles
from wcosym.verify import (
    ANCHOR_SUITES,
    SUITES,
    Probe,
    SampleRecord,
    SuiteConfig,
    VerificationReport,
    _c1_deficiency,
    _c2_deficiency,
    _j_deficiency,
    _preimage,
    _sweep,
    _target_quadruples,
    check_registry,
    default_config,
    run_suite,
)


def clean(report):
    s = report.summary
    return s["fail"] == 0 and s["discrepancy"] == 0


class TestRegistry:
    def test_every_anchor_has_a_suite(self):
        check_registry()

    def test_anchor_ids_are_registered(self):
        for ids in ANCHOR_SUITES.values():
            for sid in ids:
                assert sid in SUITES
        for sid, suite in SUITES.items():  # every default meets its own minimum
            assert suite.defaults.dim >= suite.min_dim and suite.defaults.block >= suite.min_block, sid

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuiteError):
            run_suite("no-such-suite")
        with pytest.raises(UnknownSuiteError):
            default_config("no-such-suite")


class TestConfig:
    def test_padding_invariant(self):
        with pytest.raises(ValueError):
            SuiteConfig(dim=40, block=12)
        for samples in (0, -3):
            with pytest.raises(ValueError):
                SuiteConfig(samples=samples)
        # an empty block, or a dim past the cap, even where no matrix is built
        for block, dim in ((0, 64), (12, 5000)):
            with pytest.raises(ValueError):
                SuiteConfig(dim=dim, block=block)
        # a config below a suite's declared minimum is refused, not raised
        with pytest.raises(ValueError):
            run_suite("ex44-parabolic", dataclasses.replace(default_config("ex44-parabolic"), dim=64))

    def test_tolerance_order(self):
        with pytest.raises(ValueError):
            SuiteConfig(pass_tol=1e-2, fail_tol=1e-3)


FAST_CLEAN_SUITES = [
    "prop21-normal",
    "prop22-commutation",
    "conjugation-axioms",
    "jsym-form",
    "c1sym-form",
    "c2sym-form",
    "lemma31-aut",
    "lemma32-aut",
    "lemma33-aut",
    "prop41-iff",
    "cor41-aut",
    "ex41-equivalence",
    "ex44-parabolic",
    "thm51-iff",
    "ex51-interior",
    "ex51-aut-corollary",
    "ex54-parabolic",
    "cor62-no-aut",
    "ex61-interior",
    "ex63-parabolic",
    "cowen-factorization",
    "ex42-sweep",
    "ex43-sweep",
    "ex62-sweep",
]


@pytest.mark.parametrize("suite_id", FAST_CLEAN_SUITES)
def test_suite_clean(suite_id):
    cfg = default_config(suite_id)
    if not SUITES[suite_id].fixed_samples:  # a fixed target set refuses any other count
        cfg = dataclasses.replace(cfg, samples=max(8, cfg.samples // 4))
    report = run_suite(suite_id, cfg)
    assert clean(report), report.summary
    assert report.exit_status == 0


@pytest.mark.parametrize("samples", [1, 2, 3, 4, 5, 100])
def test_conjugation_axioms_makes_samples_records(samples):
    cfg = dataclasses.replace(default_config("conjugation-axioms"), samples=samples)
    kinds = [r.params["kind"] for r in run_suite("conjugation-axioms", cfg).records]
    assert kinds == ["J"] + ["C1"] * (samples // 2) + ["C2"] * ((samples - 1) // 2)


def test_matrix_residuals_only_through_measure(monkeypatch, capsys):
    # every suite and every `check` family takes its matrix residuals through
    # verify.measure: the two stacked seams fail unless measure calls them,
    # and the defect kernels behind them unless measure is on the stack
    calls = []

    def guard(real, depth=None):
        def seam(*args, **kwargs):
            callers, frame = [], sys._getframe(1)
            while frame is not None and len(callers) != depth:
                callers.append(frame.f_code)
                frame = frame.f_back
            assert verify.measure.__code__ in callers, real.__name__
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return seam

    for name in ("wco_residual_stack", "conjugation_residual_stack", "adjoint_factorization_stack"):
        monkeypatch.setattr(verify, name, guard(getattr(verify, name), depth=1))
    for name in ("_normality_defect", "_symmetry_defect", "_involution_defect"):
        monkeypatch.setattr(operators, name, guard(getattr(operators, name)))
    for suite_id, suite in sorted(SUITES.items()):
        cfg = suite.defaults if suite.fixed_samples else dataclasses.replace(suite.defaults, samples=5)
        run_suite(suite_id, cfg)
    for args in (
        ["--family", "j", "--a0", "0.3", "--a1", "0.2", "--conjugation", "c2", "--alpha", "0.4"],
        ["--family", "c1", "--alpha", "0.6+0.8i", "--c0", "0.3", "--c1", "0.2"],
        ["--family", "c2", "--alpha=-0.36+0.28i", "--c0", "1.1+0.03i", "--c1=-0.25-0.4i", "--c2=-0.13-0.32i"],
    ):
        assert main(["check"] + args) == 0
    seams = {"wco_residual_stack", "conjugation_residual_stack", "adjoint_factorization_stack"}
    assert set(calls) == seams | {"_normality_defect", "_symmetry_defect", "_involution_defect"}


# the suites whose records carry a normality or symmetry residual from measure
BAND_SUITES = {
    "c1sym-form", "c2sym-form", "cor41-aut", "ex41-equivalence", "ex43-sweep", "ex44-parabolic",
    "ex51-interior", "ex53-sweep", "ex54-parabolic", "ex61-interior", "ex63-parabolic", "jsym-form",
    "prop21-normal", "prop22-commutation", "prop41-iff", "thm51-iff", "thm61-consistency",
}


@pytest.mark.parametrize("value", [1e-5, 1.0])
def test_every_matrix_residual_goes_through_the_band(value, monkeypatch):
    # measure returns one injected normality and symmetry value for every
    # row (involution and isometry are conjugation-axioms' exact checks at
    # 1e-14 and 1e-8, and the factorization cowen-factorization's gap, left
    # alone): inside the band every record carrying it is inconclusive, far
    # above it none reads as a failed exact check
    real = verify.measure

    def measure(*args, **kwargs):
        keep = ("involution", "isometry", "factorization", "flipped_sign")
        return {key: r if key in keep else np.full_like(r, value) for key, r in real(*args, **kwargs).items()}

    monkeypatch.setattr(verify, "measure", measure)
    seen = {}
    for suite_id, suite in sorted(SUITES.items()):
        cfg = dataclasses.replace(suite.defaults, seed=3)
        if not suite.fixed_samples:
            cfg = dataclasses.replace(cfg, samples=5)
        for rec in run_suite(suite_id, cfg).records:
            if value in rec.residuals.values():
                seen.setdefault(suite_id, set()).add(rec.verdict)
    assert set(seen) == BAND_SUITES
    if value < SuiteConfig().fail_tol:
        assert all(verdicts == {"inconclusive"} for verdicts in seen.values()), seen
    else:
        assert all("fail" not in verdicts for verdicts in seen.values()), seen


# the closed-form gaps each suite records: quantities its formulas make zero
GAP_SUITES = {
    "lemma31-aut": {"gamma_gap", "map_gap"},
    "lemma32-aut": {"gamma_gap", "beta_gap"},
    "lemma33-aut": {"gamma_gap", "beta_gap", "map_gap"},
    "ex41-equivalence": {"phi_gap", "psi_gap"},
    "cor41-aut": {"expression_gap"},
    "ex44-parabolic": {"dw_gap", "derivative_gap"},
    "ex51-interior": {"phi_gap", "expression_gap"},
    "ex51-aut-corollary": {"phi_gap"},
    "ex54-parabolic": {"dw_gap", "derivative_gap", "expression_gap"},
    "ex61-interior": {"phi_gap", "consistency"},
    "ex63-parabolic": {"zeta_modulus_gap", "dw_gap", "derivative_gap"},
    "cowen-factorization": {"factorization"},
}


@pytest.mark.parametrize("suite_id", sorted(GAP_SUITES))
def test_closed_form_gaps_are_recorded_and_read_pred_tol(suite_id):
    # every named gap is recorded, and cfg.pred_tol alone decides it: with
    # pred_tol at the largest gap every verdict stands, and just below it
    # exactly the records carrying that gap fail
    names = GAP_SUITES[suite_id]
    cfg = default_config(suite_id)
    records = run_suite(suite_id, cfg).records
    assert set().union(*(set(rec.residuals) & names for rec in records)) == names
    gaps = [max([rec.residuals[key] for key in names if key in rec.residuals], default=0.0) for rec in records]
    top = max(gaps)
    assert 0.0 < top <= cfg.pred_tol
    at_top = run_suite(suite_id, dataclasses.replace(cfg, pred_tol=top)).records
    assert [rec.verdict for rec in at_top] == [rec.verdict for rec in records]
    below = run_suite(suite_id, dataclasses.replace(cfg, pred_tol=top * (1.0 - 1e-6))).records
    assert [i for i, rec in enumerate(below) if rec.verdict == "fail"] == [i for i, g in enumerate(gaps) if g == top]


def _callers(names):
    """(module, enclosing function) of every call to one of names in the package source."""
    found = set()
    for path in sorted(pathlib.Path(verify.__file__).parent.glob("*.py")):

        def walk(node, scope):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in names:
                    found.add((path.stem, scope))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            for child in ast.iter_child_nodes(node):
                walk(child, scope)

        walk(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_band_rule_has_one_caller():
    # the band and agreement rule, and the building of a record, live in
    # _record alone: no suite and no `check` path decides a verdict itself
    assert _callers({"band_verdict", "agreement"}) == {("verify", "_record")}
    assert _callers({"SampleRecord"}) == {("verify", "_record")}


# the whole-matrix reference API and the report validator: the tests compare
# against them, so they stay although nothing in the package calls them
REFERENCE_API = {
    ("operators", "build_wco"),
    ("operators", "normality_residual"),
    ("operators", "symmetry_residual"),
    ("cli", "validate_report_dict"),
}


def _identifiers(node):
    """Every name and attribute name read under node."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_definition_has_a_user():
    # the design rule: a public top-level def or class of a package module is
    # referenced by another top-level statement of the package, by scripts/ or
    # by bench/, or it is deleted; an import is not a use
    package = pathlib.Path(verify.__file__).parent
    outside = set().union(*(
        _identifiers(ast.parse(path.read_text(encoding="utf-8")))
        for folder in ("scripts", "bench") for path in sorted((package.parents[1] / folder).rglob("*.py"))
    ))
    public, users = [], collections.defaultdict(set)
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_"):
                public.append((path.stem, name))
            if not isinstance(top, (ast.Import, ast.ImportFrom)):
                for identifier in _identifiers(top):
                    users[identifier].add((path.stem, name))
    assert REFERENCE_API <= set(public)
    unused = {(module, name) for module, name in public if not users[name] - {(module, name)} and name not in outside}
    assert sorted(unused - REFERENCE_API) == []


@pytest.mark.parametrize("normal, band", [(True, "pass"), (False, "fail"), (None, "band")])
@pytest.mark.parametrize("claim", [True, False])
def test_exact_decision_meets_the_claim(normal, band, claim):
    # an exact decision is normal, not normal or undecided; it meets the
    # claim like a banded value, and no pass_tol / fail_tol ever places it
    expected = "inconclusive" if normal is None else ("pass" if normal == claim else "discrepancy")
    for cfg in (SuiteConfig(), SuiteConfig(pass_tol=0.5, fail_tol=1.0), SuiteConfig(pass_tol=1e-300, fail_tol=1e-299)):
        rec = verify._record(cfg, {}, claim=claim, decided={"lft": normal})
        assert (rec.verdict, rec.oracles, rec.residuals) == (expected, {"lft_band": band}, {})


def test_thm61_records_are_decided_once():
    # a usable truncation decides a draw by its matrix normality, else the
    # coefficient-level decision does; the LFT values are kept either way
    report = run_suite("thm61-consistency", dataclasses.replace(default_config("thm61-consistency"), samples=20))
    for rec in report.records:
        bands = {key for key in rec.oracles if key.endswith("_band")}
        assert {"modulus_gap", "commute_defect", "normal"} <= set(rec.oracles)
        if "normality" in rec.residuals:
            assert bands == {"normality_band"}
        else:
            assert bands == {"lft_band"} and rec.oracles["lft_band"] == ("pass" if rec.oracles["normal"] else "fail")


def test_thm61_consistency_reports_documented_discrepancies():
    report = run_suite("thm61-consistency", dataclasses.replace(default_config("thm61-consistency"), samples=20))
    s = report.summary
    assert s["fail"] == 0
    assert s["discrepancy"] >= 1
    assert report.known_discrepancy
    assert report.exit_status == 3
    for rec in report.records:
        if rec.verdict == "discrepancy":
            assert rec.note  # every discrepancy is documented
            assert rec.predicates["case"] == "NotNormal"


def test_c1_hyperbolic_sweep_finds_realizations():
    # the sweep surfaces the realizable hyperbolic automorphism targets
    # as documented discrepancy records with explicit witnesses
    report = run_suite("ex52-sweep")
    aut_records = [r for r in report.records if complex(r.params["t"]).real == 0.0]
    nonaut_records = [r for r in report.records if complex(r.params["t"]).real > 0.0]
    assert all(r.verdict == "discrepancy" for r in aut_records)
    assert all(r.residuals["deficiency"] <= 1e-12 for r in aut_records)
    # every witness, realizable or not, keeps the family's unimodular alpha
    assert all(abs(abs(r.params["alpha"]) - 1.0) <= 1e-15 for r in report.records)
    assert all(r.verdict == "pass" for r in nonaut_records)
    assert report.known_discrepancy and report.exit_status == 3


@pytest.mark.parametrize("suite_id", ["ex42-sweep", "ex52-sweep"])
def test_sweep_deficiency_matches_its_definition(suite_id):
    # max(projective gap to the target, |normality expression|) at the
    # reported witness, by scalar code the vectorized search does not share
    for rec in run_suite(suite_id).records:
        p = rec.params
        if "a0" in p:
            alpha, c0, c1 = 1.0, p["a0"], p["a1"]
            defect = abs(j_normal_expression(c0, c1))
        else:
            alpha, c0, c1 = p["alpha"], p["c0"], p["c1"]
            defect = abs(c1_normal_expression(alpha, c0, c1))
        witness = np.array([c1 - alpha * c0 * c0, c0, -alpha * c0, 1.0])
        target = hyperbolic_aut_map(HyperbolicParams(p["r"], p["t"]))
        expected = max(quadruple_gap(witness, target), defect)
        assert abs(rec.residuals["deficiency"] - expected) <= 1e-14, (p, rec.residuals, expected)


@pytest.mark.parametrize(
    "records, known, status",
    [
        ((("discrepancy", "documented"), ("fail", "")), True, 1),
        ((("discrepancy", "documented"), ("discrepancy", "")), False, 1),
        ((("discrepancy", "documented"), ("discrepancy", "documented"), ("pass", "")), True, 3),
    ],
)
def test_exit_3_only_when_every_disagreement_is_documented(records, known, status):
    report = VerificationReport("hand-built", SuiteConfig(), [SampleRecord({}, verdict=v, note=n) for v, n in records])
    assert (report.known_discrepancy, report.exit_status) == (known, status)


def test_sweep_notes_only_automorphism_discrepancies(monkeypatch):
    # a c1 sweep that realized every target: the non-automorphism ones are
    # not the documented Finding, so they carry no note and the run exits 1
    def realize_all(target):
        return 0.0, {"alpha": 1.0, "c0": 0.0, "c1": 0.0}

    monkeypatch.setitem(
        verify.SUITES, "ex52-sweep", verify.Suite(verify.draw_target, _sweep(realize_all), default_config("ex52-sweep"))
    )
    report = run_suite("ex52-sweep")
    assert report.summary["discrepancy"] == 24
    for rec in report.records:
        is_aut = complex(rec.params["t"]).real == 0.0
        assert bool(rec.note) == is_aut, rec.params
    assert not report.known_discrepancy and report.exit_status == 1


def test_sweep_deficiency_in_the_band_is_inconclusive(monkeypatch):
    # a deficiency between pass_tol and fail_tol is no evidence either way
    def in_band(target):
        return 1e-5, {}

    monkeypatch.setitem(
        verify.SUITES, "ex62-sweep", verify.Suite(verify.draw_target, _sweep(in_band), default_config("ex62-sweep"))
    )
    report = run_suite("ex62-sweep")
    assert report.summary["inconclusive"] == 24 and report.exit_status == 0
    assert all(rec.oracles == {"deficiency_band": "band"} and not rec.note for rec in report.records)


def _random_disk_point(rng, lo=0.05, hi=0.99):
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


@pytest.mark.parametrize("family", ["j", "c1"])
def test_preimage_round_trip(family):
    # the quadruple of any in-domain member maps back to its parameters
    rng = np.random.default_rng(1101)
    worst = 0.0
    for _ in range(1000):
        c0, c1 = _random_disk_point(rng), _random_disk_point(rng)
        if family == "j":
            alpha = 1.0
            phi = j_quadruples(*dataclasses.astuple(JParams(c0, c1)))[1]
            gap, got_alpha, got_c0, got_c1 = _preimage(canonical_quadruple(phi[0]), alpha=1.0)
        else:
            alpha = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            phi = c1_quadruples(*dataclasses.astuple(C1Params(alpha, c0, c1)))[1]
            gap, got_alpha, got_c0, got_c1 = _preimage(canonical_quadruple(phi[0]))
        worst = max(worst, gap, abs(got_alpha - alpha), abs(got_c0 - c0), abs(got_c1 - c1))
    assert worst <= 1e-12, worst


def _polar_grid(radii, angles, r_lo, r_hi):
    rr = np.linspace(r_lo, r_hi, radii)
    aa = np.linspace(0.0, 2.0 * math.pi, angles, endpoint=False)
    return (rr[:, None] * np.exp(1j * aa)[None, :]).ravel()


def _local_grid(center, spread, pts=7, clip=0.97):
    re = np.linspace(center.real - spread, center.real + spread, pts)
    im = np.linspace(center.imag - spread, center.imag + spread, pts)
    g = (re[:, None] + 1j * im[None, :]).ravel()
    mags = np.abs(g)
    return np.where(mags > clip, g / mags * clip, g)


def _reference_quad_distance(va, vb, vc, vd, w):
    comps = [va, vb, vc, vd]
    norm_v = np.sqrt(sum(np.abs(x) ** 2 for x in comps))
    norm_w = np.linalg.norm(w)
    total = np.zeros_like(norm_v)
    for i in range(4):
        for jdx in range(i + 1, 4):
            total += np.abs(comps[i] * w[jdx] - comps[jdx] * w[i]) ** 2
    return np.sqrt(2.0 * total) / (norm_v * norm_w)


def _reference_j_search(target):
    def deficiency(a0, a1):
        va = a1 - a0 ** 2
        dist = _reference_quad_distance(va, a0, -a0, np.ones_like(a0), target)
        expr = np.abs(a0.imag * (1.0 - np.abs(a0) ** 2) + (np.conj(a0) * a1).imag)
        return np.maximum(dist, expr)

    grid = _polar_grid(10, 16, 0.03, 0.92)
    a0g, a1g = np.meshgrid(grid, grid, indexing="ij")
    a0g, a1g = a0g.ravel(), a1g.ravel()
    best = None
    for _ in range(4):
        d = deficiency(a0g, a1g)
        i = int(np.argmin(d))
        best = (float(d[i]), complex(a0g[i]), complex(a1g[i]))
        spread = max(1e-4, 0.25 * best[0] + 0.02)
        a0g, a1g = np.meshgrid(_local_grid(best[1], spread), _local_grid(best[2], spread), indexing="ij")
        a0g, a1g = a0g.ravel(), a1g.ravel()
    return best[0], {"a0": best[1], "a1": best[2]}


def _reference_c1_search(target):
    def deficiency(alpha, c0, c1):
        va = c1 - alpha * c0 ** 2
        dist = _reference_quad_distance(va, c0, -alpha * c0, np.ones_like(c0), target)
        expr = np.abs(
            (np.conj(c0) - alpha * c0) * (1.0 - np.abs(c0) ** 2)
            + alpha * c0 * np.conj(c1)
            - np.conj(c0) * c1
        )
        return np.maximum(dist, expr)

    cands = []
    a, _, c, d = target
    if is_automorphism(target) and abs(c) > 1e-9 * abs(d):
        # target = beta (g - z)/(1 - conj(g) z) with g != 0
        g = (-c / d).conjugate()
        beta = -a / d
        beta /= abs(beta)
        alpha = np.conj(g) / (g * beta)
        cands.append((alpha / abs(alpha), np.conj(g) / alpha, (abs(g) ** 2 - 1) * np.conj(g) / (g * alpha)))
    cgrid = _polar_grid(7, 10, 0.03, 0.92)
    best = None
    for al in np.exp(1j * np.linspace(0.0, 2 * math.pi, 12, endpoint=False)):
        c0g, c1g = np.meshgrid(cgrid, cgrid, indexing="ij")
        d = deficiency(al, c0g.ravel(), c1g.ravel())
        i = int(np.argmin(d))
        cand = (float(d[i]), complex(al), complex(c0g.ravel()[i]), complex(c1g.ravel()[i]))
        if best is None or cand[0] < best[0]:
            best = cand
    for alpha, c0, c1 in cands:
        d = float(deficiency(np.array([alpha]), np.array([c0]), np.array([c1]))[0])
        if d < best[0]:
            best = (d, alpha, c0, c1)
    for _ in range(4):
        _, alpha, c0, c1 = best
        spread = max(1e-5, 0.2 * best[0] + 0.005)
        for ang in np.angle(alpha) + np.linspace(-spread, spread, 5):
            al = cmath.exp(1j * float(ang))
            c0g, c1g = np.meshgrid(_local_grid(c0, spread), _local_grid(c1, spread), indexing="ij")
            d = deficiency(al, c0g.ravel(), c1g.ravel())
            i = int(np.argmin(d))
            cand = (float(d[i]), al, complex(c0g.ravel()[i]), complex(c1g.ravel()[i]))
            if cand[0] < best[0]:
                best = cand
    return best[0], {"alpha": best[1], "c0": best[2], "c1": best[3]}


@pytest.mark.parametrize(
    "search, reference", [(_j_deficiency, _reference_j_search), (_c1_deficiency, _reference_c1_search)]
)
def test_sweep_matches_per_target_reference(search, reference):
    # the grid-plus-refinement search the closed form replaced: the same
    # verdict on every target, and each realizable target's witness
    # realizes it; an unrealizable target's deficiency is the value at its
    # preimage, which lies above the grid's minimum
    fail_tol = SuiteConfig().fail_tol
    targets = [hyperbolic_aut_map(HyperbolicParams(r, t)) for r, t in _target_quadruples()]
    results = [search(target) for target in targets]
    assert len(results) == 24
    for target, (deficiency, witness) in zip(targets, results):
        ref_deficiency, ref_witness = reference(target)
        assert (deficiency >= fail_tol) == (ref_deficiency >= fail_tol), (target, deficiency, ref_deficiency)
        assert witness.keys() == ref_witness.keys()
        if deficiency < fail_tol:
            if "a0" in witness:
                phi = j_quadruples(*dataclasses.astuple(JParams(witness["a0"], witness["a1"])))[1]
            else:
                params = C1Params(witness["alpha"], witness["c0"], witness["c1"])
                phi = c1_quadruples(*dataclasses.astuple(params))[1]
            assert proj_distance(phi, np.array([target]))[0] <= 1e-12, (target, witness)


# the alpha-grid minimum ex62 took before its closed form (16 radii in
# [0.05, 0.95] x 24 angles), per target in _target_quadruples() order
EX62_GRID_DEFICIENCIES = (
    0.9090909090909092, 0.7226499018873855, 0.5145427003237905,
    0.96, 0.7999999999999999, 0.7966051323592547,
    0.8, 0.6962164955940366, 0.5312080101164978,
    0.9285714285714286, 0.9090909090909091, 0.8267282634466264,
    0.6666666666666667, 0.6188187500687563, 0.5165576817284347,
    0.7878787878787878, 0.9473684210526316, 0.7727311215782755,
    0.5, 0.48376006791254267, 0.4414961007257092,
    0.6046511627906976, 0.75, 0.621457746567361,
)


def test_c2_deficiency_is_the_alpha_free_spread():
    # 1 - min/max of |b|, |c|, |d| by scalar code, equal bit for bit to the
    # grid minimum it replaced: alpha's match defect vanishes as alpha -> 0
    for (r, t), pinned in zip(_target_quadruples(), EX62_GRID_DEFICIENCIES, strict=True):
        target = hyperbolic_aut_map(HyperbolicParams(r, t))
        moduli = sorted(abs(complex(x)) for x in target[1:])
        deficiency, witness = _c2_deficiency(target)
        assert witness == {}
        assert deficiency == 1.0 - moduli[0] / moduli[-1] == pinned, (r, t)


def test_ex62_records_carry_only_the_target():
    # the deficiency is alpha-free, so no alpha is reported as a witness
    records = run_suite("ex62-sweep").records
    assert len(records) == 24
    assert all(list(rec.params) == ["r", "t"] for rec in records)


@pytest.mark.parametrize("suite_id", sorted(SUITES))
def test_report_carries_its_registry_id(suite_id):
    assert run_suite(suite_id).suite_id == suite_id


@pytest.mark.parametrize("suite_id", ["ex42-sweep", "ex43-sweep", "ex52-sweep", "ex53-sweep", "ex62-sweep"])
def test_sweep_config_counts_its_records(suite_id):
    # the fixed target grid is the whole sample: the default config says so
    report = run_suite(suite_id)
    assert report.config.samples == report.summary["total"]


@pytest.mark.parametrize("samples", [None, 7])
@pytest.mark.parametrize("suite_id", sorted(SUITES))
def test_every_suite_makes_its_declared_record_count(suite_id, samples):
    # a rejected draw is redrawn, never dropped: samples records, plus the
    # max(1, samples // 5) perturbed controls of the symmetric forms
    suite = SUITES[suite_id]
    for seed in range(12):
        cfg = dataclasses.replace(suite.defaults, seed=seed)
        if samples is not None and not suite.fixed_samples:
            cfg = dataclasses.replace(cfg, samples=samples)
        controls = max(1, cfg.samples // 5) if suite_id in ("jsym-form", "c1sym-form", "c2sym-form") else 0
        assert len(run_suite(suite_id, cfg).records) == cfg.samples + controls, (suite_id, seed)


# exit status and summary (pass, fail, inconclusive, discrepancy) of every
# suite at its defaults for seeds 0-11 and 2024: the first cell of a row
# holds at every seed the second does not list.  A change that means to
# move a verdict, or that draws other points in the same domains, updates
# this table.
VERDICT_SEEDS = (*range(12), 2024)
VERDICT_TABLE = {
    "c1sym-form": ((0, 120, 0, 0, 0), {}),
    "c2sym-form": ((0, 120, 0, 0, 0), {}),
    "conjugation-axioms": ((0, 101, 0, 0, 0), {}),
    "cor41-aut": ((0, 60, 0, 0, 0), {}),
    "cor62-no-aut": ((0, 100, 0, 0, 0), {}),
    "cowen-factorization": ((0, 50, 0, 0, 0), {}),
    "ex41-equivalence": ((0, 80, 0, 0, 0), {}),
    "ex42-sweep": ((0, 24, 0, 0, 0), {}),
    "ex43-sweep": ((0, 12, 0, 0, 0), {}),
    "ex44-parabolic": ((0, 40, 0, 0, 0), {}),
    "ex51-aut-corollary": ((0, 60, 0, 0, 0), {}),
    "ex51-interior": ((0, 40, 0, 0, 0), {}),
    "ex52-sweep": ((3, 12, 0, 0, 12), {}),
    "ex53-sweep": ((0, 12, 0, 0, 0), {}),
    "ex54-parabolic": ((0, 40, 0, 0, 0), {}),
    "ex61-interior": ((0, 30, 0, 0, 0), {}),
    "ex62-sweep": ((0, 24, 0, 0, 0), {}),
    "ex63-parabolic": ((0, 30, 0, 0, 0), {}),
    "jsym-form": ((0, 120, 0, 0, 0), {}),
    "lemma31-aut": ((0, 120, 0, 0, 0), {}),
    "lemma32-aut": ((0, 120, 0, 0, 0), {}),
    "lemma33-aut": ((0, 120, 0, 0, 0), {}),
    "prop21-normal": ((0, 100, 0, 0, 0), {}),
    "prop22-commutation": ((0, 60, 0, 0, 0), {}),
    "prop41-iff": ((0, 200, 0, 0, 0), {}),
    "thm51-iff": ((0, 200, 0, 0, 0), {}),
    "thm61-consistency": ((3, 36, 0, 0, 24), {}),
}


def test_verdict_table_names_every_suite():
    assert sorted(VERDICT_TABLE) == sorted(SUITES)


@pytest.mark.parametrize("suite_id", sorted(VERDICT_TABLE))
def test_default_verdicts_match_the_table(suite_id):
    usual, listed = VERDICT_TABLE[suite_id]
    for seed in VERDICT_SEEDS:
        want = listed.get(seed, usual)
        report = run_suite(suite_id, dataclasses.replace(default_config(suite_id), seed=seed))
        s = report.summary
        got = (report.exit_status, s["pass"], s["fail"], s["inconclusive"], s["discrepancy"])
        assert got == want, (suite_id, seed)


def _constant_call_args(name: str, skip: int = 0):
    """The distinct arguments (past the first skip) of every call to name in
    verify.py whose arguments are all constant expressions."""
    found = set()
    for node in ast.walk(ast.parse(pathlib.Path(verify.__file__).read_text(encoding="utf-8"))):
        func = getattr(node, "func", None)
        if isinstance(node, ast.Call) and (getattr(func, "id", None) or getattr(func, "attr", None)) == name:
            try:
                found.add(tuple(eval(ast.unparse(arg), {"math": math}) for arg in node.args[skip:]))
            except NameError:  # an argument names a variable
                pass
    return sorted(found)


@pytest.mark.parametrize("args", _constant_call_args("_annulus", skip=2))
def test_annulus_and_circle_draw_uniformly(args):
    # every annulus a sampler draws from: each point lies in it, |z|^2 is
    # uniform between its squared radii (uniform by area), and the angles
    # of _circle are uniform, by Kolmogorov-Smirnov distance on 4,000 draws
    assert len(args) <= 2
    radius, min_radius = {0: (1.0, 0.0), 1: (*args, 0.0), 2: args}[len(args)]
    rng, grid = np.random.default_rng(11), np.arange(1, 4001) / 4000
    z = verify._annulus(rng, 4000, *args)
    assert np.all((abs(z) >= min_radius) & (abs(z) <= radius))
    radial = np.sort((abs(z) ** 2 - min_radius ** 2) / (radius ** 2 - min_radius ** 2))
    assert np.max(abs(radial - grid)) < 0.035
    unit = verify._circle(rng, 4000)
    assert np.max(abs(abs(unit) - 1.0)) <= 1e-15
    assert np.max(abs(np.sort(np.angle(unit) % (2 * math.pi)) / (2 * math.pi) - grid)) < 0.035


@pytest.mark.parametrize("args", _constant_call_args("_annulus", skip=2))
def test_disk_and_angle_keep_the_vector_draw_stream(args):
    # each annulus a sampler draws from, and _circle, take one vector draw
    # of count moduli and then one of count angles from the generator, bit
    # for bit, and nothing more: the stream goes on where the twin's does
    assert len(args) <= 2
    radius, min_radius = {0: (1.0, 0.0), 1: (*args, 0.0), 2: args}[len(args)]
    ours, twin = np.random.default_rng(11), np.random.default_rng(11)
    for count in (1, 7, 200):
        modulus = radius * np.sqrt(twin.uniform((min_radius / radius) ** 2, 1.0, count))
        want = modulus * np.exp(1j * twin.uniform(0.0, 2.0 * math.pi, count))
        assert verify._annulus(ours, count, *args).tobytes() == want.tobytes()
        want = np.exp(1j * twin.uniform(0.0, 2.0 * math.pi, count))
        assert verify._circle(ours, count).tobytes() == want.tobytes()
    assert ours.random() == twin.random()


def test_run_suite_redraws_a_rejected_index(monkeypatch):
    # the stub sampler rejects the first two candidates it sees of each odd
    # index: run_suite keeps the accepted rows in place and draws the open
    # indices again, here six candidates each (at least twice the first
    # round's one, and three over the acceptance rate 3 / 6 seen so far);
    # an index takes its first kept candidate, so every index keeps one
    # record in index order and none is skipped
    calls, visits = [], collections.Counter()

    def visit(i):
        visits[i] += 1
        return i % 2 == 0 or visits[i] > 2

    def draw(rng, cfg, idx):
        calls.append(idx.tolist())
        return np.array([visit(i) for i in idx.tolist()]), {"i": idx, "x": rng.uniform(size=len(idx))}

    def record(cfg, d):
        return [SampleRecord({"i": i, "x": x}) for i, x in zip(d.i.tolist(), d.x.tolist())]

    monkeypatch.setitem(verify.SUITES, "stub", verify.Suite(draw, record, SuiteConfig(samples=6, seed=5)))
    records = run_suite("stub").records
    assert calls == [[0, 1, 2, 3, 4, 5], [1] * 6 + [3] * 6 + [5] * 6]
    twin = np.random.default_rng(5)
    first, second = twin.uniform(size=6), twin.uniform(size=18)
    want = [first[0], second[1], first[2], second[7], first[4], second[13]]
    assert [rec.params for rec in records] == [{"i": i, "x": x} for i, x in enumerate(want)]
    visits.clear()
    assert run_suite("stub").records == records


def test_prop22_completes_at_every_seed():
    # a kind-2 draw rejects a constant or non-self-map phi like every other
    # rejection, so prop22 completes at seeds 0-11 (it raised
    # NotSelfMapError at all of them but seed 3)
    cfg = default_config("prop22-commutation")
    for seed in range(12):
        report = run_suite("prop22-commutation", dataclasses.replace(cfg, seed=seed))
        assert (report.summary["total"], report.exit_status) == (60, 0), seed


def test_c2_sampler_rejects_by_each_rule():
    # hand-built (psi, phi) candidates, one for each rule of the C2 sampler
    # and two it keeps; the rules are also those of every kept draw
    weight = np.array([[1.0, 0.0, 1.0, -0.2]], dtype=complex)  # pole 5
    strict = np.array([[0.5, 0.1, 0.1, 1.0]], dtype=complex)  # sup |phi| 0.545
    cases = {
        "kept": (weight, strict, True),
        "kept, polynomial weight": (np.array([[1.0, 0.5, 1.0, 0.0]]), strict, True),
        "constant": (weight, np.array([[0.0, 0.3, 0.0, 1.0]], dtype=complex), False),
        "sup |phi| above 0.9": (weight, np.array([[0.95, 0.0, 0.0, 1.0]], dtype=complex), False),
        "not a self-map": (weight, np.array([[2.0, 0.0, 0.0, 1.0]], dtype=complex), False),
        "pole within 1.8": (np.array([[1.0, 0.0, 1.0, -0.6]]), strict, False),
    }
    for name, (psi, phi, kept) in cases.items():
        assert verify._c2_usable(psi, phi).tolist() == [kept], name
    psi, phi = (np.concatenate(column) for column in zip(*((psi, phi) for psi, phi, _ in cases.values())))
    assert verify._c2_usable(psi, phi).tolist() == [kept for _, _, kept in cases.values()]
    keep, _, psi, phi = verify._draw_c2_selfmap(np.random.default_rng(3), 2000)
    assert 0 < keep.sum() < 2000
    assert np.all(keep == (~is_constant(phi) & (sup_modulus(phi) <= 0.9) & (abs(poles(psi)) >= 1.8)))
    assert np.all(is_self_map(phi[keep]))


@pytest.mark.parametrize("family", ["j", "c1"])
def test_symmetric_form_samplers_keep_constants_and_self_maps(family):
    # hand-built candidates: a constant map (determinant 0) and a self-map
    # are kept, a non-self-map is rejected
    c0, c1 = np.array([0.3, 0.3, 0.6]), np.array([0.0, 0.2, 0.9])  # phi(1) = 2.85 in the last
    quads = fam.j_quadruples(c0, c1) if family == "j" else fam.c1_quadruples(1.0, c0, c1)
    assert is_constant(quads[1]).tolist() == [True, False, False]
    assert verify._usable(quads[1]).tolist() == [True, True, False]
    draw = verify.draw_jsym if family == "j" else verify.draw_c1sym
    keep, drawn = draw(np.random.default_rng(4), SuiteConfig(), np.arange(2000))
    assert 0 < keep.sum() < 2000 and np.all(keep == verify._usable(drawn["phi"]))


def _row(probe, i):
    """Row i of a probe as a stack of one."""
    arrays = {name: getattr(probe, name) for name in ("psi", "phi", "lam", "alpha")}
    return probe._replace(**{name: x[i:i + 1] for name, x in arrays.items() if x is not None})


def _mixed_probes(rng):
    """Probe stacks of every kind, rows in random order: Mobius and
    constant maps against no conjugation, J, C1 and C2, normality on and
    off; the three conjugations alone; the adjoint factorization."""
    keep, _, psi, phi = verify._draw_c2_selfmap(rng, 60)
    interior = fam.interior_quadruples(0.3 - 0.2j, 0.5j, 1.2)
    psi = np.concatenate([psi[keep][:4], interior[0], [[0.75, 0.1, 1, -0.5], [1.0, 0.0, 1, 0.4j]]])
    phi = np.concatenate([phi[keep][:4], interior[1], [[0, 0.6 - 0.3j, 0, 1], [0, -0.2, 0, 1]]])
    psi, phi = np.tile(psi, (3, 1)), np.tile(phi, (3, 1))
    lam = np.exp(1j * rng.uniform(0.0, 2 * math.pi, len(psi)))
    alphas = {"J": np.zeros(len(psi)), "C1": np.exp(1j * rng.uniform(0.0, 2 * math.pi, len(psi))),
              "C2": 0.4 * np.sqrt(rng.uniform(0.05, 1.0, len(psi))) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, len(psi)))}
    probes = [Probe(psi, phi)]
    for kind, alpha in alphas.items():
        probes += [Probe(psi, phi, kind, lam, alpha, normality) for normality in (True, False)]
        probes.append(Probe(kind=kind, lam=lam, alpha=alpha))
    mobius = ~is_constant(phi)
    probes.append(Probe(phi=phi[mobius]))
    return [probe._replace(**{name: getattr(probe, name)[order] for name in ("psi", "phi", "lam", "alpha")
                              if getattr(probe, name) is not None})
            for probe, order in ((p, rng.permutation(len(p.phi if p.phi is not None else p.lam))) for p in probes)]


@pytest.mark.parametrize("dim", [48, 64, 96, 384, 389])
def test_stacked_measure_equals_single_draws(dim, monkeypatch):
    # every residual of a probe stack equals that row measured alone (a
    # stack of one), bit for bit, factorization probes included; each probe
    # is cut into the fewest stacks the row budget allows, in row order,
    # and a constant map shares its stacks with the Mobius maps
    probes = _mixed_probes(np.random.default_rng(dim))
    cfg = SuiteConfig(dim=dim)
    stacks = []
    for name in ("wco_residual_stack", "conjugation_residual_stack", "adjoint_factorization_stack"):

        def spy(*args, real=getattr(verify, name), **kwargs):
            stacks.append(len(args[0]) if not isinstance(args[0], str) else len(args[1]))
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, name, spy)
    got = [verify.measure(cfg, probe) for probe in probes]
    size = max(1, STACK_ROWS // dim)
    counts = [len(p.phi if p.phi is not None else p.lam) for p in probes]
    assert stacks == [min(size, n - start) for n in counts for start in range(0, n, size)]
    for probe, residuals, count in zip(probes, got, counts):
        for i in range(count):
            alone = verify.measure(cfg, _row(probe, i))
            assert {key: r[i] for key, r in residuals.items()} == {key: r[0] for key, r in alone.items()}
    assert [sorted(residuals) for residuals in got] == [
        sorted(({"involution", "isometry"} if p.phi is None else set())
               | ({"factorization", "flipped_sign"} if p.phi is not None and p.psi is None else set())
               | ({"symmetry"} if p.psi is not None and p.kind is not None else set())
               | ({"normality"} if p.psi is not None and p.normality else set()))
        for p in probes
    ]


def test_no_suite_stack_goes_over_the_row_budget(monkeypatch):
    # a stub kernel records each stack the suites' measure calls evaluate
    sizes, interior = [], None

    def stub(psi, phi, n, k, kind=None, lam=None, alpha=None, normality=True):
        sizes.append((len(psi), n))
        return {"symmetry": np.zeros(len(psi)), "normality": np.zeros(len(psi))}

    monkeypatch.setattr(verify, "wco_residual_stack", stub)
    for suite_id, suite in sorted(SUITES.items()):
        for dim in (suite.defaults.dim, 384):
            start = len(sizes)
            run_suite(suite_id, dataclasses.replace(suite.defaults, dim=dim, seed=3))
            if suite_id == "ex51-interior" and dim == suite.defaults.dim:
                interior = sizes[start:]
    assert max(count for count, n in sizes if n == 64) == STACK_ROWS // 64
    assert all(count * n <= STACK_ROWS or count == 1 for count, n in sizes), sizes
    # ex51-interior's 40 draws at N = 96, its constant maps (every fourth
    # index) among them, fill five stacks of 768 // 96 = 8
    assert interior == [(8, 96)] * 5


class TestDeterminism:
    @pytest.mark.parametrize("suite_id", ["prop41-iff", "c2sym-form", "ex43-sweep"])
    def test_byte_identical_reports(self, suite_id):
        cfg = dataclasses.replace(default_config(suite_id), seed=99)
        if not SUITES[suite_id].fixed_samples:  # a fixed target set refuses any other count
            cfg = dataclasses.replace(cfg, samples=10)
        first = report_to_json(run_suite(suite_id, cfg))
        second = report_to_json(run_suite(suite_id, cfg))
        assert first == second

    def test_seed_changes_report(self):
        cfg = dataclasses.replace(default_config("prop41-iff"), samples=10)
        a = report_to_json(run_suite("prop41-iff", dataclasses.replace(cfg, seed=1)))
        b = report_to_json(run_suite("prop41-iff", dataclasses.replace(cfg, seed=2)))
        assert a != b


class TestMonotonicity:
    @pytest.mark.parametrize("suite_id", ["prop21-normal", "jsym-form"])
    def test_doubling_dimension_keeps_passing(self, suite_id):
        cfg = dataclasses.replace(default_config(suite_id), samples=12)
        assert clean(run_suite(suite_id, cfg))
        doubled = dataclasses.replace(cfg, dim=2 * cfg.dim)
        assert clean(run_suite(suite_id, doubled))


def test_report_schema_validation():
    report = run_suite("cor41-aut", dataclasses.replace(default_config("cor41-aut"), samples=6))
    doc = report_to_dict(report)
    assert validate_report_dict(doc) == []
    assert doc["summary"]["total"] == len(doc["records"])
    broken = dict(doc)
    broken.pop("suite_id")
    assert validate_report_dict(broken)


# Every registry id at its registry defaults (seed 2024): (pass, fail,
# inconclusive, discrepancy, exit status).  Taken from the build that formed
# each column of W by its own convolution, so a faster build, or a change
# of the verdict rule, that moves any verdict turns this red.
DEFAULT_SUMMARIES = {
    "c1sym-form": (120, 0, 0, 0, 0),
    "c2sym-form": (120, 0, 0, 0, 0),
    "conjugation-axioms": (101, 0, 0, 0, 0),
    "cor41-aut": (60, 0, 0, 0, 0),
    "cor62-no-aut": (100, 0, 0, 0, 0),  # rejected draws are now redrawn, not dropped
    "cowen-factorization": (50, 0, 0, 0, 0),
    "ex41-equivalence": (80, 0, 0, 0, 0),
    "ex42-sweep": (24, 0, 0, 0, 0),
    "ex43-sweep": (12, 0, 0, 0, 0),
    "ex44-parabolic": (40, 0, 0, 0, 0),
    "ex51-aut-corollary": (60, 0, 0, 0, 0),
    "ex51-interior": (40, 0, 0, 0, 0),
    "ex52-sweep": (12, 0, 0, 12, 3),
    "ex53-sweep": (12, 0, 0, 0, 0),
    "ex54-parabolic": (40, 0, 0, 0, 0),
    "ex61-interior": (30, 0, 0, 0, 0),
    "ex62-sweep": (24, 0, 0, 0, 0),
    "ex63-parabolic": (30, 0, 0, 0, 0),
    "jsym-form": (120, 0, 0, 0, 0),
    "lemma31-aut": (120, 0, 0, 0, 0),
    "lemma32-aut": (120, 0, 0, 0, 0),
    "lemma33-aut": (120, 0, 0, 0, 0),  # rejected draws are now redrawn, not dropped
    "prop21-normal": (100, 0, 0, 0, 0),
    "prop22-commutation": (60, 0, 0, 0, 0),
    "prop41-iff": (200, 0, 0, 0, 0),
    "thm51-iff": (200, 0, 0, 0, 0),
    "thm61-consistency": (36, 0, 0, 24, 3),
}


def test_default_summaries_unchanged():
    assert sorted(DEFAULT_SUMMARIES) == sorted(SUITES)
    for suite_id, (npass, nfail, ninc, ndisc, status) in DEFAULT_SUMMARIES.items():
        report = run_suite(suite_id)
        expected = {"pass": npass, "fail": nfail, "inconclusive": ninc, "discrepancy": ndisc}
        expected["total"] = sum(expected.values())
        assert (report.summary, report.exit_status) == (expected, status), suite_id


# The six matrix-oracle suites at N = 384 with the benchmark's sample
# counts (seed 2024): (samples, pass, fail, inconclusive, discrepancy,
# exit status).  Taken from the build that formed all of W for every
# residual, so building only the rows and columns a residual reads must
# not move a verdict.
ORACLE_N384_SUMMARIES = {
    "prop21-normal": (8, 8, 0, 0, 0, 0),
    "jsym-form": (5, 6, 0, 0, 0, 0),
    "c1sym-form": (5, 6, 0, 0, 0, 0),
    "c2sym-form": (5, 6, 0, 0, 0, 0),
    "conjugation-axioms": (5, 5, 0, 0, 0, 0),
    "cowen-factorization": (1, 1, 0, 0, 0, 0),
}


@pytest.mark.parametrize("suite_id", sorted(ORACLE_N384_SUMMARIES))
def test_oracle_n384_summaries_unchanged(suite_id):
    samples, npass, nfail, ninc, ndisc, status = ORACLE_N384_SUMMARIES[suite_id]
    cfg = dataclasses.replace(default_config(suite_id), dim=384, samples=samples, seed=2024)
    report = run_suite(suite_id, cfg)
    expected = {"pass": npass, "fail": nfail, "inconclusive": ninc, "discrepancy": ndisc}
    expected["total"] = sum(expected.values())
    assert (report.summary, report.exit_status) == (expected, status)


# The same six suites at the dimension cap, 1-2 samples each (seed 2024),
# as (samples, pass, fail, inconclusive, discrepancy, exit status).  Taken
# from the build whose first k columns came from the Mobius recurrence on
# all of W; the doubled row recurrence that builds them now must not move
# a verdict.
ORACLE_N1024_SUMMARIES = {
    "prop21-normal": (2, 2, 0, 0, 0, 0),
    "jsym-form": (2, 3, 0, 0, 0, 0),
    "c1sym-form": (2, 3, 0, 0, 0, 0),
    "c2sym-form": (2, 3, 0, 0, 0, 0),
    "conjugation-axioms": (3, 3, 0, 0, 0, 0),
    "cowen-factorization": (1, 1, 0, 0, 0, 0),
}


@pytest.mark.parametrize("suite_id", sorted(ORACLE_N1024_SUMMARIES))
def test_oracle_n1024_summaries_unchanged(suite_id):
    samples, npass, nfail, ninc, ndisc, status = ORACLE_N1024_SUMMARIES[suite_id]
    cfg = dataclasses.replace(default_config(suite_id), dim=1024, samples=samples, seed=2024)
    report = run_suite(suite_id, cfg)
    expected = {"pass": npass, "fail": nfail, "inconclusive": ninc, "discrepancy": ndisc}
    expected["total"] = sum(expected.values())
    assert (report.summary, report.exit_status) == (expected, status)


# The two C2 symmetry suites at the dimension cap with their default
# sample counts (seed 2024), as (pass, fail, inconclusive, discrepancy,
# exit status).  Taken from the build whose C2 symmetry read all of W as
# T - U T^t conj(U), so measuring the commutator U conj(T) - T^H U on the
# first k columns must not move a verdict.
C2_SYMMETRY_N1024_SUMMARIES = {
    "c2sym-form": (120, 0, 0, 0, 0),
    "ex61-interior": (30, 0, 0, 0, 0),
}


@pytest.mark.parametrize("suite_id", sorted(C2_SYMMETRY_N1024_SUMMARIES))
def test_c2_symmetry_suites_at_the_cap_unchanged(suite_id):
    npass, nfail, ninc, ndisc, status = C2_SYMMETRY_N1024_SUMMARIES[suite_id]
    cfg = dataclasses.replace(default_config(suite_id), dim=1024, seed=2024)
    report = run_suite(suite_id, cfg)
    expected = {"pass": npass, "fail": nfail, "inconclusive": ninc, "discrepancy": ndisc}
    expected["total"] = sum(expected.values())
    assert (report.summary, report.exit_status) == (expected, status)


def test_sampling_loop_is_bounded():
    # a sampler that never keeps a candidate for indices 3 and 4: the loop
    # raises, naming the suite, the open indices and the counts, and no
    # round asks for more than _MAX_COPIES candidates per open index
    asked = []

    def partial(rng, cfg, idx):
        asked.append(len(idx))
        return idx < 3, {"x": rng.uniform(size=len(idx))}

    with pytest.raises(SamplingBudgetError) as info:
        verify._sample("never-keeps", partial, np.random.default_rng(0), SuiteConfig(), 5)
    assert not isinstance(info.value, (WcoError, ValueError))  # not bad input: the CLI exits 1
    message = f"suite never-keeps: indices [3, 4] still open with 3 of {sum(asked)} candidates kept"
    assert str(info.value).startswith(message)
    assert asked[0] == 5 and len(asked) > 2 and max(asked[1:]) <= 2 * verify._MAX_COPIES
