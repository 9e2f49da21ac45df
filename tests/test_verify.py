import cmath
import dataclasses
import math

import numpy as np
import pytest

from wcosym.cli import report_to_json, validate_report_dict, report_to_dict
from wcosym.errors import UnknownSuiteError
from wcosym.families import (
    HyperbolicParams,
    c1_normal_expression,
    hyperbolic_aut_map,
    j_normal_expression,
)
from wcosym.mobius import MobiusMap, aut_normal_form, quadruple_gap
from wcosym.verify import (
    ANCHOR_SUITES,
    SUITES,
    SuiteConfig,
    _local_grid,
    _polar_grid,
    _sweep_c1_family,
    _sweep_j_family,
    _target_quadruples,
    check_registry,
    default_config,
    nonexistence_sweep,
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
    cfg = dataclasses.replace(cfg, samples=max(8, cfg.samples // 4))
    report = run_suite(suite_id, cfg)
    assert clean(report), report.summary
    assert report.exit_status == 0


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
    assert all(r.residuals["deficiency"] < 1e-6 for r in aut_records)
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
        target = hyperbolic_aut_map(HyperbolicParams(p["r"], p["t"])).quadruple()
        expected = max(quadruple_gap(witness, target), defect)
        assert abs(rec.residuals["deficiency"] - expected) <= 1e-14, (p, rec.residuals, expected)


def _reference_quad_distance(va, vb, vc, vd, target: MobiusMap):
    w = target.quadruple()
    comps = [va, vb, vc, vd]
    norm_v = np.sqrt(sum(np.abs(x) ** 2 for x in comps))
    norm_w = np.linalg.norm(w)
    total = np.zeros_like(norm_v)
    for i in range(4):
        for jdx in range(i + 1, 4):
            total += np.abs(comps[i] * w[jdx] - comps[jdx] * w[i]) ** 2
    return np.sqrt(2.0 * total) / (norm_v * norm_w)


def _reference_j_search(target: MobiusMap):
    def deficiency(a0, a1):
        va = a1 - a0 ** 2
        dist = _reference_quad_distance(va, a0, -a0, np.ones_like(a0), target)
        expr = np.abs(a0.imag * (1.0 - np.abs(a0) ** 2) + (np.conj(a0) * a1).imag)
        return np.maximum(dist, expr)

    grid = _polar_grid(10, 16)
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


def _reference_c1_search(target: MobiusMap):
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
    form = aut_normal_form(target)
    if form is not None and not form.rotation and abs(form.gamma) > 1e-9:
        g, beta = form.gamma, form.beta
        alpha = np.conj(g) / (g * beta)
        cands.append((alpha / abs(alpha), np.conj(g) / alpha, (abs(g) ** 2 - 1) * np.conj(g) / (g * alpha)))
    cgrid = _polar_grid(7, 10)
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
    "search, reference", [(_sweep_j_family, _reference_j_search), (_sweep_c1_family, _reference_c1_search)]
)
def test_sweep_matches_per_target_reference(search, reference):
    # the per-target, per-angle search the separable one replaced: the
    # minor sums accumulate in another order, so the deficiency may move
    # in its last bit; a moved minimizer would move the witness far more
    fail_tol = SuiteConfig().fail_tol
    targets = [hyperbolic_aut_map(HyperbolicParams(r, t)) for r, t in _target_quadruples()]
    results = list(search(targets))
    assert len(results) == len(targets) == 24
    for target, (deficiency, witness) in zip(targets, results):
        ref_deficiency, ref_witness = reference(target)
        assert (deficiency >= fail_tol) == (ref_deficiency >= fail_tol)
        assert abs(deficiency - ref_deficiency) <= 1e-15, (target, deficiency, ref_deficiency)
        assert witness.keys() == ref_witness.keys()
        assert all(abs(witness[k] - ref_witness[k]) <= 1e-12 for k in witness), (witness, ref_witness)


def test_sweep_unknown_family():
    with pytest.raises(UnknownSuiteError):
        nonexistence_sweep("elliptic", SuiteConfig())


class TestDeterminism:
    @pytest.mark.parametrize("suite_id", ["prop41-iff", "c2sym-form", "ex43-sweep"])
    def test_byte_identical_reports(self, suite_id):
        cfg = dataclasses.replace(default_config(suite_id), samples=10, seed=99)
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
# inconclusive, discrepancy, exit status).  Taken from the build before
# power doubling replaced the per-column convolutions, so a faster build
# that moves any verdict turns this red.
DEFAULT_SUMMARIES = {
    "c1sym-form": (120, 0, 0, 0, 0),
    "c2sym-form": (120, 0, 0, 0, 0),
    "conjugation-axioms": (101, 0, 0, 0, 0),
    "cor41-aut": (60, 0, 0, 0, 0),
    "cor62-no-aut": (93, 0, 0, 0, 0),
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
    "lemma33-aut": (110, 0, 0, 0, 0),
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
# from the build whose first k columns came from the Mobius recurrence, so
# the FFT products that replaced it must not move a verdict.
ORACLE_N1024_SUMMARIES = {
    "prop21-normal": (2, 2, 0, 0, 0, 0),
    "jsym-form": (2, 3, 0, 0, 0, 0),
    "c1sym-form": (2, 3, 0, 0, 0, 0),
    "c2sym-form": (2, 3, 0, 0, 0, 0),
    "conjugation-axioms": (2, 3, 0, 0, 0, 0),
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
