"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single pass line; a failing assertion carries the
full measurement.  Suite-backed criteria pin their seeds so reruns are
byte-for-byte reproducible.
"""

import dataclasses

import numpy as np

from wcosym.cli import report_to_json
from wcosym.families import (
    C1Params,
    C2NormalCase,
    C2Params,
    HyperbolicParams,
    c1_quadruples,
    c2_normal_predicate,
    c2_quadruple,
    hyperbolic_aut_map,
)
from wcosym.mobius import lft_normality_defects, proj_distance
from wcosym.operators import Conjugation, conjugation_matrix
from wcosym.verify import default_config, run_suite

from conftest import convolution_columns, first, normality_defect, psi_series, symmetry_defect


def _cfg(suite_id, **overrides):
    return dataclasses.replace(default_config(suite_id), **overrides)


def _clean(report):
    s = report.summary
    assert s["fail"] == 0 and s["discrepancy"] == 0, (report.suite_id, s)


def test_criterion_1_conjugation_axioms():
    # J exact, 50 rotation-weighted draws exact, 50 kernel-weighted draws
    # at N = 48 on the leading 16 x 16 block
    report = run_suite("conjugation-axioms", _cfg("conjugation-axioms", samples=101, seed=101))
    _clean(report)
    kinds = {"J": 0, "C1": 0, "C2": 0}
    for rec in report.records:
        kinds[rec.params["kind"]] += 1
        worst = max(rec.residuals["involution"], rec.residuals["isometry"])
        if rec.params["kind"] in ("J", "C1"):
            assert worst <= 1e-14, (rec.params, worst)
        else:
            assert worst <= 1e-8, (rec.params, worst)
    assert kinds["C1"] == 50 and kinds["C2"] == 50
    print("[acceptance] criterion 1 (conjugation axioms): PASS")


def test_criterion_2_family_symmetry():
    for sid in ("jsym-form", "c1sym-form", "c2sym-form"):
        report = run_suite(sid, _cfg(sid, samples=100, seed=202, dim=64, block=12))
        _clean(report)
        in_family = [r for r in report.records if not r.params.get("perturbed")]
        controls = [r for r in report.records if r.params.get("perturbed")]
        assert len(in_family) == 100 and len(controls) == 20
        assert all(r.residuals["symmetry"] <= 1e-7 for r in in_family)
        assert all(r.residuals["symmetry"] >= 1e-3 for r in controls)
    print("[acceptance] criterion 2 (family symmetry, 100 + 20 draws each): PASS")


def test_criterion_3_normality_iff():
    for sid in ("prop41-iff", "thm51-iff"):
        report = run_suite(sid, _cfg(sid, samples=200, seed=303, dim=64, block=12))
        s = report.summary
        assert s["discrepancy"] == 0, (sid, s)
        assert s["pass"] >= 190  # near-boundary draws may land in the band
    print("[acceptance] criterion 3 (normality iff oracles, 200 draws/family): PASS")


def test_criterion_4_c2_case_conditions():
    worked_i = C2Params(0.5, 0.6, 0.36, 0.54)
    worked_ii = C2Params(0.5, 0.6, 0.36, 0.18)
    assert c2_normal_predicate(worked_i) is C2NormalCase.CASE_I
    assert c2_normal_predicate(worked_ii) is C2NormalCase.CASE_II
    for params in (worked_i, worked_ii):
        t, u, v, w = c2_quadruple(params)
        al = params.alpha
        quad = (-w, al * u, -np.conj(al) * t, np.conj(al) * v)
        (gap,), (defect,) = lft_normality_defects(np.array([quad]))
        assert gap <= 1e-12 and defect <= 1e-12, (params, gap, defect)

    report = run_suite("thm61-consistency", _cfg("thm61-consistency", seed=404))
    identity_records = [
        r for r in report.records if r.note.startswith("identity-case")
    ]
    assert identity_records, "identity-case draws missing"
    for rec in identity_records:
        assert rec.verdict == "discrepancy"
        assert rec.predicates["case"] == "NotNormal"
        assert rec.residuals["normality"] <= 1e-12  # the operator is the identity
    assert report.known_discrepancy
    assert report.exit_status == 3
    other = [r for r in report.records if r.verdict == "discrepancy" and not r.note]
    assert not other, "only documented discrepancies may appear"
    print("[acceptance] criterion 4 (kernel-weighted case conditions + documented discrepancy): PASS")


def test_criterion_5_interior_family():
    report = run_suite("prop21-normal", _cfg("prop21-normal", samples=100, seed=505))
    _clean(report)
    assert all(r.residuals["normality"] <= 1e-7 for r in report.records)

    eq = run_suite("ex41-equivalence", _cfg("ex41-equivalence", samples=80, seed=515))
    _clean(eq)
    real_records = [r for r in eq.records if r.predicates["real_p"]]
    control_records = [r for r in eq.records if not r.predicates["real_p"]]
    assert real_records and control_records
    assert all(
        max(r.residuals["phi_gap"], r.residuals["psi_gap"]) <= 1e-10 for r in real_records
    )
    assert all(r.residuals["j_symmetry"] >= 1e-3 for r in control_records)
    print("[acceptance] criterion 5 (interior normal family + closed-form equivalence): PASS")


def test_criterion_6_adjoint_factorization():
    report = run_suite("cowen-factorization", _cfg("cowen-factorization", samples=50, seed=606))
    _clean(report)
    assert all(r.residuals["factorization"] <= 1e-8 for r in report.records)
    flipped = [r.residuals["flipped_sign"] for r in report.records]
    assert max(flipped) >= 1e-3, "the flipped sigma sign variant must fail somewhere"
    print(
        "[acceptance] criterion 6 (adjoint factorization, 50 maps; "
        f"flipped-sign failures: {sum(1 for f in flipped if f >= 1e-3)}/50): PASS"
    )


def test_criterion_7_parabolic_constructors():
    for sid, n in (("ex44-parabolic", 40), ("ex54-parabolic", 40), ("ex63-parabolic", 20)):
        report = run_suite(sid, _cfg(sid, samples=n, seed=707))
        _clean(report)
        assert all(r.residuals["normality"] <= 1e-7 for r in report.records)
    print("[acceptance] criterion 7 (parabolic constructors, round trips): PASS")


def test_criterion_8_nonexistence_sweeps():
    for sid in ("ex42-sweep", "ex43-sweep", "ex62-sweep"):
        report = run_suite(sid)
        _clean(report)
        min_def = min(r.residuals["deficiency"] for r in report.records)
        assert min_def >= 1e-3, (sid, min_def)

    cor = run_suite("cor62-no-aut", _cfg("cor62-no-aut", samples=200, seed=808))
    _clean(cor)
    moduli_draws = [r for r in cor.records if r.predicates.get("moduli_equal")]
    assert len(moduli_draws) == 100
    assert all(r.oracles["form"] == "NoneType" for r in moduli_draws)
    print("[acceptance] criterion 8a (nonexistence sweeps: coefficient-conjugation, "
          "kernel-weighted, non-automorphism): PASS")


# truncation used to confirm the automorphism witnesses: at the sweep's
# own 64 / 12 the slowest-decaying witness (r = 3, t = 1.2i) still shows
# 2.5e-8 of truncation error, 96 / 16 brings every witness to rounding
_WITNESS_DIM, _WITNESS_BLOCK = 96, 16


def test_criterion_8_c1_hyperbolic_sweep():
    """Criterion 8b, split where the mathematics splits it.

    Non-automorphism targets (Re t > 0): the stated criterion holds
    verbatim, minimum deficiency >= 1e-3 and every verdict pass.

    Automorphism targets (Re t = 0): the stated nonexistence is false.
    A hyperbolic automorphism phi = lam (p - z)/(1 - conj(p) z) has
    p = phi^{-1}(0) != 0; alpha = conj(p)/(p lam) is unimodular, and
    c0 = conj(alpha p), c1 = alpha c0^2 - alpha c0/conj(c0) lie in the
    disk (|c0| = |p|, |c1| = 1 - |p|^2) and give exactly this phi, with
    weight psi = 1/(1 - conj(p) z), the reproducing kernel at
    phi^{-1}(0).  So the operator is a scalar multiple of a unitary
    (Bourdon-Narayan) and hence normal, and the closed-form normality
    expression vanishes identically on that locus.  Each such target
    must therefore be a noted discrepancy whose witness is in domain,
    realizes the target, lies on the unitary locus, and is confirmed
    C1-symmetric and normal by the truncation oracles.
    """
    report = run_suite("ex52-sweep")
    cfg = report.config
    aut = [r for r in report.records if r.params["t"].real == 0.0]
    nonaut = [r for r in report.records if r.params["t"].real > 0.0]
    assert len(aut) == 12 and len(nonaut) == 12, (len(aut), len(nonaut))

    min_def = min(r.residuals["deficiency"] for r in nonaut)
    not_passed = [(r.params, r.verdict) for r in nonaut if r.verdict != "pass"]
    assert min_def >= 1e-3 and not not_passed, (
        "non-automorphism hyperbolic targets: "
        f"min deficiency {min_def:.3e}; non-pass records: {not_passed}"
    )

    for rec in aut:
        p = rec.params
        alpha, c0, c1 = p["alpha"], p["c0"], p["c1"]
        assert rec.verdict == "discrepancy" and rec.note, (
            "automorphism target not reported as a documented discrepancy",
            p, rec.verdict, rec.residuals, rec.note,
        )
        in_domain = (abs(abs(alpha) - 1.0), abs(c0), abs(c1))
        assert in_domain[0] <= 1e-12 and in_domain[1] < 1.0 and in_domain[2] < 1.0, (
            "witness out of domain (||alpha| - 1|, |c0|, |c1|)", p, in_domain,
        )
        psi, phi = first(*c1_quadruples(*dataclasses.astuple(C1Params(alpha, c0, c1))))
        target = hyperbolic_aut_map(HyperbolicParams(p["r"], p["t"]))
        dist = proj_distance(np.array([phi]), target)[0]
        locus_gap = abs(c1 - alpha * c0 * (c0 - 1.0 / np.conj(c0)))
        assert dist <= 1e-12 and locus_gap <= 1e-12, (
            "witness does not realize the target on the unitary locus",
            p, {"map_distance": dist, "locus_gap": locus_gap},
        )
        op = convolution_columns(psi_series(psi, _WITNESS_DIM), phi, _WITNESS_DIM)
        u = conjugation_matrix(Conjugation("C1", 1.0, alpha), _WITNESS_DIM)
        normality = normality_defect(op, _WITNESS_BLOCK)
        symmetry = symmetry_defect(op, u, _WITNESS_BLOCK)
        assert normality <= cfg.pass_tol and symmetry <= cfg.pass_tol, (
            f"truncation oracles at N={_WITNESS_DIM}, block {_WITNESS_BLOCK} "
            "do not confirm the witness",
            p, {"normality": normality, "symmetry": symmetry},
        )

    s = report.summary
    assert (s["pass"], s["discrepancy"], s["fail"], s["inconclusive"]) == (12, 12, 0, 0), s
    assert report.known_discrepancy and report.exit_status == 3, (
        report.known_discrepancy, report.exit_status,
    )
    print(
        "[acceptance] criterion 8b (rotation-weighted hyperbolic sweep: "
        f"12 non-automorphism targets unrealizable, min deficiency {min_def:.3f}; "
        "12 automorphism targets realized by unitary multiples): PASS"
    )


def test_criterion_9_determinism():
    for sid in ("prop41-iff", "thm61-consistency", "ex42-sweep"):
        cfg = _cfg(sid, seed=909)
        assert report_to_json(run_suite(sid, cfg)) == report_to_json(run_suite(sid, cfg))
    print("[acceptance] criterion 9 (byte-identical reports for equal seeds): PASS")
