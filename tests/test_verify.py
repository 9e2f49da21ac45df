import ast
import cmath
import collections
import dataclasses
import fractions
import math
import pathlib
import sys

import numpy as np
import pytest

from wcosym import operators, verify
from wcosym.cli import main, report_to_json
from wcosym.errors import NotSelfMapError, SamplingBudgetError, UnknownSuiteError, WcoError
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
    is_automorphism,
    is_degenerate,
    is_self_map,
    proj_distance,
    quadruple_gap,
    sup_modulus,
)
from wcosym.operators import (
    MAX_DIM,
    STACK_ROWS,
    adjoint_factorization_stack,
    conjugation_residual_stack,
    wco_residual_stack,
)
from wcosym.series import poles
from wcosym.verify import (
    ANCHOR_SUITES,
    SUITES,
    Probe,
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

from conftest import report_to_dict, validate_report_dict


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

    @pytest.mark.parametrize("dim", [0, 1, 33, 64, MAX_DIM, MAX_DIM + 1])
    def test_config_and_seams_refuse_the_same_truncations(self, dim):
        # operators.check_truncation is the one rule of (dim, block): the
        # config and each seam, given no draws so that only the truncation
        # is read, refuse the same pairs, but for block 1, which the config
        # alone refuses: a 1 x 1 block decides no verdict
        empty, none = np.empty((0, 4), dtype=complex), np.empty(0, dtype=complex)
        builders = {
            "config": lambda n, k: SuiteConfig(dim=n, block=k),
            "wco": lambda n, k: wco_residual_stack(empty, empty, n, k, "C2", none, none),
            "conjugation": lambda n, k: conjugation_residual_stack("C2", none, none, n, k),
            "factorization": lambda n, k: adjoint_factorization_stack(empty, n, k),
        }
        for block in (0, 1, 2, dim - 32, dim - 31):
            refused = {name: _refuses(build, dim, block) for name, build in builders.items()}
            rule = not (1 <= dim <= MAX_DIM and 1 <= block <= dim - 32)
            assert refused == {**dict.fromkeys(builders, rule), "config": rule or block == 1}, (dim, block)


def _refuses(build, *args) -> bool:
    try:
        build(*args)
    except ValueError:
        return True
    return False


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


def test_conjugation_axioms_hold_at_wide_blocks():
    # lam alpha^j is rounded power by power, so a correct C1 conjugation's
    # defect grows with the block: at k = 40 it reaches 3.3e-14, above the
    # 1e-14 that bounds it up to k = 16
    cfg = dataclasses.replace(default_config("conjugation-axioms"), dim=389, block=40, seed=0)
    assert run_suite("conjugation-axioms", cfg).summary["fail"] == 0


@pytest.mark.parametrize(
    "block, value, verdict",
    [(16, 1e-14, "pass"), (16, 1.01e-14, "fail"), (17, 1.12e-14, "pass"), (17, 1.14e-14, "fail"),
     (40, 6.2e-14, "pass"), (40, 6.3e-14, "fail")],
)
def test_c1_axiom_tolerance_grows_past_block_16(block, value, verdict, monkeypatch):
    # every J and C1 row reads one injected involution and isometry value:
    # the tolerance is 1e-14 up to block 16 and 1e-14 (k / 16)^2 above it
    real = verify.measure

    def measure(cfg, probe):
        got = real(cfg, probe)
        return got if probe.kind == "C2" else {key: np.full_like(r, value) for key, r in got.items()}

    monkeypatch.setattr(verify, "measure", measure)
    cfg = dataclasses.replace(default_config("conjugation-axioms"), dim=96, block=block, samples=6)
    records = run_suite("conjugation-axioms", cfg).records
    assert {rec.verdict for rec in records if rec.params["kind"] != "C2"} == {verdict}


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
    for name in ("_gram", "_normality_defect", "_symmetry_defect", "_involution_defect"):
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
    assert set(calls) == seams | {"_gram", "_normality_defect", "_symmetry_defect", "_involution_defect"}


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
    "cor62-no-aut": {"moduli_gap"},
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


def test_each_decision_has_one_owner():
    # operators alone names the truncation constants (check_truncation
    # states the rule); Cowen's sigma is written by cowen_stack alone, whose
    # callers read it; the raw C2 map by c2_raw_phi alone
    package = pathlib.Path(verify.__file__).parent
    naming = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _identifiers(tree) | {alias.name for alias in ast.walk(tree) if isinstance(alias, ast.alias)}
        if names & {"BLOCK_PAD", "MAX_DIM"}:
            naming.add(path.stem)
    assert naming == {"operators"}
    assert _callers({"cowen_stack"}) == {
        ("mobius", "lft_normality_defects"), ("operators", "prepare"), ("verify", "cowen_weights"), ("cli", "cmd_classify"),
    }
    assert _callers({"c2_raw_phi"}) == {("families", "c2_quadruples"), ("verify", "suite_thm61_consistency")}


def test_band_rule_has_one_caller():
    # the columnar rule _records alone reads the band thresholds, meets each
    # band with the claim and builds the records table: no suite and no
    # `check` path decides a verdict itself, and a SampleRecord is only ever
    # a row read back from a table
    assert _readers({"pass_tol", "fail_tol"}) == {("verify", "_records")}
    assert _callers({"Records"}) == {("verify", "_records")}
    assert _callers({"SampleRecord"}) == {("verify", "row")}
    # and the one verdict outside a suite, `wcosym check`'s, is a row of it
    assert {scope for module, scope in _callers({"_records"}) if module != "verify"} == {"_check_family"}


def _readers(attributes):
    """(module, enclosing function) of every read of cfg.<one of attributes> in the package source."""
    found = set()
    for path in sorted(pathlib.Path(verify.__file__).parent.glob("*.py")):

        def walk(node, scope):
            if isinstance(node, ast.Attribute) and node.attr in attributes and getattr(node.value, "id", None) == "cfg":
                found.add((path.stem, scope))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            for child in ast.iter_child_nodes(node):
                walk(child, scope)

        walk(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


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
    unused = {(module, name) for module, name in public if not users[name] - {(module, name)} and name not in outside}
    assert sorted(unused) == []


def test_every_default_parameter_is_passed():
    # the design rule for knobs: a defaulted parameter of a package function
    # is passed, by position or by keyword, by some call in the package, in
    # scripts/ or in bench/, or it is deleted; the console script calls
    # cli.main() bare, so main's argv is the one exemption
    package = pathlib.Path(verify.__file__).parent
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    outside = [ast.parse(path.read_text(encoding="utf-8"))
               for folder in ("scripts", "bench") for path in sorted((package.parents[1] / folder).rglob("*.py"))]
    calls = collections.defaultdict(list)
    for node in (node for tree in [*modules.values(), *outside] for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            calls[node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)].append(node)

    def passed(call, index, name):
        by_position = index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))
        return by_position or any(keyword.arg in (name, None) for keyword in call.keywords)

    unpassed = []
    for module, tree in modules.items():
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
                   if isinstance(f, ast.FunctionDef) and "staticmethod" not in map(ast.unparse, f.decorator_list)}
        for f in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            positional, offset = f.args.posonlyargs + f.args.args, int(id(f) in methods)
            first = len(positional) - len(f.args.defaults)
            knobs = [(i - offset, a.arg) for i, a in enumerate(positional) if i >= first]
            knobs += [(None, a.arg) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
            unpassed += [(module, f.name, name) for index, name in knobs
                         if not any(passed(call, index, name) for call in calls[f.name])]
    assert unpassed == [("cli", "main", "argv")]


def test_records_decides_on_columns():
    # the verdict rule on whole columns: each oracle value and each exact
    # decision is banded, each band meets the row's claim, the most severe
    # result is the verdict, and a gap above pred_tol or exact False fails;
    # an _at column's absent cells neither band nor gap their rows
    cfg, absent = SuiteConfig(), verify._ABSENT
    columns = {
        "oracle": {"normality": np.array([1e-12, 1e-5, 0.5, np.nan, 1e-12, 1e-5, 0.0, 1e-12])},
        "decided": {"lft": [True, None, False, absent, True, False, absent, absent]},
        "gaps": {"gap": [0.0, 1e-11, absent, 1.0, 0.0, absent, 0.0, 1e-9]},  # pred_tol 1e-10 < 1e-9 < pass_tol
        "residuals": {"flipped": np.arange(8.0)},
        "predicates": {"name": list("abcdefgh")},
        "oracles": {"form": verify._at(np.arange(8) % 2 == 0, np.array(["DiskForm", "NoneType", "DiskForm", "NoneType"]))},
    }
    claim = np.array([True, False, False, True, False, True, True, True])
    exact = [True, True, True, True, True, True, False, True]
    table = verify._records(cfg, {"i": np.arange(8)}, claim, exact, "n", **columns)
    assert table.verdict == ["pass", "inconclusive", "pass", "fail", "discrepancy", "discrepancy", "fail", "fail"]
    assert table.oracles["normality_band"] == ["pass", "band", "fail", "band", "pass", "band", "pass", "pass"]
    assert table.oracles["lft_band"] == ["pass", "band", "fail", absent, "pass", "fail", absent, absent]
    assert table.note == ["n"] * 8
    records = VerificationReport("hand-built", cfg, table).records
    assert [list(records[i].residuals) for i in (0, 2)] == [["normality", "gap", "flipped"], ["normality", "flipped"]]
    assert list(records[0].oracles) == ["normality_band", "lft_band", "form"]
    assert list(records[1].oracles) == ["normality_band", "lft_band"]
    # others fill the rows off the mask
    assert verify._at(np.array([True, False, True]), np.array([1.5, 2.5]), [0.5]) == [1.5, 0.5, 2.5]


@pytest.mark.parametrize("as_columns", [True, False])
def test_records_is_record_on_each_row(as_columns):
    # the rule on a table gives each row what it gives that row alone (the
    # one-row columns `wcosym check` passes): no row reads another; claim,
    # exact and note are a column or one value, a list column hands its own
    # Python objects over (abs of a Python complex stays), and an _at column
    # leaves the rows off its mask without the key
    cfg = SuiteConfig()
    z = np.array([0.3 + 0.4j, 1e-9 + 0j, 2.0 - 1.0j])
    held = np.array([True, False, True])
    columns = {
        "oracle": {"normality": np.array([1e-12, 1e-5, 0.5])},
        "gaps": {"gap": [abs(value) for value in (1e-11 * z).tolist()]},
        "decided": {"lft": [True, None, False]},
        "residuals": {"flipped": np.array([1.0, 2.0, 3.0])},
        "predicates": {"big": abs(z) > 1.0, "name": ["a", "b", "c"]},
        "oracles": {"form": verify._at(held, np.array(["DiskForm", "NoneType"]))},
    }
    claims, exacts, notes = [True, False, True], [True, True, False], ["x", "", "y"]
    claim, exact, note = (np.array(claims), exacts, notes) if as_columns else (False, True, "x")
    table = verify._records(cfg, {"z": z, "i": np.arange(3)}, claim, exact, note, **columns)
    got = VerificationReport("hand-built", cfg, table).records
    assert len(got) == 3
    assert ["form" in rec.oracles for rec in got] == held.tolist()
    assert [rec.oracles.get("form") for rec in got] == ["DiskForm", None, "NoneType"]
    assert got[1].oracles["lft_band"] == "band"  # a decided cell of None is undecided, not absent

    def cell(column, i):
        return column[i:i + 1] if isinstance(column, np.ndarray) else [column[i]]

    for i, rec in enumerate(got):
        row = {name: {key: cell(column, i) for key, column in group.items()} for name, group in columns.items()}
        flags = (claims[i], exacts[i], notes[i]) if as_columns else (False, True, "x")
        want = verify._records(cfg, {"z": z[i:i + 1], "i": np.arange(i, i + 1)}, *flags, **row).row(0)
        assert vars(rec) == vars(want)
        assert [type(value) for value in rec.params.values()] == [complex, int]
        assert type(rec.predicates["big"]) is bool and type(rec.residuals["flipped"]) is float
        assert rec.residuals["gap"] is columns["gaps"]["gap"][i]


@pytest.mark.parametrize("normal, band", [(True, "pass"), (False, "fail"), (None, "band")])
@pytest.mark.parametrize("claim", [True, False])
def test_exact_decision_meets_the_claim(normal, band, claim):
    # an exact decision is normal, not normal or undecided; it meets the
    # claim like a banded value, and no pass_tol / fail_tol ever places it
    expected = "inconclusive" if normal is None else ("pass" if normal == claim else "discrepancy")
    for cfg in (SuiteConfig(), SuiteConfig(pass_tol=0.5, fail_tol=1.0), SuiteConfig(pass_tol=1e-300, fail_tol=1e-299)):
        rec = verify._records(cfg, {"i": [0]}, claim=claim, decided={"lft": normal}).row(0)
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
        witness = np.array([[c1 - alpha * c0 * c0, c0, -alpha * c0, 1.0]])
        target = hyperbolic_aut_map(HyperbolicParams(p["r"], p["t"]))
        expected = max(quadruple_gap(witness, target)[0], defect)
        assert abs(rec.residuals["deficiency"] - expected) <= 1e-14, (p, rec.residuals, expected)


def _hand_built(verdicts, notes):
    """A report of one row a verdict, built through _records: a pass and a
    discrepancy claim normality against an oracle value 0 or 1, a fail
    fails its structural check."""
    values, exact = [float(v == "discrepancy") for v in verdicts], [v != "fail" for v in verdicts]
    table = verify._records(SuiteConfig(), {"i": np.arange(len(verdicts))}, True, exact, notes, oracle={"value": values})
    return VerificationReport("hand-built", SuiteConfig(), table)


@pytest.mark.parametrize(
    "records, known, status",
    [
        ((("discrepancy", "documented"), ("fail", "")), True, 1),
        ((("discrepancy", "documented"), ("discrepancy", "")), False, 1),
        ((("discrepancy", "documented"), ("discrepancy", "documented"), ("pass", "")), True, 3),
    ],
)
def test_exit_3_only_when_every_disagreement_is_documented(records, known, status):
    report = _hand_built([verdict for verdict, _ in records], [note for _, note in records])
    assert [rec.verdict for rec in report.records] == [verdict for verdict, _ in records]
    assert (report.known_discrepancy, report.exit_status) == (known, status)


def test_sweep_notes_only_automorphism_discrepancies(monkeypatch):
    # a c1 sweep that realized every target: the non-automorphism ones are
    # not the documented Finding, so they carry no note and the run exits 1
    def realize_all(targets):
        zeros = np.zeros(len(targets))
        return zeros, {"alpha": zeros + 1.0, "c0": zeros, "c1": zeros}

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
    def in_band(targets):
        return np.full(len(targets), 1e-5), {}

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
            gap, got_alpha, got_c0, got_c1 = _preimage(phi, alpha=1.0)
        else:
            alpha = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            phi = c1_quadruples(*dataclasses.astuple(C1Params(alpha, c0, c1)))[1]
            gap, got_alpha, got_c0, got_c1 = _preimage(phi)
        worst = max(worst, np.max(gap), np.max(abs(got_alpha - alpha)), np.max(abs(got_c0 - c0)), np.max(abs(got_c1 - c1)))
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
    if is_automorphism(target[None])[0] and abs(c) > 1e-9 * abs(d):
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
    r, t = np.array(_target_quadruples()).T
    targets = hyperbolic_aut_map(HyperbolicParams(r.real, t))
    deficiencies, witnesses = search(targets)
    assert len(deficiencies) == 24
    for i, (target, deficiency) in enumerate(zip(targets, deficiencies.tolist())):
        witness = {key: values[i] for key, values in witnesses.items()}
        ref_deficiency, ref_witness = reference(target)
        assert (deficiency >= fail_tol) == (ref_deficiency >= fail_tol), (target, deficiency, ref_deficiency)
        assert witness.keys() == ref_witness.keys()
        if deficiency < fail_tol:
            if "a0" in witness:
                phi = j_quadruples(*dataclasses.astuple(JParams(witness["a0"], witness["a1"])))[1]
            else:
                params = C1Params(witness["alpha"], witness["c0"], witness["c1"])
                phi = c1_quadruples(*dataclasses.astuple(params))[1]
            assert proj_distance(phi, target[None])[0] <= 1e-12, (target, witness)


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
        moduli = sorted(abs(complex(x)) for x in target[0, 1:])
        deficiency, witness = _c2_deficiency(target)
        assert witness == {}
        assert deficiency[0] == 1.0 - moduli[0] / moduli[-1] == pinned, (r, t)


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
        return verify._records(cfg, {"i": d.i, "x": d.x})

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
    assert np.all(keep == (~is_degenerate(phi) & (sup_modulus(phi) <= 0.9) & (abs(poles(psi)) >= 1.8)))
    assert np.all(is_self_map(phi[keep]))


@pytest.mark.parametrize("family", ["j", "c1"])
def test_symmetric_form_samplers_keep_constants_and_self_maps(family, monkeypatch):
    # hand-built candidates: a constant in the disk (determinant 0) and a
    # self-map are kept; the constant 1.5 and a non-self-map are rejected,
    # as the seams refuse them, and every row kept passes the seams
    c0, c1 = np.array([0.3, 1.5, 0.3, 0.6]), np.array([0.0, 0.0, 0.2, 0.9])  # phi(1) = 2.85 in the last
    constructor = "j_quadruples" if family == "j" else "c1_quadruples"
    quads = fam.j_quadruples(c0, c1) if family == "j" else fam.c1_quadruples(1.0, c0, c1)
    assert is_degenerate(quads[1]).tolist() == [True, True, False, False]
    draw = verify.draw_jsym if family == "j" else verify.draw_c1sym
    cfg = SuiteConfig()
    with monkeypatch.context() as patch:
        patch.setattr(fam, constructor, lambda *args: quads)
        keep, drawn = draw(np.random.default_rng(4), cfg, np.arange(4))
    assert keep.tolist() == [True, False, True, False]
    assert np.isfinite(wco_residual_stack(quads[0][keep], quads[1][keep], cfg.dim, cfg.block)["normality"]).all()
    with pytest.raises(NotSelfMapError, match="the constant"):
        wco_residual_stack(np.array([[1.0, 0.0, 1.0, 0.0]]), quads[1][1:2], cfg.dim, cfg.block)
    keep, drawn = draw(np.random.default_rng(4), cfg, np.arange(2000))
    assert 0 < keep.sum() < 2000 and np.all(keep == is_self_map(drawn["phi"]))
    assert np.isfinite(wco_residual_stack(drawn["psi"][keep], drawn["phi"][keep], cfg.dim, cfg.block)["normality"]).all()


def _mixed_probes(rng):
    """Probe stacks of every kind, rows in random order: Mobius and
    constant maps against no conjugation, J, C1 and C2, normality on and
    off; the three conjugations alone; the adjoint factorization.  63 rows
    (45 for the factorization): more than one piece at N = 384 and 389
    below, and a last chunk short of the row budget at every N but 389,
    where each chunk is one draw."""
    keep, _, psi, phi = verify._draw_c2_selfmap(rng, 60)
    interior = fam.interior_quadruples(0.3 - 0.2j, 0.5j, 1.2)
    psi = np.concatenate([psi[keep][:4], interior[0], [[0.75, 0.1, 1, -0.5], [1.0, 0.0, 1, 0.4j]]])
    phi = np.concatenate([phi[keep][:4], interior[1], [[0, 0.6 - 0.3j, 0, 1], [0, -0.2, 0, 1]]])
    psi, phi = np.tile(psi, (9, 1)), np.tile(phi, (9, 1))
    lam = np.exp(1j * rng.uniform(0.0, 2 * math.pi, len(psi)))
    alphas = {"J": np.zeros(len(psi)), "C1": np.exp(1j * rng.uniform(0.0, 2 * math.pi, len(psi))),
              "C2": 0.4 * np.sqrt(rng.uniform(0.05, 1.0, len(psi))) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, len(psi)))}
    probes = [Probe(psi, phi)]
    for kind, alpha in alphas.items():
        probes += [Probe(psi, phi, kind, lam, alpha, normality) for normality in (True, False)]
        probes.append(Probe(kind=kind, lam=lam, alpha=alpha))
    mobius = ~is_degenerate(phi)
    probes.append(Probe(phi=phi[mobius]))
    return [_rows_of(probe, rng.permutation(_count(probe))) for probe in probes]


def _count(probe):
    return len(probe.phi if probe.phi is not None else probe.lam)


def _rows_of(probe, rows):
    """The probe of the given rows (an index array or a slice)."""
    return probe._replace(**{name: getattr(probe, name)[rows] for name in ("psi", "phi", "lam", "alpha")
                             if getattr(probe, name) is not None})


def _keys(probe):
    if probe.phi is None:
        return ["involution", "isometry"]
    if probe.psi is None:
        return ["factorization", "flipped_sign"]
    return ["symmetry"] * (probe.kind is not None) + ["normality"] * probe.normality


def _spy_stacks(monkeypatch):
    """Lists that record, for every doubling run, its draws (its axis -3:
    the factorization doubles the blocks of a draw along a leading axis of
    their own) and, for every piece a seam prepares, (draws, n, k)."""
    runs, pieces = [], []
    real_double, real_chunked = operators._double, operators._chunked

    def double(run, step):
        runs.append(run.shape[-3])
        return real_double(run, step)

    def chunked(count, n, k, prepare, width):
        def spied(piece):
            pieces.append((len(range(count)[piece]), n, k))
            return prepare(piece)

        return real_chunked(count, n, k, spied, width)

    monkeypatch.setattr(operators, "_double", double)
    monkeypatch.setattr(operators, "_chunked", chunked)
    return runs, pieces


@pytest.mark.parametrize("dim", [48, 64, 96, 384, 389])
def test_stacked_measure_equals_single_draws(dim, monkeypatch):
    # every residual of a probe stack equals that row measured alone (a
    # stack of one), bit for bit, factorization probes included: the
    # probes span several pieces at N = 384 and 389, end in a partial chunk
    # and mix constant maps with Mobius maps; a probe of no rows still gives
    # each key an empty array
    probes = _mixed_probes(np.random.default_rng(dim))
    cfg = SuiteConfig(dim=dim)
    runs, pieces = _spy_stacks(monkeypatch)
    got = [verify.measure(cfg, probe) for probe in probes]
    size = STACK_ROWS // _run_rows(dim, cfg.block)
    assert runs and max(runs) == size and all(draws >= 1 for draws in runs)
    assert max(count for count, _, _ in pieces) == min(size * (cfg.block + 1), 63)
    assert sum(count for count, _, _ in pieces) == sum(map(_count, probes))
    for probe, residuals in zip(probes, got):
        assert list(residuals) == _keys(probe)
        for i in range(_count(probe)):
            alone = verify.measure(cfg, _rows_of(probe, slice(i, i + 1)))
            assert {key: r[i] for key, r in residuals.items()} == {key: r[0] for key, r in alone.items()}
        empty = verify.measure(cfg, _rows_of(probe, slice(0, 0)))
        assert list(empty) == _keys(probe) and all(r.shape == (0,) for r in empty.values())


def _run_rows(dim, block):
    """The most rows a seam's run fills a draw: min(dim, the least power of
    two >= 2 (block + 1)), 32 at block 12 and 64 at block 16."""
    return min(dim, {12: 32, 16: 64}[block])


def test_no_suite_stack_goes_over_the_row_budget(monkeypatch):
    # every doubling run of the suites' measure calls holds at most
    # max(1, STACK_ROWS // rows) draws, rows the most a run fills a draw,
    # and every piece a seam prepares at most block + 1 times that many, at
    # each suite's default dim and at 384
    runs, pieces = _spy_stacks(monkeypatch)
    interior, widest = None, {}
    for suite_id, suite in sorted(SUITES.items()):
        for dim in (suite.defaults.dim, 384):
            cfg = dataclasses.replace(suite.defaults, dim=dim, seed=3)
            size = max(1, STACK_ROWS // _run_rows(dim, cfg.block))
            runs.clear()
            pieces.clear()
            run_suite(suite_id, cfg)
            assert all(1 <= draws <= size for draws in runs), (suite_id, dim, runs)
            assert all(1 <= count <= (cfg.block + 1) * size for count, _, _ in pieces), (suite_id, dim, pieces)
            assert all((n, k) == (dim, cfg.block) for _, n, k in pieces), (suite_id, dim)
            widest[dim] = max([widest.get(dim, 0), *runs])
            if suite_id == "ex51-interior" and dim == suite.defaults.dim:
                interior = list(runs), list(pieces)
    # the block-12 suites fill 32 rows a draw at N = 64 and at 384
    assert widest[64] == STACK_ROWS // 32 and widest[384] == STACK_ROWS // 32
    # ex51-interior's 40 draws at N = 96, block 12, its constant maps (every
    # fourth index) among them: one piece (of at most 13 * 24), doubled in
    # chunks of 768 // 32 = 24 and 16, the first rows, the first columns
    # and the leading block of W each
    assert interior == ([24] * 3 + [16] * 3, [(40, 96, 12)])


@pytest.mark.parametrize("budget", [1, 10**6])
def test_chunking_never_moves_a_byte(budget, monkeypatch):
    # every suite report at its defaults is the same with one draw a chunk
    # and with a whole probe in one chunk (and one piece) as with the budget
    cfgs = {suite_id: dataclasses.replace(default_config(suite_id), seed=17) for suite_id in sorted(SUITES)}
    want = {suite_id: report_to_json(run_suite(suite_id, cfg)) for suite_id, cfg in cfgs.items()}
    monkeypatch.setattr(operators, "STACK_ROWS", budget)
    assert {suite_id: report_to_json(run_suite(suite_id, cfg)) for suite_id, cfg in cfgs.items()} == want


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


@pytest.mark.parametrize("value", [np.int64(3), fractions.Fraction(1, 3)])
def test_report_json_encodes_complex_alone(value):
    # a complex is the one value of a report that json cannot encode
    # itself; any other such value is refused, not written as some text
    cfg = SuiteConfig()
    one = verify._records(cfg, {"z": np.array([0.5 - 2j])})
    assert '"z":{"im":-2.0,"re":0.5}' in report_to_json(VerificationReport("hand-built", cfg, one))
    both = verify._records(cfg, {"z": [0.5 - 2j, verify._ABSENT], "x": [verify._ABSENT, value]})
    with pytest.raises(TypeError):
        report_to_json(VerificationReport("hand-built", cfg, both))


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
