import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcosym import operators, verify
from wcosym.cli import (
    REPORT_SCHEMA,
    SWEEP_CSV_COLUMNS,
    format_complex,
    main,
    parse_complex,
    report_to_json,
)
from wcosym.errors import CliParseError, DomainViolationError
from wcosym.verify import SUITES, SuiteConfig, VerificationReport, default_config, run_suite

from conftest import reference_json, validate_report_dict


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3", 3.0),
            ("-0.5", -0.5),
            ("0.5i", 0.5j),
            ("i", 1j),
            ("-i", -1j),
            ("1+2i", 1 + 2j),
            ("0.25-0.75i", 0.25 - 0.75j),
            ("1e-3+2.5e-1i", 0.001 + 0.25j),
            ("(0.5+1i)", 0.5 + 1j),  # Python's grammar: parentheses and J too
            ("2J", 2j),
        ],
    )
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "abc", "1+2", "nan", "inf", "1i+2"])
    def test_rejects(self, text):
        with pytest.raises(CliParseError):
            parse_complex(text)

    @pytest.mark.parametrize("text", ["inf", "-inf", "infinity", "-Infinity", "nan", "1+infi", "(inf-2i)", "infj"])
    def test_infinite_literals_are_non_finite(self, text):
        # an i inside inf or infinity is no imaginary unit
        with pytest.raises(CliParseError, match="^non-finite complex literal"):
            parse_complex(text)

    def test_check_refuses_an_infinite_coefficient_as_non_finite(self, capsys):
        assert main(["check", "--family", "j", "--a0", "inf", "--a1", "0"]) == 2
        assert "non-finite complex literal 'inf'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", [0.0, 1.5, -2.25j, 0.1 + 0.2j, -1 / 3 - 1e-9j, 3e-15 + 7j]
    )
    def test_round_trip(self, value):
        assert parse_complex(format_complex(complex(value))) == complex(value)


class TestClassifyCommand:
    def test_hyperbolic(self, capsys):
        code = main(["classify", "--phi", "3,1,1,3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "HyperbolicAutomorphism" in out
        assert "0.5" in out

    def test_identity(self, capsys):
        assert main(["classify", "--phi", "1,0,0,1"]) == 0
        assert "Identity" in capsys.readouterr().out

    def test_parabolic(self, capsys):
        assert main(["classify", "--phi", "0,0.5,-0.5,1"]) == 0
        out = capsys.readouterr().out
        assert "ParabolicNonAutomorphism" in out

    def test_json_format(self, capsys):
        assert main(["classify", "--phi", "3,1,1,3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class"] == "HyperbolicAutomorphism"
        assert doc["sigma"]["b"]["re"] == pytest.approx(-1 / 3)

    def test_bad_input_exit_2(self, capsys):
        assert main(["classify", "--phi", "3,1,1"]) == 2
        assert main(["classify", "--phi", "2,0,0,1"]) == 2  # not a self-map
        assert main(["classify", "--phi", "x,y,z,w"]) == 2

    def test_constant_map(self, capsys):
        # (0, v, 0, d) is the constant v/d; it has no adjoint factorization, so no sigma
        assert main(["classify", "--phi", "0,0.6i,0,2"]) == 0
        out = capsys.readouterr().out
        assert "Constant" in out and "0.0+0.3i" in out
        assert out.splitlines()[-1].split() == ["sigma", "-"]
        assert main(["classify", "--phi", "0,0.6i,0,2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class"] == "Constant" and doc["sigma"] is None
        assert doc["dw_point"] == pytest.approx({"re": 0.0, "im": 0.3})

    def test_constant_outside_disk_exit_2(self, capsys):
        for phi in ("0,1,0,1", "0,0.9-0.9i,0,1", "0,3,0,2"):
            assert main(["classify", "--phi", phi]) == 2, phi
            assert "does not map the disk into itself" in capsys.readouterr().err, phi

    def test_degenerate_quadruple_is_a_constant(self, capsys):
        # ad - bc = 0: the constant b/d = 0.25, however the quadruple is written
        assert main(["classify", "--phi", "0.5,0.25,2,1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split() for line in (lines[0], lines[1], lines[-1])] == [
            ["class", "Constant"], ["dw", "point", "0.25"], ["sigma", "-"]
        ]

    @pytest.mark.parametrize("phi, value", [("1,2,1,2", "(1+0j)"), ("0,1,0,0", "(inf+0j)")])
    def test_degenerate_off_the_disk_exit_2(self, capsys, phi, value):
        assert main(["classify", "--phi", phi]) == 2
        assert capsys.readouterr().err == f"error: the constant {value} does not map the disk into itself\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--phi", "-1,0.5,-0.5,1"],
        ["check", "--family", "j", "--a0", "-0.5i", "--a1", "-0.25-0.75i", "--b", "-1"],
        ["check", "--family", "c1", "--alpha", "-i", "--c0", "-0.3i", "--c1", "-0.5", "--d", "-1"],
        ["check", "--family", "c2", "--alpha", "-0.5i", "--c0", "-0.6", "--c1", "0.36", "--c2", "-0.54", "--d", "-1"],
    ],
    ids=["classify", "check-j", "check-c1", "check-c2"],
)
def test_literal_starting_with_minus_in_both_forms(argv, capsys):
    # every complex literal or quadruple flag takes a value that starts with
    # '-' as the next argument, as it takes --flag=value
    assert main(argv) == 0
    spaced = capsys.readouterr()
    attached = argv[:1] + [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
    assert main(attached) == 0
    assert capsys.readouterr() == spaced and not spaced.err


class TestCheckCommand:
    def test_j_family_normal_instance(self, capsys):
        code = main(["check", "--family", "j", "--a0", "0.5i", "--a1", "0.75", "--b", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["predicates"]["normal"] is True
        assert doc["residuals"]["normality"] <= 1e-7
        assert doc["verdict"] == "pass"

    def test_c1_family_non_normal_instance(self, capsys):
        code = main(["check", "--family", "c1", "--alpha", "i", "--c0", "0.3", "--c1", "0.5"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["predicates"]["normal"] is False
        assert doc["residuals"]["normality"] >= 1e-3
        assert doc["verdict"] == "pass"

    def test_c2_case_i_instance(self, capsys):
        code = main(
            ["check", "--family", "c2", "--alpha", "0.5", "--c0", "0.6", "--c1", "0.36", "--c2", "0.54"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["predicates"]["case"] == "CaseI"
        # no truncation exists for these parameters; the coefficient-level
        # oracle must agree with the stated case
        assert doc["residuals"]["lft_commute_defect"] <= 1e-9
        assert doc["verdict"] == "pass"
        # case II worked example: phi degenerates to a constant map, so no
        # oracle applies and the verdict stays inconclusive
        code = main(
            ["check", "--family", "c2", "--alpha", "0.5", "--c0", "0.6", "--c1", "0.36", "--c2", "0.18"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["predicates"]["case"] == "CaseII"
        assert "lft_commute_defect" not in doc["residuals"] and doc["note"]
        assert doc["verdict"] == "inconclusive"

    def test_c2_check_reports_conjugation_residuals(self, capsys):
        # the involution, isometry and symmetry residuals of the C2 conjugation
        args = ["check", "--family", "c2", "--alpha=-0.36+0.28i", "--c0", "1.1+0.03i", "--c1=-0.25-0.4i"]
        assert main(args + ["--c2=-0.13-0.32i"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["residuals"]) == ["involution", "isometry", "normality", "symmetry"]
        assert doc["residuals"]["symmetry"] <= 1e-12 and "note" not in doc
        # no operator truncation: the involution and isometry are still reported
        assert main(["check", "--family", "c2", "--alpha", "0.5", "--c0", "0.6", "--c1", "0.36", "--c2", "0.54"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"involution", "isometry"} <= set(doc["residuals"])
        assert doc["note"].startswith("operator truncation unavailable")

    def test_c1_alpha_the_family_accepts_is_a_conjugation(self, capsys):
        # |alpha| - 1 = 1e-10: C1Params and the C1 conjugation share one
        # unimodularity tolerance, so the check runs to a verdict
        alpha = "0.7648421873609728+0.6442176873021128i"
        assert main(["check", "--family", "c1", "--alpha", alpha, "--c0", "0.3", "--c1", "0.2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["residuals"]["symmetry"] <= 1e-9 and doc["verdict"] == "pass"
        # past the tolerance the family refuses alpha before any conjugation is built
        assert main(["check", "--family", "c1", "--alpha", "0.76485+0.64422i", "--c0", "0.3", "--c1", "0.2"]) == 2
        assert "alpha must be unimodular" in capsys.readouterr().err

    def test_conjugation_override(self, capsys):
        # a J-family member tested against a C2 conjugation: a true
        # conjugation, but W is not symmetric against it
        args = ["check", "--family", "j", "--a0", "0.3", "--a1", "0.2", "--conjugation", "c2", "--alpha", "0.4"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        res = doc["residuals"]
        assert res["involution"] <= 1e-14 and res["isometry"] <= 1e-14
        assert 0.5 <= res["symmetry"] <= 0.55
        assert doc["params"] == {k: {"re": v, "im": 0.0} for k, v in (("a0", 0.3), ("a1", 0.2), ("b", 1.0))}
        assert doc["verdict"] == "pass"

    def test_c2_check_at_the_cap_reads_no_whole_w(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("whole W built")

        monkeypatch.setattr(operators, "_mobius_recurrence", refuse)
        args = ["check", "--family", "c2", "--alpha=-0.36+0.28i", "--c0", "1.1+0.03i", "--c1=-0.25-0.4i"]
        assert main(args + ["--c2=-0.13-0.32i", "--dim", "1024"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["residuals"]) == ["involution", "isometry", "normality", "symmetry"]
        assert doc["residuals"]["symmetry"] <= 1e-12 and doc["verdict"] == "pass"

    def test_domain_violation_exit_2(self, capsys):
        assert main(["check", "--family", "j", "--a0", "2", "--a1", "0"]) == 2
        # N outside 1..1024 is refused, not replaced by the default
        assert main(["check", "--family", "j", "--a0", "0.3", "--a1", "0.2", "--dim", "0"]) == 2
        assert main(["check", "--family", "j", "--a0", "0.5i", "--a1", "0.75", "--block", "-5"]) == 2
        assert main(["check", "--family", "j", "--a0", "0.5i", "--a1", "0.75", "--block", "1"]) == 2
        # tolerances every suite refuses: an inverted band, and NaN
        args = ["check", "--family", "j", "--a0", "0.3", "--a1", "0.2"]
        assert main(args + ["--pass-tol", "1", "--fail-tol", "1e-9"]) == 2
        assert main(args + ["--pass-tol", "nan"]) == 2
        # a C1 conjugation needs a unimodular alpha
        args = ["check", "--family", "c2", "--alpha", "0.5", "--c0", "0.6", "--c1", "0.36", "--c2", "0.54"]
        assert main(args + ["--conjugation", "c1"]) == 2
        assert "C1 needs |alpha| = 1" in capsys.readouterr().err


# the fixed-target sweeps and their target counts
SWEEP_TARGETS = {"ex42-sweep": 24, "ex43-sweep": 12, "ex52-sweep": 24, "ex53-sweep": 12, "ex62-sweep": 24}


class TestSuiteCommand:
    def test_passing_suite_exit_0(self, capsys, tmp_path):
        code = main(
            ["suite", "--id", "prop21-normal", "--seed", "7", "--samples", "10", "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "prop21-normal.json").read_text())
        assert validate_report_dict(doc) == []
        assert doc["summary"]["fail"] == 0

    def test_known_discrepancy_exit_3(self, capsys, tmp_path):
        code = main(["suite", "--id", "thm61-consistency", "--samples", "15", "--out", str(tmp_path)])
        assert code == 3
        doc = json.loads((tmp_path / "thm61-consistency.json").read_text())
        assert doc["known_discrepancy"] is True
        assert doc["summary"]["discrepancy"] >= 1

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["suite", "--id", "nope"]) == 2
        # below the suite's minimum dim: refused rather than silently raised
        assert main(["suite", "--id", "ex44-parabolic", "--dim", "64"]) == 2
        # an empty block would pass every draw vacuously; suites that build
        # no matrix refuse it too, rather than reporting block 0
        assert main(["suite", "--id", "prop21-normal", "--block", "0", "--samples", "3"]) == 2
        assert main(["suite", "--id", "lemma31-aut", "--block", "0"]) == 2
        # a 1 x 1 block decides no verdict: its (0, 0) entry vanishes for every J, C1 or C2 symmetric W
        assert main(["suite", "--id", "prop41-iff", "--block", "1", "--samples", "3"]) == 2
        # no draw at all would read as a clean pass
        for samples in ("0", "-3"):
            assert main(["suite", "--id", "prop21-normal", "--samples", samples]) == 2

    def test_dimension_cap_exit_2(self, capsys, monkeypatch):
        # the cap is checked before the first matrix, so no record is computed
        calls = []
        stub = lambda conjs, n, k: calls.append(conjs) or [(0.0, 0.0)] * len(conjs)
        monkeypatch.setattr(verify, "conjugation_residual_stack", stub)
        assert main(["suite", "--id", "conjugation-axioms", "--dim", "1025"]) == 2
        assert calls == []
        # a suite that builds no matrix must not report a dim past the cap
        assert main(["suite", "--id", "ex42-sweep", "--dim", "5000"]) == 2

    @pytest.mark.parametrize(
        "suite_id, status",
        [("ex42-sweep", 0), ("ex43-sweep", 0), ("ex52-sweep", 3), ("ex53-sweep", 0), ("ex62-sweep", 0)],
    )
    def test_fixed_target_sweep_refuses_other_samples(self, suite_id, status, capsys, tmp_path):
        # the targets are the whole sample: another count would be
        # reported beside that many records, so it is refused before any record
        count = SWEEP_TARGETS[suite_id]
        out = tmp_path / f"{suite_id}.json"
        for samples in (5, count + 1):
            assert main(["suite", "--id", suite_id, "--samples", str(samples), "--out", str(tmp_path)]) == 2
            assert f"{count} targets" in capsys.readouterr().err
        assert not out.exists()
        assert main(["suite", "--id", suite_id, "--samples", str(count), "--out", str(tmp_path)]) == status
        report = json.loads(out.read_text())
        assert report["config"]["samples"] == len(report["records"]) == count

    def test_determinism_across_processes(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for path in (a, b):
            assert main(
                ["suite", "--id", "cor41-aut", "--seed", "11", "--samples", "8", "--out", str(path)]
            ) == 0
        assert (a / "cor41-aut.json").read_bytes() == (b / "cor41-aut.json").read_bytes()

    def test_id_and_all_are_one_required_choice(self, capsys):
        for argv in (["suite"], ["suite", "--id", "prop21-normal", "--all"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


@pytest.fixture(scope="module")
def all_suites(tmp_path_factory):
    """One `suite --all --out DIR` run at the default seeds: (exit status, DIR)."""
    out = tmp_path_factory.mktemp("all")
    return main(["suite", "--all", "--out", str(out)]), out


class TestSuiteAll:
    def test_writes_every_report_and_sweep_table(self, all_suites):
        code, out = all_suites
        assert code == 3
        assert sorted(p.stem for p in out.glob("*.json")) == sorted(SUITES)
        assert sorted(p.name for p in out.glob("*.csv")) == sorted(f"{s}.csv" for s in SWEEP_TARGETS)
        tables = {}
        for suite_id, count in SWEEP_TARGETS.items():
            text = (out / f"{suite_id}.csv").read_text()
            # the fixed header the README documents
            assert text.startswith("family,r,t_re,t_im,deficiency,verdict,w1_name,w1_re,w1_im,")
            tables[suite_id] = list(csv.DictReader(text.splitlines()))
            assert list(tables[suite_id][0]) == SWEEP_CSV_COLUMNS
            assert len(tables[suite_id]) == count, suite_id
        aut_rows = [row for row in tables["ex52-sweep"] if float(row["t_re"]) == 0.0]
        assert len(aut_rows) == 12
        assert all(row["verdict"] == "discrepancy" for row in aut_rows)

    def test_reports_match_single_suite_runs(self, all_suites, tmp_path, capsys):
        _, out = all_suites
        for suite_id in sorted(SUITES):
            main(["suite", "--id", suite_id, "--out", str(tmp_path)])
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in out.iterdir())
        for path in tmp_path.iterdir():
            assert path.read_bytes() == (out / path.name).read_bytes(), path.name

    def test_names_each_report_by_its_id(self, tmp_path, capsys):
        # one draw per suite; the documented Findings of ex52-sweep keep it at 3
        assert main(["suite", "--all", "--samples", "1", "--out", str(tmp_path)]) == 3
        reports = sorted(tmp_path.glob("*.json"))
        assert len(reports) == len(SUITES) == 27
        for path in reports:
            doc = json.loads(path.read_text())
            assert doc["suite_id"] == path.stem
            # a fixed-target sweep keeps its own count
            assert doc["config"]["samples"] == SWEEP_TARGETS.get(path.stem, 1)
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("suite ") for line in lines) == 27
        assert lines[-1].startswith("total [") and lines[-1].endswith("s]")

    def test_refused_suite_counts_as_2_and_the_run_goes_on(self, tmp_path, capsys, monkeypatch):
        def refuse(rng, cfg, idx):
            raise DomainViolationError("refused draw")

        suite = SUITES["cor41-aut"]
        monkeypatch.setitem(SUITES, "cor41-aut", verify.Suite(refuse, suite.record, suite.defaults))
        assert main(["suite", "--all", "--samples", "1", "--out", str(tmp_path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error: cor41-aut: refused draw"]
        assert len(list(tmp_path.glob("*.json"))) == 26
        assert not (tmp_path / "cor41-aut.json").exists()

    def test_exhausted_sampler_counts_as_1_and_the_run_goes_on(self, tmp_path, capsys, monkeypatch):
        def never(rng, cfg, idx):
            return np.zeros(len(idx), dtype=bool), {"alpha": np.zeros(len(idx), dtype=complex)}

        suite = SUITES["cor41-aut"]
        monkeypatch.setitem(SUITES, "cor41-aut", verify.Suite(never, suite.record, suite.defaults))
        assert main(["suite", "--all", "--samples", "1", "--out", str(tmp_path)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: cor41-aut: suite cor41-aut: indices [0] still open")
        assert len(list(tmp_path.glob("*.json"))) == 26
        assert main(["suite", "--id", "cor41-aut", "--samples", "1"]) == 1

    def test_other_exceptions_propagate(self, tmp_path, capsys, monkeypatch):
        def crash(rng, cfg, idx):
            raise RuntimeError("not a refusal")

        suite = SUITES["cor41-aut"]
        monkeypatch.setitem(SUITES, "cor41-aut", verify.Suite(crash, suite.record, suite.defaults))
        with pytest.raises(RuntimeError, match="not a refusal"):
            main(["suite", "--all", "--samples", "1", "--out", str(tmp_path)])


class TestSweepCommand:
    def test_passing_sweep(self, capsys, tmp_path):
        code = main(["suite", "--id", "ex42-sweep", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "ex42-sweep.csv").read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
        assert len(lines) > 1
        for line in lines[1:]:
            deficiency = float(line.split(",")[4])
            assert deficiency >= 1e-3

    @pytest.mark.parametrize("suite_id", sorted(SWEEP_TARGETS))
    def test_sweep_reports_its_registry_suite(self, capsys, tmp_path, suite_id):
        # the sweep writes its report and table, and the report carries the
        # config that ran: its registry entry's
        main(["suite", "--id", suite_id, "--out", str(tmp_path)])
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{suite_id}.csv", f"{suite_id}.json"]
        doc = json.loads((tmp_path / f"{suite_id}.json").read_text())
        assert doc["config"] == dataclasses.asdict(verify.default_config(suite_id))

    def test_suite_names_its_registry_id(self, capsys):
        # ex53 runs the same sweep as ex43 but reports under its own id
        assert main(["suite", "--id", "ex53-sweep"]) == 0
        assert capsys.readouterr().out.startswith("suite ex53-sweep: total=12 ")

    @pytest.mark.parametrize("suite_id", sorted(SWEEP_TARGETS))
    def test_csv_family_column(self, capsys, tmp_path, suite_id):
        main(["suite", "--id", suite_id, "--out", str(tmp_path)])
        rows = list(csv.DictReader((tmp_path / f"{suite_id}.csv").read_text().splitlines()))
        assert rows and all(row["family"] == suite_id for row in rows)
        if suite_id == "ex62-sweep":  # the alpha-free spread has no witness
            witness = [c for c in SWEEP_CSV_COLUMNS if c.startswith("w")]
            assert all(row[c] == "" for row in rows for c in witness)

    def test_unknown_family_exits_2(self, capsys, tmp_path):
        # a sweep's family is now its suite id
        assert main(["suite", "--id", "elliptic-sweep", "--out", str(tmp_path)]) == 2
        assert "error: elliptic-sweep: unknown suite id" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_c1_sweep_documents_discrepancy(self, capsys, tmp_path):
        code = main(["suite", "--id", "ex52-sweep", "--out", str(tmp_path)])
        assert code == 3
        rows = (tmp_path / "ex52-sweep.csv").read_text().splitlines()[1:]
        assert any("discrepancy" in row for row in rows)


def test_print_schema(capsys):
    assert main(["--print-schema"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == REPORT_SCHEMA["version"]


def test_suites_listing(capsys):
    assert main(["suites"]) == 0
    out = capsys.readouterr().out.split()
    assert "prop21-normal" in out and "thm61-consistency" in out


def test_no_command_exits_2(capsys):
    assert main([]) == 2


class TestReportWriter:
    """cli.report_to_json writes a report column by column; its text is
    the reference encoding, json.dumps of the materialized records, byte
    for byte, and it refuses what json refuses."""

    @pytest.mark.parametrize("seed", [0, 2024])
    @pytest.mark.parametrize("suite_id", sorted(SUITES))
    def test_suite_reports_match_the_reference(self, suite_id, seed):
        report = run_suite(suite_id, dataclasses.replace(default_config(suite_id), seed=seed))
        assert report_to_json(report) == reference_json(report)

    FLOATS = st.one_of(
        st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 1e-5]),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    CELLS = st.one_of(
        FLOATS,
        st.builds(complex, FLOATS, FLOATS),
        st.integers(),
        st.booleans(),
        st.none(),
        st.text(alphabet=st.sampled_from('"\\%{}:,aZ\x00\x1f\x7f\xe9\u2028\U0001f600'), max_size=6),
        st.just(verify._ABSENT),
    )
    KEYS = st.text(alphabet=st.sampled_from('"\\%ab_\x01\xe9'), max_size=3)

    @staticmethod
    def groups(count):
        columns = st.lists(TestReportWriter.CELLS, min_size=count, max_size=count)
        return st.dictionaries(TestReportWriter.KEYS, columns, max_size=3)

    @settings(max_examples=300)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
        *(TestReportWriter.groups(n) for _ in range(4)), st.text(max_size=4),
    )))
    def test_edge_cells_match_the_reference(self, drawn):
        # NaN, infinities, -0.0, the least subnormal, exponents; ints,
        # bools and None; quotes, backslashes, %, braces, control and
        # non-ASCII characters in cells and keys; complex values with
        # non-finite parts; empty groups, absent cells and rows whose key
        # sets differ; columns that mix floats and complex values
        first, params, residuals, predicates, oracles, suite_id = drawn
        cfg = SuiteConfig()
        table = verify._records(cfg, {"": first, **params}, residuals=residuals, predicates=predicates, oracles=oracles)
        report = VerificationReport(suite_id, cfg, table)
        assert report_to_json(report) == reference_json(report)

    @pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), np.array([1.0]), object()])
    def test_refuses_what_json_refuses(self, value):
        cfg = SuiteConfig()
        table = verify._records(cfg, {"x": [0.5, 1.5]}, predicates={"v": [True, value]})
        with pytest.raises(TypeError):
            reference_json(VerificationReport("hand-built", cfg, table))
        with pytest.raises(TypeError):
            report_to_json(VerificationReport("hand-built", cfg, table))

    def test_numpy_floats_are_floats(self):
        # a float subclass is written as float.__repr__ writes it, as json does
        cfg = SuiteConfig()
        table = verify._records(cfg, {"x": [np.float64(0.1), 1.0]}, predicates={"v": [np.float64("nan"), 2.5]})
        report = VerificationReport("hand-built", cfg, table)
        assert report_to_json(report) == reference_json(report)
