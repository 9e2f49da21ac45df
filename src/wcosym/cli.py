"""Command-line interface and report serializers.

Exit codes: 0 pass, 1 internal error, 2 bad input, 3 known-discrepancy
(a suite whose only disagreements are the documented ones).  Reports are
deterministic: identical seeds produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import pathlib
import re
import sys
import time
from dataclasses import asdict, fields, replace
from typing import Dict, List, Optional

from .errors import CliParseError, SamplingBudgetError, WcoError
import numpy as np

from .families import (
    C1Params,
    C2NormalCase,
    C2Params,
    JParams,
    c1_normal_predicate,
    c1_quadruples,
    c2_normal_predicate,
    c2_quadruples,
    j_normal_predicate,
    j_quadruples,
)
from .mobius import MapClass, canonical_quadruple, classify, cowen_stack, is_constant
from .verify import (
    Probe,
    SuiteConfig,
    SUITES,
    VerificationReport,
    _record,
    check_registry,
    default_config,
    lft_oracle,
    measure,
    run_suite,
)

SCHEMA_VERSION = 1

REPORT_SCHEMA = {
    "version": SCHEMA_VERSION,
    "type": "object",
    "required": ["schema_version", "suite_id", "config", "records", "summary"],
    "properties": {
        "schema_version": {"type": "integer"},
        "suite_id": {"type": "string"},
        "known_discrepancy": {"type": "boolean"},
        "config": {
            "type": "object",
            "required": ["dim", "block", "samples", "seed", "pass_tol", "fail_tol", "pred_tol"],
        },
        "records": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["index", "params", "residuals", "predicates", "oracles", "verdict"],
                "verdicts": ["pass", "fail", "inconclusive", "discrepancy"],
            },
        },
        "summary": {
            "type": "object",
            "required": ["pass", "fail", "inconclusive", "discrepancy", "total"],
        },
    },
}

_NUM = r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?"
_RE_REAL = re.compile(rf"^\s*(?P<re>[+-]?{_NUM})\s*$")
_RE_IMAG = re.compile(rf"^\s*(?P<sign>[+-])?(?P<mag>{_NUM})?[ij]\s*$")
_RE_BOTH = re.compile(
    rf"^\s*(?P<re>[+-]?{_NUM})(?P<sign>[+-])(?P<mag>{_NUM})?[ij]\s*$"
)


def parse_complex(text: str) -> complex:
    """Parse the literal grammar a+bi / a-bi / a / bi (j accepted for i)."""
    m = _RE_REAL.match(text)
    if m:
        value = complex(float(m.group("re")), 0.0)
    else:
        m = _RE_IMAG.match(text)
        if m:
            mag = float(m.group("mag")) if m.group("mag") else 1.0
            value = complex(0.0, -mag if m.group("sign") == "-" else mag)
        else:
            m = _RE_BOTH.match(text)
            if not m:
                raise CliParseError(f"cannot parse complex literal {text!r}")
            mag = float(m.group("mag")) if m.group("mag") else 1.0
            value = complex(
                float(m.group("re")), -mag if m.group("sign") == "-" else mag
            )
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise CliParseError(f"non-finite complex literal {text!r}")
    return value


def format_complex(z: complex) -> str:
    """Literal that reparses to the identical value."""
    re_s = repr(float(z.real))
    if z.imag == 0.0:
        return re_s
    im = float(z.imag)
    sign = "+" if im >= 0 else "-"
    return f"{re_s}{sign}{repr(abs(im))}i"


def _json_default(value):
    """What json cannot encode itself: a complex as {"re", "im"}, a numpy
    scalar as its Python value, anything else as its str."""
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def _to_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_json_default) + "\n"


def report_to_dict(report: VerificationReport) -> Dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "suite_id": report.suite_id,
        "known_discrepancy": report.known_discrepancy,
        "config": asdict(report.config),
        "records": [
            {
                "index": i,
                "params": r.params,
                "residuals": r.residuals,
                "predicates": r.predicates,
                "oracles": r.oracles,
                "verdict": r.verdict,
                "note": r.note,
            }
            for i, r in enumerate(report.records)
        ],
        "summary": report.summary,
    }


def report_to_json(report: VerificationReport) -> str:
    return _to_json(report_to_dict(report))


def validate_report_dict(doc: Dict) -> List[str]:
    """Structural validation against the embedded schema; returns problems."""
    problems = []
    for key in REPORT_SCHEMA["properties"]["config"]["required"]:
        if key not in doc.get("config", {}):
            problems.append(f"config missing {key}")
    for key in REPORT_SCHEMA["required"]:
        if key not in doc:
            problems.append(f"missing top-level {key}")
    for rec in doc.get("records", []):
        for key in REPORT_SCHEMA["properties"]["records"]["items"]["required"]:
            if key not in rec:
                problems.append(f"record {rec.get('index')} missing {key}")
        if rec.get("verdict") not in ("pass", "fail", "inconclusive", "discrepancy"):
            problems.append(f"record {rec.get('index')} bad verdict {rec.get('verdict')!r}")
    summary = doc.get("summary", {})
    if summary:
        counted = sum(summary.get(k, 0) for k in ("pass", "fail", "inconclusive", "discrepancy"))
        if counted != summary.get("total"):
            problems.append("summary counts do not sum to total")
    return problems


SWEEP_CSV_COLUMNS = [
    "family",
    "r",
    "t_re",
    "t_im",
    "deficiency",
    "verdict",
    "w1_name",
    "w1_re",
    "w1_im",
    "w2_name",
    "w2_re",
    "w2_im",
    "w3_name",
    "w3_re",
    "w3_im",
]


def sweep_to_csv(report: VerificationReport) -> str:
    """Fixed-column CSV, one row per target under the report's suite id;
    complex witness parameters split into re/im pairs."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    for rec in report.records:
        t = complex(rec.params.get("t", 0.0))
        r = complex(rec.params.get("r", 0.0)).real
        row = [
            report.suite_id,
            repr(float(r)),
            repr(t.real),
            repr(t.imag),
            repr(rec.residuals.get("deficiency", rec.residuals.get("normality", float("nan")))),
            rec.verdict,
        ]
        witnesses = [(k, v) for k, v in rec.params.items() if k not in ("r", "t")][:3]
        for name, value in witnesses:
            z = complex(value)
            row += [name, repr(z.real), repr(z.imag)]
        row += [""] * (len(SWEEP_CSV_COLUMNS) - len(row))
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _write_output(text: str, path: Optional[str]):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_classify(args) -> int:
    coeffs = [parse_complex(p) for p in args.phi.split(",")]
    if len(coeffs) != 4:
        raise CliParseError("--phi needs four comma-separated coefficients a,b,c,d")
    cls = classify(coeffs)
    constant = cls.map_class is MapClass.CONSTANT  # a constant has no adjoint factorization
    sigma = None if constant else canonical_quadruple(cowen_stack(np.array([canonical_quadruple(coeffs)]))[1][0])
    doc = {
        "class": cls.map_class.value,
        "dw_point": cls.dw_point,
        "dw_derivative": cls.dw_derivative,
        "is_automorphism": cls.is_automorphism,
        "sigma": None if sigma is None else dict(zip("abcd", sigma)),
    }
    if args.format == "json":
        _write_output(_to_json(doc), args.out)
    else:
        lines = [
            f"class            {cls.map_class.value}",
            f"dw point         {format_complex(cls.dw_point) if cls.dw_point is not None else '-'}",
            f"dw derivative    {format_complex(cls.dw_derivative) if cls.dw_derivative is not None else '-'}",
            f"automorphism     {'yes' if cls.is_automorphism else 'no'}",
            "sigma            " + ("-" if sigma is None else "({}) z + ({}) over ({}) z + ({})".format(
                *map(format_complex, sigma)
            )),
        ]
        _write_output("\n".join(lines) + "\n", args.out)
    return 0


# the parameters of each `check --family`; every field is read from the flag of its name
CHECK_PARAMS = {"j": JParams, "c1": C1Params, "c2": C2Params}


def _check_family(args):
    # SuiteConfig owns the dimension and tolerance rules: refuse what every suite refuses
    cfg = SuiteConfig(dim=args.dim, block=args.block, pass_tol=args.pass_tol, fail_tol=args.fail_tol)
    param_type = CHECK_PARAMS[args.family]
    params = param_type(*(parse_complex(getattr(args, f.name)) for f in fields(param_type)))
    out: Dict[str, object] = {"family": args.family, "params": asdict(params)}
    if args.family == "j":
        psi, phi = j_quadruples(params.a0, params.a1, params.b)
        kind, alpha = "J", 0.0
        pred: Dict[str, object] = {"normal": j_normal_predicate(params.a0, params.a1)}
    elif args.family == "c1":
        psi, phi = c1_quadruples(params.alpha, params.c0, params.c1, params.d)
        kind, alpha = "C1", params.alpha
        pred = {"normal": c1_normal_predicate(params.alpha, params.c0, params.c1)}
    else:
        psi, phi = c2_quadruples(params)
        kind, alpha = "C2", params.alpha
        case = c2_normal_predicate(params)
        pred = {"case": case.value, "normal": case != C2NormalCase.NOT_NORMAL}
    if args.conjugation:
        kind = args.conjugation.upper()
        alpha = parse_complex(args.alpha) if kind != "J" else 0.0
    # a stack of one draw: the conjugation alone, then the operator against it
    conj = {"kind": kind, "lam": np.ones(1, dtype=complex), "alpha": np.array([alpha], dtype=complex)}
    residuals: Dict[str, object] = {key: float(r[0]) for key, r in measure(cfg, Probe(**conj)).items()}
    try:
        residuals.update({key: float(r[0]) for key, r in measure(cfg, Probe(psi, phi, **conj)).items()})
    except WcoError as exc:
        out["note"] = f"operator truncation unavailable: {exc}"
    oracle, decided = {}, {}
    if "normality" in residuals:
        oracle = {"normality": residuals["normality"]}
    elif is_constant(phi)[0]:
        decided = {"lft": None}  # no truncation and no coefficient-level oracle: undecided
    else:
        # coefficient-level oracle for symbols without a usable truncation
        (lft,) = lft_oracle(phi, cfg.pred_tol)
        residuals["lft_modulus_gap"] = lft["modulus_gap"]
        residuals["lft_commute_defect"] = lft["commute_defect"]
        decided = {"lft": lft["normal"]}
    out["residuals"] = residuals
    out["predicates"] = pred
    out["verdict"] = _record(cfg, out["params"], oracle, bool(pred.get("normal")), decided=decided).verdict
    return out


def cmd_check(args) -> int:
    out = _check_family(args)
    _write_output(_to_json(out), args.out)
    return 0


def _human_summary(report: VerificationReport) -> str:
    s = report.summary
    lines = [
        f"suite {report.suite_id}: total={s['total']} pass={s['pass']} "
        f"fail={s['fail']} inconclusive={s['inconclusive']} discrepancy={s['discrepancy']}"
    ]
    for i, rec in enumerate(report.records):
        if rec.verdict in ("fail", "discrepancy"):
            params = json.dumps(rec.params, default=_json_default)
            lines.append(f"  [{i}] {rec.verdict}: params={params} note={rec.note}")
    return "\n".join(lines) + "\n"


# exit statuses from least to most severe: clean, known discrepancy, bad input, internal error
_SEVERITY = (0, 3, 2, 1)


def cmd_suite(args) -> int:
    """Run the suite --id names, or with --all every registered suite in
    sorted order.  --out DIR receives each report as DIR/<id>.json, and a
    fixed-target sweep's table as DIR/<id>.csv.  With --all a fixed-target
    sweep keeps its own samples count.  A suite refused as bad input prints
    its error and counts as 2, one whose sampler runs out of budget counts
    as 1, and the run goes on; the exit status is the most severe over the
    suites run."""
    if args.all:
        check_registry()  # a full run covers every anchored statement
    flags = {key: getattr(args, key) for key in ("seed", "samples", "dim", "block")}
    flags = {key: value for key, value in flags.items() if value is not None}
    sweep_flags = {key: value for key, value in flags.items() if key != "samples"}
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    statuses = []
    start = time.perf_counter()
    for suite_id in sorted(SUITES) if args.all else [args.id]:
        try:
            suite_flags = sweep_flags if args.all and SUITES[suite_id].fixed_samples else flags
            report = run_suite(suite_id, replace(default_config(suite_id), **suite_flags))
        except (WcoError, ValueError, SamplingBudgetError) as exc:
            sys.stderr.write(f"error: {suite_id}: {exc}\n")
            statuses.append(1 if isinstance(exc, SamplingBudgetError) else 2)
            continue
        if out_dir:
            (out_dir / f"{suite_id}.json").write_text(report_to_json(report), encoding="utf-8")
            if SUITES[suite_id].fixed_samples:
                (out_dir / f"{suite_id}.csv").write_text(sweep_to_csv(report), encoding="utf-8")
        sys.stdout.write(_human_summary(report))
        statuses.append(report.exit_status)
    sys.stdout.write(f"total [{time.perf_counter() - start:.1f}s]\n")
    return max(statuses, key=_SEVERITY.index)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcosym",
        description="Weighted composition operators on the disk: classification, "
        "symmetry and normality checks, verification suites.",
    )
    parser.add_argument("--print-schema", action="store_true", help="print the report schema and exit")
    sub = parser.add_subparsers(dest="command")

    p_cls = sub.add_parser("classify", help="classify a linear-fractional self-map")
    p_cls.add_argument("--phi", required=True, help="coefficients a,b,c,d of (az+b)/(cz+d)")
    p_cls.add_argument("--format", choices=("human", "json"), default="human")
    p_cls.add_argument("--out")
    p_cls.set_defaults(func=cmd_classify)

    p_chk = sub.add_parser("check", help="symmetry/normality check of one family member")
    p_chk.add_argument("--family", required=True, choices=tuple(CHECK_PARAMS))
    p_chk.add_argument("--a0", default="0")
    p_chk.add_argument("--a1", default="0")
    p_chk.add_argument("--b", default="1")
    p_chk.add_argument("--alpha", default="1")
    p_chk.add_argument("--c0", default="0")
    p_chk.add_argument("--c1", default="0")
    p_chk.add_argument("--c2", default="0")
    p_chk.add_argument("--d", default="1")
    p_chk.add_argument("--conjugation", choices=("j", "c1", "c2"), help="override the tested conjugation kind")
    p_chk.add_argument("--dim", type=int, default=SuiteConfig.dim)
    p_chk.add_argument("--block", type=int, default=SuiteConfig.block)
    p_chk.add_argument("--pass-tol", dest="pass_tol", type=float, default=SuiteConfig.pass_tol)
    p_chk.add_argument("--fail-tol", dest="fail_tol", type=float, default=SuiteConfig.fail_tol)
    p_chk.add_argument("--out")
    p_chk.set_defaults(func=cmd_check)

    p_suite = sub.add_parser("suite", help="run one or every registered verification suite")
    which = p_suite.add_mutually_exclusive_group(required=True)
    which.add_argument("--id", help="the registered suite to run")
    which.add_argument("--all", action="store_true", help="run every registered suite")
    p_suite.add_argument("--seed", type=int)
    p_suite.add_argument("--samples", type=int)
    p_suite.add_argument("--dim", type=int)
    p_suite.add_argument("--block", type=int)
    p_suite.add_argument("--out", help="write DIR/<id>.json per suite, and DIR/<id>.csv per fixed-target sweep")
    p_suite.set_defaults(func=cmd_suite)

    p_ls = sub.add_parser("suites", help="list registered suite ids")
    p_ls.set_defaults(func=lambda args: (sys.stdout.write("\n".join(sorted(SUITES)) + "\n"), 0)[1])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_schema:
        sys.stdout.write(json.dumps(REPORT_SCHEMA, sort_keys=True, indent=2) + "\n")
        return 0
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (WcoError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
