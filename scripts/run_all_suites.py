#!/usr/bin/env python3
"""Run every registered verification suite and write the JSON reports.

Usage:
    python scripts/run_all_suites.py [--out reports/] [--seed N] [--samples M]

Exit status: 0 when everything passes, 3 when the only disagreements are
the documented ones, 1 otherwise, and 2 for a --samples below 1.  A suite
that raises is reported as ERROR with its exception, counts as 1, and the
run goes on to the next.  --samples is not applied to the sweeps that
decide a fixed target set (ex42, ex43, ex52, ex53, ex62), which refuse any
other count.
"""

import argparse
import dataclasses
import pathlib
import sys
import time
import traceback

if __name__ == "__main__":  # run as a file: import the package from this checkout's src/
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from wcosym.cli import report_to_json  # noqa: E402
from wcosym.verify import SUITES, check_registry, default_config, run_suite  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="reports")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--samples", type=int)
    args = parser.parse_args(argv)

    check_registry()
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    worst = 0
    start = time.perf_counter()
    for suite_id in sorted(SUITES):
        cfg = default_config(suite_id)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.samples is not None and not SUITES[suite_id].fixed_samples:
            try:
                cfg = dataclasses.replace(cfg, samples=args.samples)
            except ValueError as exc:
                parser.error(str(exc))
        t0 = time.perf_counter()
        try:
            report = run_suite(suite_id, cfg)
        except Exception as exc:
            traceback.print_exc()
            print(f"{suite_id:24s} ERROR {type(exc).__name__}: {exc}")
            worst = 1
            continue
        (out_dir / f"{suite_id}.json").write_text(report_to_json(report))
        s = report.summary
        status = {0: "ok", 3: "known-discrepancy"}.get(report.exit_status, "FAIL")
        print(
            f"{suite_id:24s} {status:18s} pass={s['pass']:4d} fail={s['fail']:3d} "
            f"inconclusive={s['inconclusive']:3d} discrepancy={s['discrepancy']:3d} "
            f"[{time.perf_counter() - t0:5.1f}s]"
        )
        if report.exit_status == 1:
            worst = 1
        elif report.exit_status == 3 and worst == 0:
            worst = 3
    print(f"reports written to {out_dir}/")
    print(f"total [{time.perf_counter() - start:.1f}s]")
    return worst


if __name__ == "__main__":
    sys.exit(main())
