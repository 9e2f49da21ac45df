#!/usr/bin/env python3
"""Run the four hyperbolic nonexistence sweeps and write CSV tables.

Usage:
    python scripts/hyperbolic_sweeps.py [--out sweeps/]

Each row records one hyperbolic target, the deficiency at the unique
preimage in the relevant symmetric family, and that preimage as the
witness parameters.  A deficiency at rounding level means the target is
realized by a symmetric normal operator, contradicting the claimed
nonexistence; those rows carry the verdict "discrepancy".
"""

import argparse
import pathlib
import sys

if __name__ == "__main__":  # run as a file: import the package from this checkout's src/
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from wcosym.cli import SWEEP_SUITES, sweep_to_csv  # noqa: E402
from wcosym.verify import run_suite  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="sweeps")
    args = parser.parse_args(argv)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    worst = 0
    for family, suite_id in SWEEP_SUITES.items():
        report = run_suite(suite_id)
        path = out_dir / f"{family}.csv"
        path.write_text(sweep_to_csv(report, family))
        minimum = min(r.residuals["deficiency"] for r in report.records)
        print(f"{family:18s} min deficiency {minimum:9.3e}  -> {path}")
        if report.exit_status == 3 and worst == 0:
            worst = 3
        elif report.exit_status == 1:
            worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
