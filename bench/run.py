#!/usr/bin/env python3
"""wcosym benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload default-suites --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer metrics of a traced run.  The workload runs in
its own process (bench/worker.py) with BLAS and OpenMP threads pinned to 1,
against the wcosym sources in the checkout's ``src/``.  ``setup_s`` is the
median over several fresh interpreters of the CLI cold start: importing
``wcosym.cli`` and checking the suite registry.  Half of the starts run
before the workload and half after it, so a short burst of load on the
host moves fewer of them.

A human-readable table goes first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without a wcosym checkout around it the script exits 2 and
prints no result.  ``--tiny`` shrinks the passes for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("default-suites", "oracle-n384", "kernel-conj-slow")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_STARTS = 10
SETUP_CODE = "import wcosym.cli, wcosym.verify; wcosym.verify.check_registry()"
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cmd, timeout: float) -> subprocess.CompletedProcess:
    """Run to completion; on timeout the child is killed and waited for."""
    return subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=max(timeout, 1.0)
    )


def setup_times(starts: int, deadline: float) -> list:
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        proc = run_child([sys.executable, "-c", SETUP_CODE], deadline - time.monotonic())
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{proc.stderr}")
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="one short pass (smoke test)")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "wcosym" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no wcosym checkout at {ROOT} (need src/wcosym and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    values = {}
    starts = 0 if args.trace else 2 if args.tiny else SETUP_STARTS
    try:
        setups = setup_times(starts // 2, deadline)
        cmd = [
            sys.executable,
            str(BENCH / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        proc = run_child(cmd, deadline - time.monotonic())
        if proc.returncode == 0:
            setups += setup_times(starts - starts // 2, deadline)
    except subprocess.TimeoutExpired as exc:
        print(f"timed out: {exc.cmd}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"worker exited with status {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if setups:
        values["setup_s"] = statistics.median(setups)
    values.update(result["metrics"])
    if set(values) != set(units):
        print(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  passes {result['passes']}  trace {args.trace}")
    if "pass_times" in result:
        print("  pass times (s): " + " ".join(f"{t:.3f}" for t in result["pass_times"]))
    for name in units:
        print(f"  {name:50s} {values[name]:>16.6g} {units[name]}")
    if not args.trace:
        # the shares themselves; their complements are the bounded metrics
        print(f"  {'failed_share':50s} {result['failed'] / result['attempted']:>16.6g} ratio")
        print(f"  {'inconclusive_share':50s} {result['inconclusive'] / max(result['records'], 1):>16.6g} ratio")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  known-defect failed {result['known_failed']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
