"""Smoke test of the benchmark itself.

Run from the root of a checkout:

    python3 bench/smoke_test.py        (or: python3 -m pytest bench/smoke_test.py)

Each workload runs at the tiny size, untraced and traced, and must finish,
report correct output and emit exactly the metric names BENCHMARK.json
declares.  A traced run must write spans from every layer its workload
loads (default-suites loads all six) and its layer self times must cover
the traced pass time to within 5%.  The known prop22 defect must show as
failed draws, and the benchmark must refuse to run without a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

LOADED_LAYERS = {
    "default-suites": {"series", "mobius", "families", "operators", "verify", "cli"},
    "oracle-n384": {"series", "mobius", "families", "operators", "verify"},
    "kernel-conj-slow": {"series", "mobius", "operators"},
}
SEED = 1


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] >= 0
    return result


def _check_metrics(result: dict, declared: list) -> None:
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float), m["name"]


def test_end_to_end_metrics():
    for workload in WORKLOADS:
        result = _result(_run(workload, 0))
        _check_metrics(result, SPEC["end_to_end"])
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0.0, (workload, m["name"])


def test_traced_run():
    for workload in WORKLOADS:
        result = _result(_run(workload, 1))
        _check_metrics(result, SPEC["per_layer"])
        share = result["metrics"]["trace.self_share"]["value"]
        assert 0.95 <= share <= 1.0 + 1e-9, (workload, share)
        spans = (ROOT / ".bench_out" / f"spans-{workload}-seed{SEED}.jsonl").read_text().splitlines()
        names = {json.loads(line)[2] for line in spans[1:]}
        layers = {name.split(".", 1)[0] for name in names}
        assert LOADED_LAYERS[workload] <= layers, (workload, sorted(layers))


def test_known_defect_counts_as_failed():
    """prop22-commutation raises on suite seed 0 and completes on 2024."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import worker
    finally:
        del sys.path[:2]
    crashed = worker.default_suites(0, tiny=False)
    assert crashed.known_failed == 60 and crashed.failed >= 60, crashed
    assert crashed.attempted > crashed.failed and not crashed.problems, crashed.problems
    clean = worker.default_suites(2024, tiny=False)
    assert clean.known_failed == 0 and clean.failed == 0 and not clean.problems, clean.problems


def test_refuses_without_checkout():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
