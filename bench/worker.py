"""One benchmark workload, measured inside a single process.

run.py starts this file with BLAS and OpenMP threads pinned to 1 and the
checkout's ``src/`` first on PYTHONPATH.  It prints one JSON object: the
raw end-to-end figures (``--trace 0``) or the per-layer figures of a
traced run (``--trace 1``).  run.py adds ``setup_s`` and the units.

Every pass draws fresh inputs: pass ``j`` of seed ``s`` uses the suite /
generator seed ``pass_seed(s, j)``.  Pass 0 is the warm-up and is dropped.
A run makes a fixed number of timed passes, sized from ``--seconds`` by
the workload's nominal pass time, so ``attempted`` and ``failed`` depend
only on the seed and never on how fast the host happens to be.
The benchmark reaches wcosym only through public functions, looked up on
their modules at call time so that the traced run's wrappers see the calls.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

import wcosym
from wcosym import cli, operators, verify
from wcosym.errors import NotSelfMapError

import tracing

ROOT = Path(__file__).resolve().parent.parent

# ex52-sweep and thm61-consistency report the documented Findings as
# discrepancies, so exit status 3 is their correct output; every other
# suite must exit 0.
EXPECTED_EXIT = {"ex52-sweep": 3, "thm61-consistency": 3}

# Known defect: prop22-commutation's kind-2 draws take j_symbols(...).phi
# without rejecting non-self-maps, so build_wco raises NotSelfMapError on
# most seeds.  Its requested draws count as failed (they show in
# ok_share) but do not make the output incorrect.  The fix belongs in
# verify.py.
KNOWN_DEFECT_SUITE = "prop22-commutation"

# oracle-n384: the matrix-oracle suites at the ROADMAP's oracle scale.
# prop22-commutation is left out because prop21-normal already loads the
# same normality residual; N = 1024 is left out because one fast-decay
# build there takes seconds and would swamp every pass.
ORACLE_DIM = 384
ORACLE_SAMPLES = {
    "prop21-normal": 8,
    "jsym-form": 5,
    "c1sym-form": 5,
    "c2sym-form": 5,
    "conjugation-axioms": 5,
    "cowen-factorization": 1,
}

# kernel-conj-slow: C2 conjugations whose coefficients decay like
# |alpha|^k and never underflow; the tolerance is conjugation-axioms' C2 one.
KERNEL_DIM = 384
KERNEL_BLOCK = 16
KERNEL_TOL = 1e-8
KERNEL_ALPHA = (0.6, 0.85)
KERNEL_DRAWS = 60

MIN_PASSES = 3

# Nominal pass times (s), measured on a 2-vCPU shared Xeon host.  They only
# size the run: a run of --seconds S makes round(S / nominal) timed passes.
NOMINAL_PASS_S = {"default-suites": 2.7, "oracle-n384": 6.5, "kernel-conj-slow": 4.0}


@dataclasses.dataclass
class Tally:
    attempted: int = 0  # draws tried (records, or requested draws of a raising suite)
    failed: int = 0
    known_failed: int = 0  # the part of `failed` due to the known defect
    records: int = 0
    inconclusive: int = 0
    requested: int = 0  # samples requested by suites that returned
    json_bytes: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)

    def add(self, other: "Tally") -> None:
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def pass_seed(seed: int, j: int) -> int:
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def _run_suites(configs, serialize: bool) -> Tally:
    tally = Tally()
    for suite_id, cfg in configs:
        try:
            report = verify.run_suite(suite_id, cfg)
        except Exception as exc:  # the pass goes on; every draw the suite asked for is lost
            tally.attempted += cfg.samples
            tally.failed += cfg.samples
            if suite_id == KNOWN_DEFECT_SUITE and isinstance(exc, NotSelfMapError):
                tally.known_failed += cfg.samples
            else:
                tally.problems.append(f"{suite_id} seed {cfg.seed}: {type(exc).__name__}: {exc}")
            continue
        s = report.summary
        expected = EXPECTED_EXIT.get(suite_id, 0)
        bad = s["fail"] + (0 if expected == 3 else s["discrepancy"])
        tally.attempted += s["total"]
        tally.failed += bad
        tally.records += s["total"]
        tally.inconclusive += s["inconclusive"]
        tally.requested += cfg.samples
        if report.exit_status != expected or bad:
            tally.problems.append(
                f"{suite_id} seed {cfg.seed}: exit {report.exit_status} (expected {expected}), summary {s}"
            )
        if serialize:
            tally.json_bytes += len(cli.report_to_json(report).encode())
    return tally


def default_suites(seed: int, tiny: bool) -> Tally:
    # the registry defaults set every verdict expectation, so tiny runs the same pass
    configs = [
        (sid, dataclasses.replace(verify.default_config(sid), seed=seed)) for sid in sorted(verify.SUITES)
    ]
    return _run_suites(configs, serialize=True)


def oracle_n384(seed: int, tiny: bool) -> Tally:
    configs = [
        (
            sid,
            dataclasses.replace(
                verify.default_config(sid), dim=ORACLE_DIM, samples=1 if tiny else k, seed=seed
            ),
        )
        for sid, k in ORACLE_SAMPLES.items()
    ]
    return _run_suites(configs, serialize=False)


def kernel_conj_slow(seed: int, tiny: bool) -> Tally:
    tally = Tally()
    rng = np.random.default_rng(seed)
    for _ in range(2 if tiny else KERNEL_DRAWS):
        alpha = rng.uniform(*KERNEL_ALPHA) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        lam = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        tally.attempted += 1
        tally.requested += 1
        try:
            u = operators.conjugation_matrix(operators.Conjugation("C2", lam, alpha), KERNEL_DIM)
            worst = max(operators.involution_residual(u, KERNEL_BLOCK))
        except Exception as exc:  # the pass goes on; the draw is lost
            tally.failed += 1
            tally.problems.append(f"alpha={alpha}: {type(exc).__name__}: {exc}")
            continue
        tally.records += 1
        if not worst <= KERNEL_TOL:
            tally.failed += 1
            tally.problems.append(f"alpha={alpha}: max(involution, isometry) = {worst:.3g} > {KERNEL_TOL}")
    return tally


WORKLOADS: Dict[str, Callable[[int, bool], Tally]] = {
    "default-suites": default_suites,
    "oracle-n384": oracle_n384,
    "kernel-conj-slow": kernel_conj_slow,
}


def pass_count(workload: str, seconds: float, tiny: bool) -> int:
    if tiny:
        return 1
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def measure(run_pass, seed: int, passes: int, tiny: bool) -> Dict[str, object]:
    run_pass(pass_seed(seed, 0), True)  # warm-up at the tiny size, dropped
    times: List[float] = []
    total = Tally()
    for j in range(1, passes + 1):
        t0 = time.perf_counter()
        total.add(run_pass(pass_seed(seed, j), tiny))
        times.append(time.perf_counter() - t0)
    return {
        "tally": total,
        "metrics": {
            # draws vary in cost, so a mean is steadier than a median; dropping the
            # fastest and the slowest pass keeps one host hiccup from moving it
            "pass_s": statistics.mean(sorted(times)[1:-1] if len(times) >= 3 else times),
            "records_per_s": total.records / sum(times),
            "ok_share": 1.0 - total.failed / total.attempted,
            "conclusive_share": 1.0 - total.inconclusive / max(total.records, 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "passes": len(times),
        "pass_times": times,
    }


def measure_traced(run_pass, seed: int, passes: int, tiny: bool, spans_path: Path):
    """Pairs of an untraced and a traced pass on the same inputs."""
    run_pass(pass_seed(seed, 0), True)  # warm-up at the tiny size, dropped
    tracer = tracing.Tracer()
    plain: List[float] = []
    traced: List[float] = []
    total = Tally()
    for j in range(1, passes + 1):
        s = pass_seed(seed, j)
        t0 = time.perf_counter()
        run_pass(s, tiny)
        plain.append(time.perf_counter() - t0)
        tracer.install()
        try:
            t0 = time.perf_counter()
            total.add(run_pass(s, tiny))
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)

    n = len(traced)
    stats = tracing.summarize(tracer.names, tracer.spans)
    layers = tracing.layer_self(stats)

    def per_pass(name: str, key: str) -> float:
        return stats[name][key] / n if name in stats else 0.0

    builds = stats["operators.build_wco"]["durations"] if "operators.build_wco" in stats else []
    metrics = {
        "operators.build_wco.calls": per_pass("operators.build_wco", "calls"),
        "operators.build_wco.busy_s": per_pass("operators.build_wco", "busy_s"),
        "operators.build_wco.ms_p50": 1e3 * statistics.median(builds) if builds else 0.0,
    }
    for name in ("normality_residual", "symmetry_residual", "involution_residual"):
        metrics[f"operators.{name}.calls"] = per_pass(f"operators.{name}", "calls")
        metrics[f"operators.{name}.busy_s"] = per_pass(f"operators.{name}", "busy_s")
    metrics.update(
        {
            "operators.adjoint_factorization_residual.self_s": per_pass(
                "operators.adjoint_factorization_residual", "self_s"
            ),
            "operators.conjugation_matrix.self_s": per_pass("operators.conjugation_matrix", "self_s"),
            "series.expand_rational.calls": per_pass("series.expand_rational", "calls"),
            "series.expand_rational.busy_s": per_pass("series.expand_rational", "busy_s"),
        }
    )
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = layers[layer] / n
    metrics.update(
        {
            "verify.run_suite.self_s": per_pass("verify.run_suite", "self_s"),
            "verify.nonexistence_sweep.self_s": per_pass("verify.nonexistence_sweep", "self_s"),
            "verify.records_per_requested": total.records / max(total.requested, 1),
            "cli.report_to_json.busy_s": per_pass("cli.report_to_json", "busy_s"),
            "cli.report_to_json.bytes": total.json_bytes / n,
            "trace.overhead_s": statistics.median(t - p for t, p in zip(traced, plain)),
            "trace.self_share": sum(layers.values()) / sum(traced),
        }
    )
    return {
        "tally": total,
        "metrics": metrics,
        "passes": n,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    if Path(wcosym.__file__).resolve().parent != ROOT / "src" / "wcosym":
        print(f"wcosym imported from {wcosym.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    verify.check_registry()
    run_pass = WORKLOADS[args.workload]
    if args.trace:
        # a traced run times an untraced and a traced pass per input
        passes = pass_count(args.workload, args.seconds / 2, args.tiny)
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result = measure_traced(run_pass, args.seed, passes, args.tiny, spans_path)
    else:
        passes = pass_count(args.workload, args.seconds, args.tiny)
        result = measure(run_pass, args.seed, passes, args.tiny)
    tally: Tally = result.pop("tally")
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        known_failed=tally.known_failed,
        inconclusive=tally.inconclusive,
        records=tally.records,
        problems=tally.problems[:20],
        correct=not tally.problems,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
