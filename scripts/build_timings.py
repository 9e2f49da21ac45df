#!/usr/bin/env python3
"""Per-call build times of the three shapes of W that the residuals read.

Usage:
    python scripts/build_timings.py [--repeats R]

For N in 48, 64, 96, 128, 192, 384, 389, 512, 1024 and block k in 12, 16 it
prints the median time of one call, in ms, of

  whole  all of W, as conjugation_matrix builds a C2 matrix (what
         kernel-conj-slow runs): the refusals and length-N expansions,
         then the Mobius recurrence swept as a wavefront of 8 x 8 tiles,
         one GEMM per anti-diagonal of tiles, at every N,
  cross  the normality residual of one draw, a stack of one through
         wco_residual_stack: the Gram sums of the first k rows and the
         first k columns over N rows, each kernel filling at most 64 rows
         a draw (k = 16; 32 at k = 12) and doubling the sums past them,
         the rows with the k x k Toeplitz matrix of phi as the step, the
         columns with the (k+1)-wide step of their row recurrence,
  stacked  the normality residual per draw of a 200-draw probe, what a
         suite's verify.measure call costs: one wco_residual_stack call,
         which prepares the draws a piece at a time and doubles them in
         chunks of STACK_ROWS // min(N, 64) draws at k = 16 (32 at k = 12),
         divided by its 200 draws,
  block  the leading k x k block (the J and C1 symmetry residuals and the
         four factors of the adjoint factorization): the same doubling
         as the rows, on k coefficients,

each including the refusals and expansions of the seams, on the
coefficient arrays the seams take (a weight and a map as (1, 4)
stacks, (200, 4) for stacked).  Two symbols are timed: a fast-decay
weighted composition operator of the
interior normal family, whose coefficients underflow to subnormal numbers
at large N, and the slow-decay C2 conjugation at |alpha| = 0.9.  N = 389
is prime: its sums add the Gram of a prefix of the filled rows to the
doubled ones.
BLAS runs on one thread.  Nothing is written to disk.  Exit status 2 for
a --repeats below 1.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

if __name__ == "__main__":  # run as a file: import the package from this checkout's src/
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from wcosym import families as fam  # noqa: E402
from wcosym import operators as ops  # noqa: E402

DIMS = (48, 64, 96, 128, 192, 384, 389, 512, 1024)
BLOCKS = (12, 16)
SYMBOLS = {  # (psi, phi) stacks of one
    "interior": fam.interior_quadruples(0.3 - 0.2j, 0.5j, 1.2),
    "c2-0.9": ops._c2_symbols(np.array([np.exp(0.3j)]), np.array([0.9 * np.exp(1.1j)])),
}


def _median_ms(call, repeats: int) -> float:
    call()  # warm-up: BLAS start-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(f"{'symbol':10} {'N':>5} {'k':>3} {'whole ms':>9} {'cross ms':>9} {'stacked ms':>10} {'block ms':>9}")
    for name, (psi, phi) in SYMBOLS.items():
        for n in DIMS:
            whole = _median_ms(lambda: ops._mobius_recurrence(ops._checked_series(psi, phi, n)[0][0], phi[0]), args.repeats)
            draws, one = 200, slice(None)  # a suite's default probe; the one chunk of a stack of one
            psis, phis = psi.repeat(draws, axis=0), phi.repeat(draws, axis=0)
            for k in BLOCKS:
                cross = _median_ms(lambda: ops.wco_residual_stack(psi, phi, n, k), args.repeats)
                stacked = _median_ms(lambda: ops.wco_residual_stack(psis, phis, n, k), args.repeats) / draws
                block = _median_ms(lambda: ops._rectangle(ops._prepare(psi, phi, k, False)[0], one, k), args.repeats)
                print(f"{name:10} {n:5d} {k:3d} {whole:9.3f} {cross:9.3f} {stacked:10.3f} {block:9.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
