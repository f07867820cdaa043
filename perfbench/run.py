"""Benchmark entry point for submerge.

    python3 perfbench/run.py --workload merge_heads --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a submerge checkout; the package is imported from its
`src/` directory, never from an installed copy. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("merge_heads", "analyze_sweep")
# BLAS threads are fixed (not inherited) so runs on a 2-core box compare.
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny fixtures, minimum jobs, check every metric")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "submerge" / "__init__.py").is_file():
        print(f"error: no submerge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import submerge

    if Path(submerge.__file__).resolve().parent != (SRC / "submerge").resolve():
        print(f"error: imported submerge from {submerge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    if args.smoke:
        return harness.smoke(ROOT, args.seed)
    return harness.bench(ROOT, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
