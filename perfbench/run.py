"""Run one dpplab benchmark workload; the last line of stdout is the result as JSON.

    python3 perfbench/run.py --workload exhaustion --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports dpplab from ``src/``
there and exits 2 without a result when that tree is missing.  With
``--trace 0`` it reports the end-to-end metrics of untraced passes; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones.  The line before the result holds
the machine record and the raw figures behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("exhaustion", "oracle", "sampling", "weakconv")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Cap BLAS threads at the usable core count; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARIABLES:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 gives the acceptance seeds")
    parser.add_argument("--seconds", type=float, default=20.0, help="how long to keep running passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "dpplab" / "__init__.py").is_file():
        print(f"no dpplab source tree at {SRC}", file=sys.stderr)
        return 2

    cap_blas_threads()
    import harness
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    line, record = harness.run(workload, args.seed, args.seconds, bool(args.trace), SRC, spans)
    print(json.dumps({"record": record}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
