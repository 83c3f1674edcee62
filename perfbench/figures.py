"""Run every workload over several seeds and tabulate each metric's median and spread.

    python3 perfbench/figures.py --seeds 0-9 --seconds 20            # end-to-end metrics
    python3 perfbench/figures.py --seeds 0-2 --seconds 20 --trace 1  # per-layer metrics

Each run is its own ``run.py`` process, one after another.  For every
workload and metric it prints the median over the runs, the spread (the
distance between the first and third quartile as a share of the median,
with ``statistics.quantiles(values, n=4)``) and the unit, then the
operations attempted and failed, and the machine record of the last run.
This is the command behind the reference figures in README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("exhaustion", "oracle", "sampling", "weakconv")

#: Figures of the record line, in wall seconds, tabulated after the metrics of untraced runs.
RECORD_FIGURES = {"setup_wall_s": "s", "pass_s_median": "s", "work_per_s": "1/s", "yardstick_s": "s"}


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"), help="a seed or a range, as 0-9")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    machine = None
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        correct = True
        overheads, plain = [], []
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", args.seconds, "--trace", args.trace]
            lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
            result, record = json.loads(lines[-1]), json.loads(lines[-2])["record"]
            machine = record["machine"]
            plain.append(record["pass_s_median"])
            overheads.append(record.get("tracing_overhead_s"))
            attempted += result["attempted"]
            failed += result["failed"]
            correct &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            if args.trace == "0":
                for name, unit in RECORD_FIGURES.items():
                    figure = record[name]
                    if isinstance(figure, list):  # one value per set-up
                        figure = statistics.median(figure)
                    values.setdefault(f"record {name}", []).append(figure)
                    units[f"record {name}"] = unit
        print(f"{workload}: {len(args.seeds)} runs, attempted {attempted}, failed {failed}, correct {correct}")
        for name, vals in values.items():
            median = statistics.median(vals)
            spread = float("nan")
            if len(vals) > 1 and median:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / median
            print(f"  {name:42s} {median:14.6g} {units[name]:6s} spread {spread:.4f}")
        if args.trace == "1":
            overhead = statistics.median(overheads)
            share = overhead / statistics.median(plain)
            print(f"  tracing overhead per pass: {overhead:.4g} s, {share:.1%} of an untraced pass")
    print("machine:", json.dumps(machine))
    return 0


if __name__ == "__main__":
    sys.exit(main())
