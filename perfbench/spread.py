"""Run workloads untraced on several seeds; print every end-to-end metric
per run, then each metric's median and spread (interquartile range as a
share of the median, from statistics.quantiles(values, n=4)).

Usage, from the repository root:

    python3 perfbench/spread.py --workload all --seeds 1          # every workload once
    python3 perfbench/spread.py --workload fit-hetero-d8 --seeds 10 --first-seed 100
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    failed = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=False,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"ops_failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{name}={m['value']}" for name, m in result["metrics"].items()), flush=True)
            for name, metric in result["metrics"].items():
                if metric["value"] is not None:  # null: not measured, already counted as failed
                    values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        for name, series in values.items():
            median = statistics.median(series)
            line = f"  {name:<38} {median:>14.6g} {units[name]:<7}"
            if len(series) > 1:
                q1, _, q3 = statistics.quantiles(series, n=4)
                line += f" spread {(q3 - q1) / median if median else 0.0:.4f}"
            print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
