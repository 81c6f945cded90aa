"""Smoke test of the benchmark harness itself.

Runs every workload at tiny size, untraced and traced, and fails unless each
run passes all output checks and reports exactly the metric names and units
that BENCHMARK.json declares for that mode. Takes about a minute.

Usage, from the repository root:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        print(f"FAIL BENCHMARK.json workloads differ from run.WORKLOADS {WORKLOADS}")
        return 1
    problems = 0
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            expected = {m["name"]: m["unit"] for m in declared[section]}
            got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
            ok = (
                proc.returncode == 0
                and set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["correct"] is True
                and result["failed"] == 0
                and result["attempted"] >= 1
                and got == expected
            )
            problems += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload} --trace {trace}: "
                  f"{result.get('failed')}/{result.get('attempted')} operations failed")
            if not ok:
                print("\n".join(lines[-20:]) + proc.stderr[-2000:])
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
