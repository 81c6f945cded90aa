"""usnrt benchmark: CLI train/evaluate/predict workloads with traced layers.

Usage, from the repository root:

    python3 perfbench/run.py --workload fit-hetero-d8 --seed 1 --seconds 20 --trace 0

A run generates its inputs from --seed with `usnrt synth` (set-up, repeated
SETUP_REPS times in one process), then repeats the workload's timed commands
for --seconds in one fresh workload process (perfbench/worker.py), which
calls usnrt.cli.main in-process. With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 it holds per-layer metrics from one
traced set-up and repetition, run next to one untraced set-up and
repetition of the same commands. Every command, and every output check, is
one attempted operation. perfbench/README.md explains the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"

# One BLAS thread per workload process: load is one process with one
# compute thread, whatever the machine's core count.
BLAS_THREADS = 1
# The speed of the machine the benchmark was defined on switches between
# two levels about 1.6x apart, for seconds to minutes at a time (see
# README.md). The workload process times a fixed reference kernel around
# every run of same-named commands, and each command's time is scaled by
# REF_NOMINAL_S / (reference time around it): times read as seconds at the
# speed where the reference kernel takes REF_NOMINAL_S.
REF_NOMINAL_S = 0.1
SETUP_REPS = 7
MIN_REPS = 2  # at least two builds per run, so model.json bytes can be compared
RUN_DEADLINE_S = 170.0
CALIBRATION_LIMIT = 10.0

WORKLOADS = ("fit-hetero-d8", "scan-wide-d16", "predict-bulk-50k", "ensemble-d2")


@dataclass
class Plan:
    """The commands of one workload, run inside one work directory."""

    setup: list[list[str]]
    timed: list[list[str]]
    held: str  # labelled CSV that evaluate and predict read
    configs: dict[str, dict] = field(default_factory=dict)
    model: str = "model/model.json"

    @property
    def trains_in_setup(self) -> bool:
        return any(argv[0] == "train" for argv in self.setup)


def _synth(out, n, seed, d, sigma_low, sigma_high, mean_high="linear"):
    return [
        "synth", "--n", str(n), "--d", str(d), "--mean-low", "linear",
        "--mean-high", mean_high, "--sigma-low", sigma_low, "--sigma-high", sigma_high,
        "--seed", str(seed), "--out", out,
    ]


def _train(seed, *flags):
    return [
        "train", "--data", "data/data.csv", "--schema", "data/schema.json",
        "--seed", str(seed), "--out", "model", *flags,
    ]


def _read_back(held, repeats, rounds=1):
    """`rounds` times: evaluate, then predict, on one labelled file, each
    `repeats` times. Every run of same-named commands gets its own reference
    timings, so more rounds give more independently scaled samples."""
    evaluate = ["evaluate", "--model", "model/model.json", "--data", held, "--out", "eval"]
    predict = ["predict", "--model", "model/model.json", "--data", held, "--out", "pred"]
    return ([evaluate] * repeats + [predict] * repeats) * rounds


def plan_for(workload: str, seed: int, tiny: bool) -> Plan:
    """Commands of one workload. Held-out rows come from the same generator
    under another seed. Training runs a fixed number of epochs (patience =
    max_epochs) on data whose tree shape does not change with the seed, so
    every seed asks for about the same work."""
    held_seed = seed + 1_000_000
    if workload == "fit-hetero-d8":
        n, held, epochs = (1500, 300, 2) if tiny else (10_000, 5_000, 10)
        spec = dict(d=8, sigma_low="0.1", sigma_high="1.0", mean_high="sine")
        return Plan(
            setup=[_synth("data", n, seed, **spec), _synth("held", held, held_seed, **spec)],
            timed=[
                _train(seed, "--n-leaves", "3", "--config", "fixed.json"),
                *_read_back("held/data.csv", 3, rounds=2),
            ],
            held="held/data.csv",
            configs={"fixed.json": {"max_epochs": epochs, "patience": epochs}},
        )
    if workload == "scan-wide-d16":
        n, held, epochs = (2500, 300, 2) if tiny else (8_000, 5_000, 4)
        spec = dict(d=16, sigma_low="0.1", sigma_high="1.0")
        return Plan(
            setup=[_synth("data", n, seed, **spec), _synth("held", held, held_seed, **spec)],
            timed=[
                _train(seed, "--stride", "16", "--n-leaves", "5", "--config", "wide.json"),
                *_read_back("held/data.csv", 3, rounds=2),
            ],
            held="held/data.csv",
            configs={
                "wide.json": {
                    "split_net_hidden": [16, 8],
                    "leaf_net_hidden": [16, 8],
                    "max_epochs": epochs,
                    "patience": epochs,
                }
            },
        )
    if workload == "predict-bulk-50k":
        n, bulk, epochs = (1500, 3000, 2) if tiny else (10_000, 50_000, 5)
        spec = dict(d=8, sigma_low="0.1", sigma_high="1.0", mean_high="sine")
        return Plan(
            setup=[
                _synth("data", n, seed, **spec),
                _synth("bulk", bulk, held_seed, **spec),
                _train(seed, "--n-leaves", "3", "--config", "capped.json"),
            ],
            timed=_read_back("bulk/data.csv", 1),
            held="bulk/data.csv",
            configs={"capped.json": {"max_epochs": epochs, "patience": epochs}},
        )
    if workload == "ensemble-d2":
        n, held, epochs = (600, 300, 2) if tiny else (4_000, 5_000, 6)
        spec = dict(d=2, sigma_low="0.1", sigma_high="1.0")
        return Plan(
            setup=[_synth("data", n, seed, **spec), _synth("held", held, held_seed, **spec)],
            timed=[
                _train(seed, "--model-kind", "ensemble", "--config", "fixed.json"),
                *_read_back("held/data.csv", 3, rounds=2),
            ],
            held="held/data.csv",
            configs={"fixed.json": {"max_epochs": epochs, "patience": epochs}},
        )
    raise KeyError(workload)


class Run:
    """One benchmark invocation: work directory, deadline, and the tally of
    attempted and failed operations."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.program_env: dict = {}
        self._jobs = 0

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}".strip())

    def worker(self, cwd: Path, plan: Plan, steps, min_reps: int, repeat_s: float = 0.0,
               trace: bool = False, check: bool = True) -> dict:
        """Run steps in a fresh workload process; counts each command and
        each output check as an operation and returns the report."""
        self._jobs += 1
        stem = self.work / f"job{self._jobs}"
        job = {
            "src": str(SRC),
            "trace": trace,
            "run_id": f"{self.workload}-{self.seed}-{self._jobs}",
            "steps": steps,
            "min_reps": min_reps,
            "repeat_s": repeat_s,
            "model": plan.model,
            "predictions": [
                {"model": str(cwd / plan.model), "data": str(cwd / plan.held),
                 "predictions": str(cwd / "pred" / "predictions.csv")}
            ] if check else [],
            "report": f"{stem}.report.json",
        }
        Path(f"{stem}.json").write_text(json.dumps(job), encoding="utf-8")
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), f"{stem}.json"],
                cwd=cwd, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
            failure = None if proc.returncode == 0 else proc.stderr[-500:]
        except subprocess.TimeoutExpired:
            failure = "timed out"
        if failure is not None or not Path(job["report"]).exists():
            for argv in steps:
                self.op(f"usnrt {argv[0]}", False, f"workload process failed: {failure}")
            return {}
        report = json.loads(Path(job["report"]).read_text(encoding="utf-8"))
        for step in report["steps"]:
            self.op(f"usnrt {step['command']}", step["exit"] == 0, f"exit {step['exit']} {step.pop('stderr')}")
        for item in report["checks"]:
            self.op(item["name"], item["ok"], item.get("detail", ""))
        self.program_env = report["env"]
        return report


def _rows(path: Path) -> float:
    try:
        with open(path, "rb") as fh:
            return sum(1 for _ in fh) - 1
    except OSError:  # set-up failed; already counted as failed operations
        return float("nan")


def _scaled(step) -> float:
    return step["s"] * REF_NOMINAL_S / step["ref_s"]


def _times(report, command):
    """Times of one command, scaled to the reference speed."""
    return [_scaled(s) for s in report.get("steps", []) if s["command"] == command]


def _per_rep(report, steps_per_rep):
    """Scaled total command time of each repetition."""
    times = [_scaled(s) for s in report.get("steps", [])]
    return [sum(times[i:i + steps_per_rep]) for i in range(0, len(times), steps_per_rep)]


def _median(values):
    return statistics.median(values) if values else float("nan")


def _workdir(run: Run, plan: Plan, name: str) -> Path:
    cwd = run.work / name
    cwd.mkdir(parents=True, exist_ok=True)
    for file_name, payload in plan.configs.items():
        (cwd / file_name).write_text(json.dumps(payload), encoding="utf-8")
    return cwd


def _same_model(run: Run, name: str, digests) -> None:
    run.op(name, len(set(digests)) == 1 and None not in digests, f"digests {sorted(map(str, set(digests)))}")


def _quality(cwd: Path, report: dict) -> dict:
    try:
        scores = json.loads((cwd / "eval" / "metrics.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        scores = {}
    return {
        "test_nll": report.get("quality", {}).get("test_nll", float("nan")),
        "test_ece": scores.get("ece", float("nan")),
        "test_tce": scores.get("tce", float("nan")),
    }


def _calibrated(run: Run, quality: dict, tiny: bool) -> None:
    """Guard against a speed-up that trades away calibration. Well fitted
    models here score ECE and TCE of 0.4 to 3 (x100); a sigma off by a
    factor of two scores above 10. Tiny inputs are too small to judge."""
    if not tiny:
        scores = (quality["test_ece"], quality["test_tce"])
        ok = all(math.isfinite(v) and v < CALIBRATION_LIMIT for v in scores)
        run.op(f"held-out ECE and TCE below {CALIBRATION_LIMIT}", ok, f"ECE, TCE {scores}")


def measure(run: Run, plan: Plan, seconds: float, tiny: bool) -> tuple[dict, dict]:
    """Untraced run: set up SETUP_REPS times, then repeat the timed commands
    for `seconds`, at least MIN_REPS times."""
    cwd = _workdir(run, plan, "run")
    setup = run.worker(cwd, plan, plan.setup, SETUP_REPS, check=False)
    timed = run.worker(cwd, plan, plan.timed, MIN_REPS, repeat_s=seconds)
    trains = setup if plan.trains_in_setup else timed
    _same_model(run, "model.json identical on every build of one seed", trains.get("model_sha256", [None]))

    rows = _rows(cwd / plan.held)
    metrics = {
        "train_s": _median(_times(trains, "train")),
        "predict_rows_per_s": rows / _median(_times(timed, "predict")),
        "evaluate_rows_per_s": rows / _median(_times(timed, "evaluate")),
        "setup_s": _median(_per_rep(setup, len(plan.setup))),
        "peak_rss_mb": timed.get("peak_rss_mb", float("nan")),
    }
    details = {
        "repetitions": len(timed.get("model_sha256", [])),
        "steps": [[s["command"], s["s"], s["ref_s"]] for r in (setup, timed) for s in r.get("steps", [])],
        "quality": _quality(cwd, timed),
    }
    _calibrated(run, details["quality"], tiny)
    return metrics, details


def measure_traced(run: Run, plan: Plan, tiny: bool) -> tuple[dict, dict]:
    """Traced run: one untraced and one traced set-up and repetition; the
    per-layer numbers come from the traced pair's spans."""
    reports = {}
    for name, trace in (("plain", False), ("traced", True)):
        cwd = _workdir(run, plan, name)
        reports[name] = [
            run.worker(cwd, plan, plan.setup, 1, trace=trace, check=False),
            run.worker(cwd, plan, plan.timed, 1, trace=trace),
        ]
    fitted_in = 0 if plan.trains_in_setup else 1
    _same_model(
        run,
        "traced build writes the same model.json bytes",
        [reports[name][fitted_in].get("model_sha256", [None])[-1] for name in reports],
    )

    spans = []
    for report in reports["traced"]:
        offset = len(spans)
        spans.extend(
            [name, start, end, parent + offset if parent >= 0 else -1, run_id, attrs]
            for name, start, end, parent, run_id, attrs in report.get("spans", [])
        )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{run.workload}.spans.json").write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "run_id", "attrs"], "spans": spans}),
        encoding="utf-8",
    )
    metrics = layer_metrics(spans)
    model_path = run.work / "traced" / plan.model
    metrics["model_io.model_bytes"] = model_path.stat().st_size if model_path.exists() else 0
    plain_s, traced_s = (
        sum(_scaled(s) for r in reports[name] for s in r.get("steps", [])) for name in ("plain", "traced")
    )
    metrics["trace.overhead_s"] = traced_s - plain_s
    quality = _quality(run.work / "traced", reports["traced"][1])
    _calibrated(run, quality, tiny)
    metrics.update({f"quality.{k}": v for k, v in quality.items()})
    return metrics, {"quality": quality}


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # a checkout without .git records no commit
        try:
            proc = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=False, timeout=30,
            )
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads_cap": BLAS_THREADS,
        "git_commit": commit,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "usnrt" / "cli.py").is_file():
        print(f"error: no usnrt sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, time.monotonic() + RUN_DEADLINE_S)
    plan = plan_for(args.workload, args.seed, args.tiny)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, details = measure_traced(run, plan, args.tiny)
        else:
            metrics, details = measure(run, plan, args.seconds, args.tiny)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    run.op("metric names match BENCHMARK.json", set(metrics) == set(units), str(set(metrics) ^ set(units)))
    run.op("every metric measured", all(math.isfinite(v) for v in metrics.values()))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            # A metric that could not be measured is null, never a perfect 0.
            name: {"value": value if math.isfinite(value) else None, "unit": units.get(name, "")}
            for name, value in metrics.items()
        },
    }
    env = {**environment(args.seed), **run.program_env}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps({"env": env, "details": details, "failures": run.failures, **result}, indent=2),
        encoding="utf-8",
    )
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6g} {units.get(name, '')}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
