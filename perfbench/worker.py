"""One workload process: run usnrt CLI commands in-process and report.

Usage: python3 perfbench/worker.py JOB.json

The job file names the source tree to import usnrt from, the CLI argument
lists to pass to usnrt.cli.main one after another, how long to keep
repeating them, whether to trace, and the prediction outputs to check. The
report (a JSON file named by the job) holds each command's exit code and
wall time, the mean time of the reference kernel run just before and just
after each run of same-named commands, the model.json sha256 after each
repetition, the peak RSS after the first repetition (of this process or of
the largest child process it reaped), the output checks, held-out quality
and, when traced, the spans.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback


def reference_kernel(rounds: int = 1500) -> float:
    """Wall time of a fixed piece of CPU work shaped like usnrt's own: small
    numpy matrix products and reductions called from a Python loop, then
    float parsing. Dividing a command's time by the reference's time around
    it cancels drift in machine speed."""
    import numpy as np

    rng = np.random.default_rng(0)
    X = rng.standard_normal((64, 8))
    W1 = rng.standard_normal((8, 64))
    W2 = rng.standard_normal((64, 32))
    v = rng.standard_normal(2000)
    cells = [repr(float(x)) for x in v]
    total = 0.0
    start = time.perf_counter()
    for _ in range(rounds):
        h = np.tanh(X @ W1)
        total += float((h.T @ (h @ W2)).sum())
        z = np.abs(v - v.mean())
        total += float(z.var(ddof=1))
    for _ in range(rounds // 100):
        total += sum(float(c) for c in cells)
    elapsed = time.perf_counter() - start
    if not math.isfinite(total):
        raise ArithmeticError("reference kernel overflowed")
    return elapsed


def _sha256(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _read_predictions(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["mu", "sigma"]:
        raise ValueError(f"unexpected header {rows[0]!r}")
    return [float(r[0]) for r in rows[1:]], [float(r[1]) for r in rows[1:]]


def _check_predictions(spec, checks, quality):
    """Validity and bit-exact reproduction of one predictions.csv, plus the
    held-out NLL on the model's normalised label scale."""
    import numpy as np

    from usnrt import baselines, tree
    from usnrt.data import load_csv
    from usnrt.model_io import load_model

    name = os.path.basename(os.path.dirname(spec["predictions"]))
    try:
        mu, sigma = (np.asarray(v) for v in _read_predictions(spec["predictions"]))
        model = load_model(spec["model"])
        state = model.preprocess
        dataset = load_csv(spec["data"], state.schema, require_label=False)
    except (OSError, ValueError, IndexError) as exc:
        checks.append({"name": f"{name}: predictions readable", "ok": False, "detail": repr(exc)})
        return
    valid = (
        mu.shape == (dataset.n_rows,)
        and sigma.shape == mu.shape
        and bool(np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma)))
        and bool(np.all(sigma > 0.0))
    )
    checks.append(
        {
            "name": f"{name}: one finite row per input, sigma > 0",
            "ok": valid,
            "detail": f"{mu.size} rows for {dataset.n_rows} inputs",
        }
    )
    X = state.transform(dataset)
    if isinstance(model, tree.UsnrtModel):
        mu_ref, sigma_ref = tree.predict_arrays(model, X)
    else:
        mu_ref, sigma_ref = baselines.ensemble_predict_arrays(model, X)
    same = mu_ref.shape == mu.shape and bool(np.all(mu_ref == mu) and np.all(sigma_ref == sigma))
    checks.append({"name": f"{name}: reloaded model reproduces predictions bit for bit", "ok": same})
    if valid and dataset.labels is not None:
        scale = state.label_std
        r = (dataset.labels - mu) / scale
        s = sigma / scale
        quality["test_nll"] = float(np.mean(np.log(s) + r * r / (2.0 * s * s)))


def main(job_path: str) -> int:
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import numpy as np

    import usnrt.cli as cli

    source = os.path.realpath(cli.__file__)
    if not source.startswith(os.path.realpath(job["src"]) + os.sep):
        raise SystemExit(f"usnrt imported from {source}, not from {job['src']}")

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.span(f"cli.{argv[0]}", cli.main, argv)
        except Exception:  # a crash is one failed operation; keep going
            code = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        return {"command": argv[0], "exit": code, "s": elapsed, "stderr": err.getvalue()[-2000:]}

    # Repeat the command list at least min_reps times, and start another
    # repetition only while it should end within repeat_s.
    steps, digests = [], []
    started = time.perf_counter()
    while len(digests) < job["min_reps"] or (
        (time.perf_counter() - started) * (len(digests) + 1) / len(digests) <= job["repeat_s"]
    ):
        refs = [reference_kernel()]
        done = len(steps)
        for i, argv in enumerate(job["steps"]):
            steps.append(run(argv))
            if i + 1 == len(job["steps"]) or job["steps"][i + 1][0] != argv[0]:
                # End of a run of same-named commands: time the reference
                # again and give each of them the mean of its two brackets.
                refs.append(reference_kernel())
                for step in steps[done:]:
                    step.setdefault("ref_s", (refs[-2] + refs[-1]) / 2.0)
        digests.append(_sha256(job["model"]))
        if len(digests) == 1:
            # Later repetitions only add allocator fragmentation.
            # Any child processes the program has reaped count too, so work
            # moved into a process pool does not read as a memory gain.
            peak_rss_mb = max(
                resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
            ) / 1024.0

    report = {"steps": steps, "model_sha256": digests, "peak_rss_mb": peak_rss_mb, "checks": [], "quality": {}}
    if tracer is not None:
        tracer.restore()
        unrestored = tracer.unrestored()
        report["checks"].append(
            {
                "name": "every wrapper restored after tracing",
                "ok": not unrestored,
                "detail": ", ".join(unrestored),
            }
        )
        report["spans"] = tracer.spans
    for spec in job.get("predictions", []):
        _check_predictions(spec, report["checks"], report["quality"])
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        blas = "unknown"
    report["env"] = {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}
    with open(job["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
