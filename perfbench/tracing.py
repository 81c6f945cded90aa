"""Span tracing of usnrt layers from outside the program.

A Tracer replaces public usnrt functions with wrappers that record one span
per call: name, start, end, parent span and run id, plus a few attributes
read from the call's arguments or result (epochs of a training run, rows
routed by a prediction). Spans stay in memory until the traced process
reports them at its end. Nothing inside src/ is changed: every wrapper is
installed on the namespace where its caller looks the name up, and removed
again by restore().
"""

from __future__ import annotations

import functools
import importlib
import math
import time

# (module, attribute path, span name). A caller that imported a name into its
# own namespace looks it up there, so the wrapper goes on that namespace;
# patching the defining module would miss the call.
TARGETS = (
    ("usnrt.cli", "load_csv", "data.load_csv"),
    ("usnrt.cli", "generate_synthetic", "data.generate_synthetic"),
    ("usnrt.data", "PreprocessState.transform", "data.transform"),
    ("usnrt.cli", "compute_report", "metrics.compute_report"),
    ("usnrt.cli", "load_model", "model_io.load_model"),
    ("usnrt.model_io", "write_payload", "model_io.write_payload"),
    ("usnrt.tree", "build", "tree.build"),
    ("usnrt.tree", "find_best_split", "tree.find_best_split"),
    ("usnrt.tree", "predict_arrays", "tree.predict_arrays"),
    ("usnrt.tree", "save", "tree.save"),
    ("usnrt.tree", "train_mse", "nn_core.train_mse"),
    ("usnrt.tree", "train_nll_fixed_mean", "nn_core.train_nll_fixed_mean"),
    ("usnrt.tree", "levene_test", "stats.levene_test"),
    ("usnrt.stats", "student_t_cdf", "stats.student_t_cdf"),
    ("usnrt.baselines", "train_hnn", "baselines.train_hnn"),
    ("usnrt.baselines", "train_nll_fixed_sigma", "nn_core.train_nll_fixed_sigma"),
    ("usnrt.baselines", "train_nll_fixed_mean", "nn_core.train_nll_fixed_mean"),
    ("usnrt.baselines", "ensemble_predict_arrays", "baselines.ensemble_predict_arrays"),
)

TRAIN_SPANS = (
    "nn_core.train_mse",
    "nn_core.train_nll_fixed_mean",
    "nn_core.train_nll_fixed_sigma",
)


def _train_attrs(args, kwargs, result):
    _, log = result
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[-1]
    return {
        "epochs": len(log.train_losses),
        "best_epoch": log.best_epoch,
        "n_train": log.n_train,
        "batch_size": cfg.batch_size,
    }


def _rows_attrs(args, kwargs, result):
    return {"rows": len(result[0])}


ATTRIBUTES = {
    "nn_core.train_mse": _train_attrs,
    "nn_core.train_nll_fixed_mean": _train_attrs,
    "nn_core.train_nll_fixed_sigma": _train_attrs,
    "data.load_csv": lambda args, kwargs, result: {"rows": result.n_rows},
    "tree.build": lambda args, kwargs, result: {"internal_nodes": result.leaf_count - 1},
    "tree.predict_arrays": _rows_attrs,
    "baselines.ensemble_predict_arrays": _rows_attrs,
}


class Tracer:
    """In-memory span recorder with install/restore of the layer wrappers.

    A span is [name, start, end, parent index or -1, run id, attributes]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, None]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            record[2] = time.perf_counter()
            record[5] = {"raised": type(exc).__name__}
            raise
        finally:
            self._stack.pop()
        record[2] = time.perf_counter()
        annotate = ATTRIBUTES.get(name)
        if annotate is not None:
            record[5] = annotate(args, kwargs, result)
        return result

    def _wrapper(self, name: str, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.span(name, original, *args, **kwargs)

        return traced

    def install(self) -> None:
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Names whose namespace does not hold the original function again."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._originals
            if owner.__dict__[attr] is not original
        ]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced run; a layer that did not run reads 0."""
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_total: dict[str, float] = {}
    for i, (name, start, end, *_rest) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + own[i]

    def s(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    # Role of each training call, from its parent and the next span under
    # the same parent: under build, train_mse followed by find_best_split is
    # a splitting network and followed by train_nll_fixed_mean a leaf mean
    # network; train_nll_fixed_mean under build is a leaf sigma network.
    next_sibling: dict[int, int] = {}
    last_child: dict[int, int] = {}
    for i, span in enumerate(spans):
        parent = span[3]
        if parent in last_child:
            next_sibling[last_child[parent]] = i
        last_child[parent] = i

    epochs = steps = useful = 0
    split_s = leaf_mean_s = leaf_sigma_s = mean_phase_s = sigma_phase_s = 0.0
    split_calls = leaves = 0
    for i, (name, start, end, parent, _run, attrs) in enumerate(spans):
        if name not in TRAIN_SPANS or not attrs or "epochs" not in attrs:
            continue
        epochs += attrs["epochs"]
        steps += attrs["epochs"] * math.ceil(attrs["n_train"] / attrs["batch_size"])
        useful += attrs["best_epoch"] + 1
        parent_name = spans[parent][0] if parent >= 0 else None
        following = spans[next_sibling[i]][0] if i in next_sibling else None
        if parent_name == "tree.build":
            if name == "nn_core.train_mse" and following == "tree.find_best_split":
                split_s += end - start
                split_calls += 1
            elif name == "nn_core.train_mse" and following == "nn_core.train_nll_fixed_mean":
                leaf_mean_s += end - start
            elif name == "nn_core.train_nll_fixed_mean":
                leaf_sigma_s += end - start
                leaves += 1
        elif parent_name == "baselines.train_hnn":
            if name == "nn_core.train_nll_fixed_sigma":
                mean_phase_s += end - start
            elif name == "nn_core.train_nll_fixed_mean":
                sigma_phase_s += end - start

    train_s = sum(s(name) for name in TRAIN_SPANS)
    def attr_sum(span_name, key):
        return sum((attrs or {}).get(key, 0) for name, *_, attrs in spans if name == span_name)

    internal = attr_sum("tree.build", "internal_nodes")
    degenerate = sum(
        1
        for name, *_, attrs in spans
        if name == "stats.levene_test" and attrs and attrs.get("raised") == "DegenerateVarianceError"
    )
    routed = attr_sum("tree.predict_arrays", "rows")
    loaded = attr_sum("data.load_csv", "rows")
    return {
        "nn_core.train.s": train_s,
        "nn_core.nets_trained": sum(n(name) for name in TRAIN_SPANS),
        "nn_core.epochs": epochs,
        "nn_core.steps": steps,
        "nn_core.step_us": 1e6 * _ratio(train_s, steps),
        "nn_core.useful_epoch_ratio": _ratio(useful, epochs),
        "tree.build.s": s("tree.build"),
        "tree.build.self_s": self_total.get("tree.build", 0.0),
        "tree.split_net.s": split_s,
        "tree.split_net.calls": split_calls,
        "tree.leaf_mean.s": leaf_mean_s,
        "tree.leaf_sigma.s": leaf_sigma_s,
        "tree.leaves": leaves,
        "tree.find_best_split.s": s("tree.find_best_split"),
        "tree.find_best_split.self_s": self_total.get("tree.find_best_split", 0.0),
        "tree.find_best_split.calls": n("tree.find_best_split"),
        "tree.split_accept_ratio": _ratio(internal, split_calls),
        "tree.predict_arrays.s": s("tree.predict_arrays"),
        "tree.predict_arrays.rows_per_s": _ratio(routed, s("tree.predict_arrays")),
        "tree.save.s": s("tree.save"),
        "stats.levene_test.calls": n("stats.levene_test"),
        "stats.levene_test.s": s("stats.levene_test"),
        "stats.levene_test.self_s": self_total.get("stats.levene_test", 0.0),
        "stats.levene_test.us_per_call": 1e6 * _ratio(s("stats.levene_test"), n("stats.levene_test")),
        "stats.levene_test.degenerate_ratio": _ratio(degenerate, n("stats.levene_test")),
        "stats.student_t_cdf.calls": n("stats.student_t_cdf"),
        "stats.student_t_cdf.s": s("stats.student_t_cdf"),
        "data.load_csv.s": s("data.load_csv"),
        "data.load_csv.rows_per_s": _ratio(loaded, s("data.load_csv")),
        "data.transform.s": s("data.transform"),
        "data.generate_synthetic.s": s("data.generate_synthetic"),
        "metrics.compute_report.s": s("metrics.compute_report"),
        "model_io.load_model.s": s("model_io.load_model"),
        "model_io.write_payload.s": s("model_io.write_payload"),
        "baselines.train_hnn.s": s("baselines.train_hnn"),
        "baselines.train_hnn.calls": n("baselines.train_hnn"),
        "baselines.mean_phase.s": mean_phase_s,
        "baselines.sigma_phase.s": sigma_phase_s,
        "baselines.ensemble_predict_arrays.s": s("baselines.ensemble_predict_arrays"),
    }
