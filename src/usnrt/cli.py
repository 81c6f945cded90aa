"""Command-line front end.

Subcommands: synth | train | evaluate | predict | benchmark | inspect.
Settings resolve as defaults < config file (--config, JSON) < flags, and the
fully resolved configuration is echoed into the output directory so every
run can be reproduced byte for byte. Exit codes: 0 success, 1 usage error,
2 data error, 3 training failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import baselines, tree
from .data import (
    DataError,
    Dataset,
    PreprocessState,
    Schema,
    SynthSpec,
    fit_transform,
    generate_synthetic,
    load_csv,
    train_test_split,
)
from .metrics import compute_report
from .model_io import MODEL_KINDS, ModelFormatError, atomic_write, load_model, save_model
from .nn_core import TrainConfig, TrainingError, coerce_value

OUT_ROOT_ENV = "USNRT_OUT_ROOT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's default 2
        raise _UsageError(f"{self.prog}: {message}")


def _quoted(text: str) -> str:
    """text as a CSV field: quoted, its quotes doubled, when it holds a comma,
    a quote, a carriage return or a newline, so csv.reader reads one field."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return "" if value is None else _quoted(str(value))


def _write_columns(path: Path, columns: dict) -> None:
    """Write a CSV table given as {header: column}, row by row. A float cell
    is its repr (it reads back bit for bit), None an empty cell, anything
    else its str, quoted where needed."""
    # A float array's tolist() gives Python floats: no _cell call, never quoted.
    cells = [
        map(repr, column.tolist()) if isinstance(column, np.ndarray) else map(_cell, column)
        for column in columns.values()
    ]
    with atomic_write(path) as fh:
        fh.write(",".join(map(_quoted, columns)) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _out_dir(args) -> Path:
    if args.out:
        out = Path(args.out)
    else:
        out = Path(os.environ.get(OUT_ROOT_ENV, "usnrt_runs")) / args.command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config_file(path) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError("config file must hold a JSON object")
    return payload


def _resolved(defaults: dict, file_cfg: dict, flag_values: dict) -> dict:
    """defaults < config file < explicit flags."""
    merged = dict(defaults)
    for key, value in file_cfg.items():
        if key in merged:
            merged[key] = value
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value
    return merged


def _write_json(path: Path, payload) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _echo_config(out: Path, args, settings: dict) -> None:
    """config.json: the command, its resolved settings and the files it read."""
    paths = {key: str(getattr(args, key)) for key in ("model", "data", "schema") if hasattr(args, key)}
    _write_json(out / "config.json", {"command": args.command, **settings, **paths})


# Settings key of a config field, where it is not the field name.
_SETTING_KEYS = {"split_stride": "stride"}


def _setting_fields(cls):
    """(settings key, field) of each field of config dataclass cls that the
    train settings carry: all but seed and train_cfg, which each fit sets."""
    return [(_SETTING_KEYS.get(f.name, f.name), f) for f in fields(cls) if f.name not in ("seed", "train_cfg")]


def _from_settings(cls, settings: dict, **per_fit):
    return cls(**{f.name: settings[key] for key, f in _setting_fields(cls)}, **per_fit)


# Settings of train and benchmark. The tree and training defaults are the
# UsnrtConfig and TrainConfig field defaults.
_TRAIN_DEFAULTS = {
    **{key: f.default for cls in (tree.UsnrtConfig, TrainConfig) for key, f in _setting_fields(cls)},
    "hnn_hidden": None,
    "hnn_rounds": baselines.HNN_ROUNDS,
    "ensemble_members": baselines.ENSEMBLE_MEMBERS,
}
# Each command's own settings on top of _TRAIN_DEFAULTS.
_COMMAND_DEFAULTS = {
    "train": {"seed": 0, "model_kind": "usnrt"},
    "benchmark": {"seeds": [0, 1, 2, 3, 4], "model_kinds": ["usnrt", "hnn"], "test_fraction": 0.2},
}


def _train_settings(args, **flags) -> dict:
    """Settings of train or benchmark: defaults < config file < the given
    flags and those of _add_tree_flags, whose argparse dests are their keys."""
    tree_flags = {key: value for key, value in vars(args).items() if key in _TRAIN_DEFAULTS}
    defaults = {**_TRAIN_DEFAULTS, **_COMMAND_DEFAULTS[args.command]}
    return _resolved(defaults, _load_config_file(args.config), {**tree_flags, **flags})


def _fit_model(kind: str, X, y, state: PreprocessState, settings: dict, seed: int):
    train_cfg = _from_settings(TrainConfig, settings, seed=seed)
    if kind == "usnrt":
        cfg = _from_settings(tree.UsnrtConfig, settings, train_cfg=train_cfg, seed=seed)
        return tree.build(X, y, cfg, preprocess=state)
    hidden = coerce_value("hnn_hidden", settings["hnn_hidden"], "Sequence[int] | None")
    if any(size < 1 for size in hidden or ()):
        raise _UsageError(f"hnn_hidden sizes must be at least 1, got {hidden}")
    hnn = {
        "hidden": hidden,
        "preprocess": state,
        "rounds": coerce_value("hnn_rounds", settings["hnn_rounds"], "int"),
    }
    if kind == "hnn":
        return baselines.train_hnn(X, y, train_cfg, **hnn)
    if kind == "ensemble":
        members = coerce_value("ensemble_members", settings["ensemble_members"], "int")
        return baselines.train_ensemble(X, y, train_cfg, n_members=members, **hnn)
    raise _UsageError(f"unknown model kind {kind!r}")


def _model_state(model) -> PreprocessState:
    state = model.preprocess
    if state is None:
        raise DataError("model file carries no preprocessing state")
    return state


def _predict(model, X, source, denormalize: bool = True):
    """model.predict_arrays(X); a prediction that is not finite (features so
    large that the networks overflow) is a data error naming source."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sigma = model.predict_arrays(X, denormalize=denormalize)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        raise DataError(f"{source}: a predicted mu or sigma is not finite; are some features too large?")
    return mu, sigma


def _evaluate(model, dataset: Dataset, source="the test split"):
    """Metrics on the normalised label scale, plus the normalised sigmas."""
    state = _model_state(model)
    X = state.transform(dataset)
    if dataset.labels is None:
        raise DataError("evaluation data must include the label column")
    y_norm = state.transform_labels(dataset.labels)
    mu, sigma = _predict(model, X, source, denormalize=False)
    return compute_report(mu, sigma, y_norm), sigma


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def _parse_sigma(text: str):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) == 1:
        return float(parts[0])
    if len(parts) == 2:
        return (float(parts[0]), float(parts[1]))
    raise _UsageError(f"sigma must be 'c' or 'intercept,slope', got {text!r}")


# Settings of synth: the SynthSpec fields and defaults, plus the CLI's n and d.
# A sigma goes through _parse_sigma, so it may also be 'intercept,slope' text.
_SYNTH_DEFAULTS = {**{f.name: f.default for f in fields(SynthSpec)}, "n": 2000, "d": 2}
_SIGMA_KEYS = ("sigma_low", "sigma_high")


def cmd_synth(args) -> int:
    out = _out_dir(args)
    flags = {key: value for key, value in vars(args).items() if key in _SYNTH_DEFAULTS}
    settings = _resolved(_SYNTH_DEFAULTS, _load_config_file(args.config), flags)
    spec = SynthSpec(**{**settings, **{key: _parse_sigma(settings[key]) for key in _SIGMA_KEYS}})
    result = generate_synthetic(spec)
    dataset = result.dataset

    _write_columns(out / "data.csv", dataset.columns)
    _write_columns(out / "truth.csv", {"f_true": result.f_true, "sigma_true": result.sigma_true})
    dataset.schema.to_file(out / "schema.json")
    _echo_config(out, args, {**settings, **{key: str(settings[key]) for key in _SIGMA_KEYS}})
    print(f"wrote {dataset.n_rows} rows to {out / 'data.csv'}")
    return EXIT_OK


def cmd_train(args) -> int:
    out = _out_dir(args)
    settings = _train_settings(args, seed=args.seed, model_kind=args.model_kind)
    seed, kind = coerce_value("seed", settings["seed"], "int"), settings["model_kind"]
    if kind not in MODEL_KINDS:
        raise _UsageError(f"unknown model kind {kind!r}")

    schema = Schema.from_file(args.schema)
    dataset = load_csv(args.data, schema)
    X, y, state = fit_transform(dataset)
    model = _fit_model(kind, X, y, state, settings, seed)

    model_path = out / "model.json"
    save_model(model, model_path)
    message = f"trained {kind} -> {model_path}"
    if kind == "usnrt":
        _write_json(out / "tree_summary.json", tree.describe(model))
        message = f"trained usnrt: depth {model.depth}, {model.leaf_count} leaves -> {model_path}"
    _write_json(out / "train_log.json", model.train_log)
    _echo_config(out, args, {**settings, "seed": seed})
    print(message)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    model = load_model(args.model)
    state = _model_state(model)
    dataset = load_csv(args.data, state.schema)
    report, sigma_norm = _evaluate(model, dataset, args.data)
    payload = report.to_dict()
    del payload["curve"]
    if args.original_units:
        payload["sharpness_original_units"] = 100.0 * float(
            np.mean(state.denormalize_sigma(sigma_norm))
        )
    _write_json(out / "metrics.json", payload)
    expected, error = zip(*report.curve)
    _write_columns(out / "curve.csv", {"expected_probability": expected, "calibration_error": error})
    _echo_config(out, args, {"original_units": bool(args.original_units)})
    print(
        f"n_test={report.n_test} ece={report.ece:.4f} tce={report.tce:.4f} "
        f"sharpness={report.sharpness:.4f}"
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    out = _out_dir(args)
    model = load_model(args.model)
    state = _model_state(model)
    dataset = load_csv(args.data, state.schema, require_label=False)
    X = state.transform(dataset)
    mu, sigma = _predict(model, X, args.data)
    _write_columns(out / "predictions.csv", {"mu": mu, "sigma": sigma})
    _echo_config(out, args, {})
    print(f"wrote {len(mu)} predictions to {out / 'predictions.csv'}")
    return EXIT_OK


def run_benchmark(dataset: Dataset, kinds, seeds, settings: dict, test_fraction: float) -> dict[str, list]:
    """The comparison table as {header: column}: one row per (seed, model
    kind), seed-major, then a mean row per kind over that kind's rows.

    Each seed redraws the 80/20 split; every kind trains on identical
    preprocessed data within a seed, so the comparison is apples to apples.
    """
    scores = ("ece", "tce", "sharpness")
    table = {"model": [], "seed": [], **{key: [] for key in scores}}

    def add(*row):
        for column, value in zip(table.values(), row):
            column.append(value)

    for seed in seeds:
        train, test = train_test_split(dataset, test_fraction=test_fraction, seed=seed)
        X, y, state = fit_transform(train)
        for kind in kinds:
            report, _ = _evaluate(_fit_model(kind, X, y, state, settings, seed), test)
            add(kind, seed, *(getattr(report, key) for key in scores))
    cells = {key: np.array(table[key]) for key in ("model", *scores)}
    for kind in kinds:
        rows = cells["model"] == kind
        add(kind, "mean", *(float(np.mean(cells[key][rows])) for key in scores))
    return table


def cmd_benchmark(args) -> int:
    out = _out_dir(args)
    settings = _train_settings(args, seeds=args.seed, model_kinds=args.model_kind, test_fraction=args.test_fraction)
    seeds = coerce_value("seeds", settings["seeds"], "Sequence[int]")
    kinds = coerce_value("model_kinds", settings["model_kinds"], "Sequence[str]")
    for key, values in (("seeds", seeds), ("model_kinds", kinds)):
        if not values:
            raise _UsageError(f"{key} must not be empty")
        if len(set(values)) < len(values):
            raise _UsageError(f"{key} must not repeat an entry")
    for kind in kinds:
        if kind not in MODEL_KINDS:
            raise _UsageError(f"unknown model kind {kind!r}")
    test_fraction = coerce_value("test_fraction", settings["test_fraction"], "float")

    schema = Schema.from_file(args.schema)
    dataset = load_csv(args.data, schema)
    table = run_benchmark(dataset, kinds, seeds, settings, test_fraction)

    _write_columns(out / "benchmark.csv", table)
    lines = [f"{'model':<10} {'seed':>6} {'ece':>10} {'tce':>10} {'sharpness':>10}"]
    lines += [
        f"{kind:<10} {str(seed):>6} {ece:>10.4f} {tce:>10.4f} {sharpness:>10.4f}"
        for kind, seed, ece, tce, sharpness in zip(*table.values())
    ]
    with atomic_write(out / "benchmark.txt") as fh:
        fh.write("\n".join(lines) + "\n")
    _echo_config(
        out, args, {**settings, "seeds": seeds, "model_kinds": kinds, "test_fraction": test_fraction}
    )
    print("\n".join(lines))
    return EXIT_OK


def cmd_inspect(args) -> int:
    out = _out_dir(args)
    model = load_model(args.model)
    if model.model_kind != "usnrt":
        raise _UsageError("inspect applies to usnrt models")
    state = _model_state(model)
    dataset = load_csv(args.data, state.schema)
    X = state.transform(dataset)
    y_norm = state.transform_labels(dataset.labels)
    with np.errstate(over="ignore", invalid="ignore"):
        report = tree.leaf_report(model, X, dataset.labels)
    for key, column in report.items():
        for region, value in zip(report["region_id"], column):
            if value is not None and not np.isfinite(value):
                raise DataError(f"{args.data}: leaf region {region}: {key} is not finite; is a label too large?")

    scatter = tree.root_split_scatter(model, X, y_norm)
    names = state.encoded_feature_names
    if scatter is None:
        with atomic_write(out / "root_split.csv") as fh:
            fh.write("# no splits: single-leaf model\n")
        print("no splits")
    else:
        _write_columns(
            out / "root_split.csv",
            {
                f"split_value:{names[scatter.split_feature_index]}": scatter.split_values,
                f"companion_value:{names[scatter.companion_feature_index]}": scatter.companion_values,
                "squared_residual": scatter.squared_residuals,
                "residual_quantile": scatter.residual_quantiles,
            },
        )
        print(
            f"root split on {names[scatter.split_feature_index]} at "
            f"{scatter.threshold:.6g}"
        )

    _write_columns(out / "leaf_report.csv", report)
    _echo_config(out, args, {})
    print(f"{len(report['region_id'])} leaf regions -> {out / 'leaf_report.csv'}")
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


class _Once(argparse.Action):
    """Store a flag's value, refusing the flag a second time."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} may be given once")
        setattr(namespace, self.dest, values)


def _add_common(parser, seed_action=None) -> None:
    """--out; with a seed_action (_Once, or "append" for a repeatable seed) also --config and --seed."""
    parser.add_argument("--out", help=f"output directory (default ${OUT_ROOT_ENV}/<command>)")
    if seed_action:
        parser.add_argument("--config", help="JSON config file; flags override its values")
        parser.add_argument("--seed", type=int, action=seed_action, help="seed")


def _add_tree_flags(parser) -> None:
    parser.add_argument("--alpha", type=float, help="split significance level")
    parser.add_argument("--n-min", type=int, help="minimum leaf sample count")
    parser.add_argument(
        "--n-leaves",
        type=int,
        help="cap on leaves; sets n_min = max(n_train / n_leaves, 1000)",
    )
    parser.add_argument("--stride", type=int, help="threshold stride in the split search")


def build_parser() -> _Parser:
    parser = _Parser(prog="usnrt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic heteroscedastic dataset")
    _add_common(p, _Once)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--boundary-feature", type=int)
    p.add_argument("--mean-low")
    p.add_argument("--mean-high")
    p.add_argument("--sigma-low", help="constant or 'intercept,slope'")
    p.add_argument("--sigma-high")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a labelled CSV")
    _add_common(p, _Once)
    _add_tree_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--model-kind", choices=MODEL_KINDS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="compute calibration metrics on a test CSV")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument(
        "--original-units",
        action="store_true",
        dest="original_units",
        help="also report sharpness in original label units",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="write per-row (mu, sigma) predictions")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("benchmark", help="multi-seed train/test comparison table")
    _add_common(p, "append")
    _add_tree_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument(
        "--model-kind",
        action="append",
        choices=MODEL_KINDS,
        help="model kind to benchmark (repeatable)",
    )
    p.add_argument("--test-fraction", type=float)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("inspect", help="export root-split scatter and leaf heterogeneity")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ModelFormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
