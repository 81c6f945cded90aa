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
from .nn_core import TrainConfig, TrainingError

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


def _float_repr(value) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _out_dir(args, command: str) -> Path:
    if args.out:
        out = Path(args.out)
    else:
        out = Path(os.environ.get(OUT_ROOT_ENV, "usnrt_runs")) / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config_file(path) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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


def _echo_config(out: Path, command: str, settings: dict) -> None:
    _write_json(out / "config.json", {"command": command, **settings})


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


def _train_settings(args, command: str, **flags) -> dict:
    """Settings of train or benchmark: defaults < config file < the given
    flags and those of _add_tree_flags, whose argparse dests are their keys."""
    tree_flags = {key: value for key, value in vars(args).items() if key in _TRAIN_DEFAULTS}
    defaults = {**_TRAIN_DEFAULTS, **_COMMAND_DEFAULTS[command]}
    return _resolved(defaults, _load_config_file(args.config), {**tree_flags, **flags})


def _fit_model(kind: str, X, y, state: PreprocessState, settings: dict, seed: int):
    train_cfg = _from_settings(TrainConfig, settings, seed=seed)
    if kind == "usnrt":
        cfg = _from_settings(tree.UsnrtConfig, settings, train_cfg=train_cfg, seed=seed)
        return tree.build(X, y, cfg, preprocess=state)
    hnn = {"hidden": settings["hnn_hidden"], "preprocess": state, "rounds": int(settings["hnn_rounds"])}
    if kind == "hnn":
        return baselines.train_hnn(X, y, train_cfg, **hnn)
    if kind == "ensemble":
        members = int(settings["ensemble_members"])
        return baselines.train_ensemble(X, y, train_cfg, n_members=members, **hnn)
    raise _UsageError(f"unknown model kind {kind!r}")


def _model_state(model) -> PreprocessState:
    state = model.preprocess
    if state is None:
        raise DataError("model file carries no preprocessing state")
    return state


def _evaluate(model, dataset: Dataset):
    """Metrics on the normalised label scale, plus the normalised sigmas."""
    state = _model_state(model)
    X = state.transform(dataset)
    if dataset.labels is None:
        raise DataError("evaluation data must include the label column")
    y_norm = state.transform_labels(dataset.labels)
    mu, sigma = model.predict_arrays(X, denormalize=False)
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


def cmd_synth(args) -> int:
    out = _out_dir(args, "synth")
    file_cfg = _load_config_file(args.config)
    defaults = {
        "n": 2000,
        "d": 2,
        "boundary_feature": 0,
        "mean_low": "linear",
        "mean_high": "linear",
        "sigma_low": "1.0",
        "sigma_high": "1.0",
        "seed": 0,
    }
    flags = {
        "n": args.n,
        "d": args.d,
        "boundary_feature": args.boundary_feature,
        "mean_low": args.mean_low,
        "mean_high": args.mean_high,
        "sigma_low": args.sigma_low,
        "sigma_high": args.sigma_high,
        "seed": args.seed[0] if args.seed else None,
    }
    settings = _resolved(defaults, file_cfg, flags)
    try:
        spec = SynthSpec(
            n=int(settings["n"]),
            d=int(settings["d"]),
            boundary_feature=int(settings["boundary_feature"]),
            mean_low=str(settings["mean_low"]),
            mean_high=str(settings["mean_high"]),
            sigma_low=_parse_sigma(settings["sigma_low"]),
            sigma_high=_parse_sigma(settings["sigma_high"]),
            seed=int(settings["seed"]),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    result = generate_synthetic(spec)
    dataset = result.dataset

    feature_names = [c.name for c in dataset.schema.feature_columns]
    header = feature_names + ["y"]
    rows = (
        [_float_repr(dataset.continuous[name][i]) for name in feature_names]
        + [_float_repr(dataset.labels[i])]
        for i in range(dataset.n_rows)
    )
    _write_csv(out / "data.csv", header, rows)
    _write_csv(
        out / "truth.csv",
        ["f_true", "sigma_true"],
        (
            [_float_repr(result.f_true[i]), _float_repr(result.sigma_true[i])]
            for i in range(dataset.n_rows)
        ),
    )
    dataset.schema.to_file(out / "schema.json")
    echo = dict(settings)
    echo["sigma_low"] = str(settings["sigma_low"])
    echo["sigma_high"] = str(settings["sigma_high"])
    _echo_config(out, "synth", echo)
    print(f"wrote {dataset.n_rows} rows to {out / 'data.csv'}")
    return EXIT_OK


def cmd_train(args) -> int:
    out = _out_dir(args, "train")
    settings = _train_settings(
        args, "train", seed=args.seed[0] if args.seed else None, model_kind=args.model_kind
    )
    seed, kind = int(settings["seed"]), settings["model_kind"]
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
    _echo_config(
        out,
        "train",
        {
            **settings,
            "seed": seed,
            "data": str(args.data),
            "schema": str(args.schema),
        },
    )
    print(message)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    out = _out_dir(args, "evaluate")
    model = load_model(args.model)
    state = _model_state(model)
    dataset = load_csv(args.data, state.schema)
    report, sigma_norm = _evaluate(model, dataset)
    payload = report.to_dict()
    del payload["curve"]
    if args.original_units:
        payload["sharpness_original_units"] = 100.0 * float(
            np.mean(state.denormalize_sigma(sigma_norm))
        )
    _write_json(out / "metrics.json", payload)
    _write_csv(
        out / "curve.csv",
        ["expected_probability", "calibration_error"],
        ([_float_repr(expected), _float_repr(err)] for expected, err in report.curve),
    )
    _echo_config(
        out,
        "evaluate",
        {"model": str(args.model), "data": str(args.data), "original_units": bool(args.original_units)},
    )
    print(
        f"n_test={report.n_test} ece={report.ece:.4f} tce={report.tce:.4f} "
        f"sharpness={report.sharpness:.4f}"
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    out = _out_dir(args, "predict")
    model = load_model(args.model)
    state = _model_state(model)
    dataset = load_csv(args.data, state.schema, require_label=False)
    X = state.transform(dataset)
    mu, sigma = model.predict_arrays(X)
    _write_csv(
        out / "predictions.csv",
        ["mu", "sigma"],
        ([_float_repr(m), _float_repr(s)] for m, s in zip(mu, sigma)),
    )
    _echo_config(out, "predict", {"model": str(args.model), "data": str(args.data)})
    print(f"wrote {len(mu)} predictions to {out / 'predictions.csv'}")
    return EXIT_OK


def run_benchmark(dataset: Dataset, kinds, seeds, settings: dict, test_fraction: float):
    """One row per (model kind, seed) plus a mean row per kind.

    Each seed redraws the 80/20 split; every kind trains on identical
    preprocessed data within a seed, so the comparison is apples to apples.
    """
    rows = []
    for seed in seeds:
        train, test = train_test_split(dataset, test_fraction=test_fraction, seed=seed)
        X, y, state = fit_transform(train)
        for kind in kinds:
            model = _fit_model(kind, X, y, state, settings, seed)
            report, _ = _evaluate(model, test)
            rows.append(
                {
                    "model": kind,
                    "seed": seed,
                    "ece": report.ece,
                    "tce": report.tce,
                    "sharpness": report.sharpness,
                }
            )
    for kind in kinds:
        per_kind = [r for r in rows if r["model"] == kind and r["seed"] != "mean"]
        rows.append(
            {
                "model": kind,
                "seed": "mean",
                "ece": float(np.mean([r["ece"] for r in per_kind])),
                "tce": float(np.mean([r["tce"] for r in per_kind])),
                "sharpness": float(np.mean([r["sharpness"] for r in per_kind])),
            }
        )
    return rows


def cmd_benchmark(args) -> int:
    out = _out_dir(args, "benchmark")
    settings = _train_settings(
        args, "benchmark", seeds=args.seed, model_kinds=args.model_kind, test_fraction=args.test_fraction
    )
    seeds, kinds = list(settings["seeds"]), list(settings["model_kinds"])
    for kind in kinds:
        if kind not in MODEL_KINDS:
            raise _UsageError(f"unknown model kind {kind!r}")
    test_fraction = float(settings["test_fraction"])

    schema = Schema.from_file(args.schema)
    dataset = load_csv(args.data, schema)
    rows = run_benchmark(dataset, kinds, seeds, settings, test_fraction)

    _write_csv(
        out / "benchmark.csv",
        ["model", "seed", "ece", "tce", "sharpness"],
        (
            [r["model"], str(r["seed"]), _float_repr(r["ece"]), _float_repr(r["tce"]), _float_repr(r["sharpness"])]
            for r in rows
        ),
    )
    lines = [f"{'model':<10} {'seed':>6} {'ece':>10} {'tce':>10} {'sharpness':>10}"]
    for r in rows:
        lines.append(
            f"{r['model']:<10} {str(r['seed']):>6} {r['ece']:>10.4f} {r['tce']:>10.4f} "
            f"{r['sharpness']:>10.4f}"
        )
    with atomic_write(out / "benchmark.txt") as fh:
        fh.write("\n".join(lines) + "\n")
    _echo_config(
        out,
        "benchmark",
        {
            **settings,
            "seeds": seeds,
            "model_kinds": kinds,
            "test_fraction": test_fraction,
            "data": str(args.data),
            "schema": str(args.schema),
        },
    )
    print("\n".join(lines))
    return EXIT_OK


def cmd_inspect(args) -> int:
    out = _out_dir(args, "inspect")
    model = load_model(args.model)
    if model.model_kind != "usnrt":
        raise _UsageError("inspect applies to usnrt models")
    state = _model_state(model)
    dataset = load_csv(args.data, state.schema)
    X = state.transform(dataset)
    y_norm = state.transform_labels(dataset.labels)

    scatter = tree.root_split_scatter(model, X, y_norm)
    names = state.encoded_feature_names
    if scatter is None:
        with atomic_write(out / "root_split.csv") as fh:
            fh.write("# no splits: single-leaf model\n")
        print("no splits")
    else:
        _write_csv(
            out / "root_split.csv",
            [
                f"split_value:{names[scatter.split_feature_index]}",
                f"companion_value:{names[scatter.companion_feature_index]}",
                "squared_residual",
                "residual_quantile",
            ],
            (
                [
                    _float_repr(scatter.split_values[i]),
                    _float_repr(scatter.companion_values[i]),
                    _float_repr(scatter.squared_residuals[i]),
                    _float_repr(scatter.residual_quantiles[i]),
                ]
                for i in range(scatter.split_values.size)
            ),
        )
        print(
            f"root split on {names[scatter.split_feature_index]} at "
            f"{scatter.threshold:.6g}"
        )

    rows = tree.leaf_report(model, X, dataset.labels)
    _write_csv(
        out / "leaf_report.csv",
        ["region_id", "count", "residual_std"],
        (
            [str(r.region_id), str(r.count), "" if r.residual_std is None else _float_repr(r.residual_std)]
            for r in rows
        ),
    )
    _echo_config(out, "inspect", {"model": str(args.model), "data": str(args.data)})
    print(f"{len(rows)} leaf regions -> {out / 'leaf_report.csv'}")
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _add_common(parser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int, action="append", help="seed (repeatable)")
    parser.add_argument("--out", help=f"output directory (default ${OUT_ROOT_ENV}/<command>)")


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
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--boundary-feature", type=int, dest="boundary_feature")
    p.add_argument("--mean-low", dest="mean_low")
    p.add_argument("--mean-high", dest="mean_high")
    p.add_argument("--sigma-low", dest="sigma_low", help="constant or 'intercept,slope'")
    p.add_argument("--sigma-high", dest="sigma_high")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a labelled CSV")
    _add_common(p)
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
    _add_common(p)
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
