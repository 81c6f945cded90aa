"""Command-line front end.

Subcommands: synth | train | evaluate | predict | benchmark | inspect.
Settings resolve as defaults < config file (--config, JSON) < flags, and the
fully resolved configuration is echoed into the output directory so every
run can be reproduced byte for byte. Exit codes: 0 success, 1 usage error,
2 data error, 3 training failure or a worker process lost (as when killed
for lack of memory). Each command runs with the loaded OpenBLAS at one
thread (usnrt.parallel.one_blas_thread).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
from dataclasses import fields, replace
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import baselines, tree
from .data import (
    DataError,
    Dataset,
    Schema,
    SynthSpec,
    fit_transform,
    generate_synthetic,
    load_csv,
    map_csv,
    train_test_split,
)
from .metrics import compute_report, sharpness
from .model_io import MODEL_KINDS, ModelFormatError, atomic_write, load_model, read_json, save_model, write_json
from .nn_core import TrainConfig, TrainingError, coerce_value, row_blocks
from .parallel import WorkerLost, fork_map, one_blas_thread, pool_size

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


# Rows that _write_columns joins into one string. One string per group, not
# per row, is most of the writer's speed-up; groups of BLOCK_ROWS rows raised
# predict's peak RSS by 2 MiB on a 50,000-row file, and 256 rows did not.
_WRITE_ROWS = 256


def _array_cells(column: np.ndarray):
    """The cells of an array column, converted one block of rows at a time.
    A float array's tolist() gives Python floats: no _cell call, never quoted."""
    return chain.from_iterable(map(repr, column[rows].tolist()) for rows in row_blocks(len(column)))


def _csv_rows(columns: dict):
    """The rows of a table given as {header: column} as CSV text, one string
    per _WRITE_ROWS rows. A float cell is its repr (it reads back bit for
    bit), None an empty cell, anything else its str, quoted where needed."""
    cells = [
        _array_cells(column) if isinstance(column, np.ndarray) else map(_cell, column)
        for column in columns.values()
    ]
    rows = zip(*cells)
    while group := list(islice(rows, _WRITE_ROWS)):
        yield "\n".join(map(",".join, group)) + "\n"


def _write_csv(path: Path, header, rows) -> None:
    """Write a CSV file: the header's names, quoted where needed, then the
    text of rows, the strings that _csv_rows gives."""
    with atomic_write(path) as fh:
        fh.write(",".join(map(_quoted, header)) + "\n")
        fh.writelines(rows)


# A table of float arrays with at least this many cells is written in parts
# by fork_map's processes when a pool can run. On 2 CPUs, in medians of 80
# interleaved writes of three float columns, 16,000 cells took 14.6 ms in one
# process and 21.6 ms in two, 24,000 took 17.6 and 21.5 ms, and 40,000 took
# 47.9 and 33.3 ms: a fork, its copied pages and the temporary file cost a
# few ms, which the repr of about 25,000 floats pays for.
_FORK_CELLS = 1 << 15


def _write_columns(path: Path, columns: dict) -> None:
    """Write a CSV table given as {header: column}, _WRITE_ROWS rows at a
    time. A table of float arrays with at least _FORK_CELLS cells is cut
    into one contiguous range of rows per fork_map process, where a pool can
    run: this process writes the header and the first range into the file,
    each child writes the text of its range to a temporary file beside it,
    and this process then appends those in order. No process holds more
    than a row group of text, and the temporary files are removed on every
    path."""
    floats = all(isinstance(column, np.ndarray) and column.dtype.kind == "f" for column in columns.values())
    n_rows = len(next(iter(columns.values()))) if floats and columns else 0
    processes = pool_size(n_rows) if n_rows * len(columns) >= _FORK_CELLS else 1
    if processes < 2:
        _write_csv(path, columns, _csv_rows(columns))
        return
    cuts = [k * n_rows // processes for k in range(processes + 1)]
    temporary = [f"{path}.{os.getpid()}.{i}.tmp" for i in range(1, processes)]  # ranges 1, 2, ...
    with atomic_write(path) as fh:
        fh.write(",".join(map(_quoted, columns)) + "\n")

        def write_range(i: int) -> None:
            rows = _csv_rows({name: column[cuts[i] : cuts[i + 1]] for name, column in columns.items()})
            if i == 0:
                fh.writelines(rows)
                return
            with open(temporary[i - 1], "w", encoding="utf-8", newline="") as part:
                part.writelines(rows)

        try:
            fork_map(write_range, processes)
            for name in temporary:
                with open(name, encoding="utf-8", newline="") as part:
                    shutil.copyfileobj(part, fh)
        finally:
            for name in temporary:
                with contextlib.suppress(OSError):
                    os.remove(name)


def _out_dir(args) -> Path:
    """--out, or $USNRT_OUT_ROOT/<command>. It is not made here: atomic_write
    makes it with the command's first file. A path that is, or lies under, an
    existing file is refused at once."""
    if args.out:
        out = Path(args.out)
    else:
        out = Path(os.environ.get(OUT_ROOT_ENV, "usnrt_runs")) / args.command
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise _UsageError(f"output directory {out}: {existing} is not a directory")
    return out


def _settings(args, defaults: dict, **flags) -> dict:
    """Each key of defaults resolved as default < config file (--config) <
    flag: the one given here, else the argparse dest of that name. A flag
    left at None counts as not given; config keys outside defaults are
    ignored."""
    config = read_json(args.config, "config", DataError) if args.config else {}
    flags = {**vars(args), **flags}
    return {
        key: config.get(key, default) if flags.get(key) is None else flags[key]
        for key, default in defaults.items()
    }


def _write_json(path: Path, payload) -> None:
    write_json(path, payload, indent=2, sort_keys=True)


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


def _trainer(kind, settings: dict, seeds):
    """fit(X, y, state, seed), training a model of kind with one of seeds.
    Every setting that kind reads, and each seed, is converted and checked
    here, before any data is read or model trained; the others are ignored."""
    if kind not in MODEL_KINDS:
        raise _UsageError(f"unknown model kind {kind!r}")
    train_cfg = _from_settings(TrainConfig, settings)
    cfgs = {seed: replace(train_cfg, seed=seed) for seed in seeds}
    if kind == "usnrt":
        tree_cfg = _from_settings(tree.UsnrtConfig, settings, train_cfg=train_cfg)
        cfgs = {seed: replace(tree_cfg, train_cfg=cfg, seed=seed) for seed, cfg in cfgs.items()}
        return lambda X, y, state, seed: tree.build(X, y, cfgs[seed], preprocess=state)
    hidden = coerce_value("hnn_hidden", settings["hnn_hidden"], "Sequence[int] | None")
    if any(size < 1 for size in hidden or ()):
        raise _UsageError(f"hnn_hidden sizes must be at least 1, got {hidden}")
    hnn = {"hidden": hidden, "rounds": coerce_value("hnn_rounds", settings["hnn_rounds"], "int")}
    if kind == "ensemble":
        hnn["n_members"] = coerce_value("ensemble_members", settings["ensemble_members"], "int")
    for key in ("n_members", "rounds"):
        if hnn.get(key, 1) < 1:
            raise ValueError(f"{key} must be at least 1")
    if kind == "hnn":
        return lambda X, y, state, seed: baselines.train_hnn(X, y, cfgs[seed], preprocess=state, **hnn)
    return lambda X, y, state, seed: baselines.train_ensemble(X, y, cfgs[seed], preprocess=state, **hnn)


def _model(args):
    """The model of --model; inspect takes only a usnrt model."""
    model = load_model(args.model)
    if args.command == "inspect" and model.model_kind != "usnrt":
        raise _UsageError("inspect applies to usnrt models")
    if model.preprocess is None:
        raise DataError("model file carries no preprocessing state")
    return model


def _encoded(model, dataset: Dataset, labelled: bool = True):
    """(X, labels): dataset's rows encoded for model, and its labels, or None
    when not labelled. The labels are copied: loaded columns may be views of
    one parsed table, which a view would keep whole."""
    return model.preprocess.transform(dataset), dataset.labels.copy() if labelled else None


def _read_back(args, model, task, pack=lambda result: result) -> list:
    """task(X, labels) over the rows of --data, encoded for model, read by
    map_csv, with pack for each part's result; labels are None for
    predict, which does not use them, nor parse them where it can help it."""
    labelled = args.command != "predict"

    def encoded_task(dataset):
        X, labels = _encoded(model, dataset, labelled)
        dataset.columns.clear()  # the parsed table is not kept once it is encoded
        return task(X, labels)

    return map_csv(args.data, model.preprocess.schema, encoded_task, labelled, use_label=labelled, pack=pack)


def _predict(model, X, source, denormalize: bool = True):
    """model.predict_arrays(X); a prediction that is not finite (features so
    large that the networks overflow) is a data error naming source."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sigma = model.predict_arrays(X, denormalize=denormalize)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        raise DataError(f"{source}: a predicted mu or sigma is not finite; are some features too large?")
    return mu, sigma


def _scored(model, X, labels, source):
    """(mu, sigma, y): the model's predictions for encoded rows X and their
    labels, all on the model's normalised label scale."""
    y_norm = model.preprocess.transform_labels(labels)
    mu, sigma = _predict(model, X, source, denormalize=False)
    return mu, sigma, y_norm


def _evaluate(model, X, labels):
    """Metrics of the model on encoded test rows X, on its normalised label scale."""
    return compute_report(*_scored(model, X, labels, "the test split"))


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
    settings = _settings(args, _SYNTH_DEFAULTS)
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
    settings = _settings(args, {**_TRAIN_DEFAULTS, **_COMMAND_DEFAULTS["train"]})
    seed = coerce_value("seed", settings["seed"], "int")
    fit = _trainer(settings["model_kind"], settings, [seed])
    X, y, state = fit_transform(load_csv(args.data, Schema.from_file(args.schema)))
    model = fit(X, y, state, seed)

    model_path = out / "model.json"
    save_model(model, model_path)
    message = f"trained {model.model_kind} -> {model_path}"
    if model.model_kind == "usnrt":
        _write_json(out / "tree_summary.json", tree.describe(model))
        message = f"trained usnrt: depth {model.depth}, {model.leaf_count} leaves -> {model_path}"
    _write_json(out / "train_log.json", model.train_log)
    _echo_config(out, args, {**settings, "seed": seed})
    print(message)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    model = _model(args)
    parts = _read_back(args, model, lambda X, labels: _scored(model, X, labels, args.data))
    mu, sigma_norm, y_norm = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    report = compute_report(mu, sigma_norm, y_norm)
    payload = report.to_dict()
    del payload["curve"]
    if args.original_units:
        payload["sharpness_original_units"] = sharpness(model.preprocess.denormalize_sigma(sigma_norm))
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
    model = _model(args)

    def rows(X, labels):
        mu, sigma = _predict(model, X, args.data)
        return len(mu), _csv_rows({"mu": mu, "sigma": sigma})

    # The process that reads a part formats its rows; the rows of a file
    # read whole are formatted as they are written.
    counts, texts = zip(*_read_back(args, model, rows, pack=lambda result: (result[0], list(result[1]))))
    _write_csv(out / "predictions.csv", ("mu", "sigma"), chain.from_iterable(texts))
    _echo_config(out, args, {})
    print(f"wrote {sum(counts)} predictions to {out / 'predictions.csv'}")
    return EXIT_OK


def run_benchmark(dataset: Dataset, fits: dict, seeds, test_fraction: float) -> dict[str, list]:
    """The comparison table as {header: column}: one row per (seed, model
    kind), seed-major, then a mean row per kind over that kind's rows.
    fits maps each model kind, in table order, to its fit(X, y, state, seed)
    (as _trainer gives it).

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
        for kind, fit in fits.items():
            report = _evaluate(fit(X, y, state, seed), state.transform(test), test.labels)
            add(kind, seed, *(getattr(report, key) for key in scores))
    cells = {key: np.array(table[key]) for key in ("model", *scores)}
    for kind in fits:
        rows = cells["model"] == kind
        add(kind, "mean", *(float(np.mean(cells[key][rows])) for key in scores))
    return table


def cmd_benchmark(args) -> int:
    out = _out_dir(args)
    defaults = {**_TRAIN_DEFAULTS, **_COMMAND_DEFAULTS["benchmark"]}
    settings = _settings(args, defaults, seeds=args.seed, model_kinds=args.model_kind)
    seeds = coerce_value("seeds", settings["seeds"], "Sequence[int]")
    kinds = coerce_value("model_kinds", settings["model_kinds"], "Sequence[str]")
    for key, values in (("seeds", seeds), ("model_kinds", kinds)):
        if not values:
            raise _UsageError(f"{key} must not be empty")
        if len(set(values)) < len(values):
            raise _UsageError(f"{key} must not repeat an entry")
    test_fraction = coerce_value("test_fraction", settings["test_fraction"], "float")
    if not 0.0 < test_fraction < 1.0:
        raise _UsageError("test_fraction must lie strictly in (0, 1)")
    fits = {kind: _trainer(kind, settings, seeds) for kind in kinds}

    dataset = load_csv(args.data, Schema.from_file(args.schema))
    table = run_benchmark(dataset, fits, seeds, test_fraction)

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
    model = _model(args)
    state = model.preprocess
    X, labels = _encoded(model, load_csv(args.data, state.schema))
    y_norm = state.transform_labels(labels)
    with np.errstate(over="ignore", invalid="ignore"):
        report = tree.leaf_report(model, X, labels)
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
        with one_blas_thread():
            return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ModelFormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except WorkerLost as exc:  # a TrainingError, given one message in every command
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
