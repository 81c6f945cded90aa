"""Tabular data handling: CSV ingestion against a column schema, train-only
normalisation and one-hot encoding, splitting, and a synthetic
heteroscedastic generator with retained ground truth."""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .model_io import atomic_write
from .nn_core import coerce_fields

__all__ = [
    "Column",
    "DataError",
    "Dataset",
    "PreprocessState",
    "Schema",
    "SynthSpec",
    "SyntheticData",
    "fit_transform",
    "generate_synthetic",
    "load_csv",
    "synthetic_schema",
    "train_test_split",
]

COLUMN_KINDS = ("continuous", "categorical", "label")


class DataError(ValueError):
    """Malformed input data or schema."""


@dataclass(frozen=True)
class Column:
    name: str
    kind: str


@dataclass(frozen=True)
class Schema:
    """Column typing for a dataset: feature columns plus exactly one label."""

    columns: tuple[Column, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names in schema")
        for col in self.columns:
            if col.kind not in COLUMN_KINDS:
                raise DataError(f"column {col.name!r} has unknown kind {col.kind!r}")
        labels = [c for c in self.columns if c.kind == "label"]
        if len(labels) != 1:
            raise DataError("schema must declare exactly one label column")
        if len(self.columns) < 2:
            raise DataError("schema needs at least one feature column")

    @property
    def feature_columns(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.kind != "label")

    @property
    def label_name(self) -> str:
        return next(c.name for c in self.columns if c.kind == "label")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "Schema":
        return cls(tuple(Column(str(k), str(v)) for k, v in mapping.items()))

    def to_mapping(self) -> dict:
        return {c.name: c.kind for c in self.columns}

    @classmethod
    def from_file(cls, path) -> "Schema":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read schema file {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise DataError("schema file must hold a column-name to kind mapping")
        return cls.from_mapping(raw)

    def to_file(self, path) -> None:
        with atomic_write(path) as fh:
            json.dump(self.to_mapping(), fh, indent=2, sort_keys=False)
            fh.write("\n")


@dataclass
class Dataset:
    """Raw rows as one array per schema column, in schema order: floats for a
    continuous or label column, the str cells (an object array) for a
    categorical one. Encoding and normalisation happen separately."""

    schema: Schema
    columns: dict[str, np.ndarray]

    @property
    def labels(self) -> np.ndarray | None:
        """The label column, or None for prediction-only rows."""
        return self.columns.get(self.schema.label_name)

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.schema, {name: values[idx] for name, values in self.columns.items()})


def load_csv(path, schema: Schema, require_label: bool = True) -> Dataset:
    """Parse a headered CSV against the schema.

    Continuous and label cells must be finite numbers. The first fault is
    reported with its 1-based data row and column name: a row whose length
    differs from the header's, then, column by column in schema order, a
    column missing from the header or named in it twice, a missing cell, or
    the first cell that is not a finite number. The label column may be
    absent when require_label is False (prediction-only inputs).
    """
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports often write.
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: file is empty")
    header, data_rows = rows[0], rows[1:]
    if not data_rows:
        raise DataError(f"{path}: no data rows")
    for i, row in enumerate(data_rows, start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i} has {len(row)} cells, header has {len(header)}")

    columns: dict[str, np.ndarray] = {}
    for col in schema.columns:
        if col.name not in header:
            if col.kind == "label" and not require_label:
                continue
            raise DataError(f"{path}: missing column {col.name!r}")
        if header.count(col.name) > 1:
            raise DataError(f"{path}: column {col.name!r} appears more than once in the header")
        position = header.index(col.name)
        cells = [row[position].strip() for row in data_rows]
        if "" in cells:
            raise DataError(f"{path}: row {cells.index('') + 1}, column {col.name!r}: missing value")
        if col.kind == "categorical":
            columns[col.name] = np.array(cells, dtype=object)
        else:
            columns[col.name] = _number_column(path, col.name, cells)
    return Dataset(schema, columns)


def _number_column(path, name: str, cells: list[str]) -> np.ndarray:
    """The cells of column name as floats, naming the 1-based row of the
    first one that is not a finite number."""
    values = []
    for i, cell in enumerate(cells, start=1):
        try:
            value = float(cell)
        except ValueError:
            raise DataError(
                f"{path}: row {i}, column {name!r}: cannot parse {cell!r} as a number"
            ) from None
        if not math.isfinite(value):
            raise DataError(f"{path}: row {i}, column {name!r}: non-finite value {cell!r}")
        values.append(value)
    return np.asarray(values, dtype=float)


@dataclass
class PreprocessState:
    """Frozen normalisation and encoding statistics, fit on training rows only.

    Continuous feature columns and the label are standardised to sample mean
    0 and sample variance 1 (n-1 convention); categorical columns expand to
    one column per training category, unseen categories mapping to an
    all-zeros block. Transforming any later rows reuses these statistics, so
    nothing about test data can leak into them.
    """

    schema: Schema
    continuous_stats: dict[str, tuple[float, float]]
    constant_columns: tuple[str, ...]
    encoding: dict[str, dict[str, int]]
    label_mean: float
    label_std: float
    label_constant: bool = False

    @property
    def d_raw(self) -> int:
        return len(self.schema.feature_columns)

    @property
    def encoded_feature_names(self) -> list[str]:
        names: list[str] = []
        for col in self.schema.feature_columns:
            if col.kind == "continuous":
                names.append(col.name)
            else:
                names.extend(f"{col.name}={cat}" for cat in self.encoding[col.name])
        return names

    @property
    def encoded_width(self) -> int:
        return len(self.encoded_feature_names)

    @classmethod
    def fit(cls, train: Dataset) -> "PreprocessState":
        if train.n_rows < 2:
            raise DataError("need at least 2 training rows to fit preprocessing")
        if train.labels is None:
            raise DataError("training data must include labels")
        stats: dict[str, tuple[float, float]] = {}
        constant: list[str] = []
        encoding: dict[str, dict[str, int]] = {}
        for col in train.schema.feature_columns:
            values = train.columns[col.name]
            if col.kind == "continuous":
                mean, std = _mean_std(values)
                _check_stats(f"continuous column {col.name!r}", mean, std)
                if std == 0.0:
                    constant.append(col.name)
                    warnings.warn(
                        f"continuous column {col.name!r} is constant on the training "
                        "data; it will be transformed to all zeros"
                    )
                stats[col.name] = (mean, std)
            else:
                encoding[col.name] = {cat: i for i, cat in enumerate(sorted(set(values)))}
        label_mean, label_std = _mean_std(train.labels)
        _check_stats("label", label_mean, label_std)
        label_constant = label_std == 0.0
        if label_constant:
            warnings.warn("label is constant on the training data; std treated as 1")
            label_std = 1.0
        return cls(
            schema=train.schema,
            continuous_stats=stats,
            constant_columns=tuple(constant),
            encoding=encoding,
            label_mean=label_mean,
            label_std=label_std,
            label_constant=label_constant,
        )

    def transform(self, data: Dataset) -> np.ndarray:
        """Encode and normalise feature columns into a float matrix."""
        if data.schema.feature_columns != self.schema.feature_columns:
            raise DataError("dataset schema does not match the fitted schema")
        X = np.zeros((data.n_rows, self.encoded_width))
        offset = 0
        for col in self.schema.feature_columns:
            values = data.columns[col.name]
            if col.kind == "continuous":
                if col.name not in self.constant_columns:
                    X[:, offset] = _normalised(col.name, values, *self.continuous_stats[col.name])
                offset += 1
            else:
                # Each cell's slot, -1 for an unseen category, which leaves its block all zeros.
                slots = self.encoding[col.name]
                slot = np.fromiter(map(slots.get, values, repeat(-1)), dtype=np.intp, count=len(values))
                rows = np.flatnonzero(slot >= 0)
                X[rows, offset + slot[rows]] = 1.0
                offset += len(slots)
        return X

    def transform_labels(self, y) -> np.ndarray:
        return _normalised(self.schema.label_name, np.asarray(y, dtype=float), self.label_mean, self.label_std)

    def denormalize_mean(self, mu) -> np.ndarray:
        return np.asarray(mu, dtype=float) * self.label_std + self.label_mean

    def denormalize_sigma(self, sigma) -> np.ndarray:
        return np.asarray(sigma, dtype=float) * self.label_std

    def to_dict(self) -> dict:
        return {
            "schema": [[c.name, c.kind] for c in self.schema.columns],
            "continuous_stats": {k: list(v) for k, v in self.continuous_stats.items()},
            "constant_columns": list(self.constant_columns),
            "encoding": self.encoding,
            "label_mean": self.label_mean,
            "label_std": self.label_std,
            "label_constant": self.label_constant,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PreprocessState":
        """The state of a to_dict block: the schema as [name, kind] pairs in
        column order (a name -> kind mapping in model format versions 1 and 2),
        stats for exactly the continuous features, finite, every std positive
        but those of the columns listed as constant, which are 0, and an
        encoding of exactly the categorical features, each numbering its k
        categories 0..k-1 in order."""
        pairs = payload["schema"]
        if isinstance(pairs, dict):
            pairs = pairs.items()
        state = cls(
            schema=Schema(tuple(Column(str(k), str(v)) for k, v in pairs)),
            continuous_stats={
                k: (float(v[0]), float(v[1]))
                for k, v in payload["continuous_stats"].items()
            },
            constant_columns=tuple(payload["constant_columns"]),
            encoding={
                k: {cat: int(i) for cat, i in v.items()}
                for k, v in payload["encoding"].items()
            },
            label_mean=float(payload["label_mean"]),
            label_std=float(payload["label_std"]),
            label_constant=bool(payload.get("label_constant", False)),
        )
        for key, block, kind in (
            ("continuous_stats", state.continuous_stats, "continuous"),
            ("encoding", state.encoding, "categorical"),
        ):
            if set(block) != {c.name for c in state.schema.feature_columns if c.kind == kind}:
                raise DataError(f"{key} does not name exactly the {kind} features")
        for name, slots in state.encoding.items():
            if list(slots.values()) != list(range(len(slots))):
                raise DataError(f"encoding of {name!r}: slots are not 0..{len(slots) - 1} in order")
        for name, (mean, std) in state.continuous_stats.items():
            _check_stats(f"continuous column {name!r}", mean, std, name in state.constant_columns)
        if set(state.constant_columns) != {k for k, (_, std) in state.continuous_stats.items() if std == 0.0}:
            raise DataError("constant_columns must name exactly the continuous features whose std is 0")
        _check_stats("label", state.label_mean, state.label_std, constant=False)
        return state


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and std (n-1 convention); where they overflow they come
    back non-finite, with no warning, for _check_stats to reject."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(values.mean()), float(values.std(ddof=1))


def _check_stats(what: str, mean: float, std: float, constant: bool = True) -> None:
    """Reject a mean or std that is not finite, and a std <= 0 unless what is constant."""
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise DataError(f"{what}: mean {mean!r} and std {std!r} must be finite")
    if std <= 0.0 and not constant:
        raise DataError(f"{what}: std {std!r} is not positive")


def _normalised(name: str, values: np.ndarray, mean: float, std: float) -> np.ndarray:
    """(values - mean) / std, naming column name if a result is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = (values - mean) / std
    if not np.all(np.isfinite(result)):
        raise DataError(f"column {name!r}: a value is not finite once normalised")
    return result


def fit_transform(train: Dataset):
    """Fit preprocessing on training rows and return (X, y, state)."""
    state = PreprocessState.fit(train)
    X = state.transform(train)
    y = state.transform_labels(train.labels)
    return X, y, state


def train_test_split(dataset: Dataset, test_fraction: float = 0.2, seed: int = 0):
    """Seeded shuffle then split into disjoint, exhaustive (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly in (0, 1)")
    n = dataset.n_rows
    if n < 2:
        raise DataError("need at least 2 rows to split")
    order = np.random.default_rng(seed).permutation(n)
    n_test = int(round(n * test_fraction))
    n_test = min(max(n_test, 1), n - 1)
    return dataset.subset(order[n_test:]), dataset.subset(order[:n_test])


def _linear_mean(X: np.ndarray) -> np.ndarray:
    return X.sum(axis=1) / math.sqrt(X.shape[1])


def _sine_mean(X: np.ndarray) -> np.ndarray:
    return np.sin(math.pi * X.sum(axis=1) / math.sqrt(X.shape[1]))


MEAN_FUNCTIONS = {"linear": _linear_mean, "sine": _sine_mean}


@dataclass(frozen=True)
class SynthSpec:
    """Heteroscedastic generator: features uniform on [-1, 1]^d, two regions
    split by the sign of one coordinate, each with its own mean function and
    noise scale.

    Noise scales are either constants or (intercept, slope) pairs read as
    affine functions of the boundary coordinate; both must stay positive
    over [-1, 1].
    """

    n: int
    d: int
    boundary_feature: int = 0
    mean_low: str = "linear"
    mean_high: str = "linear"
    sigma_low: float | tuple[float, float] = 1.0
    sigma_high: float | tuple[float, float] = 1.0
    seed: int = 0

    def __post_init__(self):
        coerce_fields(self)
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        if not 0 <= self.boundary_feature < self.d:
            raise ValueError("boundary_feature must index a feature")
        for name in (self.mean_low, self.mean_high):
            if name not in MEAN_FUNCTIONS:
                raise ValueError(f"unknown mean function {name!r}")
        for sigma in (self.sigma_low, self.sigma_high):
            if isinstance(sigma, tuple):
                intercept, slope = sigma
                if intercept - abs(slope) <= 0.0:
                    raise ValueError("affine sigma must stay positive on [-1, 1]")
            elif sigma <= 0.0:
                raise ValueError("sigma must be positive")


@dataclass
class SyntheticData:
    """Generated dataset plus the per-row ground truth behind it."""

    dataset: Dataset
    f_true: np.ndarray
    sigma_true: np.ndarray


def synthetic_schema(d: int) -> Schema:
    mapping = {f"x{j + 1}": "continuous" for j in range(d)}
    mapping["y"] = "label"
    return Schema.from_mapping(mapping)


def _sigma_values(sigma, X: np.ndarray, boundary: int) -> np.ndarray:
    if isinstance(sigma, tuple):
        intercept, slope = sigma
        return intercept + slope * X[:, boundary]
    return np.full(X.shape[0], float(sigma))


def generate_synthetic(spec: SynthSpec) -> SyntheticData:
    """Sample a dataset from the generator settings, keeping per-row
    ground-truth (f, sigma) values for oracle-based evaluation."""
    rng = np.random.default_rng(spec.seed)
    X = rng.uniform(-1.0, 1.0, size=(spec.n, spec.d))
    noise = rng.standard_normal(spec.n)
    low = X[:, spec.boundary_feature] <= 0.0
    f = np.where(
        low,
        MEAN_FUNCTIONS[spec.mean_low](X),
        MEAN_FUNCTIONS[spec.mean_high](X),
    )
    sigma = np.where(
        low,
        _sigma_values(spec.sigma_low, X, spec.boundary_feature),
        _sigma_values(spec.sigma_high, X, spec.boundary_feature),
    )
    y = f + sigma * noise
    columns = {**{f"x{j + 1}": X[:, j].copy() for j in range(spec.d)}, "y": y}
    return SyntheticData(Dataset(synthetic_schema(spec.d), columns), f_true=f, sigma_true=sigma)
