"""Tabular data handling: CSV ingestion against a column schema, train-only
normalisation and one-hot encoding, splitting, and a synthetic
heteroscedastic generator with retained ground truth."""

from __future__ import annotations

import csv
import io
import math
import os
import sys
import warnings
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter

import numpy as np

from .model_io import read_json, write_json
from .nn_core import BLOCK_ROWS, coerce_fields

__all__ = [
    "Column",
    "DataError",
    "Dataset",
    "NumericCsv",
    "PreprocessState",
    "Schema",
    "SynthSpec",
    "SyntheticData",
    "fit_transform",
    "generate_synthetic",
    "load_csv",
    "load_csv_blocks",
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
        return cls.from_mapping(read_json(path, "schema", DataError))

    def to_file(self, path) -> None:
        write_json(path, self.to_mapping(), indent=2)


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


# Data rows that load_csv_blocks parses at a time. Memory while it reads
# is this many rows of cells plus the parsed columns, whatever the file's length.
_BLOCK_ROWS = BLOCK_ROWS
# Bytes that _plain_rows reads at a time.
_SCAN_BYTES = 1 << 20
# The most data bytes in one part of NumericCsv.parts. cli._read_csv reads
# a file of two parts or more in parts, with at most one process per part.
# Below that a fork stops paying for evaluate: on 2 CPUs, a 516 KB file
# (8,700 rows, d 2, a usnrt model) took 10.6 ms to evaluate in one process
# and 10.8 ms in two, though predict, which also formats its rows, went from
# 17.7 to 13.8 ms; a 1.8 MB training file (10,000 rows, d 8) loaded in 34-36
# ms in two against 47-49 ms in one. A file read in one process is parsed
# whole: one process streaming parts was 3-5% slower than one whole-file
# parse (np.loadtxt reads a path in chunks and a byte stream line by line).
_PART_BYTES = 1 << 19


def load_csv(path, schema: Schema, require_label: bool = True) -> Dataset:
    """Parse a headered CSV against the schema.

    Continuous and label cells must be finite numbers. A file that
    NumericCsv.scan takes is parsed in one np.loadtxt call. Any other file,
    and one that the parse refuses, is read by load_csv_blocks, which names
    the first fault. When require_label is False (prediction-only inputs)
    the label column is optional: it is read when the header has it and its
    cells are finite numbers, and is otherwise left out, never a fault.
    """
    plain = NumericCsv.scan(path, schema, require_label)
    dataset = plain.dataset() if plain is not None else None
    return dataset if dataset is not None else load_csv_blocks(path, schema, require_label)


def load_csv_blocks(path, schema: Schema, require_label: bool = True) -> Dataset:
    """load_csv's block path: the file is read in blocks of _BLOCK_ROWS
    rows, never held whole; faults are recorded as they are met and the
    first in this order is raised after the last row, with its 1-based data
    row and column name: a file that cannot be read, an empty file or one
    with no data rows, a row whose length differs from the header's, then,
    column by column in schema order, a column missing from the header or
    named in it twice, a missing cell, or the first cell that is not a
    finite number."""
    blocks = _blocks(path)
    header = next(blocks)
    if header is None:
        raise DataError(f"{path}: file is empty")
    readers = [_ColumnReader(path, col, header) for col in schema.columns]
    length_fault = None
    n_rows = 0
    for block in blocks:
        if length_fault is None:
            length_fault = _length_fault(path, block, len(header), n_rows)
            if length_fault is None:
                for reader in readers:
                    reader.add(block, n_rows + 1)
        n_rows += len(block)
    if not n_rows:
        raise DataError(f"{path}: no data rows")
    if length_fault is not None:
        raise DataError(length_fault)

    columns: dict[str, np.ndarray] = {}
    for reader in readers:
        if reader.fault is None:
            columns[reader.col.name] = reader.values()
        elif require_label or reader.col.kind != "label":
            raise DataError(reader.fault)
    return Dataset(schema, columns)


class NumericCsv:
    """A CSV file whose rows np.loadtxt reads as load_csv_blocks would,
    found by scan: the byte offset of its first data row and its size, so
    that the whole file, or any part of its data bytes cut by parts, can be
    checked and parsed on its own.

    Both paths strip the str.isspace characters of a cell and parse the
    rest with CPython's own string-to-double conversion, so the numbers are
    bit-identical; a spelling that loadtxt does not take (1_0, non-ASCII
    digits) makes dataset return None, and load_csv_blocks reads the file.
    The parse fills one record per row, a float64 field per column, so that
    it still refuses a row with more or fewer cells than the header. A label
    that the caller does not use (scan's use_label False) is a 2-character
    text field instead, 8 bytes like the others: its cells are never
    converted to numbers, whatever they hold (S8 would refuse a non-ASCII
    cell). An optional label that is used is parsed by _optional_cell, as
    the block path parses it, and left out unless every cell is finite, so
    a blank or NA label never makes dataset return None.

    Not a dataclass: defined as one, it moved the peak RSS of a process that
    runs train, evaluate and predict (perfbench's fit-hetero-d8) up by about
    0.6 MiB.
    """

    def __init__(
        self,
        path: str,
        schema: Schema,
        header: list[str],
        optional: frozenset[str],
        unused: frozenset[str],
        start: int,
        size: int,
    ):
        self.path = path
        self.schema = schema
        self.header = header
        self.optional = optional
        self.unused = unused
        self.start = start
        self.size = size

    @classmethod
    def scan(cls, path, schema: Schema, require_label: bool = True, use_label: bool = True) -> "NumericCsv | None":
        """The file at path, when it is a regular file (a pipe cannot be
        read twice), the schema has no categorical column, the file has a
        header that names each of its columns once and only schema columns,
        and every schema column but an optional label, and the header's line
        ends in a line feed that some data byte follows and keeps the rules
        of _plain_rows; otherwise None. Only the header line is read here,
        once: each part checks its own bytes, and a part starts after that
        line. With use_label False the label is optional and dataset never
        parses or returns it."""
        if not os.path.isfile(path) or any(c.kind == "categorical" for c in schema.columns):
            return None
        try:
            with open(path, "rb") as fh:
                start = _line_start(fh, 1)
                fh.seek(0)
                line = fh.read(start)
                size = fh.seek(0, os.SEEK_END)
            text = line.decode("utf-8-sig")
        except (OSError, UnicodeDecodeError):
            return None
        if not line.endswith(b"\n") or _plain_rows(io.BytesIO(line)) is None or size == start:
            return None
        # With no quote and no lone carriage return, csv splits the line at
        # its commas alone, and reads an empty line as no cells.
        text = text.removesuffix("\n").removesuffix("\r")
        header = text.split(",") if text else []
        names = {c.name for c in schema.columns}
        unused = frozenset() if use_label else frozenset({schema.label_name})
        optional = frozenset() if require_label and use_label else frozenset({schema.label_name})
        if len(set(header)) < len(header) or not names - optional <= set(header) <= names:
            return None
        return cls(os.fspath(path), schema, header, optional, unused, start, size)

    def parts(self, multiple: int) -> list[tuple[int, int]]:
        """The data bytes cut into near-equal parts of at most _PART_BYTES,
        as (begin, end) byte offsets: as few parts as that allows, rounded
        up to a multiple of multiple."""
        n_bytes = self.size - self.start
        count = multiple * -(-n_bytes // (multiple * _PART_BYTES))
        cuts = [self.start + k * n_bytes // count for k in range(count + 1)]
        return list(zip(cuts, cuts[1:]))

    def dataset(self, part: tuple[int, int] | None = None) -> Dataset | None:
        """The rows of one part (of every row when part is None) in one
        np.loadtxt call, or None when it does not read them as the block path
        would: _plain_rows declines their bytes, or the parse raises or
        warns, gives another row count than _plain_rows, or a column but an
        optional label holds a value that is not finite. A part's two cuts
        are each moved on to the next line start, so that a line belongs to
        the part that it starts in; the part is then read from its own bytes
        alone, and one that no line starts in has no rows."""
        try:
            with open(self.path, "rb") as fh:
                if part is None:
                    fh.seek(self.start)
                    source, n_rows = self.path, _plain_rows(fh)
                else:
                    begin, end = (_line_start(fh, cut) for cut in part)
                    fh.seek(begin)
                    source = io.BytesIO(fh.read(end - begin))
                    n_rows = _plain_rows(source)
                    source.seek(0)
        except OSError:
            return None
        if n_rows is None:
            return None
        # max_rows sizes the array once; one row more shows a row the count missed.
        options = (
            {"skiprows": 1, "encoding": "utf-8-sig", "max_rows": n_rows + 1} if part is None else {"encoding": "utf-8"}
        )
        header = self.header
        # Fields by position: a header name need not be a valid field name.
        record = np.dtype([(f"f{i}", "U2" if name in self.unused else "f8") for i, name in enumerate(header)])
        converters = {header.index(name): _optional_cell for name in (self.optional - self.unused) & set(header)}
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if n_rows or part is None:
                    table = np.loadtxt(
                        source,
                        dtype=record,
                        delimiter=",",
                        comments=None,
                        quotechar=None,
                        ndmin=1,
                        converters=converters,
                        **options,
                    )
                else:
                    table = np.empty(0, record)
        except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
            return None
        if caught or table.shape != (n_rows,):
            return None
        columns = {name: table[f"f{i}"] for i, name in enumerate(header) if name not in self.unused}
        finite = {name: np.isfinite(values).all() for name, values in columns.items()}
        if not all(ok or name in self.optional for name, ok in finite.items()):
            return None
        return Dataset(self.schema, {c.name: columns[c.name] for c in self.schema.columns if finite.get(c.name, False)})


def _optional_cell(cell: str) -> float:
    """An optional label cell as _ColumnReader parses it: float() of the
    stripped cell, NaN when that fails, so that the label is left out. Only
    library callers (load_csv with require_label False) parse an optional
    label; the CLI's predict leaves it unused."""
    try:
        return float(cell.strip())
    except ValueError:
        return math.nan


def _line_start(fh, offset: int) -> int:
    """The first line start at or after offset, which is at least 1, in the
    binary file fh: offset itself when the byte before it is a line feed.
    The search gives up 2 bytes past csv's field limit, which shows a line
    too long for csv: _plain_rows declines it in the part that it starts in
    (or in the header line)."""
    fh.seek(offset - 1)
    fh.readline(min(csv.field_size_limit() + 2, sys.maxsize))
    return fh.tell()


def _plain_rows(stream) -> int | None:
    """The number of lines in the binary stream from where it stands, the
    first starting there, a last line without a line feed counted too,
    read _SCAN_BYTES at a time; or None when csv and np.loadtxt could split
    them differently: they hold a quote, or a carriage return that is not
    followed by a line feed (csv ends a row there and loadtxt may skip the
    blank line that follows), or a line longer than csv's field limit,
    which csv rejects as a cell. A line is counted in bytes, at least its
    length in characters. Only a chunk that holds a carriage return has its
    carriage returns and CRLFs counted."""
    limit = csv.field_size_limit()
    lines = size = 0
    last_end = -1  # stream offset of the last line feed seen
    while chunk := stream.read(_SCAN_BYTES):
        if chunk.endswith(b"\r"):
            chunk += stream.read(1)  # a CRLF stays in one chunk
        if b'"' in chunk or b"\r" in chunk and chunk.count(b"\r") != chunk.count(b"\r\n"):
            return None
        ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n")) + size
        if len(ends):
            if (np.diff(ends, prepend=last_end) > limit + 1).any():
                return None
            last_end = int(ends[-1])
        lines += len(ends)
        size += len(chunk)
    if size - last_end - 1 > limit:
        return None
    return lines + (size > last_end + 1)


def _blocks(path):
    """Yield the header row of the CSV at path (None for an empty file), then
    its data rows in lists of _BLOCK_ROWS, the last one shorter. Each block
    is emptied when the next is asked for, so one block at a time is held. A
    file that cannot be opened, decoded or parsed as CSV is a DataError."""
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports often write.
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = csv.reader(fh)
            yield next(rows, None)
            while block := list(islice(rows, _BLOCK_ROWS)):
                yield block
                block.clear()
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _length_fault(path, block: list[list[str]], width: int, offset: int) -> str | None:
    """The fault of the first row of block whose length is not width; the
    block's first row is data row offset + 1."""
    lengths = list(map(len, block))
    if lengths.count(width) == len(lengths):
        return None
    i, n = next((i, n) for i, n in enumerate(lengths, start=offset + 1) if n != width)
    return f"{path}: row {i} has {n} cells, header has {width}"


class _ColumnReader:
    """One schema column of load_csv_blocks, fed block by block: its
    parsed blocks and the faults met so far. settled is a fault that no
    later row can come before (a header fault or the first missing cell),
    bad the first cell that is not a finite number, which a missing cell in
    any later row still beats."""

    def __init__(self, path, col: Column, header: list[str]):
        self.path = path
        self.col = col
        self.blocks: list[np.ndarray] = []
        self.settled: str | None = None
        self.bad: str | None = None
        if col.name not in header:
            self.settled = f"{path}: missing column {col.name!r}"
        elif header.count(col.name) > 1:
            self.settled = f"{path}: column {col.name!r} appears more than once in the header"
        else:
            self.cell = itemgetter(header.index(col.name))

    @property
    def fault(self) -> str | None:
        return self.settled or self.bad

    def add(self, block: list[list[str]], first_row: int) -> None:
        """Parse this column's cells of block, whose first row is data row first_row."""
        if self.settled is not None:
            return
        if self.col.kind == "categorical":
            cells = [cell.strip() for cell in map(self.cell, block)]
            if "" in cells:
                self._missing(first_row + cells.index(""))
            else:
                self.blocks.append(np.array(cells, dtype=object))
            return
        if self.bad is None:
            try:
                values = np.fromiter(map(float, map(self.cell, block)), float, len(block))
            except ValueError:
                values = None
            if values is not None and np.isfinite(values).all():
                self.blocks.append(values)
                return
        self._parse_cells(block, first_row)

    def _parse_cells(self, block: list[list[str]], first_row: int) -> None:
        """Strip and float() each cell in turn, recording the faults; the
        block's values are kept while the column has none. Only this loop
        names a fault, so the numbers accepted are float()'s of the stripped
        cell (str.strip also drops U+001C..U+001F, which float() does not)."""
        values = []
        for i, cell in enumerate(map(self.cell, block), start=first_row):
            cell = cell.strip()
            if not cell:
                self._missing(i)
                return
            if self.bad is not None:
                continue
            try:
                value = float(cell)
            except ValueError:
                self.bad = f"{self.path}: row {i}, column {self.col.name!r}: cannot parse {cell!r} as a number"
                continue
            if not math.isfinite(value):
                self.bad = f"{self.path}: row {i}, column {self.col.name!r}: non-finite value {cell!r}"
            values.append(value)
        if self.bad is None:
            self.blocks.append(np.asarray(values, dtype=float))
        else:
            self.blocks = []

    def _missing(self, row: int) -> None:
        self.settled = f"{self.path}: row {row}, column {self.col.name!r}: missing value"
        self.blocks = []

    def values(self) -> np.ndarray:
        """The column: its one block as it is, or the blocks joined."""
        return self.blocks[0] if len(self.blocks) == 1 else np.concatenate(self.blocks)


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
        column order, stats for exactly the continuous features, finite, every
        std positive but those of the columns listed as constant, which are 0,
        and an encoding of exactly the categorical features, each numbering
        its k categories 0..k-1 in order."""
        state = cls(
            schema=Schema(tuple(Column(str(k), str(v)) for k, v in payload["schema"])),
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
            label_constant=bool(payload["label_constant"]),
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
    affine functions of the boundary coordinate; both must be finite and
    stay positive over [-1, 1].
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
            if not np.all(np.isfinite(sigma)):
                raise ValueError("sigma must be finite")
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
