"""Dataset ingestion, preprocessing, splitting, and generator tests."""

import csv
import io
import math
import os
import re
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from usnrt import data
from usnrt.data import (
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

from conftest import feature_matrix


SCHEMA = Schema.from_mapping({"x1": "continuous", "x2": "continuous", "y": "label"})
CAT_SCHEMA = Schema.from_mapping(
    {"x1": "continuous", "color": "categorical", "y": "label"}
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_requires_exactly_one_label(self):
        with pytest.raises(DataError):
            Schema.from_mapping({"x1": "continuous"})
        with pytest.raises(DataError):
            Schema.from_mapping({"a": "label", "b": "label", "x": "continuous"})

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            Schema.from_mapping({"x1": "numeric", "y": "label"})

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "schema.json"
        CAT_SCHEMA.to_file(path)
        assert Schema.from_file(path) == CAT_SCHEMA

    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "schema.json"
        SCHEMA.to_file(path)
        before = path.read_bytes()
        # json.dump has written part of the mapping when it meets the object.
        monkeypatch.setattr(Schema, "to_mapping", lambda self: {"x1": "continuous", "y": object()})
        with pytest.raises(TypeError):
            CAT_SCHEMA.to_file(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["schema.json"]


class TestLoadCsv:
    def test_exact_parse(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv", "x1,x2,y\n1.0,2.0,3.0\n4.5,-1.25,0.5\n7.0,8.0,9.0\n"
        )
        ds = load_csv(path, SCHEMA)
        assert np.array_equal(ds.columns["x1"], [1.0, 4.5, 7.0])
        assert np.array_equal(ds.columns["x2"], [2.0, -1.25, 8.0])
        assert np.array_equal(ds.labels, [3.0, 0.5, 9.0])

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Spreadsheet exports often start a UTF-8 file with the mark U+FEFF.
        text = "x1,x2,y\n1.0,2.0,3.0\n4.5,-1.25,0.5\n"
        plain = load_csv(write_csv(tmp_path / "plain.csv", text), SCHEMA)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        loaded = load_csv(marked, SCHEMA)
        assert loaded.schema == plain.schema
        assert list(loaded.columns) == list(plain.columns) == ["x1", "x2", "y"]
        for name, values in plain.columns.items():
            assert np.array_equal(loaded.columns[name], values)

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,x2,y\n1.0,2.0,3.0\nabc,1.0,2.0\n")
        with pytest.raises(DataError, match=r"row 2.*'x1'"):
            load_csv(path, SCHEMA)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,y\n1.0,2.0\n")
        with pytest.raises(DataError, match="x2"):
            load_csv(path, SCHEMA)

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "")
        with pytest.raises(DataError, match="empty"):
            load_csv(path, SCHEMA)

    def test_missing_value_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,x2,y\n1.0,,3.0\n")
        with pytest.raises(DataError, match="missing value"):
            load_csv(path, SCHEMA)

    def test_non_finite_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,x2,y\n1.0,inf,3.0\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path, SCHEMA)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1,x2,y\nabc,2,3\n1,2,3\n1,2\n", "row 3 has 2 cells, header has 3"),
            ("x1,x2,y\n1,2,abc\n1,zz,3\n", "row 2, column 'x2': cannot parse 'zz'"),
        ],
        ids=["row-length-first", "schema-order-of-columns"],
    )
    def test_two_faults_report_the_documented_one(self, tmp_path, text, message):
        path = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(DataError, match=message):
            load_csv(path, SCHEMA)

    def test_schema_column_twice_in_header_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,x1,x2,y\n999.0,1.0,2.0,3.0\n999.0,4.0,5.0,6.0\n")
        with pytest.raises(DataError, match="column 'x1' appears more than once in the header"):
            load_csv(path, SCHEMA)

    def test_one_array_per_schema_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", 'y,color,x1,extra\n1.0," b,c ",2.0,z\n3.0,a,4.0,z\n')
        ds = load_csv(path, CAT_SCHEMA)
        assert [f.name for f in fields(Dataset)] == ["schema", "columns"]
        assert list(ds.columns) == ["x1", "color", "y"]
        assert ds.columns["color"].dtype == object
        assert ds.columns["color"].tolist() == ["b,c", "a"]
        assert np.array_equal(ds.labels, [1.0, 3.0])

    def test_prediction_only_file_has_no_labels(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "color,x1\na,1.0\nb,2.0\na,3.0\nc,4.0\n")
        ds = load_csv(path, CAT_SCHEMA, require_label=False)
        assert ds.labels is None
        assert ds.n_rows == 4
        assert list(ds.columns) == ["x1", "color"]

    def test_label_optional_for_prediction_data(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,x2\n1.0,2.0\n")
        ds = load_csv(path, SCHEMA, require_label=False)
        assert ds.labels is None
        assert ds.n_rows == 1

    def test_peak_memory_is_a_block_not_the_file(self, tmp_path):
        """20,000 x 9 rows: the traced peak stays under 5 times the size of
        the loaded columns (read a block of rows at a time it is about 3
        times; the file held whole as a list of rows took about 13)."""
        synth = generate_synthetic(SynthSpec(n=20_000, d=8, seed=3))
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(synth.dataset.columns)
            writer.writerows(zip(*(values.tolist() for values in synth.dataset.columns.values())))
        tracemalloc.start()
        try:
            loaded = load_csv(path, synth.dataset.schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for name, values in synth.dataset.columns.items():
            assert np.array_equal(loaded.columns[name], values)
        assert peak < 5 * sum(values.nbytes for values in loaded.columns.values())


def _reference_load(path, schema, require_label=True):
    """load_csv as one pass over the whole file held as rows, each cell
    stripped then given to float(): the columns, or the DataError message."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        return f"cannot read {path}: {exc}"
    if not rows:
        return f"{path}: file is empty"
    header, data_rows = rows[0], rows[1:]
    if not data_rows:
        return f"{path}: no data rows"
    for i, row in enumerate(data_rows, start=1):
        if len(row) != len(header):
            return f"{path}: row {i} has {len(row)} cells, header has {len(header)}"
    columns = {}
    for col in schema.columns:
        fault = None
        if col.name not in header:
            fault = f"{path}: missing column {col.name!r}"
        elif header.count(col.name) > 1:
            fault = f"{path}: column {col.name!r} appears more than once in the header"
        else:
            cells = [row[header.index(col.name)].strip() for row in data_rows]
            if "" in cells:
                fault = f"{path}: row {cells.index('') + 1}, column {col.name!r}: missing value"
            elif col.kind == "categorical":
                columns[col.name] = cells
            else:
                values = []
                for i, cell in enumerate(cells, start=1):
                    try:
                        value = float(cell)
                    except ValueError:
                        fault = f"{path}: row {i}, column {col.name!r}: cannot parse {cell!r} as a number"
                        break
                    if not math.isfinite(value):
                        fault = f"{path}: row {i}, column {col.name!r}: non-finite value {cell!r}"
                        break
                    values.append(value)
                else:
                    columns[col.name] = values
        if fault is not None and (require_label or col.kind != "label"):
            return fault
    return columns


def _streamed_load(path, schema, require_label=True):
    """load_csv's result in _reference_load's terms."""
    try:
        loaded = load_csv(path, schema, require_label)
    except DataError as exc:
        return str(exc)
    return {name: values.tolist() for name, values in loaded.columns.items()}


# Cells of a number column: numbers as written by repr, padded with whitespace
# that float() strips, or only str.strip does (U+001C..U+001F), and faults.
_PADDING = st.sampled_from(["", " ", "\t", "\n", "\x1c", "\x1f", "\xa0", "\u2003"])
_NUMBER_CELL = st.one_of(
    st.builds(
        lambda left, x, right: left + repr(x) + right,
        _PADDING,
        st.floats(allow_nan=False, allow_infinity=False),
        _PADDING,
    ),
    st.sampled_from(["", "  ", "nan", "-inf", "1e999", "abc", "1_0", "0x1"]),
)
_CATEGORY_CELL = st.text(alphabet=' ab,"\n\x1c', max_size=4)


class TestLoadCsvBlocks:
    """load_csv reads _BLOCK_ROWS rows at a time; shrunk blocks put faults and
    padded numbers on every side of a block boundary."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_ROWS", 2)

    def test_length_fault_in_last_block_beats_bad_cell_in_first(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,x2,y\nabc,2,3\n1,2,3\n1,2,3\n1,2,3\n1,2\n")
        with pytest.raises(DataError, match="row 5 has 2 cells, header has 3"):
            load_csv(path, SCHEMA)

    def test_missing_cell_in_later_block_beats_earlier_bad_cell(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,x2,y\n1,zz,3\n1,2,3\n1,nan,3\n1, ,3\n1,2,3\n")
        with pytest.raises(DataError, match=r"row 4, column 'x2': missing value$"):
            load_csv(path, SCHEMA)

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("1,zz,3", "row 6, column 'x2': cannot parse 'zz' as a number"),
            ("1,inf,3", "row 6, column 'x2': non-finite value 'inf'"),
            ("1,2,", "row 6, column 'y': missing value"),
        ],
        ids=["cannot-parse", "non-finite", "missing"],
    )
    def test_row_numbers_count_across_blocks(self, tmp_path, bad_row, message):
        path = write_csv(tmp_path / "d.csv", "x1,x2,y\n" + "1,2,3\n" * 5 + bad_row + "\n1,2,3\n")
        with pytest.raises(DataError, match=re.escape(message)):
            load_csv(path, SCHEMA)

    def test_numbers_padded_with_separator_characters_load(self, tmp_path):
        # float() does not strip U+001C..U+001F, str.strip does.
        path = write_csv(tmp_path / "d.csv", "x1,x2,y\n1,2,3\n\x1f1.5\x1f,2,3\n4,\x1c-2.5,3\n1,2,3\n")
        ds = load_csv(path, SCHEMA)
        assert ds.columns["x1"].tolist() == [1.0, 1.5, 4.0, 1.0]
        assert ds.columns["x2"].tolist() == [2.0, 2.0, -2.5, 2.0]

    def test_faulty_label_in_a_later_block_is_left_out_for_prediction(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,x2,y\n1,2,3\n4,5,6\n7,8,NA\n")
        ds = load_csv(path, SCHEMA, require_label=False)
        assert ds.labels is None
        assert ds.columns["x2"].tolist() == [2.0, 5.0, 8.0]

    @settings(max_examples=200, deadline=None)
    @given(
        order=st.permutations(["x1", "color", "y", "extra"]),
        cells=st.lists(st.tuples(_NUMBER_CELL, _CATEGORY_CELL, _NUMBER_CELL), min_size=0, max_size=9),
        short_row=st.integers(min_value=-1, max_value=9),
        quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
        byte_order_mark=st.booleans(),
        require_label=st.booleans(),
        block_rows=st.integers(min_value=1, max_value=4),
    )
    def test_streamed_load_matches_per_cell_reference(
        self, tmp_path_factory, order, cells, short_row, quoting, byte_order_mark, require_label, block_rows
    ):
        rows = [dict(zip(["x1", "color", "y"], row), extra="e") for row in cells]
        lines = [[row[name] for name in order] for row in rows]
        if 0 <= short_row < len(lines):
            lines[short_row].pop()
        text = io.StringIO()
        csv.writer(text, quoting=quoting).writerows([order, *lines])
        path = tmp_path_factory.mktemp("hyp") / "d.csv"
        path.write_bytes((b"\xef\xbb\xbf" if byte_order_mark else b"") + text.getvalue().encode("utf-8"))
        with mock.patch.object(data, "_BLOCK_ROWS", block_rows):
            streamed = _streamed_load(path, CAT_SCHEMA, require_label)
        assert streamed == _reference_load(path, CAT_SCHEMA, require_label)


class TestPreprocess:
    def test_categorical_cardinality(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv", "x1,color,y\n1.0,a,0.0\n2.0,b,1.0\n3.0,a,2.0\n"
        )
        ds = load_csv(path, CAT_SCHEMA)
        X, y, state = fit_transform(ds)
        assert X.shape == (3, 3)  # x1 plus 2 one-hot columns
        assert state.encoded_feature_names == ["x1", "color=a", "color=b"]
        assert np.array_equal(X[:, 1], [1.0, 0.0, 1.0])
        assert np.array_equal(X[:, 2], [0.0, 1.0, 0.0])

    def test_train_columns_standardised(self):
        rng = np.random.default_rng(0)
        synth = generate_synthetic(SynthSpec(n=500, d=3, seed=1))
        X, y, state = fit_transform(synth.dataset)
        assert np.all(np.abs(X.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(X.var(axis=0, ddof=1) - 1.0) < 1e-9)
        assert abs(y.mean()) < 1e-9
        assert abs(y.var(ddof=1) - 1.0) < 1e-9

    def test_label_round_trip(self):
        synth = generate_synthetic(SynthSpec(n=100, d=2, seed=2))
        state = PreprocessState.fit(synth.dataset)
        y = synth.dataset.labels
        back = state.denormalize_mean(state.transform_labels(y))
        np.testing.assert_allclose(back, y, atol=1e-12)

    def test_no_leak_into_test_stats(self):
        synth = generate_synthetic(SynthSpec(n=400, d=2, seed=3))
        train, test = train_test_split(synth.dataset, 0.5, seed=4)
        state = PreprocessState.fit(train)
        X_train = state.transform(train)
        X_test = state.transform(test)
        assert np.all(np.abs(X_train.mean(axis=0)) < 1e-9)
        # Test columns keep whatever mean they have under the train stats.
        assert np.any(np.abs(X_test.mean(axis=0)) > 1e-6)

    def test_unseen_category_maps_to_zero_block(self, tmp_path):
        train_path = write_csv(
            tmp_path / "train.csv", "x1,color,y\n1.0,a,0.0\n2.0,b,1.0\n3.0,a,2.0\n"
        )
        ds = load_csv(train_path, CAT_SCHEMA)
        state = PreprocessState.fit(ds)
        new_path = write_csv(tmp_path / "new.csv", "x1,color,y\n1.0,zebra,0.0\n")
        new = load_csv(new_path, CAT_SCHEMA)
        X = state.transform(new)
        assert np.array_equal(X[0, 1:], [0.0, 0.0])

    def test_transform_matches_per_row_one_hot(self, tmp_path):
        rng = np.random.default_rng(0)
        colors = ["a", "b,c", "d", "e"]
        train_rows = [f"{x},\"{rng.choice(colors[:3])}\",{x}" for x in rng.normal(size=40)]
        train = load_csv(write_csv(tmp_path / "t.csv", "x1,color,y\n" + "\n".join(train_rows) + "\n"), CAT_SCHEMA)
        state = PreprocessState.fit(train)
        new_rows = [f"{x},\"{rng.choice(colors)}\"" for x in rng.normal(size=60)]
        new = load_csv(write_csv(tmp_path / "n.csv", "x1,color\n" + "\n".join(new_rows) + "\n"), CAT_SCHEMA, False)
        assert "e" in new.columns["color"] and "e" not in state.encoding["color"]
        reference = np.zeros((new.n_rows, 4))
        reference[:, 0] = (new.columns["x1"] - state.continuous_stats["x1"][0]) / state.continuous_stats["x1"][1]
        for i, color in enumerate(new.columns["color"]):
            if color in state.encoding["color"]:
                reference[i, 1 + state.encoding["color"][color]] = 1.0
        assert np.array_equal(state.transform(new), reference)

    def test_zero_variance_column_flagged(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,x2,y\n5.0,1.0,0.0\n5.0,2.0,1.0\n5.0,3.0,2.0\n")
        ds = load_csv(path, SCHEMA)
        with pytest.warns(UserWarning, match="constant"):
            state = PreprocessState.fit(ds)
        assert state.constant_columns == ("x1",)
        X = state.transform(ds)
        assert np.array_equal(X[:, 0], np.zeros(3))

    def test_state_round_trip_stable_encoding(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv", "x1,color,y\n1.0,b,0.0\n2.0,a,1.0\n3.0,c,2.0\n"
        )
        ds = load_csv(path, CAT_SCHEMA)
        state = PreprocessState.fit(ds)
        clone = PreprocessState.from_dict(state.to_dict())
        assert clone.encoding == state.encoding
        assert np.array_equal(clone.transform(ds), state.transform(ds))


class TestTrainTestSplit:
    def test_sizes_and_disjointness(self):
        synth = generate_synthetic(SynthSpec(n=10, d=1, seed=5))
        train, test = train_test_split(synth.dataset, 0.2, seed=6)
        assert train.n_rows == 8
        assert test.n_rows == 2
        all_x = np.concatenate([train.columns["x1"], test.columns["x1"]])
        assert np.array_equal(np.sort(all_x), np.sort(synth.dataset.columns["x1"]))

    def test_categorical_rows_stay_whole(self):
        n = 50
        x1 = np.arange(n, dtype=float)
        color = np.array([f"c{i % 7}" for i in range(n)], dtype=object)
        ds = Dataset(CAT_SCHEMA, {"x1": x1, "color": color, "y": -x1})
        train, test = train_test_split(ds, 0.3, seed=9)
        assert (train.n_rows, test.n_rows) == (35, 15)
        for part in (train, test):
            rows = part.columns["x1"].astype(int)
            assert part.columns["color"].tolist() == [f"c{i % 7}" for i in rows]
            assert np.array_equal(part.labels, -part.columns["x1"])
        assert sorted(np.concatenate([train.columns["x1"], test.columns["x1"]])) == x1.tolist()

    def test_determinism(self):
        synth = generate_synthetic(SynthSpec(n=50, d=1, seed=7))
        a_train, a_test = train_test_split(synth.dataset, 0.3, seed=8)
        b_train, b_test = train_test_split(synth.dataset, 0.3, seed=8)
        assert np.array_equal(a_train.labels, b_train.labels)
        assert np.array_equal(a_test.labels, b_test.labels)

    def test_fraction_domain(self):
        synth = generate_synthetic(SynthSpec(n=10, d=1, seed=9))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                train_test_split(synth.dataset, bad, seed=0)


class TestGenerator:
    def test_homogeneous_residual_std(self):
        sigma = 0.7
        spec = SynthSpec(n=100_000, d=2, sigma_low=sigma, sigma_high=sigma, seed=10)
        synth = generate_synthetic(spec)
        residual = synth.dataset.labels - synth.f_true
        assert abs(residual.std() - sigma) / sigma < 0.03

    def test_per_region_stds(self):
        spec = SynthSpec(n=100_000, d=2, sigma_low=0.1, sigma_high=1.0, seed=11)
        synth = generate_synthetic(spec)
        x_boundary = synth.dataset.columns["x1"]
        residual = synth.dataset.labels - synth.f_true
        low = residual[x_boundary <= 0]
        high = residual[x_boundary > 0]
        assert abs(low.std() - 0.1) / 0.1 < 0.05
        assert abs(high.std() - 1.0) / 1.0 < 0.05

    def test_seed_determinism(self):
        spec = SynthSpec(n=500, d=3, sigma_low=0.5, sigma_high=2.0, seed=12)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.dataset.labels, b.dataset.labels)
        assert np.array_equal(feature_matrix(a.dataset), feature_matrix(b.dataset))
        assert np.array_equal(a.sigma_true, b.sigma_true)

    def test_standardised_residuals_are_gaussian(self):
        spec = SynthSpec(
            n=10_000, d=3, mean_low="sine", mean_high="linear",
            sigma_low=0.2, sigma_high=(1.0, 0.5), seed=13,
        )
        synth = generate_synthetic(spec)
        z = (synth.dataset.labels - synth.f_true) / synth.sigma_true
        assert scipy.stats.kstest(z, "norm").pvalue > 0.01

    def test_affine_sigma_must_stay_positive(self):
        with pytest.raises(ValueError):
            SynthSpec(n=10, d=1, sigma_low=(0.5, 0.6))

    def test_ground_truth_matches_regions(self):
        spec = SynthSpec(
            n=2000, d=2, sigma_low=0.3, sigma_high=0.9, mean_low="linear",
            mean_high="sine", seed=14,
        )
        synth = generate_synthetic(spec)
        x_boundary = synth.dataset.columns["x1"]
        assert np.all(synth.sigma_true[x_boundary <= 0] == 0.3)
        assert np.all(synth.sigma_true[x_boundary > 0] == 0.9)
