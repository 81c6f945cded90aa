"""Dataset ingestion, preprocessing, splitting, and generator tests."""

import csv
import io
import math
import os
import re
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import event, example, given, settings
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

from conftest import assert_no_child_left, feature_matrix, set_cpus


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
        the loaded columns, for the plain file that the one-pass parse reads
        (about 1.6 times) and for a quoted copy that the block path reads a
        block of rows at a time (about 3 times; the file held whole as a
        list of rows took about 13)."""
        synth = generate_synthetic(SynthSpec(n=20_000, d=8, seed=3))
        for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
            path = tmp_path / f"d{quoting}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, quoting=quoting)
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
_PADDING_CHARS = ["", " ", "\t", "\n", "\x1c", "\x1f", "\xa0", "\u2003"]
_PADDING = st.sampled_from(_PADDING_CHARS)
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


# Raw text for the one-pass parse: padding that keeps a row whole (more of
# str.isspace than _PADDING, less its line feed), spellings that float() and
# np.loadtxt read alike or not, and cells and lines that only csv reads.
_ROW_PADDING = st.sampled_from([c for c in _PADDING_CHARS if c != "\n"] + ["\x0b", "\x0c", "\x85"])
_PLAIN_CELL = st.builds(
    lambda left, x, right: left + repr(x) + right,
    _ROW_PADDING,
    st.floats(allow_nan=False, allow_infinity=False),
    _ROW_PADDING,
)
_ODD_CELL = st.sampled_from(
    ["1_0", "+.5", "5.", "inf", "nan", "1e999", "0x1", "\u0661", '"1.5"', '" 2 "', "", " ", "#1", "1\n2"]
)
_ODD_LINE = st.sampled_from(["", "  ", "\t", "#1,2,3"])


# (text, header) with CRLF and LF line ends and a last line without one: in
# parts of one byte, a cut falls at every data byte of each.
_EVERY_CUT = ("y,x1,x2\r\n-1,2.5,3\r\n4,5,6\n7e-3, 8 ,9", ["y", "x1", "x2"])


@st.composite
def _raw_csv(draw):
    """(text, header) of a CSV for SCHEMA, mostly plain rows of numbers; one
    example in three also has odd cells, lines and line ends."""
    header = draw(st.permutations(["x1", "x2", "y"]))
    change = draw(st.sampled_from(["", "", "", "", "drop-label", "extra", "repeat"]))
    if change == "drop-label":
        header.remove("y")
    elif change == "extra":
        header.insert(draw(st.integers(0, len(header))), "extra")
    elif change == "repeat":
        header.append(draw(st.sampled_from(header)))
    odd = draw(st.integers(0, 2)) == 0
    cell = st.one_of(_PLAIN_CELL, _PLAIN_CELL, _PLAIN_CELL, _ODD_CELL) if odd else _PLAIN_CELL
    line_end = draw(st.sampled_from(["\n", "\r\n"] + ["\r"] * odd))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(min_value=1 - odd, max_value=6))):
        if odd and draw(st.integers(0, 5)) == 0:
            lines.append(draw(_ODD_LINE))
        else:
            lines.append(",".join(draw(cell) for _ in header))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) if odd and draw(st.booleans()) else line_end for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""  # no final line end
    return "".join(line + end for line, end in zip(lines, ends)), header


class TestLoadCsvOnePass:
    """A numeric, unquoted file is parsed in one np.loadtxt call; any other
    file goes to the block path, which alone names faults."""

    def test_plain_numeric_file_skips_the_block_path(self, tmp_path, monkeypatch):
        path = write_csv(tmp_path / "d.csv", "y,x2,x1\r\n3, 2.5 ,1\r\n-0.5,1e-3,\x1f+.5\r\n6,5.,4")
        monkeypatch.setattr(data._ColumnReader, "add", mock.Mock(side_effect=AssertionError("block path")))
        ds = load_csv(path, SCHEMA)
        assert list(ds.columns) == ["x1", "x2", "y"]
        assert ds.columns["x1"].tolist() == [1.0, 0.5, 4.0]
        assert ds.columns["x2"].tolist() == [2.5, 0.001, 5.0]
        assert ds.labels.tolist() == [3.0, -0.5, 6.0]

    @pytest.mark.parametrize(
        "text",
        [
            'x1,x2,y\n1,"2",3\n',
            "x1,x2,y\n1,2,3\r\r",
            "x1,x2,y\r\n1,2,3\r",
            "x1,x2,y\n1,2,3\r\n" + "4" * 131_073 + "\n",
            "x1,x2,y\n" + "4" * 131_073,
        ],
        ids=["quote", "lone-return", "last-return", "long-line", "long-last-line"],
    )
    def test_row_count_declines_what_csv_may_split_otherwise(self, text):
        assert data._plain_rows(io.BytesIO(text.encode())) is None

    def test_row_count_spans_chunks(self, monkeypatch):
        """The lines of a stream from where it stands, read 3 bytes at a
        time: counted from the header, and from the data row after it (as
        NumericCsv.dataset counts the whole file), so that CRLF pairs fall
        both inside the chunks and across their edges."""
        monkeypatch.setattr(data, "_SCAN_BYTES", 3)
        for text, n_rows in [
            ("x1,x2,y\r\n1,2,3\r\n4,5,6", 2),
            ("x1,x2,y\n1,2,3\n", 1),
            ("x1,x2,y\n", 0),
            ("x1,x2,y\n" + "4" * 131_072 + "\n", 1),  # as long as a csv cell may be
            ("x1,x2,y\n" + "4" * 131_072, 1),
            # CRLF only, with pairs both inside 3-byte chunks and across their edges
            ("x1,x2,y\r\n1,2,3\r\n10,20,30\r\n100,200,300\r\n", 3),
            ("x1,x2,y\r\n1\r\n22\r\n4\r\n", 3),
            ("x1,x2,y\n1\n2\n3\n4\n5", 5),
            ("x1,x2,y\n" + "1\n" * 10, 10),
        ]:
            stream = io.BytesIO(text.encode())
            assert data._plain_rows(stream) == n_rows + 1
            stream.seek(0)
            stream.readline()
            assert data._plain_rows(stream) == n_rows
        assert data._plain_rows(io.BytesIO(b"x1,x2,y\n1,2,\r\r\n")) is None
        # a lone carriage return first met in a later chunk, inside it or at its end
        for text in ["x1,x2,y\n1,2,3\n4,\r5,6\n", "x1,x2,y\n1,2,3\n4,5\r6\n"]:
            assert data._plain_rows(io.BytesIO(text.encode())) is None

    def test_field_limit_raised_to_the_largest_size_still_cuts(self, tmp_path, monkeypatch):
        """csv.field_size_limit(sys.maxsize), a common setting, leaves the
        header's check and the search for each cut's line start unbounded,
        and overflows nothing."""
        path = write_csv(tmp_path / "d.csv", "x1,x2,y\n" + "".join(f"{i},{i},{i}\n" for i in range(50)))
        monkeypatch.setattr(data, "_PART_BYTES", 64)
        previous = csv.field_size_limit(sys.maxsize)
        try:
            plain = data.NumericCsv.scan(path, SCHEMA)
            blocks = [plain.dataset(part) for part in plain.parts(2)]
        finally:
            csv.field_size_limit(previous)
        assert len(blocks) == 8 and np.concatenate([block.labels for block in blocks]).tolist() == list(range(50))

    def test_numeric_cells_of_a_categorical_column_stay_str(self, tmp_path):
        ds = load_csv(write_csv(tmp_path / "d.csv", "x1,color,y\n1,2,3\n4,5,6\n"), CAT_SCHEMA)
        assert ds.columns["color"].dtype == object
        assert ds.columns["color"].tolist() == ["2", "5"]

    def test_row_count_that_misses_a_row_takes_the_block_path(self, tmp_path, monkeypatch):
        path = write_csv(tmp_path / "d.csv", "x1,x2,y\n1,2,3\n4,5,6\n")
        monkeypatch.setattr(data, "_plain_rows", lambda stream: 1)
        plain = data.NumericCsv.scan(path, SCHEMA)
        assert plain.dataset() is None
        assert plain.parts(1) == [(8, 20)] and plain.dataset((8, 20)) is None
        assert load_csv(path, SCHEMA).labels.tolist() == [3.0, 6.0]

    def test_loadtxt_warning_takes_the_block_path_and_is_not_shown(self, tmp_path, monkeypatch):
        real_loadtxt = np.loadtxt

        def loadtxt(*args, **kwargs):
            warnings.warn("odd input")
            return real_loadtxt(*args, **kwargs)

        path = write_csv(tmp_path / "d.csv", "x1,x2,y\n1,2,3\n")
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert data.NumericCsv.scan(path, SCHEMA).dataset() is None
            assert data.NumericCsv.scan(path, SCHEMA).dataset((8, 14)) is None
            assert load_csv(path, SCHEMA).labels.tolist() == [3.0]

    @pytest.mark.parametrize(
        "cell, labels",
        [("NA", None), ("", None), (" inf ", None), ("\x1c1_0", [3.0, 6.0, 10.0])],
        ids=["na", "blank", "inf", "float-only-spelling"],
    )
    def test_optional_label_never_sends_the_file_to_the_block_path(self, tmp_path, monkeypatch, cell, labels):
        path = write_csv(tmp_path / "d.csv", f"x1,x2,y\n1,2,3\n4,5,6\n7,8,{cell}\n")
        expected = _reference_load(path, SCHEMA, require_label=False)
        monkeypatch.setattr(data._ColumnReader, "add", mock.Mock(side_effect=AssertionError("block path")))
        ds = load_csv(path, SCHEMA, require_label=False)
        assert (None if ds.labels is None else ds.labels.tolist()) == labels
        assert {name: values.tolist() for name, values in ds.columns.items()} == expected

    @settings(max_examples=200, deadline=None)
    @given(
        line=st.lists(st.text(alphabet=' ,abc\t\x1c\x85é"\r', max_size=3), min_size=2, max_size=4).map(",".join),
        end=st.sampled_from(["\n", "\r\n"]),
        byte_order_mark=st.booleans(),
    )
    def test_scan_reads_the_header_as_csv_does(self, tmp_path_factory, line, end, byte_order_mark):
        """scan splits the header line's bytes itself; where it takes the
        file, its names are csv's."""
        path = tmp_path_factory.mktemp("header") / "d.csv"
        path.write_bytes((b"\xef\xbb\xbf" if byte_order_mark else b"") + (line + end + "1\n").encode("utf-8"))
        names = next(data._blocks(path))
        if len(names) < 2 or len(set(names)) < len(names):
            return
        schema = Schema.from_mapping({**{name: "continuous" for name in names[:-1]}, names[-1]: "label"})
        plain = data.NumericCsv.scan(path, schema)
        event("taken" if plain is not None else "declined")
        assert plain is None or plain.header == names

    @pytest.mark.parametrize("cell", ["7.5", "", "NA"], ids=["finite", "blank", "na"])
    def test_optional_label_of_the_library_is_still_parsed(self, tmp_path, cell):
        """load_csv(require_label=False), through which perfbench's worker
        reads its held-out labels, returns the label column when every cell
        is finite and None when one is blank or NA. Only a scan with
        use_label False, as the CLI's predict asks for, leaves it out."""
        path = write_csv(tmp_path / "d.csv", f"x1,x2,y\n1,2,3\n4,5,{cell}\n")
        labels = load_csv(path, SCHEMA, require_label=False).labels
        assert (None if labels is None else labels.tolist()) == ([3.0, 7.5] if cell == "7.5" else None)
        unused = data.NumericCsv.scan(path, SCHEMA, use_label=False).dataset()
        features = {name: values.tolist() for name, values in unused.columns.items()}
        assert features == {"x1": [1.0, 4.0], "x2": [2.0, 5.0]}

    @settings(max_examples=200, deadline=None)
    @given(raw=_raw_csv(), byte_order_mark=st.booleans(), part_bytes=st.integers(min_value=1, max_value=8))
    def test_unused_label_reads_the_features_of_a_parsed_one(self, tmp_path_factory, raw, byte_order_mark, part_bytes):
        """Leaving the label unparsed never declines a file, or a part of
        one, that parsing it as an optional label takes, and reads the same
        feature columns bit for bit and never the label."""
        text, header = raw
        path = tmp_path_factory.mktemp("raw") / "d.csv"
        path.write_bytes((b"\xef\xbb\xbf" if byte_order_mark else b"") + text.encode("utf-8"))
        with mock.patch.object(data, "_PART_BYTES", part_bytes):
            parsed = data.NumericCsv.scan(path, SCHEMA, require_label=False)
            unused = data.NumericCsv.scan(path, SCHEMA, use_label=False)
            assert (parsed is None) == (unused is None)
            parts = [None, *parsed.parts(1)] if parsed is not None else []
            for part in parts:
                taken, skipped = parsed.dataset(part), unused.dataset(part)
                event("taken" if taken is not None else "declined")
                if taken is not None:
                    features = {name: values.tobytes() for name, values in taken.columns.items() if name != "y"}
                    assert {name: values.tobytes() for name, values in skipped.columns.items()} == features

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_piped_input_is_read_once(self, tmp_path):
        # Far more than one read buffer: a second open of the pipe would find
        # only what the first left unread.
        text = "x1,x2,y\n" + "".join(f"{i},{i / 7!r},{-i}\n" for i in range(3000))
        read_fd, write_fd = os.pipe()

        def write():
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(text.encode())

        writer = threading.Thread(target=write)
        writer.start()
        try:
            loaded = _streamed_load(f"/dev/fd/{read_fd}", SCHEMA)
        finally:
            os.close(read_fd)
            writer.join()
        assert loaded == _reference_load(write_csv(tmp_path / "d.csv", text), SCHEMA)

    def test_cell_longer_than_the_csv_field_limit_is_still_unreadable(self, tmp_path):
        # A finite number, but csv rejects a cell this long.
        path = write_csv(tmp_path / "d.csv", "x1,x2,y\n0." + "0" * 200_000 + "1,2,3\n")
        with pytest.raises(DataError, match="cannot read .*field larger than field limit"):
            load_csv(path, SCHEMA)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1,x2,y\n1,2,3\r\r", "row 2 has 0 cells, header has 3"),
            ("x1,x2,y\n1,2,3\n\n4,5,6\n", "row 2 has 0 cells, header has 3"),
            ("x1,x2,y\r1,2,3\n4,5,6\n", None),
            ('x1,x2,y\n1,"2",3\n', None),
        ],
        ids=["lone-return-then-blank", "blank-line", "lone-return-header", "quoted-cell"],
    )
    def test_files_that_loadtxt_splits_otherwise_take_the_block_path(self, tmp_path, text, message):
        path = write_csv(tmp_path / "d.csv", text)
        assert _streamed_load(path, SCHEMA) == _reference_load(path, SCHEMA)
        if message is not None:
            with pytest.raises(DataError, match=message):
                load_csv(path, SCHEMA)

    @settings(max_examples=300, deadline=None)
    @given(raw=_raw_csv(), byte_order_mark=st.booleans(), require_label=st.booleans())
    def test_load_matches_per_cell_reference_on_raw_text(self, tmp_path_factory, raw, byte_order_mark, require_label):
        text, header = raw
        path = tmp_path_factory.mktemp("raw") / "d.csv"
        path.write_bytes((b"\xef\xbb\xbf" if byte_order_mark else b"") + text.encode("utf-8"))
        taken = []

        def dataset(self, part=None):
            taken.append(real_dataset(self, part))
            return taken[-1]

        real_dataset = data.NumericCsv.dataset
        with mock.patch.object(data.NumericCsv, "dataset", dataset):
            loaded = _streamed_load(path, SCHEMA, require_label)
        event("one-pass parse" if taken and taken[0] is not None else "block path")
        assert loaded == _reference_load(path, SCHEMA, require_label)

    @settings(max_examples=300, deadline=None)
    @given(
        raw=_raw_csv(),
        byte_order_mark=st.booleans(),
        require_label=st.booleans(),
        part_bytes=st.integers(min_value=1, max_value=8),
        multiple=st.integers(min_value=1, max_value=3),
    )
    # A cut at every data byte; at multiple 3 one part also has no bytes.
    @example(raw=_EVERY_CUT, byte_order_mark=False, require_label=True, part_bytes=1, multiple=1)
    @example(raw=_EVERY_CUT, byte_order_mark=True, require_label=False, part_bytes=1, multiple=3)
    def test_blocks_parse_as_the_whole_file(
        self, tmp_path_factory, raw, byte_order_mark, require_label, part_bytes, multiple
    ):
        """Parts of a few bytes, whose cuts land anywhere: inside a CRLF
        pair, mid-line, right after the header's line feed, in a last line
        with no line feed. Each part, parsed from its own bytes, passes the
        one-pass checks exactly when the whole file does, and the parts'
        columns are the whole file's, bit for bit, so they hold every row
        once, in order. The cuts cover the data bytes in near-equal ranges of
        at most _PART_BYTES, in a multiple of multiple, as few as that
        allows. An optional label is left out per part, so a part may keep
        one that the whole file leaves out."""
        text, header = raw
        path = tmp_path_factory.mktemp("raw") / "d.csv"
        path.write_bytes((b"\xef\xbb\xbf" if byte_order_mark else b"") + text.encode("utf-8"))
        with mock.patch.object(data, "_PART_BYTES", part_bytes):
            plain = data.NumericCsv.scan(path, SCHEMA, require_label)
            if plain is None:
                return
            whole = plain.dataset()
            parts = plain.parts(multiple)
            blocks = [plain.dataset(part) for part in parts]
        event("whole file taken" if whole is not None else "whole file declined")
        cuts = [begin for begin, _ in parts] + [parts[-1][1]]
        assert [end for _, end in parts] == cuts[1:]
        assert cuts[0] == plain.start and cuts[-1] == plain.size == path.stat().st_size
        sizes = [end - begin for begin, end in parts]
        assert max(sizes) <= part_bytes and max(sizes) - min(sizes) <= 1
        assert len(parts) % multiple == 0 and len(parts) - multiple < -(-sum(sizes) // part_bytes) <= len(parts)
        assert (whole is None) == any(block is None for block in blocks)
        if whole is None:
            return
        for name, values in whole.columns.items():
            joined = np.concatenate([block.columns[name] for block in blocks])
            assert joined.tobytes() == values.tobytes()


def _column_bytes(dataset):
    return {name: values.tobytes() for name, values in dataset.columns.items()}


class TestLoadCsvInParts:
    """load_csv reads a file past data._PART_BYTES in parts, in fork_map's
    processes where a pool can run, as the CLI's commands read it."""

    @pytest.fixture
    def path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_PART_BYTES", 256)
        return write_csv(tmp_path / "d.csv", "x1,x2,y\n" + "".join(f"{i},{i / 7!r},{-i}\n" for i in range(200)))

    def test_parts_give_the_block_readers_columns(self, monkeypatch, pools, path):
        expected = _column_bytes(data.load_csv_blocks(path, SCHEMA))
        assert len(expected["y"]) == 200 * 8
        set_cpus(monkeypatch, 2)
        assert _column_bytes(load_csv(path, SCHEMA)) == expected
        assert pools == [2]
        assert_no_child_left()

    def test_label_left_out_by_the_last_part_is_left_out_of_the_join(self, monkeypatch, pools, path):
        """Each part leaves out an optional label on its own; with NA in the
        last row only the last part leaves it out, and the joined file lacks
        it too, its features those of the block reader bit for bit."""
        path.write_text(path.read_text().removesuffix("-199\n") + "NA\n")
        expected = _column_bytes(data.load_csv_blocks(path, SCHEMA, require_label=False))
        assert list(expected) == ["x1", "x2"]
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            loaded = load_csv(path, SCHEMA, require_label=False)
            assert loaded.labels is None and _column_bytes(loaded) == expected
        assert pools == [2]
        assert_no_child_left()


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
        for sigma in [(0.5, 0.6), (np.nan, 0.0), (1.0, np.nan), (np.inf, 1.0), np.nan, np.inf]:
            with pytest.raises(ValueError):
                SynthSpec(n=10, d=1, sigma_low=sigma)
            with pytest.raises(ValueError):
                SynthSpec(n=10, d=1, sigma_high=sigma)

    def test_ground_truth_matches_regions(self):
        spec = SynthSpec(
            n=2000, d=2, sigma_low=0.3, sigma_high=0.9, mean_low="linear",
            mean_high="sine", seed=14,
        )
        synth = generate_synthetic(spec)
        x_boundary = synth.dataset.columns["x1"]
        assert np.all(synth.sigma_true[x_boundary <= 0] == 0.3)
        assert np.all(synth.sigma_true[x_boundary > 0] == 0.9)
