"""Command-line behaviour: happy paths, reproducibility, exit codes."""

import copy
import csv
import io
import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usnrt.cli import (
    _COMMAND_DEFAULTS,
    _TRAIN_DEFAULTS,
    EXIT_DATA,
    EXIT_OK,
    EXIT_TRAINING,
    EXIT_USAGE,
    _write_columns,
    main,
    run_benchmark,
)
from usnrt import baselines, cli, data, parallel, tree
from usnrt.data import NumericCsv, Schema, fit_transform, generate_synthetic, load_csv, load_csv_blocks
from usnrt.metrics import MetricsReport
from usnrt.model_io import ModelFormatError, decode_array, encode_array, encode_mlp, load_model
from usnrt.nn_core import BLOCK_ROWS, Mlp, TrainConfig

from conftest import assert_no_child_left, set_cpus, width3_member, with_color


FAST = {"max_epochs": 40, "patience": 6, "n_min": 300}


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(
        [
            "synth",
            "--n", "1200",
            "--d", "2",
            "--sigma-low", "0.1",
            "--sigma-high", "1.0",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "fast.json"
    path.write_text(json.dumps(FAST))
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir, fast_config):
    out = tmp_path_factory.mktemp("train")
    code = main(
        [
            "train",
            "--data", str(synth_dir / "data.csv"),
            "--schema", str(synth_dir / "schema.json"),
            "--config", str(fast_config),
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    return out


class TestSynth:
    def test_outputs_exist(self, synth_dir):
        for name in ("data.csv", "truth.csv", "schema.json", "config.json"):
            assert (synth_dir / name).exists()

    def test_rerun_byte_identical(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        code = main(
            [
                "synth",
                "--n", "1200",
                "--d", "2",
                "--sigma-low", "0.1",
                "--sigma-high", "1.0",
                "--seed", "5",
                "--out", str(again),
            ]
        )
        assert code == EXIT_OK
        assert (again / "data.csv").read_bytes() == (synth_dir / "data.csv").read_bytes()
        assert (again / "truth.csv").read_bytes() == (synth_dir / "truth.csv").read_bytes()

    def test_numbers_spelled_as_strings_write_the_same_data(self, tmp_path):
        plain = {"n": 300, "d": 3, "boundary_feature": 1, "sigma_low": 0.2, "sigma_high": "0.5,0.25", "seed": 4}
        spelled = {**plain, "n": "300", "d": 3.0, "boundary_feature": "1", "sigma_low": "0.2", "seed": "4"}
        data = []
        for name, config in (("plain", plain), ("spelled", spelled)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(config))
            assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / name)]) == EXIT_OK
            data.append((tmp_path / name / "data.csv").read_bytes())
        assert data[0] == data[1]

    def test_csv_loads_back(self, synth_dir):
        schema = Schema.from_file(synth_dir / "schema.json")
        ds = load_csv(synth_dir / "data.csv", schema)
        assert ds.n_rows == 1200
        assert len(ds.schema.feature_columns) == 2


class TestTrain:
    def test_outputs(self, trained_dir):
        for name in ("model.json", "tree_summary.json", "train_log.json", "config.json"):
            assert (trained_dir / name).exists()
        summary = json.loads((trained_dir / "tree_summary.json").read_text())
        assert summary["leaf_count"] >= 2
        assert summary["splits"][0]["p_best"] <= 0.01

    def test_resolved_config_echoed(self, trained_dir):
        config = json.loads((trained_dir / "config.json").read_text())
        assert config["command"] == "train"
        assert config["n_min"] == FAST["n_min"]
        assert config["max_epochs"] == FAST["max_epochs"]

    @pytest.mark.parametrize("kind", ["usnrt", "ensemble"])
    def test_numbers_spelled_as_strings_or_floats_train_the_same_model(self, synth_dir, tmp_path, kind):
        plain = {
            "alpha": 0.01, "n_min": 300, "n_leaves": 4, "stride": 2,
            "split_net_hidden": [6], "leaf_net_hidden": [4, 3],
            "batch_size": 64, "learning_rate": 0.01, "max_epochs": 12,
            "validation_fraction": 0.2, "patience": 4,
            "hnn_hidden": [4], "hnn_rounds": 1, "ensemble_members": 2,
            "seed": 3, "model_kind": kind,
        }
        spelled = {
            "alpha": "0.01", "n_min": 300.0, "n_leaves": "4", "stride": 2.0,
            "split_net_hidden": ["6"], "leaf_net_hidden": [4.0, "3"],
            "batch_size": "64", "learning_rate": "0.01", "max_epochs": 12.0,
            "validation_fraction": "0.2", "patience": "4",
            "hnn_hidden": ["4"], "hnn_rounds": "1", "ensemble_members": 2.0,
            "seed": "3", "model_kind": kind,
        }
        assert set(plain) == set(spelled) == set(_TRAIN_DEFAULTS) | set(_COMMAND_DEFAULTS["train"])
        models = []
        for name, config in (("plain", plain), ("spelled", spelled)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(config))
            out = tmp_path / name
            assert main(
                [
                    "train",
                    "--data", str(synth_dir / "data.csv"),
                    "--schema", str(synth_dir / "schema.json"),
                    "--config", str(cfg),
                    "--out", str(out),
                ]
            ) == EXIT_OK
            models.append((out / "model.json").read_bytes())
        assert models[0] == models[1]


class TestEvaluate:
    def test_metrics_and_curve(self, trained_dir, synth_dir, tmp_path):
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                "--model", str(trained_dir / "model.json"),
                "--data", str(synth_dir / "data.csv"),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"ece", "tce", "sharpness", "n_test"}
        assert metrics["n_test"] == 1200
        lines = (out / "curve.csv").read_text().strip().splitlines()
        assert lines[0] == "expected_probability,calibration_error"
        assert len(lines) == 10

    def test_original_units_flag(self, trained_dir, synth_dir, tmp_path):
        out = tmp_path / "eval2"
        code = main(
            [
                "evaluate",
                "--model", str(trained_dir / "model.json"),
                "--data", str(synth_dir / "data.csv"),
                "--original-units",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert "sharpness_original_units" in metrics


class TestPredict:
    def test_predictions_csv(self, trained_dir, synth_dir, tmp_path):
        out = tmp_path / "pred"
        code = main(
            [
                "predict",
                "--model", str(trained_dir / "model.json"),
                "--data", str(synth_dir / "data.csv"),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert lines[0] == "mu,sigma"
        assert len(lines) == 1201
        sigma = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.all(sigma > 0)

    @pytest.mark.parametrize(
        "label",
        ["", "NA", "1e400", " € ", "123456789012345678", None],
        ids=["", "NA", "1e400", "non-ascii", "18-digit", "number"],
    )
    def test_label_column_is_not_read(self, monkeypatch, pools, trained_dir, synth_dir, tmp_path, label):
        """Label cells that are blank, not a number, not finite, not ASCII,
        longer than the unused field, or the file's own numbers change
        nothing: the predictions are the bytes of the same rows without the
        label column, read whole at 1 CPU and in 2 processes at 2. No label
        cell is converted, and no file goes to the block reader."""
        rows = list(csv.reader((synth_dir / "data.csv").read_text().splitlines()))
        files = {
            "unlabelled": [row[:-1] for row in rows],
            "labelled": [rows[0], *([*row[:-1], row[-1] if label is None else label] for row in rows[1:])],
        }
        monkeypatch.setattr(data, "_PART_BYTES", 16_000)
        monkeypatch.setattr(data, "_optional_cell", mock.Mock(side_effect=AssertionError("label cell converted")))
        monkeypatch.setattr(data._ColumnReader, "add", mock.Mock(side_effect=AssertionError("block reader")))
        outputs = set()
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            for name, table in files.items():
                path = tmp_path / f"{name}.csv"
                path.write_text("".join(",".join(row) + "\n" for row in table), encoding="utf-8")
                out = tmp_path / f"{name}-{cpus}"
                argv = ["predict", "--model", str(trained_dir / "model.json"), "--data", str(path), "--out", str(out)]
                assert main(argv) == EXIT_OK
                outputs.add((out / "predictions.csv").read_bytes())
            assert_no_child_left()
        assert rows[0][-1] == "y" and len(outputs) == 1
        assert pools == [2, 2]

    def test_write_holds_one_block_of_an_array_column(self, monkeypatch, tmp_path):
        """A 200,000-row table of two float columns is converted to Python
        floats one block at a time and written in small row groups: the
        traced peak stays below an eighth of its 400,000 floats (1.14 MiB).
        It is about 0.35 MiB; groups of 4,096 rows peak at 1.8 MiB, and
        converting whole columns at once at 12.2 MiB. At 2 CPUs this process
        writes half the rows and appends the other half from a file."""
        rng = np.random.default_rng(0)
        table = {"mu": rng.standard_normal(200_000), "sigma": rng.random(200_000)}
        path = tmp_path / "predictions.csv"
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            tracemalloc.start()
            try:
                _write_columns(path, table)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 200_000 * sys.getsizeof(1.0) / 8, f"{cpus} CPUs: traced peak {peak / 2**20:.2f} MiB"
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["mu", "sigma"]
            written = [[float(cell) for cell in row] for row in rows[1:]]
            assert np.array_equal(written, np.column_stack([table["mu"], table["sigma"]]))

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 4095, 4096, 4097, 8193])
    def test_write_gives_the_bytes_of_one_row_at_a_time(self, tmp_path, n):
        """Row counts at the edges of the writer's row groups and of the
        array blocks; float arrays with a negative zero, a subnormal and
        floats whose repr is long or exponential, a generator, and a list
        holding None and a string that must be quoted."""
        special = np.array([-0.0, 1e-7, 1e22, 5e-324, 0.1 + 0.2])
        noise = np.random.default_rng(n).standard_normal(n)
        mixed = [None, 'a,"b"', "plain", 7]

        def table():
            return {
                "f": np.resize(special, n),
                "noise": noise,
                "g": (i / 7 for i in range(n)),
                "c=a,b": [mixed[i % len(mixed)] for i in range(n)],
            }

        path = tmp_path / "table.csv"
        _write_columns(path, table())
        columns = table()
        cells = [
            [repr(float(v)) for v in column] if isinstance(column, np.ndarray) else [cli._cell(v) for v in column]
            for column in columns.values()
        ]
        expected = "f,noise,g,\"c=a,b\"\n" + "".join(",".join(row) + "\n" for row in zip(*cells))
        assert path.read_bytes() == expected.encode()

    def test_failed_write_keeps_existing_predictions(self, tmp_path):
        path = tmp_path / "predictions.csv"
        _write_columns(path, {"mu": [0.0], "sigma": [1.0]})
        before = path.read_bytes()

        def column():
            yield 2.0
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            _write_columns(path, {"mu": column(), "sigma": [3.0, 4.0]})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["predictions.csv"]

    def test_columns_not_in_sorted_name_order_predict_as_the_in_memory_build(self, tmp_path):
        """x1, x2, ..., x12 is not sorted-name order, so the saved model must
        keep the column order for its networks to see the columns they were
        trained on."""
        data = tmp_path / "d12"
        assert main(["synth", "--n", "1000", "--d", "12", "--seed", "6", "--out", str(data)]) == EXIT_OK
        cfg = tmp_path / "fast.json"
        cfg.write_text(json.dumps(FAST))
        argv = ["--data", str(data / "data.csv"), "--out", str(tmp_path / "model")]
        assert main(["train", *argv, "--schema", str(data / "schema.json"), "--config", str(cfg)]) == EXIT_OK
        argv = ["--data", str(data / "data.csv"), "--out", str(tmp_path / "pred")]
        assert main(["predict", "--model", str(tmp_path / "model" / "model.json"), *argv]) == EXIT_OK

        dataset = load_csv(data / "data.csv", Schema.from_file(data / "schema.json"))
        X, y, state = fit_transform(dataset)
        train_cfg = TrainConfig(max_epochs=FAST["max_epochs"], patience=FAST["patience"])
        model = tree.build(X, y, tree.UsnrtConfig(n_min=FAST["n_min"], train_cfg=train_cfg), preprocess=state)
        with open(tmp_path / "pred" / "predictions.csv", newline="") as fh:
            written = np.array([[float(cell) for cell in row] for row in list(csv.reader(fh))[1:]])
        mu, sigma = model.predict_arrays(X)
        assert np.array_equal(written[:, 0], mu)
        assert np.array_equal(written[:, 1], sigma)

    def test_header_with_comma_round_trips(self, tmp_path):
        path = tmp_path / "table.csv"
        _write_columns(path, {"c=a,b": [0.1 + 0.2, None], "plain": ["x", 7]})
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["c=a,b", "plain"], [repr(0.1 + 0.2), "x"], ["", "7"]]
        assert float(rows[1][0]) == 0.1 + 0.2


# Three whole blocks and 5 rows: four fork_map tasks, the last block short.
POOLED_ROWS = 3 * BLOCK_ROWS + 5


@pytest.fixture(scope="module")
def pooled_data(tmp_path_factory):
    """A plain numeric file of POOLED_ROWS rows with trained_dir's columns."""
    out = tmp_path_factory.mktemp("pooled")
    argv = ["synth", "--n", str(POOLED_ROWS), "--d", "2", "--sigma-low", "0.1", "--sigma-high", "1.0"]
    assert main([*argv, "--seed", "9", "--out", str(out)]) == EXIT_OK
    return out / "data.csv"


def _model_file(trained_dir, tmp_path, kind):
    """trained_dir's usnrt model file, or an hnn or ensemble file made of it."""
    if kind == "usnrt":
        return trained_dir / "model.json"
    payload = {"hnn": _as_hnn, "ensemble": _as_ensemble}[kind](json.loads((trained_dir / "model.json").read_text()))
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(payload))
    return path


def _faulty_read_back(monkeypatch, capsys, trained_dir, pooled_data, tmp_path, command, fault, message, row):
    """Run command at 1 and 2 CPUs on pooled_data with fault in data row
    row, and check that both exit 2 with message and write nothing."""
    lines = pooled_data.read_text().splitlines()
    cells = lines[row].split(",")
    if fault == "short-row":
        cells.pop()
    elif fault == "long-row":
        cells.append("0.5")
    else:
        index, value = {
            "nan-feature": (1, "nan"),
            "huge-feature": (0, "1.7e308"),
            "blank-label": (2, ""),
            "invalid-utf8": (0, "0.5\udcff"),  # written as the byte 0xff, which UTF-8 never holds
        }[fault]
        cells[index] = value
    lines[row] = ",".join(cells)
    data = tmp_path / "faulty.csv"
    data.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    results = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        out = tmp_path / f"out-{cpus}"
        code = main([command, "--model", str(trained_dir / "model.json"), "--data", str(data), "--out", str(out)])
        results.append((code, capsys.readouterr().err))
        assert not out.exists()
    assert results[0] == results[1]
    code, err = results[0]
    expected = f"data error: {message.format(data=data, row=row)}"
    if fault == "invalid-utf8":  # the position is the byte's in the chunk that the decoder was given
        assert code == EXIT_DATA and re.fullmatch(re.escape(expected) + r"\d+: invalid start byte\n", err)
    else:
        assert (code, err) == (EXIT_DATA, f"{expected}\n")


class TestPooledReadBack:
    """predict and evaluate read a plain numeric file of more than
    data._PART_BYTES in parts, in fork_map's processes, where a pool can run."""

    @pytest.mark.parametrize("kind", ["usnrt", "hnn", "ensemble"])
    def test_pooled_outputs_are_the_in_process_bytes(
        self, monkeypatch, pools, trained_dir, pooled_data, tmp_path, kind
    ):
        """Pooled and in-process runs write the same bytes, and so does a
        copy of the file with CRLF line ends and a UTF-8 byte-order mark,
        whose blocks np.loadtxt reads as they are."""
        model = _model_file(trained_dir, tmp_path, kind)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(b"\xef\xbb\xbf" + pooled_data.read_bytes().replace(b"\n", b"\r\n"))
        commands = {
            "predict": ([], ["predictions.csv"]),
            "evaluate": (["--original-units"], ["metrics.json", "curve.csv"]),
        }
        outputs = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            for data in (pooled_data, crlf):
                files = {}
                for command, (flags, names) in commands.items():
                    out = tmp_path / f"{command}-{cpus}-{data.stem}"
                    argv = [command, "--model", str(model), "--data", str(data), *flags, "--out", str(out)]
                    assert main(argv) == EXIT_OK
                    files.update({name: (out / name).read_bytes() for name in names})
                outputs.append(files)
            assert_no_child_left()
        assert all(files == outputs[0] for files in outputs)
        assert outputs[0]["predictions.csv"].count(b"\n") == POOLED_ROWS + 1
        assert pools == [2, 2, 2, 2]  # none at 1 CPU; one of 2 workers per command and file at 2

    @pytest.mark.parametrize(
        "command, fault, message",
        [
            ("predict", "nan-feature", "{data}: row {row}, column 'x2': non-finite value 'nan'"),
            ("predict", "short-row", "{data}: row {row} has 2 cells, header has 3"),
            ("predict", "long-row", "{data}: row {row} has 4 cells, header has 3"),
            ("predict", "huge-feature", "column 'x1': a value is not finite once normalised"),
            ("evaluate", "nan-feature", "{data}: row {row}, column 'x2': non-finite value 'nan'"),
            ("evaluate", "short-row", "{data}: row {row} has 2 cells, header has 3"),
            ("evaluate", "blank-label", "{data}: row {row}, column 'y': missing value"),
            ("predict", "invalid-utf8", "cannot read {data}: 'utf-8' codec can't decode byte 0xff in position "),
            ("evaluate", "invalid-utf8", "cannot read {data}: 'utf-8' codec can't decode byte 0xff in position "),
        ],
        ids=[
            "predict-nan-feature",
            "predict-short-row",
            "predict-long-row",
            "predict-huge-feature",
            "evaluate-nan-feature",
            "evaluate-short-row",
            "evaluate-blank-label",
            "predict-invalid-utf8",
            "evaluate-invalid-utf8",
        ],
    )
    def test_fault_in_the_last_block_reads_as_in_process(
        self, monkeypatch, pools, capsys, trained_dir, pooled_data, tmp_path, command, fault, message
    ):
        """A part that fails a check sends the whole file to load_csv, so
        the exit code and message are those of one process, with no
        traceback; a worker never reports a fault itself. The last part
        runs in a child."""
        row = 3 * BLOCK_ROWS + 3  # in the last part
        _faulty_read_back(monkeypatch, capsys, trained_dir, pooled_data, tmp_path, command, fault, message, row)
        assert pools == [2]

    @pytest.mark.parametrize(
        "command, fault, message",
        [
            ("predict", "nan-feature", "{data}: row {row}, column 'x2': non-finite value 'nan'"),
            ("predict", "short-row", "{data}: row {row} has 2 cells, header has 3"),
            ("predict", "long-row", "{data}: row {row} has 4 cells, header has 3"),
            ("evaluate", "short-row", "{data}: row {row} has 2 cells, header has 3"),
            ("evaluate", "blank-label", "{data}: row {row}, column 'y': missing value"),
        ],
        ids=[
            "predict-nan-feature",
            "predict-short-row",
            "predict-long-row",
            "evaluate-short-row",
            "evaluate-blank-label",
        ],
    )
    def test_fault_in_the_first_part_reads_as_in_process(
        self, monkeypatch, pools, capsys, trained_dir, pooled_data, tmp_path, command, fault, message
    ):
        """The first part runs in this process: its fault too sends the file
        to load_csv, with one process's message and exit code."""
        _faulty_read_back(monkeypatch, capsys, trained_dir, pooled_data, tmp_path, command, fault, message, 3)
        assert pools == [2]

    def test_parts_cut_off_the_4_row_grid_give_the_in_process_bytes(
        self, monkeypatch, pools, trained_dir, pooled_data, tmp_path
    ):
        """With parts of at most 100,000 bytes, the file is cut into 8 parts
        whose row counts are not all multiples of 4; each part's last 4-row
        group runs padded, and the outputs are still one process's bytes."""
        monkeypatch.setattr(data, "_PART_BYTES", 100_000)
        plain = NumericCsv.scan(pooled_data, Schema.from_file(pooled_data.parent / "schema.json"))
        rows = [plain.dataset(part).n_rows for part in plain.parts(2)]
        assert rows == [1536, 1538, 1537, 1536, 1537, 1537, 1536, 1536]
        outputs = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            files = {}
            for command, names in (("predict", ["predictions.csv"]), ("evaluate", ["metrics.json", "curve.csv"])):
                out = tmp_path / f"{command}-{cpus}"
                argv = [command, "--model", str(trained_dir / "model.json"), "--data", str(pooled_data), "--out", str(out)]
                assert main(argv) == EXIT_OK
                files.update({name: (out / name).read_bytes() for name in names})
            outputs.append(files)
        assert outputs[0] == outputs[1]
        assert pools == [2, 2]
        assert_no_child_left()

    @pytest.mark.parametrize("header", ["x1,x2,y\r", '"x1",x2,y\n'], ids=["lone-return", "quote"])
    def test_header_line_that_only_csv_splits_reads_as_the_block_reader(self, monkeypatch, pools, tmp_path, header):
        """A file past the part size whose header ends in a lone CR, so that
        its first line feed ends the first data row, or holds a quote, gives
        load_csv_blocks's columns at 1 CPU and at 2. The cuts start after the
        first line feed, so only scan's check of the header line keeps that
        row: the file is declined there and read whole by the block reader."""
        path = tmp_path / "d.csv"
        path.write_text(header + "".join(f"{i},{i / 7!r},{-i}\n" for i in range(200)))
        schema = Schema.from_mapping({"x1": "continuous", "x2": "continuous", "y": "label"})
        monkeypatch.setattr(data, "_PART_BYTES", 256)
        expected = {name: values.tobytes() for name, values in load_csv_blocks(path, schema).columns.items()}
        assert len(expected["y"]) == 200 * 8
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            assert {name: values.tobytes() for name, values in load_csv(path, schema).columns.items()} == expected
        assert pools == []

    def test_killed_worker_exits_3_and_is_no_training_error(
        self, monkeypatch, pools, capsys, trained_dir, pooled_data, tmp_path
    ):
        """A predict worker killed by a signal, as the out-of-memory killer
        would kill it, exits 3 with one line of message: a worker process
        ended, and no model was training."""
        original, test_pid = cli._predict, os.getpid()

        def predict(*args, **kwargs):
            if os.getpid() != test_pid:  # a child; the test process predicts its own part
                os.kill(os.getpid(), signal.SIGKILL)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "_predict", predict)
        set_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        argv = ["predict", "--model", str(trained_dir / "model.json"), "--data", str(pooled_data), "--out", str(out)]
        assert main(argv) == EXIT_TRAINING
        assert capsys.readouterr().err == "error: a worker process ended abruptly, as when killed for lack of memory\n"
        assert pools == [2]
        assert_no_child_left()
        assert not out.exists()


    def test_train_benchmark_and_inspect_read_in_parts_give_the_in_process_bytes(
        self, monkeypatch, pools, trained_dir, pooled_data, tmp_path
    ):
        """train, benchmark and inspect read a file past data._PART_BYTES in
        parts at 2 CPUs, each part's columns joined in order, and write the
        bytes of one process."""
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps({"max_epochs": 2, "patience": 2, "n_min": 3000}))
        trains = ["--schema", str(pooled_data.parent / "schema.json"), "--config", str(config)]
        commands = {
            "train": (trains, ["model.json", "train_log.json", "tree_summary.json"]),
            "benchmark": ([*trains, "--seed", "0", "--model-kind", "hnn"], ["benchmark.csv", "benchmark.txt"]),
            "inspect": (["--model", str(trained_dir / "model.json")], ["root_split.csv", "leaf_report.csv"]),
        }
        outputs = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            files = {}
            for command, (flags, names) in commands.items():
                out = tmp_path / f"{command}-{cpus}"
                assert main([command, "--data", str(pooled_data), *flags, "--out", str(out)]) == EXIT_OK
                files.update({name: (out / name).read_bytes() for name in names})
            outputs.append(files)
            assert_no_child_left()
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0]["tree_summary.json"])["leaf_count"] > 1
        # At 2 CPUs: train reads, then grows the root's subtrees; benchmark
        # reads; inspect reads, then writes root_split.csv (4 x 12,293 cells).
        assert pools == [2, 2, 2, 2, 2]

    @pytest.mark.parametrize(
        "command, names",
        [
            ("predict", ["predictions.csv"]),
            ("evaluate", ["metrics.json", "curve.csv"]),
            ("inspect", ["leaf_report.csv"]),
        ],
    )
    def test_refused_part_goes_straight_to_the_block_reader(
        self, monkeypatch, trained_dir, pooled_data, tmp_path, command, names
    ):
        """A cell that only float() takes (1_0) in the last part makes that
        part's parse refuse the file. The file then goes straight to the
        block reader: it is not scanned again and not parsed whole, at 2
        CPUs or at 1, and the outputs are those of the same rows with the
        cell spelled 10."""
        lines = pooled_data.read_text().splitlines()
        row = 3 * BLOCK_ROWS + 3
        spelled = {}
        for cell in ("1_0", "10"):
            lines[row] = ",".join([cell, *lines[row].split(",")[1:]])
            spelled[cell] = tmp_path / f"{cell}.csv"
            spelled[cell].write_text("\n".join(lines) + "\n")
        calls = []
        loadtxt, blocks = np.loadtxt, data._blocks

        def counting_loadtxt(source, *args, **kwargs):
            calls.append("part" if isinstance(source, io.BytesIO) else "whole")
            return loadtxt(source, *args, **kwargs)

        def counting_blocks(path):
            calls.append("blocks")
            return blocks(path)

        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        monkeypatch.setattr(data, "_blocks", counting_blocks)
        # The scan reads the header as bytes, not through _blocks; at 2 CPUs
        # this process parses its one of the 2 parts; then the block reader
        # reads the file.
        expected = {1: ["whole", "blocks"], 2: ["part", "blocks"]}
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            outputs = []
            for cell, path in spelled.items():
                calls.clear()
                out = tmp_path / f"{command}-{cpus}-{cell}"
                argv = [command, "--model", str(trained_dir / "model.json"), "--data", str(path), "--out", str(out)]
                assert main(argv) == EXIT_OK
                outputs.append({name: (out / name).read_bytes() for name in names})
                if cell == "1_0":
                    assert calls == expected[cpus]
            assert outputs[0] == outputs[1]
            assert_no_child_left()

    def test_killed_read_worker_in_train_exits_3_as_no_training_error(
        self, monkeypatch, pools, capsys, pooled_data, tmp_path
    ):
        """A child that dies while train reads its file in parts exits 3 as
        a lost worker, not as a training error, and leaves no output."""
        original, test_pid = data.NumericCsv.dataset, os.getpid()

        def dataset(self, part=None):
            if os.getpid() != test_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, part)

        monkeypatch.setattr(data.NumericCsv, "dataset", dataset)
        set_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        argv = ["train", "--data", str(pooled_data), "--schema", str(pooled_data.parent / "schema.json")]
        assert main([*argv, "--out", str(out)]) == EXIT_TRAINING
        assert capsys.readouterr().err == "error: a worker process ended abruptly, as when killed for lack of memory\n"
        assert pools == [2]
        assert_no_child_left()
        assert not out.exists()


class TestPooledScan:
    """train scans the root's split in its own process, then grows the two
    subtrees as fork_map tasks where a pool can run."""

    def test_killed_screen_worker_exits_3_and_writes_no_model(
        self, monkeypatch, pools, capsys, synth_dir, fast_config, tmp_path
    ):
        """A child killed after the root's scan, while it trains a leaf, as
        the out-of-memory killer would kill it, is a lost worker: train exits 3 with the one
        line of message that a lost reader gives, and writes no model file."""
        train_leaf_nets, test_pid = tree._train_leaf_nets, os.getpid()

        def killing(*args):
            if os.getpid() != test_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return train_leaf_nets(*args)

        monkeypatch.setattr(tree, "_train_leaf_nets", killing)
        set_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        argv = ["train", "--data", str(synth_dir / "data.csv"), "--schema", str(synth_dir / "schema.json")]
        assert main([*argv, "--config", str(fast_config), "--out", str(out)]) == EXIT_TRAINING
        err = capsys.readouterr().err
        assert err == "error: a worker process ended abruptly, as when killed for lack of memory\n"
        assert pools == [2]
        assert_no_child_left()
        assert not (out / "model.json").exists()


class TestPooledWrite:
    """_write_columns writes a table of float arrays with at least
    cli._FORK_CELLS cells as one contiguous range of rows per process."""

    @settings(max_examples=60, deadline=None)
    @given(
        cpus=st.integers(min_value=2, max_value=3),
        n_columns=st.integers(min_value=1, max_value=4),
        groups=st.integers(min_value=0, max_value=2),
        offset=st.integers(min_value=-3, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_pooled_write_gives_the_serial_bytes(self, tmp_path_factory, cpus, n_columns, groups, offset, seed):
        """Row counts around whole row groups per process put the range cuts
        on, and a few rows off, the writer's 256-row groups; the pooled
        bytes are those of one process, and only the output file is left."""
        n_rows = max(0, cpus * cli._WRITE_ROWS * groups + offset)
        rng = np.random.default_rng(seed)
        special = np.array([-0.0, 1e-7, 1e22, 5e-324, 0.1 + 0.2, -1.5])
        columns = {
            f"c{j}": np.where(rng.random(n_rows) < 0.5, np.resize(special, n_rows), rng.standard_normal(n_rows))
            for j in range(n_columns)
        }
        directory = tmp_path_factory.mktemp("pooled-write")
        written, forked = [], []
        started = parallel._forked

        def counting(task, n_tasks, processes):
            forked.append(processes)
            return started(task, n_tasks, processes)

        for count in (1, cpus):
            with (
                mock.patch.object(cli, "_FORK_CELLS", 1),
                mock.patch.object(parallel, "usable_cpus", lambda: count),
                mock.patch.object(parallel, "_forked", counting),
            ):
                _write_columns(directory / "table.csv", columns)
            written.append((directory / "table.csv").read_bytes())
        assert written[0] == written[1]
        assert forked == ([min(n_rows, cpus)] if n_rows >= 2 else [])
        assert os.listdir(directory) == ["table.csv"]
        assert_no_child_left()

    def test_killed_writer_exits_3_and_leaves_no_file(self, monkeypatch, pools, capsys, tmp_path):
        """A child killed after writing the first row group of its range, as
        the out-of-memory killer would kill it, makes synth exit 3 with one
        line of message; it leaves neither data.csv nor a temporary file."""
        original, test_pid = cli._csv_rows, os.getpid()

        def rows(columns):
            for group, text in enumerate(original(columns)):
                if group == 1 and os.getpid() != test_pid:
                    os.kill(os.getpid(), signal.SIGKILL)
                yield text

        monkeypatch.setattr(cli, "_csv_rows", rows)
        set_cpus(monkeypatch, 2)
        out = tmp_path / "synth"
        assert main(["synth", "--n", "5000", "--d", "8", "--out", str(out)]) == EXIT_TRAINING
        assert capsys.readouterr().err == "error: a worker process ended abruptly, as when killed for lack of memory\n"
        assert pools == [2]
        assert_no_child_left()
        assert os.listdir(out) == []


@pytest.mark.skipif(not parallel._openblas(), reason="numpy's BLAS is not a known OpenBLAS")
class TestOneBlasThread:
    def test_haswell_training_is_the_same_with_blas_threads_unset(self, tmp_path):
        """Under OpenBLAS's Haswell kernels (AVX2-only and AMD Zen CPUs), two
        BLAS threads split a product at rows that need not be multiples of 4,
        so a forward pass, and with it a trained model, could differ between
        thread counts. The CLI runs each command at one BLAS thread, so a
        tree that splits at the root trains the same with the count unset
        (one thread per CPU) as at 1."""
        unset = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {key: value for key, value in os.environ.items() if key not in unset}
        env.update(OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join(filter(None, paths)))

        def usnrt(*argv, **threads):
            command = [sys.executable, "-m", "usnrt", *argv]
            return subprocess.run(command, env={**env, **threads}, capture_output=True, text=True, check=True)

        data = tmp_path / "data"
        usnrt("synth", "--n", "6000", "--d", "8", "--sigma-low", "0.1", "--sigma-high", "1.0", "--out", str(data))
        config = tmp_path / "fixed.json"
        config.write_text(json.dumps({"max_epochs": 3, "patience": 3}))
        argv = ["train", "--data", str(data / "data.csv"), "--schema", str(data / "schema.json")]
        argv += ["--n-min", "1000", "--config", str(config)]
        trained = usnrt(*argv, "--out", str(tmp_path / "unset"))
        assert "depth 2, 3 leaves" in trained.stdout
        usnrt(*argv, "--out", str(tmp_path / "one"), OPENBLAS_NUM_THREADS="1")
        for name in ("model.json", "train_log.json"):
            assert (tmp_path / "unset" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_main_runs_at_one_thread_and_restores_the_count(self, monkeypatch, tmp_path):
        (get, set_), *_ = parallel._openblas()
        seen = []
        original = cli.generate_synthetic

        def generate(spec):
            seen.append(get())
            return original(spec)

        monkeypatch.setattr(cli, "generate_synthetic", generate)
        before = get()
        set_(2)
        try:
            assert get() == 2
            assert main(["synth", "--n", "20", "--out", str(tmp_path / "synth")]) == EXIT_OK
            assert get() == 2
        finally:
            set_(before)
        assert seen == [1]


class TestInspect:
    def test_exports(self, trained_dir, synth_dir, tmp_path):
        out = tmp_path / "inspect"
        code = main(
            [
                "inspect",
                "--model", str(trained_dir / "model.json"),
                "--data", str(synth_dir / "data.csv"),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        leaf_lines = (out / "leaf_report.csv").read_text().strip().splitlines()
        assert leaf_lines[0] == "region_id,count,residual_std,sigma_mean,z_std,coverage_90,tce"
        counts = [int(line.split(",")[1]) for line in leaf_lines[1:]]
        assert sum(counts) == 1200
        scatter_lines = (out / "root_split.csv").read_text().strip().splitlines()
        assert len(scatter_lines) == 1201
        # Residual-variance ratio across the exported sides is large for a
        # generator ratio of 100.
        header = scatter_lines[0].split(",")
        assert header[2] == "squared_residual"
        split_vals = np.array([float(l.split(",")[0]) for l in scatter_lines[1:]])
        sq = np.array([float(l.split(",")[2]) for l in scatter_lines[1:]])
        config = json.loads((out / "config.json").read_text())
        assert config["command"] == "inspect"
        summary = json.loads((trained_dir / "tree_summary.json").read_text())
        threshold = summary["splits"][0]["threshold"]
        left = sq[split_vals <= threshold]
        right = sq[split_vals > threshold]
        ratio = max(left.mean(), right.mean()) / min(left.mean(), right.mean())
        assert ratio > 4.0

    def test_leaf_report_keys_are_the_csv_header(self, trained_dir, synth_dir, tmp_path):
        out = tmp_path / "inspect"
        argv = ["inspect", "--model", str(trained_dir / "model.json"), "--data", str(synth_dir / "data.csv")]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        model = load_model(trained_dir / "model.json")
        dataset = load_csv(synth_dir / "data.csv", model.preprocess.schema)
        report = tree.leaf_report(model, model.preprocess.transform(dataset), dataset.labels)
        with open(out / "leaf_report.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == list(report)
        assert [row[:2] for row in rows] == [[str(r), str(c)] for r, c in zip(report["region_id"], report["count"])]

    def test_huge_label_exits_2_naming_the_region(self, trained_dir, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "data.csv").read_text().splitlines()
        data = tmp_path / "huge_label.csv"
        data.write_text("\n".join([*lines[:50], "0.5,0.5,1e308"]) + "\n")
        out = tmp_path / "inspect"
        argv = ["inspect", "--model", str(trained_dir / "model.json"), "--data", str(data), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {data}: leaf region ") and "residual_std is not finite" in err
        assert not (out / "leaf_report.csv").exists()

    def test_single_leaf_model_reports_no_splits(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "single.json"
        cfg.write_text(json.dumps({**FAST, "n_min": 1200}))
        train_out = tmp_path / "train"
        assert main(
            [
                "train",
                "--data", str(synth_dir / "data.csv"),
                "--schema", str(synth_dir / "schema.json"),
                "--config", str(cfg),
                "--out", str(train_out),
            ]
        ) == EXIT_OK
        out = tmp_path / "inspect"
        assert main(
            [
                "inspect",
                "--model", str(train_out / "model.json"),
                "--data", str(synth_dir / "data.csv"),
                "--out", str(out),
            ]
        ) == EXIT_OK
        captured = capsys.readouterr()
        assert "no splits" in captured.out
        leaf_lines = (out / "leaf_report.csv").read_text().strip().splitlines()
        assert len(leaf_lines) == 2  # header plus a single region


class TestBenchmark:
    def test_table_shape_and_mean_rows(self, synth_dir, fast_config, tmp_path):
        out = tmp_path / "bench"
        code = main(
            [
                "benchmark",
                "--data", str(synth_dir / "data.csv"),
                "--schema", str(synth_dir / "schema.json"),
                "--config", str(fast_config),
                "--seed", "0",
                "--seed", "1",
                "--model-kind", "usnrt",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = (out / "benchmark.csv").read_text().strip().splitlines()
        assert lines[0] == "model,seed,ece,tce,sharpness"
        assert len(lines) == 4  # 2 seeds + 1 mean row
        assert (out / "benchmark.txt").exists()

    def test_mean_rows_are_arithmetic_means(self, synth_dir):
        schema = Schema.from_file(synth_dir / "schema.json")
        dataset = load_csv(synth_dir / "data.csv", schema)
        settings = {
            "alpha": 0.01, "n_min": 300, "n_leaves": 10, "stride": None,
            "split_net_hidden": [8], "leaf_net_hidden": [8],
            "batch_size": 64, "learning_rate": 0.01, "max_epochs": 30,
            "validation_fraction": 0.2, "patience": 5,
            "hnn_hidden": [8], "hnn_rounds": 1, "ensemble_members": 2,
        }
        table = run_benchmark(dataset, {"usnrt": cli._trainer("usnrt", settings, [0, 1, 2])}, [0, 1, 2], 0.2)
        assert table["seed"] == [0, 1, 2, "mean"]
        for key in ("ece", "tce", "sharpness"):
            expected = float(np.mean(table[key][:3]))
            assert table[key][3] == pytest.approx(expected, abs=1e-12)


    def test_table_is_columns_and_files_match_it(self, synth_dir, tmp_path, monkeypatch):
        """Two kinds, two seeds, with each cell's scores fixed by hand: the
        returned columns, benchmark.csv and benchmark.txt are the expected
        table, mean rows included."""
        scores = {
            ("usnrt", 3): (1.5, 2.0, 10.0),
            ("hnn", 3): (0.5, 1.0, 20.0),
            ("usnrt", 5): (2.5, 3.0, 12.0),
            ("hnn", 5): (1.0, 0.5, 22.5),
        }
        monkeypatch.setattr(cli, "_trainer", lambda kind, settings, seeds: lambda X, y, state, seed: (kind, seed))
        monkeypatch.setattr(
            cli, "_evaluate", lambda cell, X, labels: MetricsReport(*scores[cell], curve=[], n_test=0)
        )
        dataset = load_csv(synth_dir / "data.csv", Schema.from_file(synth_dir / "schema.json"))
        fits = {kind: cli._trainer(kind, {}, [3, 5]) for kind in ("usnrt", "hnn")}
        assert run_benchmark(dataset, fits, [3, 5], 0.2) == {
            "model": ["usnrt", "hnn", "usnrt", "hnn", "usnrt", "hnn"],
            "seed": [3, 3, 5, 5, "mean", "mean"],
            "ece": [1.5, 0.5, 2.5, 1.0, 2.0, 0.75],
            "tce": [2.0, 1.0, 3.0, 0.5, 2.5, 0.75],
            "sharpness": [10.0, 20.0, 12.0, 22.5, 11.0, 21.25],
        }
        out = tmp_path / "bench"
        argv = ["benchmark", "--data", str(synth_dir / "data.csv"), "--schema", str(synth_dir / "schema.json")]
        argv += ["--model-kind", "usnrt", "--model-kind", "hnn", "--seed", "3", "--seed", "5", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert (out / "benchmark.csv").read_text() == (
            "model,seed,ece,tce,sharpness\n"
            "usnrt,3,1.5,2.0,10.0\n"
            "hnn,3,0.5,1.0,20.0\n"
            "usnrt,5,2.5,3.0,12.0\n"
            "hnn,5,1.0,0.5,22.5\n"
            "usnrt,mean,2.0,2.5,11.0\n"
            "hnn,mean,0.75,0.75,21.25\n"
        )
        assert (out / "benchmark.txt").read_text() == (
            "model        seed        ece        tce  sharpness\n"
            "usnrt           3     1.5000     2.0000    10.0000\n"
            "hnn             3     0.5000     1.0000    20.0000\n"
            "usnrt           5     2.5000     3.0000    12.0000\n"
            "hnn             5     1.0000     0.5000    22.5000\n"
            "usnrt        mean     2.0000     2.5000    11.0000\n"
            "hnn          mean     0.7500     0.7500    21.2500\n"
        )


class TestBaselineKinds:
    def test_hnn_train_and_evaluate(self, synth_dir, tmp_path):
        cfg = tmp_path / "hnn.json"
        cfg.write_text(json.dumps({"max_epochs": 8, "patience": 3, "hnn_hidden": [4]}))
        train_out = tmp_path / "train"
        assert main(
            [
                "train",
                "--data", str(synth_dir / "data.csv"),
                "--schema", str(synth_dir / "schema.json"),
                "--model-kind", "hnn",
                "--config", str(cfg),
                "--out", str(train_out),
            ]
        ) == EXIT_OK
        assert not (train_out / "tree_summary.json").exists()
        log = json.loads((train_out / "train_log.json").read_text())
        assert "round_val_nll" in log
        eval_out = tmp_path / "eval"
        assert main(
            [
                "evaluate",
                "--model", str(train_out / "model.json"),
                "--data", str(synth_dir / "data.csv"),
                "--out", str(eval_out),
            ]
        ) == EXIT_OK
        metrics = json.loads((eval_out / "metrics.json").read_text())
        assert metrics["n_test"] == 1200

    def test_ensemble_train_and_predict(self, synth_dir, tmp_path):
        cfg = tmp_path / "ens.json"
        cfg.write_text(
            json.dumps(
                {"max_epochs": 5, "patience": 3, "hnn_hidden": [4], "ensemble_members": 2}
            )
        )
        train_out = tmp_path / "train"
        assert main(
            [
                "train",
                "--data", str(synth_dir / "data.csv"),
                "--schema", str(synth_dir / "schema.json"),
                "--model-kind", "ensemble",
                "--config", str(cfg),
                "--out", str(train_out),
            ]
        ) == EXIT_OK
        pred_out = tmp_path / "pred"
        assert main(
            [
                "predict",
                "--model", str(train_out / "model.json"),
                "--data", str(synth_dir / "data.csv"),
                "--out", str(pred_out),
            ]
        ) == EXIT_OK
        lines = (pred_out / "predictions.csv").read_text().strip().splitlines()
        assert len(lines) == 1201


class TestExitCodes:
    def test_usage_error(self):
        assert main(["train", "--data", "x.csv"]) == EXIT_USAGE  # missing --schema

    def test_unknown_model_kind(self, synth_dir):
        assert (
            main(
                [
                    "train",
                    "--data", str(synth_dir / "data.csv"),
                    "--schema", str(synth_dir / "schema.json"),
                    "--model-kind", "mystery",
                ]
            )
            == EXIT_USAGE
        )

    def test_missing_data_file(self, synth_dir, tmp_path):
        assert (
            main(
                [
                    "train",
                    "--data", str(tmp_path / "missing.csv"),
                    "--schema", str(synth_dir / "schema.json"),
                    "--out", str(tmp_path / "out"),
                ]
            )
            == EXIT_DATA
        )

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            ([], {"alpha": 2}, "alpha must lie strictly in (0, 1)"),
            (["--seed", "-1"], {}, "seed must be non-negative"),
            ([], {"learning_rate": float("nan")}, "learning_rate must be positive and finite"),
            ([], {"learning_rate": float("inf")}, "learning_rate must be positive and finite"),
        ],
    )
    def test_bad_setting_is_reported_before_the_files_are_read(self, tmp_path, capsys, flags, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["train", "--data", str(tmp_path / "missing.csv"), "--schema", str(tmp_path / "missing.json")]
        assert main([*argv, *flags, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"alpha": 2}, "alpha must lie strictly in (0, 1)"),
            ({"hnn_hidden": [0]}, "hnn_hidden sizes must be at least 1, got [0]"),
            ({"seeds": [0, -1]}, "seed must be non-negative"),
            ({"test_fraction": 2}, "test_fraction must lie strictly in (0, 1)"),
        ],
        ids=["alpha", "hnn-hidden", "seed", "test-fraction"],
    )
    def test_benchmark_reports_a_bad_setting_before_the_files_are_read(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_kinds": ["usnrt", "hnn"], **config}))
        argv = ["benchmark", "--data", str(tmp_path / "missing.csv"), "--schema", str(tmp_path / "missing.json")]
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "kind, config, message",
        [
            ("hnn", {"hnn_hidden": [0]}, "hnn_hidden sizes must be at least 1, got [0]"),
            ("hnn", {"hnn_rounds": 0}, "rounds must be at least 1"),
            ("ensemble", {"ensemble_members": 0}, "n_members must be at least 1"),
            ("hnn", {"seeds": [0, -1]}, "seed must be non-negative"),
        ],
    )
    def test_benchmark_checks_every_kind_before_any_model_trains(
        self, synth_dir, tmp_path, capsys, monkeypatch, kind, config, message
    ):
        def trains(*args, **kwargs):
            pytest.fail("a model trained before the settings were checked")

        for module, name in ((tree, "build"), (baselines, "train_hnn"), (baselines, "train_ensemble")):
            monkeypatch.setattr(module, name, trains)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": [0], **config, "model_kinds": ["usnrt", kind]}))
        argv = ["benchmark", "--data", str(synth_dir / "data.csv"), "--schema", str(synth_dir / "schema.json")]
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_inspect_refuses_a_baseline_before_reading_data(self, trained_dir, tmp_path, capsys):
        hnn = tmp_path / "hnn.json"
        hnn.write_text(json.dumps(_as_hnn(json.loads((trained_dir / "model.json").read_text()))))
        argv = ["inspect", "--model", str(hnn), "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: inspect applies to usnrt models\n"

    @pytest.mark.parametrize("command", ["synth", "train", "predict"])
    def test_out_naming_a_file_exits_1(self, trained_dir, synth_dir, tmp_path, capsys, command):
        """An --out that is, or lies under, an existing file is refused
        before any work."""
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        inputs = {
            "synth": ["--n", "20"],
            "train": ["--data", str(synth_dir / "data.csv"), "--schema", str(synth_dir / "schema.json")],
            "predict": ["--model", str(trained_dir / "model.json"), "--data", str(synth_dir / "data.csv")],
        }
        for out in (afile, afile / "sub"):
            assert main([command, *inputs[command], "--out", str(out)]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(afile) in err
            assert "Traceback" not in err
            assert afile.read_text() == "keep\n"

    def test_corrupt_model_file(self, synth_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert (
            main(
                [
                    "evaluate",
                    "--model", str(bad),
                    "--data", str(synth_dir / "data.csv"),
                    "--out", str(tmp_path / "out"),
                ]
            )
            == EXIT_DATA
        )

    def test_wrong_bias_length_rejected(self, trained_dir, synth_dir, tmp_path):
        payload = json.loads((trained_dir / "model.json").read_text())
        net = next(node for node in payload["nodes"] if "mean_net" in node)["mean_net"]
        net["biases"][0] = encode_array(np.append(decode_array(net["biases"][0]), 0.5))
        bad = tmp_path / "bad_bias.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="biases"):
            load_model(bad)
        assert (
            main(
                [
                    "predict",
                    "--model", str(bad),
                    "--data", str(synth_dir / "data.csv"),
                    "--out", str(tmp_path / "out"),
                ]
            )
            == EXIT_DATA
        )

    def test_reproducible_training(self, synth_dir, fast_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(
                [
                    "train",
                    "--data", str(synth_dir / "data.csv"),
                    "--schema", str(synth_dir / "schema.json"),
                    "--config", str(fast_config),
                    "--seed", "3",
                    "--out", str(out),
                ]
            ) == EXIT_OK
            outs.append(out)
        a, b = outs
        assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("net", ["mean_net", "sigma_net"])
    def test_non_finite_hnn_weight_exits_2(self, trained_dir, synth_dir, tmp_path, capsys, command, net):
        payload = _as_hnn(json.loads((trained_dir / "model.json").read_text()))
        weights = decode_array(payload[net]["weights"][0])
        weights[0, 0] = np.nan
        payload[net]["weights"][0] = encode_array(weights)
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(payload))
        code = main(
            [
                command,
                "--model", str(bad),
                "--data", str(synth_dir / "data.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith(f"data error: model file {bad}")
        assert "non-finite" in err

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("train", {"alpha": None}, "alpha"),
            ("train", {"split_net_hidden": 8}, "split_net_hidden"),
            ("train", {"max_epochs": [3]}, "max_epochs"),
            ("train", {"model_kind": "hnn", "hnn_rounds": [1]}, "hnn_rounds"),
            ("benchmark", {"alpha": None}, "alpha"),
            ("benchmark", {"split_net_hidden": 8}, "split_net_hidden"),
            ("benchmark", {"max_epochs": [3]}, "max_epochs"),
            ("benchmark", {"seeds": 5}, "seeds"),
            ("synth", {"n": [5]}, "n"),
            ("train", {"split_net_hidden": "16"}, "split_net_hidden"),
            ("train", {"max_epochs": 2.5}, "max_epochs"),
            ("train", {"n_min": 300.7}, "n_min"),
            ("benchmark", {"leaf_net_hidden": [4.5]}, "leaf_net_hidden"),
            ("benchmark", {"model_kinds": "usnrt"}, "model_kinds"),
        ],
    )
    def test_wrong_config_type_exits_1(self, synth_dir, tmp_path, capsys, command, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command != "synth":
            argv += ["--data", str(synth_dir / "data.csv"), "--schema", str(synth_dir / "schema.json")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"split_net_hidden": [0]}, "split_net_hidden"),
            ({"leaf_net_hidden": [4, -1]}, "leaf_net_hidden"),
            ({"model_kind": "hnn", "hnn_hidden": [0]}, "hnn_hidden"),
            ({"model_kind": "ensemble", "hnn_hidden": [8, 0]}, "hnn_hidden"),
        ],
    )
    def test_hidden_size_below_1_exits_1(self, synth_dir, tmp_path, capsys, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = ["train", "--config", str(cfg), "--out", str(out)]
        argv += ["--data", str(synth_dir / "data.csv"), "--schema", str(synth_dir / "schema.json")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {key} sizes must be at least 1")
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("key", ["seeds", "model_kinds"])
    def test_empty_benchmark_list_exits_1(self, synth_dir, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: []}))
        out = tmp_path / "out"
        argv = ["benchmark", "--config", str(cfg), "--out", str(out)]
        argv += ["--data", str(synth_dir / "data.csv"), "--schema", str(synth_dir / "schema.json")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {key} must not be empty\n"
        assert not (out / "benchmark.csv").exists()

    @pytest.mark.parametrize(
        "key, flags, config",
        [
            ("seeds", ["--seed", "0", "--seed", "0", "--model-kind", "hnn"], {}),
            ("model_kinds", ["--model-kind", "hnn", "--model-kind", "hnn", "--seed", "0"], {}),
            ("seeds", [], {"seeds": [0, 0], "model_kinds": ["hnn"]}),
            ("model_kinds", [], {"model_kinds": ["hnn", "hnn"], "seeds": [0]}),
        ],
    )
    def test_repeated_benchmark_entry_exits_1(self, synth_dir, tmp_path, capsys, key, flags, config):
        """A kind or seed listed twice, by flags or in the config file, is a
        usage error: no cell is trained or written twice."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FAST, **config}))
        out = tmp_path / "out"
        argv = ["benchmark", "--config", str(cfg), "--out", str(out), *flags]
        argv += ["--data", str(synth_dir / "data.csv"), "--schema", str(synth_dir / "schema.json")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {key} must not repeat an entry\n"
        assert not (out / "benchmark.csv").exists()

    @pytest.mark.parametrize("kind", ["usnrt", "hnn", "ensemble"])
    def test_too_few_training_rows_exits_3(self, synth_dir, tmp_path, capsys, kind):
        """Every model kind reports a file too small for a validation split
        as a training failure."""
        lines = (synth_dir / "data.csv").read_text().splitlines(keepends=True)
        data = tmp_path / "six_rows.csv"
        data.write_text("".join(lines[:7]))
        out = tmp_path / "out"
        argv = ["train", "--model-kind", kind, "--out", str(out)]
        argv += ["--data", str(data), "--schema", str(synth_dir / "schema.json")]
        assert main(argv) == EXIT_TRAINING
        err = capsys.readouterr().err
        assert err.startswith("training error: ")
        assert err.endswith(": need at least 10 rows for a 20% validation split, got 6\n")
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize(
        "kind, key", [("hnn", "hnn_rounds"), ("ensemble", "hnn_rounds"), ("ensemble", "ensemble_members")]
    )
    def test_zero_rounds_or_members_exits_1(self, synth_dir, tmp_path, capsys, kind, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_kind": kind, key: 0}))
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]
        argv += ["--data", str(synth_dir / "data.csv"), "--schema", str(synth_dir / "schema.json")]
        assert main(argv) == EXIT_USAGE
        assert re.fullmatch(r"error: (rounds|n_members) must be at least 1\n", capsys.readouterr().err)

    @pytest.mark.parametrize("flag", ["--schema", "--config", "--model"])
    def test_json_file_with_byte_order_mark_reads_as_without(
        self, synth_dir, fast_config, trained_dir, tmp_path, flag
    ):
        """A schema, config or model file that starts with a UTF-8 byte-order
        mark gives the same outputs as the file without it."""
        plain = {"--schema": synth_dir / "schema.json", "--config": fast_config, "--model": trained_dir / "model.json"}
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + plain[flag].read_bytes())
        if flag == "--model":
            outputs = []
            for model, out in ((plain[flag], tmp_path / "plain"), (marked, tmp_path / "marked")):
                argv = ["predict", "--model", str(model), "--data", str(synth_dir / "data.csv"), "--out", str(out)]
                assert main(argv) == EXIT_OK
                outputs.append((out / "predictions.csv").read_bytes())
            assert outputs[0] == outputs[1]
            return
        files = {"--data": synth_dir / "data.csv", "--schema": synth_dir / "schema.json", "--config": fast_config}
        files[flag] = marked
        argv = ["train", *(arg for key, path in files.items() for arg in (key, str(path)))]
        assert main([*argv, "--seed", "0", "--out", str(tmp_path / "out")]) == EXIT_OK
        assert (tmp_path / "out" / "model.json").read_bytes() == (trained_dir / "model.json").read_bytes()

    @pytest.mark.parametrize("flag", ["--data", "--schema", "--config", "--model"])
    def test_file_that_is_not_utf8_exits_2(self, synth_dir, tmp_path, capsys, flag):
        """A data, schema, config or model file that is not UTF-8 is a data
        error naming the file."""
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"x1,x2,y\n\xe9,0.5,1.0\n")
        paths = {"--data": synth_dir / "data.csv", "--schema": synth_dir / "schema.json", flag: bad}
        if flag == "--model":
            argv = ["predict", "--model", str(bad), "--data", str(paths["--data"])]
        else:
            argv = ["train", *(arg for key, path in paths.items() for arg in (key, str(path)))]
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(bad) in err

    @pytest.mark.parametrize("kind", ["schema", "config", "model"])
    @pytest.mark.parametrize(
        "fault, content, message",
        [
            ("missing", None, "cannot read {kind} file {path}: "),
            ("not-utf8", b'{"x1": "\xe9"}', "{kind} file {path} is not UTF-8 JSON: "),
            ("not-json", b"{not json", "{kind} file {path} is not UTF-8 JSON: "),
            ("too-deep", b"[" * 100_000, "{kind} file {path} is not UTF-8 JSON: "),
            ("list", b"[1, 2]", "{kind} file {path} must hold a JSON object\n"),
        ],
    )
    def test_unreadable_json_file_exits_2(self, synth_dir, tmp_path, capsys, kind, fault, content, message):
        """A schema, config or model file that is missing, is not UTF-8 JSON,
        or holds anything but an object is a data error naming the file kind
        and the path, and no output is written."""
        path = tmp_path / f"{fault}.json"
        if content is not None:
            path.write_bytes(content)
        if kind == "model":
            argv = ["predict", "--model", str(path), "--data", str(synth_dir / "data.csv")]
        else:
            files = {"--data": synth_dir / "data.csv", "--schema": synth_dir / "schema.json", f"--{kind}": path}
            argv = ["train", *(arg for key, value in files.items() for arg in (key, str(value)))]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: " + message.format(kind=kind, path=path))
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, code",
        [
            ("train", ["--data", "nope.csv", "--schema", "nope.json", "--seed", "-1"], EXIT_USAGE),
            ("synth", ["--sigma-low", "nan"], EXIT_USAGE),
            ("benchmark", ["--data", "nope.csv", "--schema", "nope.json", "--seed", "0", "--seed", "0"], EXIT_USAGE),
            ("evaluate", ["--model", "nope.json", "--data", "nope.csv"], EXIT_DATA),
            ("predict", ["--model", "nope.json", "--data", "nope.csv"], EXIT_DATA),
            ("inspect", ["--model", "nope.json", "--data", "nope.csv"], EXIT_DATA),
        ],
    )
    def test_failed_check_leaves_no_output_directory(self, tmp_path, capsys, command, flags, code):
        """The output directory is made with a command's first file, so a
        command that fails its checks leaves none behind."""
        flags = [str(tmp_path / flag) if flag.startswith("nope.") else flag for flag in flags]
        out = tmp_path / "out" / "nested"
        assert main([command, *flags, "--out", str(out)]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_cell_over_the_csv_field_limit_exits_2(self, synth_dir, trained_dir, tmp_path, capsys, command):
        """A cell longer than the csv module's field limit (131,072
        characters) is a data error naming the file, not a traceback."""
        header = (synth_dir / "data.csv").read_text().splitlines()[0]
        long = tmp_path / "long.csv"
        long.write_text(f"{header}\n" + ",".join(["1" * 200_000] + ["0.5"] * header.count(",")) + "\n")
        if command == "train":
            argv = ["train", "--data", str(long), "--schema", str(synth_dir / "schema.json")]
        else:
            argv = ["predict", "--model", str(trained_dir / "model.json"), "--data", str(long)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: cannot read {long}: field larger than field limit")

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("evaluate", ["--config", "cfg.json"]),
            ("evaluate", ["--seed", "9"]),
            ("predict", ["--config", "cfg.json"]),
            ("predict", ["--seed", "9"]),
            ("inspect", ["--config", "cfg.json"]),
            ("inspect", ["--seed", "9"]),
            ("train", ["--seed", "1", "--seed", "7"]),
            ("synth", ["--seed", "1", "--seed", "7"]),
        ],
    )
    def test_flag_a_command_does_not_read_exits_1(self, trained_dir, synth_dir, tmp_path, capsys, command, flags):
        """A flag the command would ignore, or a second --seed where one seed
        is used, is a usage error, and nothing is written."""
        (tmp_path / "cfg.json").write_text("{}")
        flags = [str(tmp_path / flag) if flag == "cfg.json" else flag for flag in flags]
        out = tmp_path / "out"
        argv = {
            "synth": ["--n", "100"],
            "train": ["--data", str(synth_dir / "data.csv"), "--schema", str(synth_dir / "schema.json")],
        }.get(command, ["--model", str(trained_dir / "model.json"), "--data", str(synth_dir / "data.csv")])
        assert main([command, *argv, *flags, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: usnrt") and flags[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["usnrt", "hnn", "ensemble"])
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_non_finite_predictions_exit_2(self, trained_dir, synth_dir, tmp_path, capsys, command, kind):
        """Finite features so large that the networks overflow are a data
        error naming the file, with no numpy warning, for every model kind."""
        payload = json.loads((trained_dir / "model.json").read_text())
        payload = {"usnrt": lambda p: p, "hnn": _as_hnn, "ensemble": _as_ensemble}[kind](payload)
        linear = Mlp([2, 1], seed=0)  # x -> 2 * (x1 + x2)
        linear.weights = [np.full((2, 1), 2.0)]
        holders = {"usnrt": _leaf_nodes, "hnn": lambda p: [p], "ensemble": lambda p: p["members"]}[kind]
        for holder in holders(payload):
            holder["mean_net"] = encode_mlp(linear)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        header = (synth_dir / "data.csv").read_text().splitlines()[0]
        data = tmp_path / "huge.csv"
        data.write_text(f"{header}\n0.5,0.5,0.1\n1e308,1e308,0.1\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--model", str(model), "--data", str(data), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {data}: a predicted mu or sigma is not finite")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, fault",
        [
            ("train", "huge-cell"),
            ("evaluate", "huge-cell"),
            ("predict", "huge-cell"),
            ("predict", "label-std-nan"),
            ("predict", "label-std-zero"),
            ("predict", "label-std-negative"),
            ("predict", "label-mean-inf"),
            ("predict", "feature-std-zero"),
        ],
    )
    def test_statistics_that_cannot_normalise_exit_2(
        self, trained_dir, synth_dir, fast_config, tmp_path, capsys, command, fault
    ):
        """A cell whose column std overflows, or a model file whose stored
        statistics cannot normalise, is a data error."""
        data, model = synth_dir / "data.csv", trained_dir / "model.json"
        if fault == "huge-cell":
            lines = data.read_text().splitlines()
            lines[1] = "1.7e308," + lines[1].split(",", 1)[1]
            data = tmp_path / "huge.csv"
            data.write_text("\n".join(lines) + "\n")
        else:
            payload = json.loads(model.read_text())
            key, value = {
                "label-std-nan": ("label_std", float("nan")),
                "label-std-zero": ("label_std", 0.0),
                "label-std-negative": ("label_std", -1.0),
                "label-mean-inf": ("label_mean", float("inf")),
            }.get(fault, ("continuous_stats", {"x1": [0.0, 0.0], "x2": [0.0, 1.0]}))
            payload["preprocess"][key] = value
            model = tmp_path / "model.json"
            model.write_text(json.dumps(payload))
        argv = [command, "--data", str(data), "--out", str(tmp_path / "out")]
        if command == "train":
            argv += ["--schema", str(synth_dir / "schema.json"), "--config", str(fast_config)]
        else:
            argv += ["--model", str(model)]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: _internal_nodes(p)[0].update(feature_index=5),
            lambda p: _internal_nodes(p)[0].update(feature_index=-1),
            lambda p: _internal_nodes(p)[0].update(threshold=float("nan")),
            lambda p: [leaf.update(region_id=1) for leaf in _leaf_nodes(p)],
            lambda p: p.pop("config"),
            lambda p: p["preprocess"].pop("continuous_stats"),
            lambda p: p["config"]["train_cfg"].update(mystery=1),
            lambda p: _as_hnn(p)["preprocess"].pop("continuous_stats"),
            lambda p: _as_hnn(p).update(mean_net=encode_mlp(Mlp([3, 4, 1]))),
            lambda p: width3_member(_as_ensemble(p)["members"][1]),
            lambda p: _as_hnn(p)["preprocess"]["continuous_stats"].pop("x1"),
            lambda p: with_color(_as_hnn(p), {"a": 0, "b": 1, "c": 7}),
            lambda p: with_color(_as_hnn(p), {"a": 0, "b,c": 0, "d": 2}),
            lambda p: _as_hnn(p)["preprocess"]["constant_columns"].append("x1"),
            lambda p: p.update(format_version=2) or p["preprocess"].update(schema=dict(p["preprocess"]["schema"])),
            lambda p: p["preprocess"].pop("label_constant"),
        ],
        ids=[
            "feature-index-too-large",
            "feature-index-negative",
            "threshold-nan",
            "duplicate-region-ids",
            "usnrt-without-config",
            "usnrt-preprocess-without-stats",
            "unknown-train-cfg-key",
            "hnn-preprocess-without-stats",
            "hnn-input-width",
            "ensemble-member-width",
            "hnn-stats-without-a-feature",
            "hnn-slot-out-of-range",
            "hnn-slot-repeated",
            "hnn-constant-column-with-positive-std",
            "version-2-schema-mapping",
            "preprocess-without-label-constant",
        ],
    )
    def test_corrupt_model_predict_exits_2(self, trained_dir, synth_dir, tmp_path, capsys, corrupt):
        payload = json.loads((trained_dir / "model.json").read_text())
        corrupt(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        # The synthetic rows plus a color column, so a model of x1 and color can read them.
        header, *rows = (synth_dir / "data.csv").read_text().splitlines()
        data = tmp_path / "data.csv"
        data.write_text("\n".join([f"{header},color"] + [f"{row},{'abcd'[i % 4]}" for i, row in enumerate(rows)]) + "\n")
        code = main(
            [
                "predict",
                "--model", str(bad),
                "--data", str(data),
                "--out", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith(f"data error: model file {bad}")
        assert "Traceback" not in err


def _internal_nodes(payload):
    return [node for node in payload["nodes"] if node["kind"] == "internal"]


def _leaf_nodes(payload):
    return [node for node in payload["nodes"] if node["kind"] == "leaf"]


def _as_hnn(payload):
    """Turn a usnrt payload in place into an hnn payload made of its first leaf."""
    leaf = _leaf_nodes(payload)[0]
    for key in ("config", "nodes"):
        del payload[key]
    payload.update(model_kind="hnn", mean_net=leaf["mean_net"], sigma_net=leaf["sigma_net"])
    return payload


def _as_ensemble(payload):
    """Turn a usnrt payload in place into a two-member ensemble payload, each
    member the hnn of _as_hnn."""
    hnn = _as_hnn(payload)
    member = {key: hnn.pop(key) for key in ("mean_net", "sigma_net", "preprocess")}
    payload.update(
        model_kind="ensemble", members=[member, copy.deepcopy(member)], preprocess=member["preprocess"]
    )
    return payload


def test_readme_lists_every_config_key():
    """The README's recognised --config keys are exactly the CLI's defaults
    tables: the shared train settings, then train's and benchmark's own."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("Recognised keys:")[1].split(".")[0]
    shared, train, benchmark = re.split(r"; for (?:train|benchmark) also", sentence)
    listed = [set(re.findall(r"`(\w+)`", part)) for part in (shared, train, benchmark)]
    assert listed == [set(_TRAIN_DEFAULTS), set(_COMMAND_DEFAULTS["train"]), set(_COMMAND_DEFAULTS["benchmark"])]
