"""Command-line behaviour: happy paths, reproducibility, exit codes."""

import copy
import csv
import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

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
from usnrt import cli, tree
from usnrt.data import Schema, SynthSpec, fit_transform, generate_synthetic, load_csv
from usnrt.metrics import MetricsReport
from usnrt.model_io import ModelFormatError, decode_array, encode_array, encode_mlp, load_model
from usnrt.nn_core import Mlp, TrainConfig

from conftest import width3_member, with_color


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
        table = run_benchmark(dataset, ["usnrt"], [0, 1, 2], settings, 0.2)
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
        monkeypatch.setattr(cli, "_fit_model", lambda kind, X, y, state, settings, seed: (kind, seed))
        monkeypatch.setattr(
            cli, "_evaluate", lambda cell, test: (MetricsReport(*scores[cell], curve=[], n_test=0), None)
        )
        dataset = load_csv(synth_dir / "data.csv", Schema.from_file(synth_dir / "schema.json"))
        assert run_benchmark(dataset, ["usnrt", "hnn"], [3, 5], {}, 0.2) == {
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
        assert not out.exists() or not any(out.iterdir())

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
