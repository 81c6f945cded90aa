"""Command-line behaviour: happy paths, reproducibility, exit codes."""

import copy
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from usnrt.cli import (
    _COMMAND_DEFAULTS,
    _TRAIN_DEFAULTS,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    _write_csv,
    main,
    run_benchmark,
)
from usnrt.data import Schema, SynthSpec, generate_synthetic, load_csv
from usnrt.model_io import ModelFormatError, decode_array, encode_array, encode_mlp, load_model
from usnrt.nn_core import Mlp

from conftest import width3_member


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

    def test_csv_loads_back(self, synth_dir):
        schema = Schema.from_file(synth_dir / "schema.json")
        ds = load_csv(synth_dir / "data.csv", schema)
        assert ds.n_rows == 1200
        assert ds.d_raw == 2


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
        _write_csv(path, ["mu", "sigma"], [["0.0", "1.0"]])
        before = path.read_bytes()

        def rows():
            yield ["2.0", "3.0"]
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            _write_csv(path, ["mu", "sigma"], rows())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["predictions.csv"]


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
        assert leaf_lines[0] == "region_id,count,residual_std"
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
        rows = run_benchmark(dataset, ["usnrt"], [0, 1, 2], settings, 0.2)
        seed_rows = [r for r in rows if r["seed"] != "mean"]
        mean_row = next(r for r in rows if r["seed"] == "mean")
        for key in ("ece", "tce", "sharpness"):
            expected = float(np.mean([r[key] for r in seed_rows]))
            assert mean_row[key] == pytest.approx(expected, abs=1e-12)


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
        ],
    )
    def test_corrupt_model_predict_exits_2(self, trained_dir, synth_dir, tmp_path, capsys, corrupt):
        payload = json.loads((trained_dir / "model.json").read_text())
        corrupt(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code = main(
            [
                "predict",
                "--model", str(bad),
                "--data", str(synth_dir / "data.csv"),
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
