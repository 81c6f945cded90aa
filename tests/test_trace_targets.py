"""The benchmark tracer (perfbench/tracing.py) wraps usnrt functions by
module and attribute name. A refactor that moves or renames one of them
would crash traced benchmark runs or leave a layer unrecorded; these tests
catch that. The tracer module is read, never changed."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from usnrt.cli import EXIT_OK, main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    for module_name, path, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        # The same lookup Tracer.install makes.
        assert callable(owner.__dict__.get(attr)), f"{module_name}: {path}"


@pytest.mark.parametrize(
    "kind, predict_span",
    [("usnrt", "tree.predict_arrays"), ("ensemble", "baselines.ensemble_predict_arrays")],
)
def test_traced_cli_run_records_layers(tracing, tmp_path, kind, predict_span):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"max_epochs": 2, "patience": 2, "hnn_hidden": [4], "ensemble_members": 2})
    )
    data, model = str(tmp_path / "data" / "data.csv"), str(tmp_path / "model" / "model.json")
    commands = [
        ["synth", "--n", "300", "--d", "2", "--seed", "1", "--out", str(tmp_path / "data")],
        ["train", "--data", data, "--schema", str(tmp_path / "data" / "schema.json"),
         "--model-kind", kind, "--config", str(config), "--out", str(tmp_path / "model")],
        ["evaluate", "--model", model, "--data", data, "--out", str(tmp_path / "eval")],
        ["predict", "--model", model, "--data", data, "--out", str(tmp_path / "pred")],
    ]
    tracer = tracing.Tracer("contract")
    tracer.install()
    try:
        for argv in commands:
            assert main(argv) == EXIT_OK
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
    recorded = {span[0] for span in tracer.spans}
    expected = {
        predict_span,
        "metrics.compute_report",
        "model_io.load_model",
        "model_io.write_payload",
    }
    assert expected <= recorded, expected - recorded
