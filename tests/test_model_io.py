"""Model file I/O: the kind table, load-time checks, atomic writes, and a
fuzz test that corrupts one field of a saved model."""

import base64
import copy
import json
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from usnrt.baselines import EnsembleModel, HnnModel
from usnrt.data import PreprocessState, SynthSpec, generate_synthetic
from usnrt.model_io import (
    MODEL_KINDS,
    ModelFormatError,
    decode_array,
    encode_array,
    encode_mlp,
    load_model,
    save_model,
    write_payload,
)
from usnrt.nn_core import Activation, Mlp
from usnrt.tree import InternalNode, LeafNode, UsnrtConfig, UsnrtModel, predict_arrays

from conftest import width3_member

WIDTH = 2


def _nets(seed):
    mean_net = Mlp([WIDTH, 3, 1], seed=seed)
    sigma_net = Mlp([WIDTH, 3, 1], output_activation=Activation.SOFTPLUS, seed=seed + 1)
    return mean_net, sigma_net


def _leaf(region_id, seed):
    mean_net, sigma_net = _nets(seed)
    return LeafNode(region_id, mean_net, sigma_net, train_count=10, residual_std=1.0)


@pytest.fixture(scope="module")
def state():
    synth = generate_synthetic(SynthSpec(n=200, d=WIDTH, sigma_low=0.5, sigma_high=2.0, seed=3))
    return PreprocessState.fit(synth.dataset)


@pytest.fixture(scope="module")
def usnrt_model(state):
    """Three leaves: x0 <= 0.1 splits first, then x1 <= -0.3 on the right."""
    right = InternalNode(1, -0.3, 0.002, left=_leaf(2, 20), right=_leaf(3, 30))
    root = InternalNode(0, 0.1, 0.001, left=_leaf(1, 10), right=right)
    return UsnrtModel(root=root, config=UsnrtConfig(), preprocess=state, depth=2, leaf_count=3)


@pytest.fixture(scope="module")
def hnn_model(state):
    return HnnModel(*_nets(40), preprocess=state)


@pytest.fixture(scope="module")
def X():
    return np.random.default_rng(5).uniform(-2.0, 2.0, (60, WIDTH))


def test_kind_table_matches_classes(usnrt_model, hnn_model, state, tmp_path):
    ensemble = EnsembleModel(members=[hnn_model], preprocess=state)
    kinds = []
    for model in (usnrt_model, hnn_model, ensemble):
        path = tmp_path / f"{model.model_kind}.json"
        save_model(model, path)
        assert json.loads(path.read_text())["model_kind"] == model.model_kind
        assert type(load_model(path)) is type(model)
        kinds.append(model.model_kind)
    assert kinds == list(MODEL_KINDS)


def _internal(payload, i=0):
    return [node for node in payload["nodes"] if node["kind"] == "internal"][i]


def _leaves(payload):
    return [node for node in payload["nodes"] if node["kind"] == "leaf"]


def _set_first(net, block, value):
    """Set the first entry of a network block's first weight or bias array."""
    array = decode_array(net[block][0])
    array.flat[0] = value
    net[block][0] = encode_array(array)


@pytest.mark.parametrize(
    "kind, corrupt, message",
    [
        ("usnrt", lambda p: _internal(p).update(feature_index=5), "feature_index 5 is not an integer in"),
        ("usnrt", lambda p: _internal(p, 1).update(feature_index=-1), r"root\.R: feature_index -1"),
        ("usnrt", lambda p: _internal(p).update(feature_index=1.0), "feature_index 1.0"),
        ("usnrt", lambda p: _internal(p).update(threshold=float("nan")), "threshold nan is not finite"),
        ("usnrt", lambda p: _internal(p).update(threshold=float("inf")), "threshold inf is not finite"),
        ("usnrt", lambda p: _internal(p).update(threshold="0.5"), "threshold '0.5' is not finite"),
        ("usnrt", lambda p: _leaves(p)[2].update(region_id=2), "region ids are not 1..leaf_count"),
        ("usnrt", lambda p: _leaves(p)[0].update(region_id=0), "region ids are not 1..leaf_count"),
        ("usnrt", lambda p: _leaves(p)[1].update(mean_net=encode_mlp(Mlp([3, 3, 1]))), "networks must map"),
        ("usnrt", lambda p: _leaves(p)[1].update(sigma_net=encode_mlp(Mlp([2, 3, 2]))), "networks must map"),
        ("usnrt", lambda p: _leaves(p)[0].update(region_id=float("inf")), "OverflowError"),
        ("usnrt", lambda p: p["preprocess"].update(continuous_stats=[]), "AttributeError"),
        ("usnrt", lambda p: p["preprocess"]["continuous_stats"].update(x1=[0.5]), "IndexError"),
        ("hnn", lambda p: p.update(mean_net=encode_mlp(Mlp([3, 3, 1]))), "hnn: networks must map 2 features"),
        ("hnn", lambda p: p.update(sigma_net=encode_mlp(Mlp([2, 3, 2]))), "hnn: networks must map 2 features"),
        ("ensemble", lambda p: width3_member(p["members"][1]), "member 1: networks must map 2 features"),
        ("usnrt", lambda p: _set_first(_leaves(p)[1]["mean_net"], "weights", np.nan), "non-finite"),
        ("hnn", lambda p: _set_first(p["mean_net"], "weights", np.nan), "non-finite"),
        ("hnn", lambda p: _set_first(p["sigma_net"], "weights", np.nan), "non-finite"),
        ("hnn", lambda p: _set_first(p["sigma_net"], "biases", -np.inf), "non-finite"),
        ("usnrt", lambda p: p["config"].pop("alpha"), "config block keys"),
        ("usnrt", lambda p: p["config"]["train_cfg"].pop("patience"), "config block keys"),
        ("usnrt", lambda p: p["config"].update(mystery=1), "config block keys"),
        ("usnrt", lambda p: p["config"]["train_cfg"].update(mystery=1), "config block keys"),
    ],
    ids=[
        "feature-index-too-large",
        "feature-index-negative",
        "feature-index-float",
        "threshold-nan",
        "threshold-inf",
        "threshold-string",
        "duplicate-region-id",
        "region-id-zero",
        "leaf-input-width",
        "leaf-output-width",
        "region-id-infinite",
        "stats-not-a-mapping",
        "stats-pair-too-short",
        "hnn-input-width",
        "hnn-output-width",
        "ensemble-member-width",
        "leaf-mean-weight-nan",
        "hnn-mean-weight-nan",
        "hnn-sigma-weight-nan",
        "hnn-sigma-bias-inf",
        "config-without-alpha",
        "train-cfg-without-patience",
        "config-unknown-key",
        "train-cfg-unknown-key",
    ],
)
def test_corrupt_file_rejected(usnrt_model, hnn_model, state, tmp_path, kind, corrupt, message):
    ensemble = EnsembleModel(members=[hnn_model, hnn_model], preprocess=state)
    model = {"usnrt": usnrt_model, "hnn": hnn_model, "ensemble": ensemble}[kind]
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match=message):
        load_model(path, expect_kind=kind)


def test_round_trip_keeps_structure(usnrt_model, X, tmp_path):
    path = tmp_path / "model.json"
    save_model(usnrt_model, path)
    clone = load_model(path, expect_kind="usnrt")
    assert (clone.depth, clone.leaf_count) == (2, 3)
    for got, want in zip(predict_arrays(clone, X), predict_arrays(usnrt_model, X)):
        assert np.array_equal(got, want)


def test_failed_write_keeps_existing_file(tmp_path):
    path = tmp_path / "model.json"
    write_payload(path, {"a": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        # json.dump has written '{"a": 1, "b": ' when it meets the object.
        write_payload(path, {"a": 1, "b": object()})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]


# ----------------------------------------------------------------------
# One corrupted field must be rejected or change nothing.
# ----------------------------------------------------------------------


def _fields(doc, prefix=()):
    """(path, value) of every container entry in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,), value
        yield from _fields(value, prefix + (key,))


def _junk():
    return st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(), max_size=2))


# Field -> strategy for its replacement value. A value that forms a different
# but well-formed model (another in-range feature index, another finite
# threshold, other weight bytes of the right length) is assumed away: no check
# can tell it from a genuine model.
_REPLACEMENTS = {
    "feature_index": st.one_of(st.integers(-10, 10), st.floats(), _junk()),
    "threshold": st.one_of(
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        st.floats(),
        st.integers(-3, 3),
        _junk(),
    ),
    "region_id": st.one_of(st.integers(-2, 5), st.floats(), _junk()),
    "shape": st.one_of(st.lists(st.integers(-2, 8), max_size=3), _junk()),
    "data": st.one_of(st.binary(max_size=80).map(lambda b: base64.b64encode(b).decode()), _junk()),
}


def _well_formed_alternative(key, original, value):
    if value == original and type(value) is type(original):
        return False
    if key == "feature_index":
        return type(value) is int and 0 <= value < WIDTH
    if key == "threshold":
        return type(value) in (int, float) and np.isfinite(value)
    if key == "data" and isinstance(value, str):
        try:
            return len(base64.b64decode(value)) == len(base64.b64decode(original))
        except ValueError:
            return False
    return False


@pytest.fixture(scope="module")
def saved(usnrt_model, hnn_model, X, tmp_path_factory):
    """Payload, a scratch file and the reference predictions of each kind."""
    out = {}
    for model in (usnrt_model, hnn_model):
        path = tmp_path_factory.mktemp("fuzz") / "model.json"
        save_model(model, path)
        out[model.model_kind] = (json.loads(path.read_text()), path, model.predict_arrays(X))
    return out


def _rejected_or_same(doc, path, X, reference) -> bool:
    path.write_text(json.dumps(doc))
    try:
        model = load_model(path)
    except ModelFormatError:
        return True
    mu, sigma = model.predict_arrays(X)
    return np.array_equal(mu, reference[0]) and np.array_equal(sigma, reference[1])


def _container(doc, where):
    for key in where[:-1]:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("kind", ["usnrt", "hnn"])
def test_every_dropped_entry_rejected_or_harmless(saved, X, kind):
    payload, path, reference = saved[kind]
    for where, _ in _fields(payload):
        doc = copy.deepcopy(payload)
        del _container(doc, where)[where[-1]]
        assert _rejected_or_same(doc, path, X, reference), where


@pytest.mark.parametrize("kind", ["usnrt", "hnn"])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_corrupt_field_rejected_or_harmless(saved, X, kind, data):
    payload, path, reference = saved[kind]
    doc = copy.deepcopy(payload)
    fields = [where for where, _ in _fields(doc) if where[-1] in _REPLACEMENTS]
    key = data.draw(st.sampled_from(sorted({where[-1] for where in fields})))
    where = data.draw(st.sampled_from([w for w in fields if w[-1] == key]))
    value = data.draw(_REPLACEMENTS[key])
    container = _container(doc, where)
    assume(not _well_formed_alternative(key, container[key], value))
    container[key] = value
    assert _rejected_or_same(doc, path, X, reference), (where, value)
