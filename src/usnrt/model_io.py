"""Versioned on-disk model format shared by the tree and the baselines.

A model file is a single JSON document with a "format_version", a
"model_kind" tag ("usnrt", "hnn", or "ensemble") and the "preprocess" state.
Network weights and biases are base64-encoded little-endian float64 buffers,
so a save/load round trip reproduces predictions bit for bit. The full
layout is documented in the README.

Every model class has the same interface: a `model_kind` class constant,
`preprocess`, `predict_arrays(X, denormalize=True)`, `to_payload()` (the
file body without its header), the `from_payload(payload, preprocess)` class
method, and `train_log`. This module owns the header and the table from kind
to class, and the one JSON reader and writer (read_json, write_json) that
the schema, config and CLI output files go through as well.
"""

from __future__ import annotations

import base64
import contextlib
import importlib
import json
import math
import os

import numpy as np

from .nn_core import Activation, Mlp

__all__ = [
    "FORMAT_VERSION",
    "ModelFormatError",
    "atomic_write",
    "check_networks",
    "decode_array",
    "decode_mlp",
    "encode_array",
    "encode_mlp",
    "load_model",
    "read_json",
    "read_payload",
    "save_model",
    "write_json",
    "write_payload",
]

FORMAT_VERSION = 3
# Model kind -> (module, class). Those modules import this one, so the class
# is looked up when a file is loaded.
_MODEL_CLASSES = {
    "usnrt": ("tree", "UsnrtModel"),
    "hnn": ("baselines", "HnnModel"),
    "ensemble": ("baselines", "EnsembleModel"),
}
MODEL_KINDS = tuple(_MODEL_CLASSES)


class ModelFormatError(ValueError):
    """Unreadable, truncated, or incompatible model file."""


def encode_array(array: np.ndarray) -> dict:
    buf = np.ascontiguousarray(array, dtype="<f8").tobytes()
    return {
        "shape": list(array.shape),
        "data": base64.b64encode(buf).decode("ascii"),
    }


def decode_array(obj: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(obj["data"])
        shape = tuple(int(s) for s in obj["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed array block: {exc}") from exc
    expected = math.prod(shape) * 8
    if len(raw) != expected:
        raise ModelFormatError(
            f"array block truncated: expected {expected} bytes, got {len(raw)}"
        )
    array = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)
    if not np.isfinite(array).all():
        raise ModelFormatError("array block holds a non-finite value")
    return array


def encode_mlp(net: Mlp) -> dict:
    return {
        "layer_sizes": list(net.layer_sizes),
        "hidden_activation": net.hidden_activation.value,
        "output_activation": net.output_activation.value,
        "seed": net.seed,
        "weights": [encode_array(W) for W in net.weights],
        "biases": [encode_array(b) for b in net.biases],
    }


def decode_mlp(obj: dict) -> Mlp:
    """The network of an encode_mlp block. Its stored arrays must have the
    shapes that its layer sizes imply, checked before the network is built,
    so a file cannot make it allocate more than the file holds. A malformed
    block raises whatever the decoding meets; load_model turns that into
    ModelFormatError."""
    sizes = [int(s) for s in obj["layer_sizes"]]
    weights = [decode_array(W) for W in obj["weights"]]
    biases = [decode_array(b) for b in obj["biases"]]
    for name, arrays, shapes in (
        ("weights", weights, list(zip(sizes[:-1], sizes[1:]))),
        ("biases", biases, [(n,) for n in sizes[1:]]),
    ):
        if [a.shape for a in arrays] != shapes:
            raise ModelFormatError(f"network {name} do not match the declared layer sizes")
    return Mlp.from_arrays(
        sizes,
        Activation(obj["hidden_activation"]),
        Activation(obj["output_activation"]),
        int(obj["seed"]),
        weights,
        biases,
    )


def check_networks(where: str, width: int, *nets: Mlp) -> None:
    """Reject networks that do not map width features to one output."""
    for net in nets:
        if net.input_dim != width or net.output_dim != 1:
            raise ModelFormatError(f"{where}: networks must map {width} features to 1 output")


@contextlib.contextmanager
def atomic_write(path):
    """A text file to write path's new content to. It is a temporary file
    beside path, moved over path when the block ends cleanly, so a failed
    write leaves any existing file untouched. Missing parent directories of
    path are created first."""
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_json(path, payload, **dump_options) -> None:
    """Write payload as JSON (json.dump with dump_options) and a newline
    through atomic_write."""
    with atomic_write(path) as fh:
        json.dump(payload, fh, **dump_options)
        fh.write("\n")


def read_json(path, what: str, error: type[Exception]) -> dict:
    """The JSON object in the file at path, read as UTF-8 with an optional
    byte-order mark. A file that cannot be read, is not UTF-8 JSON, or holds
    anything but an object raises error naming what (the file kind) and path."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{what} file {path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise error(f"{what} file {path} must hold a JSON object")
    return payload


def write_payload(path, payload: dict) -> None:
    """Write a model file's payload as JSON through atomic_write."""
    write_json(path, payload, sort_keys=True)


def save_model(model, path) -> None:
    """Write any model kind: the versioned header with the preprocessing
    state, then model.to_payload()."""
    state = None if model.preprocess is None else model.preprocess.to_dict()
    header = {"format_version": FORMAT_VERSION, "model_kind": model.model_kind, "preprocess": state}
    write_payload(path, {**header, **model.to_payload()})


def read_payload(path) -> dict:
    payload = read_json(path, "model", ModelFormatError)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"model file {path}: format version {version!r} not supported "
            f"(expected {FORMAT_VERSION}); retrain the model"
        )
    kind = payload.get("model_kind")
    if kind not in MODEL_KINDS:
        raise ModelFormatError(f"model file {path}: unknown model kind {kind!r}")
    return payload


def load_model(path):
    """Load any supported model kind, dispatching on the file's tag.

    Every decoding fault raises ModelFormatError naming the file: a missing
    key or list entry (LookupError), a value of the wrong type (TypeError,
    AttributeError) or out of range (ValueError, ArithmeticError), and a
    structure nested deeper than the recursion limit (RecursionError)."""
    from .data import PreprocessState  # data imports this module

    payload = read_payload(path)
    kind = payload["model_kind"]
    module, name = _MODEL_CLASSES[kind]
    cls = getattr(importlib.import_module(f".{module}", __package__), name)
    try:
        state = payload["preprocess"]
        return cls.from_payload(payload, None if state is None else PreprocessState.from_dict(state))
    except ModelFormatError as exc:
        raise ModelFormatError(f"model file {path}: {exc}") from exc
    except (LookupError, AttributeError, TypeError, ValueError, ArithmeticError, RecursionError) as exc:
        raise ModelFormatError(
            f"model file {path}: malformed {kind} model ({type(exc).__name__}: {exc})"
        ) from exc
