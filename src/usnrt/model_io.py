"""Versioned on-disk model format shared by the tree and the baselines.

A model file is a single JSON document with a "format_version" and a
"model_kind" tag ("usnrt", "hnn", or "ensemble"). Network weights and biases
are base64-encoded little-endian float64 buffers, so a save/load round trip
reproduces predictions bit for bit. The full layout is documented in the
README.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from .nn_core import Activation, Mlp

__all__ = [
    "FORMAT_VERSION",
    "ModelFormatError",
    "decode_array",
    "decode_mlp",
    "encode_array",
    "encode_mlp",
    "load_model",
    "read_payload",
    "write_payload",
]

FORMAT_VERSION = 1
MODEL_KINDS = ("usnrt", "hnn", "ensemble")


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
    expected = int(np.prod(shape)) * 8 if shape else 8
    if len(raw) != expected:
        raise ModelFormatError(
            f"array block truncated: expected {expected} bytes, got {len(raw)}"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)


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
    try:
        net = Mlp(
            obj["layer_sizes"],
            hidden_activation=Activation(obj["hidden_activation"]),
            output_activation=Activation(obj["output_activation"]),
            seed=int(obj["seed"]),
        )
        weights = [decode_array(W) for W in obj["weights"]]
        biases = [decode_array(b) for b in obj["biases"]]
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"malformed network block: {exc}") from exc
    for name, arrays, expected in (
        ("weights", weights, net.weights),
        ("biases", biases, net.biases),
    ):
        if len(arrays) != len(expected) or any(
            got.shape != ref.shape for got, ref in zip(arrays, expected)
        ):
            raise ModelFormatError(f"network {name} do not match the declared layer sizes")
    net.weights = weights
    net.biases = biases
    return net


def write_payload(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def read_payload(path, expect_kind: str | None = None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file {path} is corrupt or truncated: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelFormatError(f"model file {path} does not hold a model document")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"model file {path}: format version {version!r} not supported "
            f"(expected {FORMAT_VERSION})"
        )
    kind = payload.get("model_kind")
    if kind not in MODEL_KINDS:
        raise ModelFormatError(f"model file {path}: unknown model kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise ModelFormatError(
            f"model file {path}: holds a {kind!r} model, expected {expect_kind!r}"
        )
    return payload


def load_model(path):
    """Load any supported model kind, dispatching on the file's tag."""
    payload = read_payload(path)
    kind = payload["model_kind"]
    if kind == "usnrt":
        from . import tree

        return tree._model_from_payload(payload)
    from . import baselines

    if kind == "hnn":
        return baselines._hnn_from_payload(payload)
    return baselines._ensemble_from_payload(payload)
