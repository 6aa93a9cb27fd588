"""Versioned JSON artifacts for models, key-sets, and verifiers.

Each float array is stored as one string, the hex of its little-endian
float64 bytes, so round-trips are bit-exact. Every artifact carries a
`format` name and integer `version`; loaders reject any other version.
"""

import hashlib
import json
import math

import numpy as np

from .errors import FormatError, SpecError
from .nnet import Model, ModelSpec, Provenance

MODEL_FORMAT = "seedmark-model"
VERSION = 3


def _encode_array(a) -> str:
    """A float array as one string: the hex of its little-endian float64
    bytes in C order, 16 hex digits per value."""
    return np.ascontiguousarray(a, dtype="<f8").tobytes().hex()


def _decode_array(data, shape) -> np.ndarray:
    """Inverse of `_encode_array`: a writable native float64 array of `shape`.

    `shape` gives every length, with at most one None for a free positive
    length. Anything but a hex string without whitespace whose values fill
    `shape` raises FormatError."""
    if type(data) is not str:
        raise FormatError(f"expected a hex string of float64 bytes, got {type(data).__name__}")
    try:
        raw = bytearray.fromhex(data)
    except ValueError as exc:
        raise FormatError(f"bad float encoding: {exc}") from exc
    if 2 * len(raw) != len(data):  # fromhex skips whitespace
        raise FormatError("bad float encoding: whitespace in a hex string")
    count, rest = divmod(len(raw), 8)
    fixed = math.prod(n for n in shape if n is not None)
    if None in shape and count and fixed and not count % fixed:
        shape = tuple(count // fixed if n is None else n for n in shape)
    if rest or None in shape or count != math.prod(shape):
        raise FormatError(f"{len(raw)} bytes do not hold float64 values of shape {shape}")
    return np.frombuffer(raw, "<f8").astype(np.float64, copy=False).reshape(shape)


def _check_envelope(doc, expected_format):
    if not isinstance(doc, dict) or doc.get("format") != expected_format:
        raise FormatError(f"not a {expected_format} artifact")
    version = doc.get("version")
    if version != VERSION:
        raise FormatError(
            f"unsupported {expected_format} version {version!r} (supported: {VERSION})"
        )


def spec_to_obj(spec: ModelSpec):
    """The spec as the layer list model files store: dense, activation, ..., dense."""
    layers = []
    for n_in, n_out in zip(spec.widths, spec.widths[1:]):
        if layers:
            layers.append(["activation", spec.activation])
        layers.append(["dense", n_in, n_out])
    return {"layers": layers, "output_classes": spec.output_classes}


def spec_from_obj(obj) -> ModelSpec:
    """Inverse of `spec_to_obj`; rejects any layer list it would not write."""
    try:
        denses = [entry for entry in obj["layers"] if entry[0] == "dense"]
        kinds = [entry[1] for entry in obj["layers"] if entry[0] == "activation"]
        # a stack without hidden layers stores no activation; any kind computes the same
        spec = ModelSpec([denses[0][1]] + [entry[2] for entry in denses],
                         kinds[0] if kinds else "relu")
    except (KeyError, IndexError, TypeError, SpecError) as exc:
        raise FormatError(f"malformed model spec: {exc}") from exc
    # compared as JSON text, so a 4.0 or true where 4 belongs fails too
    if json.dumps(spec_to_obj(spec), sort_keys=True) != json.dumps(obj, sort_keys=True):
        raise FormatError("model spec is not a dense stack with one activation")
    return spec


def dump_model(model: Model) -> str:
    doc = {
        "format": MODEL_FORMAT,
        "version": VERSION,
        "spec": spec_to_obj(model.spec),
        "provenance": {
            "seed": model.provenance.seed,
            "kind": model.provenance.kind,
            "history": list(model.provenance.history),
        },
        "weights": [
            {"w": _encode_array(w), "b": _encode_array(b)} for w, b in model.weights
        ],
    }
    return json.dumps(doc, indent=1)


def parse_model(text: str) -> Model:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    _check_envelope(doc, MODEL_FORMAT)
    spec = spec_from_obj(doc.get("spec", {}))
    try:
        entries, shapes = doc["weights"], tuple(zip(spec.widths, spec.widths[1:]))
        if len(entries) != len(shapes):
            raise FormatError(f"{len(entries)} weight entries for {len(shapes)} dense layers")
        weights = tuple(
            (_decode_array(entry["w"], shape), _decode_array(entry["b"], shape[1:]))
            for entry, shape in zip(entries, shapes)
        )
        prov_obj = doc["provenance"]
        seed, kind, history = prov_obj["seed"], prov_obj["kind"], prov_obj.get("history", [])
        for name, ok, expected in (
            ("seed", type(seed) is int, "a JSON integer"),
            ("kind", type(kind) is str, "a string"),
            ("history", type(history) is list and all(type(h) is dict for h in history),
             "a list of JSON objects"),
        ):
            if not ok:
                raise FormatError(f"provenance {name} must be {expected}, got {prov_obj[name]!r}")
        prov = Provenance(seed, kind, tuple(history))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed model artifact: {exc}") from exc
    try:
        return Model(spec, weights, prov)
    except Exception as exc:
        raise FormatError(f"inconsistent model artifact: {exc}") from exc


def save_model(model: Model, path):
    with open(path, "w") as fh:
        fh.write(dump_model(model))


def load_model(path) -> Model:
    with open(path) as fh:
        return parse_model(fh.read())


def model_digest(model: Model) -> str:
    """Short stable identifier of spec + weights.

    The first 12 hex digits of SHA-256 over the spec's JSON, then each W and
    b as little-endian float64 bytes in C order. Memory layout (views into a
    flat buffer, Fortran order) does not change it."""
    h = hashlib.sha256(json.dumps(spec_to_obj(model.spec)).encode())
    for w, b in model.weights:
        for a in (w, b):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()[:12]
