"""Versioned JSON artifacts for models, key-sets, and verifiers.

Float arrays are stored as C99 hex strings (float.hex), so round-trips are
bit-exact regardless of decimal formatting. Every artifact carries a
`format` name and integer `version`; loaders reject anything newer than
they understand.
"""

import hashlib
import json
from itertools import chain

import numpy as np

from .errors import FormatError, SpecError
from .nnet import Model, ModelSpec, Provenance

MODEL_FORMAT = "seedmark-model"
VERSION = 1


def _encode_array(a) -> list:
    """A 1-D or 2-D float array as a list (of rows) of `float.hex` strings."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        return list(map(float.hex, a.tolist()))
    return [list(map(float.hex, row)) for row in a.tolist()]


def _decode_array(data, shape) -> np.ndarray:
    """Inverse of `_encode_array`, in one flat pass over the strings.

    `shape` is the expected shape, 1-D or 2-D, with None for a free length.
    Anything but such a list (of equal-length rows) of hex strings raises
    FormatError."""
    if type(data) is not list:
        raise FormatError(f"expected a list of hex floats, got {type(data).__name__}")
    if len(shape) == 1:
        rows = (data,)
    elif any(type(row) is not list for row in data):
        raise FormatError("expected a list of rows of hex floats")
    else:
        rows = data
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise FormatError("rows of unequal length")
    found = (width,) if len(shape) == 1 else (len(rows), width)
    if any(want is not None and want != got for want, got in zip(shape, found)):
        raise FormatError(f"array of shape {found}, expected {shape}")
    try:
        flat = np.fromiter(map(float.fromhex, chain.from_iterable(rows)), np.float64,
                           len(rows) * width)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"bad float encoding: {exc}") from exc
    return flat.reshape(found)


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
        weights = tuple(
            (_decode_array(entry["w"], (None, None)), _decode_array(entry["b"], (None,)))
            for entry in doc["weights"]
        )
        prov_obj = doc["provenance"]
        prov = Provenance(
            int(prov_obj["seed"]),
            prov_obj["kind"],
            tuple(prov_obj.get("history", ())),
        )
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
