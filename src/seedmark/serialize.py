"""Versioned JSON artifacts: model files, and the UTF-8 reader and writer,
envelope, float codec and field checks that every artifact shares. A float
array is stored as one string, the hex of its little-endian float64 bytes,
so round-trips are bit-exact; loaders reject any `format` name or `version`
but their own."""

import hashlib
import json
import math
import reprlib
from dataclasses import asdict

import numpy as np

from .errors import FormatError, Rule, SpecError, check
from .nnet import Model, ModelSpec

MODEL_FORMAT = "seedmark-model"
VERSION = 5


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


def _read_text(path, error=FormatError) -> str:
    """The text of the file at `path`, read as UTF-8; `error` if it is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path} is not UTF-8 text: {exc}") from exc


def _write_text(path, text):
    """Write `text` to the file at `path` as UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_artifact(fmt, /, **fields) -> str:
    """The JSON text of a `fmt` artifact of the current version holding `fields`."""
    return json.dumps({"format": fmt, "version": VERSION, **fields}, indent=1)


def _read_artifact(text, fmt) -> dict:
    """The fields of `fmt` artifact `text`; FormatError unless JSON naming `fmt` and VERSION."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise FormatError(f"not a {fmt} artifact")
    version = doc.get("version")
    if type(version) is not int or version != VERSION:
        raise FormatError(f"unsupported {fmt} version {reprlib.repr(version)} "
                          f"(supported: {VERSION})")
    return doc


def _int64(x) -> bool:
    return type(x) is int and -2**63 <= x < 2**63


_OBJECT = Rule(lambda v: type(v) is dict, "a JSON object")
_LABELS = Rule(lambda v: type(v) is list and v != [] and all(map(_int64, v)),
               "a non-empty list of JSON integers within int64", _int64)
_SPEC = Rule(lambda v: type(v) is dict and v.keys() == {"widths", "activation"},
             "a JSON object of widths and activation only")


def _check_fields(obj, what, rules, optional=()) -> dict:
    """JSON object `obj`, once each field of `rules` (name: `errors.Rule`)
    passes its rule, or is missing and `optional`; else FormatError."""
    check(what, obj, _OBJECT, FormatError)
    for name, rule in rules.items():
        if name in obj or name not in optional:
            check(f"{what} {name}", obj.get(name), rule, FormatError)
    return obj


def dump_model(model: Model) -> str:
    return _write_artifact(MODEL_FORMAT, spec=asdict(model.spec),
                           provenance=model.provenance,
                           weights=_encode_array(model.params))


def parse_model(text: str) -> Model:
    doc = _read_artifact(text, MODEL_FORMAT)
    check("model spec", doc.get("spec"), _SPEC, FormatError)
    try:
        spec = ModelSpec(**doc["spec"])
    except (TypeError, SpecError) as exc:
        raise FormatError(f"malformed model spec: {exc}") from exc
    params = _decode_array(doc.get("weights"), (spec.param_count,))
    prov = doc.get("provenance")
    try:
        return Model(spec, params, tuple(prov) if type(prov) is list else prov)
    except SpecError as exc:
        raise FormatError(f"inconsistent model artifact: {exc}") from exc


def save_model(model: Model, path):
    _write_text(path, dump_model(model))


def load_model(path) -> Model:
    return parse_model(_read_text(path))


def model_digest(model: Model) -> str:
    """Short stable identifier of spec + weights.

    The first 12 hex digits of SHA-256 over the spec's JSON, then
    `model.params` (W0, b0, W1, b1, ...) as little-endian float64 bytes, the
    bytes a model file stores."""
    h = hashlib.sha256(json.dumps(asdict(model.spec)).encode())
    h.update(model.params.astype("<f8", copy=False))
    return h.hexdigest()[:12]
