import hashlib
import json
import re
import reprlib
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seedmark.attacks import blur_quantize
from seedmark.datasets import GenSpec, dump_dataset, generate, load_dataset, parse_dataset
from seedmark.errors import ConfigError, FormatError, SpecError
from seedmark.harness import EvaluationConfig, build_attacked_model, load_eval_config
from seedmark.nnet import Model, ModelSpec, family_spec, init_model
from seedmark.serialize import (
    VERSION,
    _decode_array,
    _encode_array,
    dump_model,
    load_model,
    model_digest,
    parse_model,
    save_model,
)
from seedmark.watermark import (
    KeySet,
    VerificationModel,
    dump_keyset,
    dump_verifier,
    load_keyset,
    load_verifier,
    parse_keyset,
    parse_verifier,
)

from conftest import random_small_model


@pytest.fixture(scope="module")
def model():
    return random_small_model(np.random.default_rng(5))


def test_round_trip_bit_exact(model):
    back = parse_model(dump_model(model))
    assert back.spec == model.spec
    assert back.params.tobytes() == model.params.tobytes()
    assert back.provenance == model.provenance


def test_round_trip_trained(trained_model):
    back = parse_model(dump_model(trained_model))
    assert model_digest(back) == model_digest(trained_model)
    assert back.provenance == trained_model.provenance


def test_round_trip_keeps_every_stage_record(trained_model, blob_data):
    train_set, _ = blob_data
    pruned = build_attacked_model(EvaluationConfig(epochs=1), trained_model, "WP(RET)",
                                  train_set, 3)
    model = blur_quantize(pruned, 6)
    back = parse_model(dump_model(model))
    assert back.provenance == model.provenance
    assert [list(record) for record in back.provenance] == [
        ["stage", "seed"],
        ["seed", "epochs", "optimizer", "loss", "stage"],
        ["attack", "victim", "stage"],
        ["method", "sparsity", "parent", "stage"],
        ["method", "bits", "parent", "stage"],
    ]
    assert back.provenance[2]["victim"] == model_digest(trained_model)


def test_file_round_trip(model, tmp_path):
    path = tmp_path / "m.json"
    save_model(model, path)
    assert model_digest(load_model(path)) == model_digest(model)


def test_extreme_values_survive():
    rng = np.random.default_rng(9)
    m = random_small_model(rng)
    params = m.params.copy()
    params[0] = 5e-324  # subnormal
    params[1] = 1.0 + 2**-52  # one ulp above 1
    back = parse_model(dump_model(type(m)(m.spec, params, m.provenance)))
    assert back.params[0] == 5e-324
    assert back.params[1] == 1.0 + 2**-52


def test_not_json():
    with pytest.raises(FormatError, match="JSON"):
        parse_model("{ truncated")


def test_truncated_document(model):
    with pytest.raises(FormatError):
        parse_model(dump_model(model)[:-30])


def test_wrong_format_name(model):
    text = dump_model(model).replace("seedmark-model", "seedmark-keyset")
    with pytest.raises(FormatError):
        parse_model(text)


def test_version_must_be_a_json_integer(model):
    text = dump_model(model).replace(f'"version": {VERSION}', f'"version": {VERSION}.0')
    with pytest.raises(FormatError, match=f"version {VERSION}.0 "):
        parse_model(text)


def test_future_version_names_version(model):
    text = dump_model(model).replace(f'"version": {VERSION}', '"version": 7')
    with pytest.raises(FormatError, match="7"):
        parse_model(text)


@pytest.mark.parametrize("make_text, parse", [
    (lambda: _model_text(), parse_model),
    (lambda: _keyset_text(), parse_keyset),
    (lambda: _gnb_text(), parse_verifier),
], ids=["model", "keyset", "verifier"])
def test_version_1_file_raises_format_error(make_text, parse):
    # version 1 stored float.hex lists; such files are regenerated, not read
    doc = json.loads(make_text())
    doc["version"] = 1
    with pytest.raises(FormatError, match="version 1 "):
        parse(json.dumps(doc))


V3_LAYERS = {"layers": [["dense", 3, 4], ["activation", "relu"], ["dense", 4, 2]],
             "output_classes": 2}


def _v3_model_text():
    """The model of `_model_text` as version 3 wrote it: a layer list, and a
    W and b string per dense layer."""
    doc = json.loads(_model_text())
    cuts = np.cumsum([0, 12, 4, 8, 2]) * 16  # W0, b0, W1, b1 in hex digits
    parts = [doc["weights"][a:b] for a, b in zip(cuts, cuts[1:])]
    doc.update(version=3, spec=V3_LAYERS,
               weights=[{"w": parts[0], "b": parts[1]}, {"w": parts[2], "b": parts[3]}])
    return json.dumps(doc)


def test_version_4_model_file_raises_format_error():
    # version 4 stored provenance as an object: seed, kind and a stage history
    doc = json.loads(_model_text())
    doc.update(version=4, provenance={"seed": 0, "kind": "initialized",
                                      "history": doc["provenance"]})
    with pytest.raises(FormatError, match="unsupported seedmark-model version 4 "):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize("make_text, parse", [
    (_v3_model_text, parse_model),
    (lambda: _keyset_text().replace(f'"version": {VERSION}', '"version": 3'), parse_keyset),
    (lambda: _gnb_text().replace(f'"version": {VERSION}', '"version": 3'), parse_verifier),
], ids=["model", "keyset", "verifier"])
def test_version_3_file_raises_format_error(make_text, parse):
    with pytest.raises(FormatError, match="version 3 "):
        parse(make_text())


@pytest.mark.parametrize("make_text, parse, fmt", [
    (lambda: _model_text(), parse_model, "seedmark-model"),
    (lambda: _dataset_text(), parse_dataset, "seedmark-dataset"),
    (lambda: _keyset_text(), parse_keyset, "seedmark-keyset"),
    (lambda: _gnb_text(), parse_verifier, "seedmark-verifier"),
], ids=["model", "dataset", "keyset", "verifier"])
def test_long_version_error_is_short(make_text, parse, fmt):
    # the whole value used to be in the message: over 5,000 characters
    doc = json.loads(make_text())
    doc["version"] = "v" * 5000
    message = f"unsupported {fmt} version {reprlib.repr('v' * 5000)} (supported: {VERSION})"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$") as exc:
        parse(json.dumps(doc))
    assert len(str(exc.value)) < 200


def test_missing_weights(model):
    doc = json.loads(dump_model(model))
    del doc["weights"]
    with pytest.raises(FormatError):
        parse_model(json.dumps(doc))


def test_weight_shape_mismatch_rejected(model):
    doc = json.loads(dump_model(model))
    doc["weights"] = doc["weights"][:-16]  # one value short
    with pytest.raises(FormatError):
        parse_model(json.dumps(doc))


# the weights of ModelSpec((3, 4, 2)) are 26 values: W0 (12), b0 (4), W1 (8), b1 (2)
@pytest.mark.parametrize("entries", [lambda w: w[:16 * 16], lambda w: w + w[16 * 16:]],
                         ids=["one-short", "one-extra"])
def test_weight_entry_count_must_match_spec(entries):
    # one dense layer's values missing, or one too many
    doc = json.loads(_model_text())
    doc["weights"] = entries(doc["weights"])
    with pytest.raises(FormatError, match="shape"):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("widths", [(3, 2), (3, 4, 2), (3, 5, 4, 2)],
                         ids=["no-hidden", "one-hidden", "two-hidden"])
def test_spec_round_trip_keeps_widths_and_activation(widths, activation):
    model = init_model(ModelSpec(widths, activation), 0)
    back = parse_model(dump_model(model))
    assert back.spec == model.spec
    assert back.params.tobytes() == model.params.tobytes()


@pytest.mark.parametrize("value", [
    "xy", [1, 2], {"seed": 0, "kind": "initialized", "history": []}, [{"seed": 0}],
    [{"stage": 5}], [{"stage": "init"}, None],
], ids=["history-string", "history-of-numbers", "object", "record-without-stage",
        "stage-number", "null-record"])
def test_provenance_field_of_the_wrong_type_raises_format_error(model, value):
    doc = json.loads(dump_model(model))
    doc["provenance"] = value
    with pytest.raises(FormatError, match="provenance must be a tuple of dicts, each "
                                          "with a string stage"):
        parse_model(json.dumps(doc))


def test_empty_provenance_round_trips(model):
    bare = Model(model.spec, model.params, ())
    assert parse_model(dump_model(bare)).provenance == ()


@pytest.mark.parametrize("spec", [
    {"widths": [3, "4", 2], "activation": "relu"},
    {"widths": [3, 4.5, 2], "activation": "relu"},
    {"widths": [3, True, 2], "activation": "relu"},
    {"widths": [3, 0, 2], "activation": "relu"},
    {"widths": [3], "activation": "relu"},
    {"widths": "342", "activation": "relu"},
    {"widths": [[3, 4], [4, 2]], "activation": "relu"},
    {"widths": [3, 4, 2], "activation": "dropout"},
    {"widths": [3, 4, 2], "activation": ["relu", "tanh"]},
    {"widths": [3, 4, 2], "activation": ["relu", "relu"]},
    {"widths": [3, 4, 2]},
    {"widths": [3, 4, 2], "activation": "relu", "output_classes": 2},
    V3_LAYERS,
    [[3, 4, 2], "relu"],
], ids=["string-width", "float-width", "bool-width", "zero-width", "single-width",
        "widths-string", "dense-chain", "unknown-tag", "mixed-activations", "two-activations",
        "missing-key", "output-classes", "v3-layer-list", "not-an-object"])
def test_spec_the_program_never_writes_is_rejected(spec):
    doc = json.loads(_model_text())
    doc["spec"] = spec
    with pytest.raises(FormatError, match="model spec"):
        parse_model(json.dumps(doc))


WIDE = [4] * 3000


@pytest.mark.parametrize("field, value, message", [
    ("spec", {"widths": WIDE, "activation": "relu", "extra": 1},
     "model spec must be a JSON object of widths and activation only, got "
     "{'activation': 'relu', 'extra': 1, 'widths': [4, 4, 4, 4, 4, 4, ...]}"),
    ("spec", {"widths": WIDE[:1500] + [4.5] + WIDE[1500:], "activation": "relu"},
     "malformed model spec: widths must be a list, each an integer in [1, inf), "
     "got 4.5 at index 1500"),
    ("provenance", [{"stage": "init"}] * 1500 + [{"stage": 5}] + [{"stage": "init"}] * 1500,
     "inconsistent model artifact: provenance must be a tuple of dicts, each with a string "
     "stage, got {'stage': 5} at index 1500"),
], ids=["spec-extra-key", "fractional-width", "provenance-record"])
def test_bad_spec_error_is_short_and_names_its_index(field, value, message):
    # the whole value used to be in the message: over 9,000 characters for these
    doc = json.loads(_model_text())
    doc[field] = value
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$") as exc:
        parse_model(json.dumps(doc))
    assert len(str(exc.value)) < 200


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_weight_raises_format_error(bad):
    doc = json.loads(_model_text())
    params = _decode_array(doc["weights"], (None,))
    params[3] = bad
    doc["weights"] = _encode_array(params)
    with pytest.raises(FormatError, match="inconsistent model artifact: params hold non-finite"):
        parse_model(json.dumps(doc))


def test_bad_hex_float(model):
    text = dump_model(model)
    first_hex = text.split('"weights": "')[1].split('"')[0]
    with pytest.raises(FormatError):
        parse_model(text.replace(first_hex, "0xnope", 1))


def test_digest_distinguishes_weights(model):
    params = model.params.copy()
    params[0] += 1e-9
    other = type(model)(model.spec, params, model.provenance)
    assert model_digest(other) != model_digest(model)
    assert len(model_digest(model)) == 12


DIGEST_3_4_2 = "d7569c53baa2"


def test_digest_golden_value():
    # Pins the definition (SHA-256 of the spec JSON, then W0, b0, W1, b1, ...
    # as little-endian float64 C-order bytes): changing it must be deliberate.
    assert model_digest(init_model(ModelSpec((3, 4, 2)), 0)) == DIGEST_3_4_2


@pytest.mark.parametrize("family, sha256", [
    ("A", "0112d4c06e960d6762a4e245109a22fdc09404304b8e1d602793a7477eb89e4a"),
    ("B", "163af0d58d544c60e780dbb23ea82ec8b41116df14ec492831d4a72abbbaa560"),
    ("C", "72f821332679962d05a0de949a2a98d979440191a2fc2273b73021e82811d526"),
], ids=["A", "B", "C"])
def test_family_model_file_golden_value(family, sha256):
    # Pins the model file bytes of each family (spec JSON, init draw order,
    # float encoding, format version); no matrix product is involved, so BLAS
    # cannot move it.
    text = dump_model(init_model(family_spec(family, 8, 4), 0))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_digest_ignores_memory_layout():
    model = init_model(ModelSpec((3, 4, 2)), 0)
    fresh = Model(model.spec, model.params.copy(), model.provenance)
    # a contiguous slice of a larger buffer is a valid params vector
    buffer = np.zeros(model.spec.param_count + 10)
    buffer[5:-5] = model.params
    inner = Model(model.spec, buffer[5:-5], model.provenance)
    digests = {model_digest(m) for m in (model, fresh, inner)}
    assert digests == {DIGEST_3_4_2}
    # a strided view is rejected rather than hashed or stored in another layout
    strided = np.zeros(2 * model.spec.param_count)
    strided[::2] = model.params
    with pytest.raises(SpecError, match=r"strides \(16,\)"):
        Model(model.spec, strided[::2], model.provenance)


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max,
               -sys.float_info.max, 1.0 + 2**-52]


def test_encoding_is_little_endian_float64_hex():
    text = _encode_array(np.array([[1.0, -2.0], [0.5, -0.0]]))
    assert text == ("000000000000f03f" "00000000000000c0"
                    "000000000000e03f" "0000000000000080")
    # how README says to read an array back without seedmark
    assert np.frombuffer(bytes.fromhex(text), "<f8").tolist() == [1.0, -2.0, 0.5, -0.0]


@given(arrays(np.float64,
              st.one_of(st.tuples(st.integers(0, 5)),
                        st.tuples(st.integers(1, 5), st.integers(0, 5))),
              elements=st.one_of(st.sampled_from(EDGE_VALUES),
                                 st.floats(allow_nan=False, allow_infinity=False))))
def test_codec_round_trip_keeps_shape_and_bits(a):
    text = json.dumps(_encode_array(a))
    shapes = [a.shape]
    if a.size:  # a free length is positive
        shapes += [(None,)] if a.ndim == 1 else [(a.shape[0], None), (None, a.shape[1])]
    for shape in shapes:
        back = _decode_array(json.loads(text), shape)
        assert back.dtype == np.float64 and back.dtype.isnative and back.flags.writeable
        assert back.shape == a.shape
        assert back.tobytes() == a.tobytes()


@pytest.mark.parametrize("shape", [(None,), (3, None), (None, 2), (0, None)])
def test_free_length_must_be_positive(shape):
    with pytest.raises(FormatError):
        _decode_array("", shape)


def _float_hex_list(s):
    """The values of hex string `s` in the version-1 encoding, a list of `float.hex`."""
    return [float(v).hex() for v in np.frombuffer(bytes.fromhex(s), "<f8")]


# Each rewrites one stored array, a hex string `s` of little-endian float64 bytes.
MALFORMED = {
    # not a string
    "json-number": lambda s: 1.5,
    "json-null": lambda s: None,
    "nested-list": lambda s: [s],
    "object": lambda s: {"0": s},
    "v1-list": _float_hex_list,
    # bad encoding
    "bad-hex": lambda s: "zz" + s[2:],
    "bare-string": lambda s: "0x1.0p+0",  # one float.hex string
    "space": lambda s: s[:16] + " " + s[16:],
    "newline": lambda s: s[:16] + "\n" + s[16:],
    "odd-digits": lambda s: s[:-1],
    # wrong count or shape
    "partial-value": lambda s: s[:-2],
    "trailing-byte": lambda s: s + s[:2],
    "wrong-shape": lambda s: s[:-16],
    "extra-value": lambda s: s + s[:16],
    "empty": lambda s: "",
}
# The same for a 2-D array whose rows are `n` hex digits long.
MALFORMED_2D = {
    "long-row": lambda s, n: s[:n] + s[:16] + s[n:],
    "short-row": lambda s, n: s[:n - 16] + s[n:],
    "object-rows": lambda s, n: [{s[i:i + n]: 0} for i in range(0, len(s), n)],
    "row-string": lambda s, n: [s[i:i + n] for i in range(0, len(s), n)],
    "flat-rows": lambda s, n: _float_hex_list(s),
}


def _model_text():
    return dump_model(init_model(ModelSpec((3, 4, 2)), 0))


def _keyset_text():
    rng = np.random.default_rng(3)
    return dump_keyset(KeySet(rng.uniform(-1, 1, size=(4, 3)), np.array([0, 1, 1, 0]), {}))


def _lr_text():
    params = {"weight": np.array([2.0, 3.0]), "bias": np.array([-1.0, -2.0])}
    return dump_verifier(VerificationModel("lr", params, "0123456789ab"))


def _gnb_text():
    params = {"means": np.array([[0.25, 0.75]] * 2), "variances": np.array([[0.01, 0.02]] * 2),
              "priors": np.array([[0.5, 0.5]] * 2)}
    return dump_verifier(VerificationModel("gnb", params, "0123456789ab"))


def _dataset_text():
    return dump_dataset(generate(GenSpec(classes=2, dims=3, samples_per_class=2), 0))


# (artifact text, parser, path to one of its arrays, its row width or None if 1-D).
# A model stores one array, W0, b0, W1, b1, ...: "model-w" also cuts and pads
# it at the end of W0's first row; "model-b" is a model without hidden layers.
ARRAY_SITES = {
    "model-w": (_model_text, parse_model, ("weights",), 4),
    "model-b": (lambda: dump_model(init_model(ModelSpec((3, 2), "tanh"), 0)), parse_model,
                ("weights",), None),
    "keyset": (_keyset_text, parse_keyset, ("watermarks",), 3),
    "dataset": (_dataset_text, parse_dataset, ("features",), 3),
    "lr-weight": (_lr_text, parse_verifier, ("weight",), None),
    "lr-bias": (_lr_text, parse_verifier, ("bias",), None),
    "gnb-means": (_gnb_text, parse_verifier, ("means",), 2),
    "gnb-variances": (_gnb_text, parse_verifier, ("variances",), 2),
    "gnb-priors": (_gnb_text, parse_verifier, ("priors",), 2),
}
MALFORMED_CASES = [
    pytest.param(site, mutate, id=f"{site}-{name}")
    for site, (_, _, _, width) in ARRAY_SITES.items()
    for name, mutate in [
        *MALFORMED.items(),
        *((name, partial(row, n=16 * width)) for name, row in MALFORMED_2D.items() if width),
    ]
]


@pytest.mark.parametrize("site, mutate", MALFORMED_CASES)
def test_malformed_array_raises_format_error(site, mutate):
    make_text, parse, path, _ = ARRAY_SITES[site]
    parse(make_text())  # the artifact as dumped parses
    doc = json.loads(make_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = mutate(parent[path[-1]])
    with pytest.raises(FormatError):
        parse(json.dumps(doc))


@pytest.mark.parametrize("load, error", [
    (load_model, FormatError), (load_dataset, FormatError), (load_keyset, FormatError),
    (load_verifier, FormatError), (load_eval_config, ConfigError),
], ids=["model", "dataset", "keyset", "verifier", "config"])
def test_loader_rejects_a_file_that_is_not_utf8(tmp_path, load, error):
    path = tmp_path / "binary"
    path.write_bytes(b'{"format": "\xff"}')
    with pytest.raises(error, match=f"^{re.escape(str(path))} is not UTF-8 text"):
        load(path)
