import hashlib
import json
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seedmark.errors import FormatError
from seedmark.nnet import Model, ModelSpec, TrainConfig, family_spec, init_model, train
from seedmark.serialize import (
    _decode_array,
    _encode_array,
    dump_model,
    load_model,
    model_digest,
    parse_model,
    save_model,
)
from seedmark.watermark import (
    GaussianNBClassifier,
    KeySet,
    VerificationModel,
    dump_keyset,
    dump_verifier,
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
    for (w1, b1), (w2, b2) in zip(back.weights, model.weights):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    assert back.provenance == model.provenance


def test_round_trip_trained(trained_model):
    back = parse_model(dump_model(trained_model))
    assert model_digest(back) == model_digest(trained_model)
    assert back.provenance.kind == trained_model.provenance.kind
    assert back.provenance.history == trained_model.provenance.history


def test_file_round_trip(model, tmp_path):
    path = tmp_path / "m.json"
    save_model(model, path)
    assert model_digest(load_model(path)) == model_digest(model)


def test_extreme_values_survive():
    rng = np.random.default_rng(9)
    m = random_small_model(rng)
    w0, b0 = m.weights[0]
    w0 = w0.copy()
    w0.flat[0] = 5e-324  # subnormal
    w0.flat[1] = 1.0 + 2**-52  # one ulp above 1
    weights = ((w0, b0),) + tuple(m.weights[1:])
    tweaked = type(m)(m.spec, weights, m.provenance)
    back = parse_model(dump_model(tweaked))
    assert back.weights[0][0].flat[0] == 5e-324
    assert back.weights[0][0].flat[1] == 1.0 + 2**-52


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


def test_future_version_names_version(model):
    text = dump_model(model).replace('"version": 1', '"version": 7')
    with pytest.raises(FormatError, match="7"):
        parse_model(text)


def test_missing_weights(model):
    doc = json.loads(dump_model(model))
    del doc["weights"]
    with pytest.raises(FormatError):
        parse_model(json.dumps(doc))


def test_weight_shape_mismatch_rejected(model):
    doc = json.loads(dump_model(model))
    doc["weights"][0]["b"] = doc["weights"][0]["b"][:-1]
    with pytest.raises(FormatError):
        parse_model(json.dumps(doc))


RELU, TANH = ["activation", "relu"], ["activation", "tanh"]


@pytest.mark.parametrize("layers, classes", [
    ([["dense", 3, 4], RELU, ["dense", 4, 4], TANH, ["dense", 4, 2]], 2),
    ([["dense", 3, 4], RELU, RELU, ["dense", 4, 4], RELU, ["dense", 4, 2]], 2),
    ([RELU, ["dense", 3, 4], RELU, ["dense", 4, 4], RELU, ["dense", 4, 2]], 2),
    ([["dense", 3, 4], RELU, ["dense", 5, 4], RELU, ["dense", 4, 2]], 2),
    ([["dense", 3, 4], RELU, ["dense", 4, 4], RELU, ["dense", 4, 2]], 3),
    ([["dense", 3, 4], ["dropout", 0.5], ["dense", 4, 4], RELU, ["dense", 4, 2]], 2),
    ([["dense", 3, "4"], RELU, ["dense", 4, 4], RELU, ["dense", 4, 2]], 2),
    ([["dense", 3, 4.5], RELU, ["dense", 4, 4], RELU, ["dense", 4, 2]], 2),
], ids=["mixed-activations", "two-activations", "activation-first", "dense-chain",
        "output-classes", "unknown-tag", "string-width", "float-width"])
def test_spec_the_program_never_writes_is_rejected(layers, classes):
    doc = json.loads(dump_model(init_model(ModelSpec((3, 4, 4, 2)), 0)))
    doc["spec"] = {"layers": layers, "output_classes": classes}
    with pytest.raises(FormatError):
        parse_model(json.dumps(doc))


def test_bad_hex_float(model):
    text = dump_model(model)
    first_hex = text.split('"w": [\n')[1].split('"')[1]
    with pytest.raises(FormatError):
        parse_model(text.replace(first_hex, "0xnope", 1))


def test_digest_distinguishes_weights(model):
    w0, b0 = model.weights[0]
    w0 = w0.copy()
    w0.flat[0] += 1e-9
    other = type(model)(model.spec, ((w0, b0),) + tuple(model.weights[1:]), model.provenance)
    assert model_digest(other) != model_digest(model)
    assert len(model_digest(model)) == 12


def test_digest_golden_value():
    # Pins the definition (SHA-256 of the spec JSON, then each W and b as
    # little-endian float64 C-order bytes): changing it must be deliberate.
    assert model_digest(init_model(ModelSpec((3, 4, 2)), 0)) == "eb085967d682"


@pytest.mark.parametrize("family, sha256", [
    ("A", "7cbe1b2751eb811578f9b29fe16a25630decd32aa5ab6a24e18ee04196bc6216"),
    ("B", "0b0bc4845b2d887038970faf9f48427c0a2c59c568dd2f9bc61c83733f3dccc0"),
    ("C", "f6c1cf6845afc9e164fe3ef567df0e028c9d120eb48f863c20cf646fdc037899"),
])
def test_family_model_file_golden_value(family, sha256):
    # Pins the model file bytes of each family (spec JSON, init draw order,
    # float encoding); no matrix product is involved, so BLAS cannot move it.
    text = dump_model(init_model(family_spec(family, 8, 4), 0))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_digest_ignores_memory_layout():
    model = init_model(ModelSpec((3, 4, 2)), 0)
    rng = np.random.default_rng(0)
    x, y = rng.uniform(-1, 1, size=(6, 3)), rng.integers(0, 2, size=6)
    # lr 0 keeps the values; train returns views into one flat buffer.
    flat = train(model, x, y, TrainConfig(epochs=1, learning_rate=0.0))
    buffer = flat.weights[0][0].base
    assert buffer is not None and all(a.base is buffer for wb in flat.weights for a in wb)
    fortran = Model(model.spec, tuple((np.asfortranarray(w), b) for w, b in model.weights),
                    model.provenance)
    assert not fortran.weights[0][0].flags.c_contiguous
    fresh = Model(model.spec, tuple((w.copy(), b.copy()) for w, b in flat.weights),
                  model.provenance)
    digests = {model_digest(m) for m in (model, flat, fortran, fresh)}
    assert digests == {"eb085967d682"}


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max,
               -sys.float_info.max, 1.0 + 2**-52]


@given(arrays(np.float64,
              st.one_of(st.tuples(st.integers(0, 5)),
                        st.tuples(st.integers(1, 5), st.integers(0, 5))),
              elements=st.one_of(st.sampled_from(EDGE_VALUES),
                                 st.floats(allow_nan=False, allow_infinity=False))))
def test_codec_round_trip_keeps_shape_and_bits(a):
    text = json.dumps(_encode_array(a))
    for shape in (a.shape, (None,) * a.ndim):
        back = _decode_array(json.loads(text), shape)
        assert back.dtype == np.float64 and back.shape == a.shape
        assert back.tobytes() == a.tobytes()


def _set_first(value, replace):
    """`value` with its first hex string `s` replaced by `replace(s)`."""
    row = value[0] if isinstance(value[0], list) else value
    row[0] = replace(row[0])
    return value


# Each rewrites one stored array (a list of hex strings, or of rows of them).
MALFORMED = {
    "bad-hex": lambda a: _set_first(a, lambda s: "0xnope"),
    "json-number": lambda a: _set_first(a, lambda s: 1.5),
    "json-null": lambda a: _set_first(a, lambda s: None),
    "nested-list": lambda a: _set_first(a, lambda s: [s]),
    "bare-string": lambda a: "0x1.0p+0",
    "object": lambda a: {"0": a[0]},
    "wrong-shape": lambda a: a[:-1],
}
MALFORMED_2D = {
    "long-row": lambda a: [a[0] + a[0][:1]] + a[1:],
    "short-row": lambda a: [a[0][:-1]] + a[1:],
    "object-rows": lambda a: [dict.fromkeys(row, 0) for row in a],
    "row-string": lambda a: ["0x1.0p+0"] + a[1:],
    "flat-rows": lambda a: [v for row in a for v in row],
}


def _model_text():
    return dump_model(init_model(ModelSpec((3, 4, 2)), 0))


def _keyset_text():
    rng = np.random.default_rng(3)
    return dump_keyset(KeySet(rng.uniform(-1, 1, size=(4, 3)), np.array([0, 1, 1, 0]), {}))


def _gnb_text():
    clf = GaussianNBClassifier((0.25, 0.75), (0.01, 0.02), (0.5, 0.5))
    return dump_verifier(VerificationModel("gnb", (clf, clf)))


# (artifact text, parser, path to one of its arrays, whether that array is 2-D)
ARRAY_SITES = {
    "model-w": (_model_text, parse_model, ("weights", 1, "w"), True),
    "model-b": (_model_text, parse_model, ("weights", 0, "b"), False),
    "keyset": (_keyset_text, parse_keyset, ("watermarks",), True),
    "gnb-means": (_gnb_text, parse_verifier, ("classifiers", 1, "means"), False),
    "gnb-priors": (_gnb_text, parse_verifier, ("classifiers", 0, "priors"), False),
}
MALFORMED_CASES = [
    pytest.param(site, mutate, id=f"{site}-{name}")
    for site, (_, _, _, two_d) in ARRAY_SITES.items()
    for name, mutate in {**MALFORMED, **(MALFORMED_2D if two_d else {})}.items()
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
