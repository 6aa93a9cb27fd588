import numpy as np
import pytest

from seedmark.errors import FormatError
from seedmark.nnet import Model, TrainConfig, init_model, mlp_spec, train
from seedmark.serialize import (
    dump_model,
    load_model,
    model_digest,
    parse_model,
    save_model,
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
    import json

    doc = json.loads(dump_model(model))
    del doc["weights"]
    with pytest.raises(FormatError):
        parse_model(json.dumps(doc))


def test_weight_shape_mismatch_rejected(model):
    import json

    doc = json.loads(dump_model(model))
    doc["weights"][0]["b"] = doc["weights"][0]["b"][:-1]
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
    assert model_digest(init_model(mlp_spec(3, (4,), 2), 0)) == "eb085967d682"


def test_digest_ignores_memory_layout():
    model = init_model(mlp_spec(3, (4,), 2), 0)
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
