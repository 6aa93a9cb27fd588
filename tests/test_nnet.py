
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedmark.bim import BimConfig, bim_batch
from seedmark.datasets import GenSpec, generate
from seedmark.errors import DivergenceError, InputError, SpecError
from seedmark.harness import EvaluationReport
from seedmark.metrics import roc_auc
from seedmark.nnet import (
    Model,
    ModelSpec,
    TrainConfig,
    family_spec,
    forward,
    init_model,
    input_gradient,
    loss_and_param_grads,
    predict,
    train,
)
from seedmark.rng import stream
from seedmark.watermark import KeySet

from conftest import accuracy, flat_params, random_small_model


def bias_only_model(biases):
    """One dense layer with zero weights: logits == biases for any input."""
    k = len(biases)
    spec = ModelSpec((2, k))
    return Model(spec, flat_params(((np.zeros((2, k)), biases),)), ())


class TestSpec:
    # ModelSpec((4, 3, 2)) holds 4*3 + 3 + 3*2 + 2 = 23 parameters
    @pytest.mark.parametrize("params, got", [
        (np.zeros(22), r"float64 array of shape \(22,\), strides \(8,\)"),
        (np.zeros(24), r"float64 array of shape \(24,\), strides \(8,\)"),
        (np.zeros((1, 23)), r"float64 array of shape \(1, 23\), strides \(184, 8\)"),
        (np.zeros(23, dtype=np.float32), r"float32 array of shape \(23,\), strides \(4,\)"),
        (np.zeros(23, dtype=">f8"), r">f8 array of shape \(23,\), strides \(8,\)"),
        (np.zeros(46)[::2], r"float64 array of shape \(23,\), strides \(16,\)"),
        ([0.0] * 23, "list"),
    ], ids=["one-short", "one-extra", "two-d", "float32", "big-endian", "non-contiguous",
            "list"])
    def test_params_must_be_one_float64_vector(self, params, got):
        with pytest.raises(SpecError, match="params must be a C-contiguous float64 vector of "
                                            f"23 values, got {got}"):
            Model(ModelSpec((4, 3, 2)), params, ())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_params_must_be_finite(self, bad):
        params = np.zeros(23)
        params[7] = bad
        with pytest.raises(SpecError, match="params hold non-finite values"):
            Model(ModelSpec((4, 3, 2)), params, ())

    @pytest.mark.parametrize("provenance", [
        [{"stage": "init", "seed": 0}], None, ({"seed": 0},), ({"stage": 5},),
        ({"stage": "init", "seed": 0}, "trained-fresh"),
    ], ids=["list", "none", "record-without-stage", "stage-number", "string-record"])
    def test_provenance_must_be_a_tuple_of_stage_records(self, provenance):
        # a list used to build, then fail `train` with a bare TypeError after every step
        with pytest.raises(SpecError, match="provenance must be a tuple of dicts, each with "
                                            "a string stage"):
            Model(ModelSpec((4, 3, 2)), np.zeros(23), provenance)

    def test_weights_are_views_into_params(self):
        spec = ModelSpec((4, 3, 2))
        params = np.arange(23.0)
        model = Model(spec, params, ())
        assert spec.param_count == 23
        (w0, b0), (w1, b1) = model.weights
        assert all(a.base is params for a in (w0, b0, w1, b1))
        assert w0.tolist() == np.arange(12.0).reshape(4, 3).tolist()
        assert b0.tolist() == [12.0, 13.0, 14.0]
        assert w1.tolist() == np.arange(15.0, 21.0).reshape(3, 2).tolist()
        assert b1.tolist() == [21.0, 22.0]
        assert np.array_equal(flat_params(model.weights), params)

    def test_requires_dense(self):
        with pytest.raises(SpecError, match="an input and an output width"):
            ModelSpec((4,))

    @pytest.mark.parametrize("widths, activation, message", [
        ((4, 1), "relu", "output_classes must be >= 2"),
        ((4, 0, 2), "relu", "positive integers"),
        ((4, "8", 2), "relu", "positive integers"),
        ((4, 8.5, 2), "relu", "positive integers"),
        ((4, True, 2), "relu", "positive integers"),
        ((4, 8, 2), "sigmoid", "unknown activation 'sigmoid'"),
    ], ids=["one-class", "zero-width", "string-width", "float-width", "bool-width",
            "activation"])
    def test_bad_spec_rejected(self, widths, activation, message):
        with pytest.raises(SpecError, match=message):
            ModelSpec(widths, activation)

    def test_spec_shape(self):
        spec = ModelSpec((8, 16, 16, 4))
        assert spec.input_dim == 8
        assert spec.dense_count == 3
        assert spec.output_classes == 4
        assert spec.activation == "relu"

    def test_families_differ(self):
        a = family_spec("A", 8, 4)
        b = family_spec("B", 8, 4)
        c = family_spec("C", 8, 4)
        assert a.dense_count != b.dense_count
        assert a.widths == c.widths and a.activation != c.activation


class TestInit:
    def test_deterministic(self):
        spec = ModelSpec((4, 8, 3))
        m1, m2 = init_model(spec, 42), init_model(spec, 42)
        for (w1, b1), (w2, b2) in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_seeds_differ(self):
        spec = ModelSpec((4, 8, 3))
        m1, m2 = init_model(spec, 42), init_model(spec, 43)
        assert any(not np.array_equal(w1, w2) for (w1, _), (w2, _) in zip(m1.weights, m2.weights))

    def test_init_bounds(self):
        m = init_model(ModelSpec((10, 20, 5)), 0)
        for (w, b), (n_in, n_out) in zip(m.weights, [(10, 20), (20, 5)], strict=True):
            bound = np.sqrt(6 / (n_in + n_out))
            assert np.abs(w).max() <= bound
            assert np.all(b == 0.0)


class TestForward:
    def test_softmax_symmetry(self):
        m = bias_only_model([0.0, 0.0])
        assert np.allclose(forward(m, [[0.3, -0.2]]), [[0.5, 0.5]])

    def test_closed_form_softmax(self):
        m = bias_only_model([np.log(3.0), 0.0])
        assert np.allclose(forward(m, [[1.0, 1.0]]), [[0.75, 0.25]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        m = random_small_model(rng)
        x = rng.uniform(-1, 1, size=(50, m.spec.input_dim))
        conf = forward(m, x)
        assert np.all(conf >= 0) and np.all(conf <= 1)
        assert np.allclose(conf.sum(axis=1), 1.0, atol=1e-6)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_property(self, seed):
        rng = np.random.default_rng(seed)
        m = random_small_model(rng)
        x = rng.uniform(-1, 1, size=(8, m.spec.input_dim))
        assert np.allclose(forward(m, x).sum(axis=1), 1.0, atol=1e-6)

    def test_dimension_mismatch(self):
        m = bias_only_model([0.0, 0.0])
        with pytest.raises(InputError):
            forward(m, np.zeros((3, 5)))


class TestPredict:
    def test_argmax(self):
        m = bias_only_model([0.1, 0.7, 0.2])
        assert predict(m, [[0, 0]])[0] == 1

    def test_tie_break_lowest_index(self):
        m = bias_only_model([0.5, 0.5])
        assert predict(m, [[1, 2]])[0] == 0

    def test_agrees_with_forward_argmax(self):
        rng = np.random.default_rng(3)
        m = random_small_model(rng)
        x = rng.uniform(-1, 1, size=(1000, m.spec.input_dim))
        assert np.array_equal(predict(m, x), np.argmax(forward(m, x), axis=1))


def finite_difference_param_grads(model, x, targets, temperature=1.0, h=1e-4):
    """Central finite differences over every weight entry."""
    grads = []
    for li, (w, b) in enumerate(model.weights):
        gw, gb = np.zeros_like(w), np.zeros_like(b)
        for arr, g in ((w, gw), (b, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lp, _ = loss_and_param_grads(model, x, targets, temperature)
                arr[idx] = orig - h
                lm, _ = loss_and_param_grads(model, x, targets, temperature)
                arr[idx] = orig
                g[idx] = (lp - lm) / (2 * h)
        grads.append((gw, gb))
    return grads


class TestGradients:
    def test_perfect_prediction_zero_loss(self):
        m = bias_only_model([50.0, -50.0])
        loss, grads = loss_and_param_grads(m, [[0.0, 0.0]], [0])
        assert loss < 1e-20
        gw, gb = grads[-1]
        assert np.abs(gb).max() < 1e-20

    def test_huge_temperature_uniform(self):
        rng = np.random.default_rng(1)
        m = random_small_model(rng, in_dim=3, classes=3)
        x = rng.uniform(-1, 1, size=(4, 3))
        t = np.full((4, 3), 1 / 3)
        loss, _ = loss_and_param_grads(m, x, t, temperature=1e6)
        # softened model distribution approaches uniform: CE -> log K
        assert abs(loss - np.log(3)) < 1e-3

    @pytest.mark.parametrize("loss_kind", ["hard", "soft"])
    def test_param_grads_match_finite_differences(self, loss_kind):
        rng = np.random.default_rng(11)
        m = random_small_model(rng, in_dim=4, classes=3)
        x = rng.uniform(-1, 1, size=(6, 4))
        if loss_kind == "hard":
            targets = rng.integers(0, 3, size=6)
            kwargs = {}
        else:
            targets = rng.dirichlet(np.ones(3), size=6)
            kwargs = {"temperature": 2.5}
        _, analytic = loss_and_param_grads(m, x, targets, **kwargs)
        numeric = finite_difference_param_grads(m, x, targets, kwargs.get("temperature", 1.0))
        for (aw, ab), (nw, nb) in zip(analytic, numeric):
            scale = max(np.abs(nw).max(), np.abs(nb).max(), 1e-8)
            assert np.abs(aw - nw).max() / scale < 1e-4
            assert np.abs(ab - nb).max() / scale < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        m = random_small_model(rng, in_dim=5, classes=3)
        x = rng.uniform(-1, 1, size=5)
        label = 1
        g = input_gradient(m, x, label)
        num = np.zeros_like(x)
        h = 1e-4
        for i in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            lp, _ = loss_and_param_grads(m, xp[None], [label])
            lm, _ = loss_and_param_grads(m, xm[None], [label])
            num[i] = (lp - lm) / (2 * h)
        assert np.abs(g - num).max() / max(np.abs(num).max(), 1e-8) < 1e-4

    def test_input_gradient_linear_closed_form(self):
        rng = np.random.default_rng(9)
        k, d = 3, 4
        spec = ModelSpec((d, k))
        w = rng.standard_normal((d, k))
        b = rng.standard_normal(k)
        m = Model(spec, flat_params(((w, b),)), ())
        x = rng.uniform(-1, 1, size=d)
        y = 2
        p = forward(m, x)[0]
        one_hot = np.eye(k)[y]
        expected = w @ (p - one_hot)
        assert np.abs(input_gradient(m, x, y) - expected).max() < 1e-8

    def test_zero_weight_model_zero_gradient(self):
        m = bias_only_model([0.0, 0.0])
        g = input_gradient(m, np.array([0.4, -0.2]), 1)
        assert np.array_equal(g, np.zeros(2))


class TestTrain:
    def test_deterministic(self, blob_data):
        train_set, _ = blob_data
        spec = ModelSpec((train_set.dims, 16, train_set.class_count))
        cfg = TrainConfig(epochs=3, seed=77)
        m1 = train(init_model(spec, 5), train_set.features, train_set.labels, cfg)
        m2 = train(init_model(spec, 5), train_set.features, train_set.labels, cfg)
        for (w1, _), (w2, _) in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    def test_separable_blobs_high_accuracy(self):
        data = generate(GenSpec(classes=2, spread=0.12, samples_per_class=100), seed=5)
        spec = ModelSpec((data.dims, 16, 2))
        m = train(init_model(spec, 1), data.features, data.labels, TrainConfig(seed=2))
        assert accuracy(m, data.features, data.labels) >= 0.99

    def test_zero_learning_rate_identity(self, blob_data):
        train_set, _ = blob_data
        spec = ModelSpec((train_set.dims, 8, train_set.class_count))
        m0 = init_model(spec, 3)
        m1 = train(m0, train_set.features, train_set.labels,
                   TrainConfig(epochs=2, learning_rate=0.0, seed=1))
        for (w0, b0), (w1, b1) in zip(m0.weights, m1.weights):
            assert np.array_equal(w0, w1) and np.array_equal(b0, b1)

    def test_divergence_error_names_location(self, blob_data):
        # lr=1e200 makes the first step's weights overflow the second batch's logits
        train_set, _ = blob_data
        spec = ModelSpec((train_set.dims, 8, train_set.class_count))
        with pytest.raises(DivergenceError) as err:
            train(init_model(spec, 3), train_set.features, train_set.labels,
                  TrainConfig(epochs=1, learning_rate=1e200, seed=1))
        assert (err.value.epoch, err.value.batch) == (0, 1)

    @pytest.mark.parametrize("row, batch", [(5, 12), (250, 2)])
    def test_divergence_error_names_the_batch_of_a_nan_row(self, blob_data, row, batch):
        train_set, _ = blob_data
        cfg = TrainConfig(epochs=2, seed=1)
        # the batch the row lands in, from the first epoch's shuffle
        order = stream(cfg.seed, "shuffle").permutation(len(train_set.labels))
        assert int(np.flatnonzero(order == row)[0]) // cfg.batch_size == batch
        x = train_set.features.copy()
        x[row, 2] = np.nan
        spec = ModelSpec((train_set.dims, 8, train_set.class_count))
        with pytest.raises(DivergenceError) as err:
            train(init_model(spec, 3), x, train_set.labels, cfg)
        assert (err.value.epoch, err.value.batch) == (0, batch)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308, -0.5, 1.5])
    def test_soft_targets_outside_unit_interval_rejected(self, bad):
        m = bias_only_model([0.0, 0.0])
        targets = np.full((2, 2), 0.5)
        targets[1, 0] = bad
        with pytest.raises(InputError, match=r"must lie in \[0, 1\]"):
            loss_and_param_grads(m, np.zeros((2, 2)), targets)
        with pytest.raises(InputError, match=r"must lie in \[0, 1\]"):
            train(m, np.zeros((2, 2)), targets, TrainConfig())

    @pytest.mark.parametrize("bad", [0.7, 1.2, np.nan, np.inf, -np.inf, -1.0, 2.0])
    def test_hard_labels_must_be_whole_class_indices(self, bad):
        m = bias_only_model([0.0, 0.0])
        labels = np.array([0.0, 1.0, bad])
        with pytest.raises(InputError, match="whole numbers"):
            loss_and_param_grads(m, np.zeros((3, 2)), labels)
        with pytest.raises(InputError, match="whole numbers"):
            train(m, np.zeros((3, 2)), labels, TrainConfig())
        with pytest.raises(InputError, match="whole numbers"):
            input_gradient(m, np.zeros((3, 2)), labels)
        with pytest.raises(InputError, match="whole numbers"):
            input_gradient(m, np.zeros(2), bad)
        for cfg in (BimConfig(), BimConfig(epsilon=0.0)):  # every budget runs the one loop
            with pytest.raises(InputError, match="whole numbers"):
                bim_batch(m, np.zeros((3, 2)), labels, cfg)

    @pytest.mark.parametrize("entry", ["train", "loss_and_param_grads", "input_gradient"])
    @pytest.mark.parametrize("targets", [
        np.array(1), np.full((3, 2, 1), 0.5), np.full((3, 3), 0.3), np.array([0, 1]),
        np.full((2, 2), 0.5),
    ], ids=["0-d", "3-d", "k-plus-one-columns", "labels-one-row-short",
            "confidences-one-row-short"])
    def test_targets_of_another_shape_or_length_rejected(self, entry, targets):
        m = bias_only_model([0.0, 0.0])
        call = {"train": lambda *a: train(*a, TrainConfig()),
                "loss_and_param_grads": loss_and_param_grads,
                "input_gradient": input_gradient}[entry]
        with pytest.raises(InputError):
            call(m, np.zeros((3, 2)), targets)

    def test_input_gradient_takes_labels_only(self):
        m = bias_only_model([0.0, 0.0])
        with pytest.raises(InputError, match="expects class labels"):
            input_gradient(m, np.zeros((3, 2)), np.full((3, 2), 0.5))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan, True, "2.0"],
                             ids=["zero", "negative", "inf", "nan", "bool", "string"])
    def test_loss_temperature_must_be_a_finite_positive_number(self, bad):
        # as TrainConfig requires of its own temperature
        m = bias_only_model([0.0, 0.0])
        with pytest.raises(SpecError, match="temperature must be positive"):
            loss_and_param_grads(m, np.zeros((2, 2)), np.array([0, 1]), bad)

    @pytest.mark.parametrize("bad", [-1, -3, True, 1.5, 3],
                             ids=["minus-one", "minus-three", "bool", "fraction", "every-layer"])
    def test_frozen_dense_must_count_fewer_layers_than_the_model_has(self, bad):
        m = init_model(ModelSpec((2, 4, 4, 2)), 0)  # three dense layers
        with pytest.raises(SpecError, match=r"frozen_dense must be an integer in \[0, 3\), got "):
            train(m, np.zeros((4, 2)), np.array([0, 1, 0, 1]), TrainConfig(epochs=1),
                  frozen_dense=bad)

    def test_labels_equal_their_one_hot_confidences_at_any_temperature(self):
        # the targets' shape picks the loss, and temperature divides the logits for both
        rng = np.random.default_rng(2)
        m = random_small_model(rng, in_dim=4, classes=3)
        x = rng.uniform(-1, 1, size=(6, 4))
        labels = rng.integers(0, 3, size=6)
        for temperature in (1.0, 2.5):
            loss, grads = loss_and_param_grads(m, x, labels, temperature)
            loss_oh, grads_oh = loss_and_param_grads(m, x, np.eye(3)[labels], temperature)
            assert loss == loss_oh
            for (gw, gb), (ow, ob) in zip(grads, grads_oh, strict=True):
                assert np.array_equal(gw, ow) and np.array_equal(gb, ob)
        cfg = TrainConfig(epochs=2, batch_size=4, temperature=2.5)
        hard, soft = (train(m, x, t, cfg) for t in (labels, np.eye(3)[labels]))
        assert hard.params.tobytes() == soft.params.tobytes()
        assert (hard.provenance[-1]["loss"], soft.provenance[-1]["loss"]) == ("hard", "soft")

    def test_whole_float_labels_train_like_integers(self):
        m = init_model(ModelSpec((2, 4, 2)), 0)
        x = np.random.default_rng(1).uniform(-1, 1, size=(40, 2))
        labels = np.arange(40) % 2
        cfg = TrainConfig(epochs=2, batch_size=8)
        as_int, as_float = (train(m, x, y, cfg) for y in (labels, labels.astype(float)))
        for (w1, b1), (w2, b2) in zip(as_int.weights, as_float.weights):
            assert w1.tobytes() == w2.tobytes() and b1.tobytes() == b2.tobytes()

    @pytest.mark.parametrize("field, value", [
        ("epochs", 1.5), ("batch_size", 2.5), ("seed", 1.0),
        ("epochs", True), ("batch_size", True), ("seed", False),
    ], ids=["epochs", "batch-size", "seed", "epochs-bool", "batch-size-bool", "seed-bool"])
    def test_config_field_types(self, field, value):
        with pytest.raises(SpecError, match=f"{field} must be an integer, got {value!r}"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", np.inf), ("learning_rate", True), ("temperature", np.inf),
        ("temperature", np.nan), ("temperature", "1.0"),
    ], ids=["learning-rate-inf", "learning-rate-bool", "temperature-inf", "temperature-nan",
            "temperature-string"])
    def test_config_float_fields_are_finite_numbers(self, field, value):
        with pytest.raises(SpecError, match=f"{field} must be a finite number, got {value!r}"):
            TrainConfig(**{field: value})

    def test_provenance_updated(self, trained_model):
        assert trained_model.provenance[-1]["stage"] == "trained-fresh"


def _reference_forward(model, x):
    """Logits, each dense layer's input and each hidden layer's
    pre-activation, written apart from nnet's forward pass."""
    relu = model.spec.activation == "relu"
    inputs, pre, a = [], [], x
    for i, (w, b) in enumerate(model.weights):
        if i:
            pre.append(a)
            a = np.maximum(a, 0.0) if relu else np.tanh(a)
        inputs.append(a)
        a = a @ w + b
    return a, (inputs, pre)


def _reference_backprop(model, traces, delta):
    """Full-depth backprop: every layer's gradients and the input gradient,
    relu's mask and tanh' recomputed from the pre-activation, bias
    gradients by delta.sum."""
    inputs, pre = traces
    relu = model.spec.activation == "relu"
    grads = [None] * len(model.weights)
    for i in reversed(range(len(model.weights))):
        w, _ = model.weights[i]
        grads[i] = (inputs[i].T @ delta, delta.sum(axis=0))
        delta = delta @ w.T
        if i:
            z = pre[i - 1]
            delta = delta * ((z > 0.0) if relu else (1.0 - np.tanh(z) ** 2))
    return grads, delta


def _reference_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _reference_loss_and_grads(model, x, targets, temperature=1.0):
    """Mean cross-entropy and param grads: the oracle for `loss_and_param_grads`.
    A label vector is one-hot encoded; a confidence matrix is used as given."""
    t = np.eye(model.spec.output_classes)[targets] if np.ndim(targets) == 1 else targets
    z, traces = _reference_forward(model, x)
    p = _reference_softmax(z / temperature)
    n = len(x)
    loss_value = -(t * np.log(np.clip(p, 1e-300, None))).sum() / n
    grads, _ = _reference_backprop(model, traces, (p - t) / (n * temperature))
    return loss_value, grads


def _reference_input_gradient(model, x, labels):
    """Per-sample hard-label input gradient: the oracle for `input_gradient`."""
    z, traces = _reference_forward(model, x)
    _, dx = _reference_backprop(model, traces, _reference_softmax(z) - np.eye(z.shape[1])[labels])
    return dx


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_gradients_bit_identical_to_reference_backprop(activation):
    rng = np.random.default_rng(13)
    n, dims, classes = 9, 5, 3
    x = rng.uniform(-1, 1, size=(n, dims))
    labels = rng.integers(0, classes, size=n)
    model = init_model(ModelSpec((dims, 7, 6, 5, classes), activation), 4)
    cases = ((labels, 1.0), (rng.dirichlet(np.ones(classes), size=n), 2.0))
    for targets, temperature in cases:
        loss_value, grads = loss_and_param_grads(model, x, targets, temperature)
        ref_loss, ref_grads = _reference_loss_and_grads(model, x, targets, temperature)
        assert loss_value == ref_loss
        for (gw, gb), (rw, rb) in zip(grads, ref_grads, strict=True):
            assert np.array_equal(gw, rw) and np.array_equal(gb, rb)
    assert np.array_equal(input_gradient(model, x, labels),
                          _reference_input_gradient(model, x, labels))


def _reference_train(model, features, targets, cfg, frozen_dense=0):
    """Per-layer Adam loop on full-depth reference gradients, one update
    per weight tensor: the oracle for `train`."""
    b1, b2, eps = 0.9, 0.999, 1e-8  # Adam's published defaults
    x = np.asarray(features, dtype=np.float64)
    weights = [(w.copy(), b.copy()) for w, b in model.weights]
    adam = [(np.zeros_like(w), np.zeros_like(b), np.zeros_like(w), np.zeros_like(b))
            for w, b in weights]
    shuffler = stream(cfg.seed, "shuffle")
    n, step = len(x), 0
    for _ in range(cfg.epochs):
        order = shuffler.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            current = Model(model.spec, flat_params(weights), model.provenance)
            _, grads = _reference_loss_and_grads(current, x[idx], targets[idx], cfg.temperature)
            step += 1
            for li in range(frozen_dense, len(weights)):
                w, b = weights[li]
                gw, gb = grads[li]
                mw, mb, vw, vb = adam[li]
                mw = b1 * mw + (1 - b1) * gw
                mb = b1 * mb + (1 - b1) * gb
                vw = b2 * vw + (1 - b2) * gw**2
                vb = b2 * vb + (1 - b2) * gb**2
                adam[li] = (mw, mb, vw, vb)
                c1 = 1 - b1**step
                c2 = 1 - b2**step
                weights[li] = (
                    w - cfg.learning_rate * (mw / c1) / (np.sqrt(vw / c2) + eps),
                    b - cfg.learning_rate * (mb / c1) / (np.sqrt(vb / c2) + eps),
                )
    return weights


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize(
    "hidden, frozen_dense", [((7, 6), 0), ((7, 6), 1), ((7, 6, 5), 2)], ids=["0", "1", "2"]
)
@pytest.mark.parametrize("loss", ["hard", "soft"], ids=["adam-hard", "adam-soft"])
def test_train_bit_identical_to_per_layer_loop(loss, hidden, frozen_dense, activation):
    rng = np.random.default_rng(21)
    n, dims, classes = 45, 5, 3
    x = rng.uniform(-1, 1, size=(n, dims))
    if loss == "hard":
        targets = rng.integers(0, classes, size=n)
    else:
        targets = rng.dirichlet(np.ones(classes), size=n)
    spec = ModelSpec((dims, *hidden, classes), activation)
    model = init_model(spec, 4)
    before = [(w.copy(), b.copy()) for w, b in model.weights]
    cfg = TrainConfig(epochs=3, batch_size=8, temperature=2.0 if loss == "soft" else 1.0, seed=9)
    assert n % cfg.batch_size != 0
    trained = train(model, x, targets, cfg, frozen_dense=frozen_dense)
    expected = _reference_train(model, x, targets, cfg, frozen_dense=frozen_dense)
    for (w, b), (ew, eb) in zip(trained.weights, expected):
        assert np.array_equal(w, ew) and np.array_equal(b, eb)
    for (w, b), (w0, b0) in zip(model.weights, before):
        assert np.array_equal(w, w0) and np.array_equal(b, b0)


# each frozen dataclass that holds arrays, built anew on each call
ARRAY_HOLDERS = {
    "Model": lambda: init_model(ModelSpec((3, 4, 2)), 0),
    "Dataset": lambda: generate(GenSpec(classes=2, dims=2, samples_per_class=3), 0),
    "KeySet": lambda: KeySet(np.zeros((2, 3)), np.array([0, 1]), {"dataset": "d"}),
    "EvaluationReport": lambda: EvaluationReport(
        (1.0,), (0.0,), roc_auc((1.0,), (0.0,)), "0" * 12, (((1.0,), (0.0,)),),
        ((np.zeros((1, 2)), np.zeros((1, 2))),)),
}


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_compare_and_hash_by_identity(name):
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
