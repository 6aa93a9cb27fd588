import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedmark.datasets import GenSpec, generate
from seedmark.errors import DivergenceError, InputError, SpecError
from seedmark.nnet import (
    Activation,
    Dense,
    Model,
    ModelSpec,
    Provenance,
    TrainConfig,
    accuracy,
    family_spec,
    forward,
    init_model,
    input_gradient,
    loss_and_param_grads,
    mlp_spec,
    predict,
    train,
)
from seedmark.rng import stream

from conftest import random_small_model


def bias_only_model(biases):
    """One dense layer with zero weights: logits == biases for any input."""
    k = len(biases)
    spec = ModelSpec((Dense(2, k),), k)
    weights = ((np.zeros((2, k)), np.array(biases, dtype=float)),)
    return Model(spec, weights, Provenance(0))


class TestSpec:
    def test_chaining_violation(self):
        with pytest.raises(SpecError):
            ModelSpec((Dense(4, 3), Dense(5, 2)), 2)

    def test_output_classes_mismatch(self):
        with pytest.raises(SpecError):
            ModelSpec((Dense(4, 3),), 2)

    def test_requires_dense(self):
        with pytest.raises(SpecError):
            ModelSpec((Activation("relu"),), 2)

    def test_mlp_spec_shape(self):
        spec = mlp_spec(8, (16, 16), 4)
        assert spec.input_dim == 8
        assert spec.dense_count == 3
        assert spec.output_classes == 4

    def test_families_differ(self):
        a = family_spec("A", 8, 4)
        b = family_spec("B", 8, 4)
        c = family_spec("C", 8, 4)
        assert a.dense_count != b.dense_count
        assert a.layers != c.layers  # same shape, different activation


class TestInit:
    def test_deterministic(self):
        spec = mlp_spec(4, (8,), 3)
        m1, m2 = init_model(spec, 42), init_model(spec, 42)
        for (w1, b1), (w2, b2) in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_seeds_differ(self):
        spec = mlp_spec(4, (8,), 3)
        m1, m2 = init_model(spec, 42), init_model(spec, 43)
        assert any(not np.array_equal(w1, w2) for (w1, _), (w2, _) in zip(m1.weights, m2.weights))

    def test_init_bounds(self):
        spec = mlp_spec(10, (20,), 5)
        m = init_model(spec, 0)
        for (w, b), layer in zip(m.weights, [Dense(10, 20), Dense(20, 5)]):
            bound = np.sqrt(6 / (layer.in_dim + layer.out_dim))
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


def finite_difference_param_grads(model, x, targets, loss="hard", temperature=1.0, h=1e-4):
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
                lp, _ = loss_and_param_grads(model, x, targets, loss, temperature)
                arr[idx] = orig - h
                lm, _ = loss_and_param_grads(model, x, targets, loss, temperature)
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
        loss, _ = loss_and_param_grads(m, x, t, loss="soft", temperature=1e6)
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
        _, analytic = loss_and_param_grads(m, x, targets, loss_kind, **kwargs)
        numeric = finite_difference_param_grads(m, x, targets, loss_kind, kwargs.get("temperature", 1.0))
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
        spec = ModelSpec((Dense(d, k),), k)
        w = rng.standard_normal((d, k))
        b = rng.standard_normal(k)
        m = Model(spec, ((w, b),), Provenance(0))
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
        spec = mlp_spec(train_set.dims, (16,), train_set.class_count)
        cfg = TrainConfig(epochs=3, seed=77)
        m1 = train(init_model(spec, 5), train_set.features, train_set.labels, cfg)
        m2 = train(init_model(spec, 5), train_set.features, train_set.labels, cfg)
        for (w1, _), (w2, _) in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    def test_separable_blobs_high_accuracy(self):
        data = generate(GenSpec(classes=2, spread=0.12, samples_per_class=100), seed=5)
        spec = mlp_spec(data.dims, (16,), 2)
        m = train(init_model(spec, 1), data.features, data.labels, TrainConfig(seed=2))
        assert accuracy(m, data.features, data.labels) >= 0.99

    def test_zero_learning_rate_identity(self, blob_data):
        train_set, _ = blob_data
        spec = mlp_spec(train_set.dims, (8,), train_set.class_count)
        m0 = init_model(spec, 3)
        m1 = train(m0, train_set.features, train_set.labels,
                   TrainConfig(epochs=2, learning_rate=0.0, seed=1))
        for (w0, b0), (w1, b1) in zip(m0.weights, m1.weights):
            assert np.array_equal(w0, w1) and np.array_equal(b0, b1)

    def test_divergence_error_names_location(self, blob_data):
        train_set, _ = blob_data
        spec = mlp_spec(train_set.dims, (8,), train_set.class_count)
        with pytest.raises(DivergenceError) as err:
            train(init_model(spec, 3), train_set.features, train_set.labels,
                  TrainConfig(epochs=1, learning_rate=1e200, seed=1))
        assert err.value.epoch == 0 and err.value.batch >= 0

    def test_provenance_updated(self, trained_model):
        assert trained_model.provenance.kind == "trained-fresh"
        assert trained_model.provenance.history[-1]["stage"] == "trained-fresh"


def _reference_forward(model, x):
    """Logits plus each layer's input, written apart from nnet's forward pass."""
    traces, a, wi = [], x, 0
    for layer in model.spec.layers:
        traces.append(a)
        if isinstance(layer, Dense):
            w, b = model.weights[wi]
            a = a @ w + b
            wi += 1
        elif layer.kind == "relu":
            a = np.maximum(a, 0.0)
        else:
            a = np.tanh(a)
    return a, traces


def _reference_backprop(model, traces, delta):
    """Full-depth backprop: every layer's gradients and the input gradient,
    tanh' recomputed from the layer's input, bias gradients by delta.sum."""
    grads = [None] * len(model.weights)
    wi = len(model.weights)
    for layer, a_in in zip(reversed(model.spec.layers), reversed(traces)):
        if isinstance(layer, Dense):
            wi -= 1
            w, _ = model.weights[wi]
            grads[wi] = (a_in.T @ delta, delta.sum(axis=0))
            delta = delta @ w.T
        elif layer.kind == "relu":
            delta = delta * (a_in > 0.0)
        else:
            delta = delta * (1.0 - np.tanh(a_in) ** 2)
    return grads, delta


def _reference_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _reference_loss_and_grads(model, x, targets, loss="hard", temperature=1.0):
    """Mean cross-entropy and param grads: the oracle for `loss_and_param_grads`."""
    t = np.eye(model.spec.output_classes)[targets] if loss == "hard" else targets
    z, traces = _reference_forward(model, x)
    scale = temperature if loss == "soft" else 1.0
    p = _reference_softmax(z / scale)
    n = len(x)
    loss_value = -(t * np.log(np.clip(p, 1e-300, None))).sum() / n
    grads, _ = _reference_backprop(model, traces, (p - t) / (n * scale))
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
    model = init_model(mlp_spec(dims, (7, 6, 5), classes, activation), 4)
    cases = (("hard", labels, 1.0), ("soft", rng.dirichlet(np.ones(classes), size=n), 2.0))
    for loss, targets, temperature in cases:
        loss_value, grads = loss_and_param_grads(model, x, targets, loss, temperature)
        ref_loss, ref_grads = _reference_loss_and_grads(model, x, targets, loss, temperature)
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
            current = Model(model.spec, tuple(weights), model.provenance)
            _, grads = _reference_loss_and_grads(current, x[idx], targets[idx], cfg.loss,
                                                 cfg.temperature)
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
    spec = mlp_spec(dims, hidden, classes, activation)
    model = init_model(spec, 4)
    before = [(w.copy(), b.copy()) for w, b in model.weights]
    cfg = TrainConfig(epochs=3, batch_size=8, loss=loss,
                      temperature=2.0 if loss == "soft" else 1.0, seed=9)
    assert n % cfg.batch_size != 0
    trained = train(model, x, targets, cfg, frozen_dense=frozen_dense)
    expected = _reference_train(model, x, targets, cfg, frozen_dense=frozen_dense)
    for (w, b), (ew, eb) in zip(trained.weights, expected):
        assert np.array_equal(w, ew) and np.array_equal(b, eb)
    for (w, b), (w0, b0) in zip(model.weights, before):
        assert np.array_equal(w, w0) and np.array_equal(b, b0)
