import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedmark.bim import BimConfig, bim, bim_batch
from seedmark.datasets import FEATURE_RANGE
from seedmark.errors import InputError, SpecError
from seedmark.nnet import forward, input_gradient, predict

from conftest import random_small_model


def test_config_defaults():
    cfg = BimConfig()
    assert cfg.iterations == 20
    assert cfg.step_size == cfg.epsilon / cfg.iterations


def test_config_validation():
    with pytest.raises(SpecError):
        BimConfig(iterations=0)
    with pytest.raises(SpecError):
        BimConfig(epsilon=-0.1)


def test_zero_budget_identity():
    rng = np.random.default_rng(0)
    m = random_small_model(rng)
    x = rng.uniform(-1, 1, size=m.spec.input_dim)
    out = bim(m, x, 0, BimConfig(epsilon=0.0))
    assert np.array_equal(out, x)


@given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.5), st.integers(1, 15))
@settings(max_examples=25, deadline=None)
def test_linf_ball_and_clip_containment(seed, eps, iters):
    rng = np.random.default_rng(seed)
    m = random_small_model(rng)
    x = rng.uniform(-1, 1, size=m.spec.input_dim)
    cfg = BimConfig(iterations=iters, epsilon=eps)
    out = bim(m, x, 0, cfg)
    assert np.abs(out - x).max() <= eps + 1e-12
    assert out.min() >= -1.0 and out.max() <= 1.0


def test_targeted_raises_target_confidence(trained_model, blob_data):
    _, test_set = blob_data
    preds = predict(trained_model, test_set.features)
    wrong = np.flatnonzero(preds != test_set.labels)[:20]
    targets = preds[wrong]
    cfg = BimConfig()
    before = forward(trained_model, test_set.features[wrong])[np.arange(len(wrong)), targets]
    adv = bim_batch(trained_model, test_set.features[wrong], targets, cfg)
    after = forward(trained_model, adv)[np.arange(len(wrong)), targets]
    assert after.mean() > before.mean()


def test_confidence_nondecreasing_in_iterations(trained_model, blob_data):
    _, test_set = blob_data
    preds = predict(trained_model, test_set.features)
    wrong = np.flatnonzero(preds != test_set.labels)[:15]
    targets = preds[wrong]
    means = {}
    for k in (0, 5, 10, 20):
        if k == 0:
            adv = test_set.features[wrong]
        else:
            # keep the paper-default total budget; step shrinks with more iterations
            adv = bim_batch(trained_model, test_set.features[wrong], targets,
                            BimConfig(iterations=k))
        conf = forward(trained_model, adv)[np.arange(len(wrong)), targets]
        means[k] = conf.mean()
    assert means[20] >= means[0]


def test_batch_of_one_matches_single(trained_model, blob_data):
    _, test_set = blob_data
    x = test_set.features[3]
    cfg = BimConfig(iterations=5)
    single = bim(trained_model, x, 2, cfg)
    batch = bim_batch(trained_model, x[None], [2], cfg)
    assert np.array_equal(batch[0], single)


def test_empty_batch(trained_model):
    cfg = BimConfig()
    out = bim_batch(trained_model, np.empty((0, trained_model.spec.input_dim)), [], cfg)
    assert out.shape == (0, trained_model.spec.input_dim)


def test_batch_elementwise_equals_singles(trained_model, blob_data):
    _, test_set = blob_data
    x = test_set.features[:6]
    labels = test_set.labels[:6]
    cfg = BimConfig(iterations=4)
    batch = bim_batch(trained_model, x, labels, cfg)
    for i in range(6):
        assert np.array_equal(batch[i], bim(trained_model, x[i], labels[i], cfg))


def test_determinism(trained_model, blob_data):
    _, test_set = blob_data
    cfg = BimConfig()
    a = bim(trained_model, test_set.features[0], 1, cfg)
    b = bim(trained_model, test_set.features[0], 1, cfg)
    assert np.array_equal(a, b)


def test_dimension_mismatch(trained_model):
    dim = trained_model.spec.input_dim
    with pytest.raises(InputError):
        bim(trained_model, np.zeros(3), 0, BimConfig())
    with pytest.raises(InputError):
        bim(trained_model, np.zeros((1, dim)), 0, BimConfig())
    with pytest.raises(InputError):
        bim_batch(trained_model, np.zeros((2, dim)), [0], BimConfig())
    with pytest.raises(InputError):
        bim_batch(trained_model, np.zeros((2, dim + 1)), [0, 1], BimConfig())
    with pytest.raises(InputError):
        bim_batch(trained_model, np.zeros((2, 1, dim)), [0, 1], BimConfig())


def _reference_bim(model, x0, label, cfg):
    """One row at a time, one input gradient per iteration: the oracle for bim."""
    x = x0.copy()
    for _ in range(cfg.iterations):
        x = x - cfg.step_size * np.sign(input_gradient(model, x, int(label)))
        x = np.clip(x, x0 - cfg.epsilon, x0 + cfg.epsilon)
        x = np.clip(x, *FEATURE_RANGE)
    return x


def test_default_config_batch_equals_singles_on_all_misclassified(trained_model, blob_data):
    _, test_set = blob_data
    preds = predict(trained_model, test_set.features)
    wrong = np.flatnonzero(preds != test_set.labels)
    assert len(wrong) > 1
    cfg = BimConfig()
    batch = bim_batch(trained_model, test_set.features[wrong], preds[wrong], cfg)
    for row, i in zip(batch, wrong):
        x, target = test_set.features[i], preds[i]
        assert np.array_equal(row, bim(trained_model, x, target, cfg))
        assert np.array_equal(row, _reference_bim(trained_model, x, target, cfg))
