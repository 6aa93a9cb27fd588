import numpy as np
import pytest

from seedmark.datasets import GenSpec, generate, split
from seedmark.nnet import ModelSpec, TrainConfig, family_spec, init_model, predict, train


@pytest.fixture(scope="session")
def blob_data():
    """Default-scale dataset split, shared read-only across tests."""
    dataset = generate(GenSpec(), seed=7)
    return split(dataset, 0.5, seed=11)


@pytest.fixture(scope="session")
def trained_model(blob_data):
    train_set, _ = blob_data
    spec = family_spec("A", train_set.dims, train_set.class_count)
    model = init_model(spec, 42)
    return train(model, train_set.features, train_set.labels, TrainConfig(seed=1))


def accuracy(model, features, labels) -> float:
    return float(np.mean(predict(model, features) == np.asarray(labels)))


def flat_params(layers):
    """Per-layer (W, b) pairs as one parameter vector laid out W0, b0, W1, b1, ..."""
    return np.concatenate([np.ravel(a) for wb in layers for a in wb], dtype=np.float64)


def random_small_model(rng, in_dim=None, classes=None):
    """A tiny randomly-shaped model with random (non-init-scheme) weights."""
    in_dim = in_dim or int(rng.integers(2, 6))
    classes = classes or int(rng.integers(2, 5))
    hidden = [int(rng.integers(3, 7)) for _ in range(int(rng.integers(1, 3)))]
    activation = ["relu", "tanh"][int(rng.integers(0, 2))]
    spec = ModelSpec((in_dim, *hidden, classes), activation)
    model = init_model(spec, int(rng.integers(0, 2**32)))
    # perturb weights so biases are nonzero too
    params = flat_params(
        (w + 0.3 * rng.standard_normal(w.shape), b + 0.3 * rng.standard_normal(b.shape))
        for w, b in model.weights
    )
    return type(model)(spec, params, model.provenance)


# valid params, by count, that WQ cannot quantize at 8 bits: a range that overflows in
# dense layer 0, or one subnormal in the last bias, whose level step underflows to 0
# or to a subnormal
UNQUANTIZABLE = {
    "range-overflows": lambda n: np.finfo(np.float64).max * (-1.0) ** np.arange(n),
    "step-underflows": lambda n: np.r_[np.zeros(n - 1), np.finfo(np.float64).smallest_subnormal],
    "step-subnormal": lambda n: np.r_[np.zeros(n - 1), 1e-320],
}
