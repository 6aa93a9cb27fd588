"""Targeted basic iterative method (BIM; Kurakin et al., arXiv 1607.02533).

Each of `iterations` steps moves the input by epsilon / iterations against
the sign of the target class's cross-entropy gradient, then projects it back
into the L-inf ball of radius epsilon around the starting point and into the
feature range.
"""

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .datasets import FEATURE_RANGE
from .errors import InputError, SpecError, check_field_types
from .nnet import Model, input_gradient


@dataclass(frozen=True)
class BimConfig:
    iterations: Annotated[int, "[1, inf)"] = 20
    epsilon: Annotated[float, "[0, inf)"] = 0.3

    def __post_init__(self):
        check_field_types(self, SpecError)

    @property
    def step_size(self) -> float:
        return self.epsilon / self.iterations


def bim(model: Model, x0, label, cfg: BimConfig) -> np.ndarray:
    """Perturb one input toward the target class `label`."""
    return bim_batch(model, [x0], [label], cfg)[0]


def bim_batch(model: Model, inputs, labels, cfg: BimConfig) -> np.ndarray:
    """bim over a batch, all rows at once; output row i equals bim on row i alone.

    Rows never mix: `input_gradient` takes each row's own loss, not a batch
    mean, so every row follows the same iterates it would follow alone."""
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels)
    if len(inputs) != len(labels):
        raise InputError("inputs/labels length mismatch")
    if len(inputs) == 0:
        return inputs.reshape(0, model.spec.input_dim)
    x = inputs.copy()
    for _ in range(cfg.iterations):
        g = input_gradient(model, x, labels)
        x = x - cfg.step_size * np.sign(g)
        x = np.clip(x, inputs - cfg.epsilon, inputs + cfg.epsilon)
        x = np.clip(x, *FEATURE_RANGE)
    return x
