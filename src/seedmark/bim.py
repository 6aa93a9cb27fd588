"""Basic iterative signed-gradient perturbation (targeted or untargeted).

Targeted mode descends the cross-entropy toward the target class; untargeted
mode ascends the true-label loss. Every iterate is projected back into the
L-inf ball around the starting point and into the feature range.
"""

from dataclasses import dataclass

import numpy as np

from .datasets import FEATURE_RANGE
from .errors import InputError, SpecError, check_field_types
from .nnet import Model, input_gradient


@dataclass(frozen=True)
class BimConfig:
    iterations: int = 20
    epsilon: float = 0.3
    step_size: float = None  # defaults to epsilon / iterations
    clip_range: tuple = FEATURE_RANGE
    mode: str = "targeted"  # targeted | untargeted

    def __post_init__(self):
        check_field_types(self, SpecError, ints=("iterations",), lists=("clip_range",))
        if (len(self.clip_range) != 2
                or any(not isinstance(v, (int, float)) or isinstance(v, bool)
                       for v in self.clip_range)
                or not self.clip_range[0] < self.clip_range[1]):
            raise SpecError(f"clip_range must be a numeric (lo, hi) pair with lo < hi, "
                            f"got {self.clip_range!r}")
        if self.iterations < 1:
            raise SpecError("iterations must be positive")
        if self.epsilon < 0:
            raise SpecError("epsilon must be non-negative")
        if self.step_size is None:
            object.__setattr__(self, "step_size", self.epsilon / self.iterations)
        if self.step_size < 0 or self.step_size > self.epsilon:
            raise SpecError("step_size must satisfy 0 <= step <= epsilon")
        if self.mode not in ("targeted", "untargeted"):
            raise SpecError(f"unknown mode {self.mode!r}")


def bim(model: Model, x0, label, cfg: BimConfig) -> np.ndarray:
    """Perturb one input; `label` is the target class (targeted) or true class."""
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 1 or x0.shape[0] != model.spec.input_dim:
        raise InputError(
            f"expected a {model.spec.input_dim}-dim input, got shape {x0.shape}"
        )
    return bim_batch(model, x0[None], [label], cfg)[0]


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
    if inputs.ndim != 2 or inputs.shape[1] != model.spec.input_dim:
        raise InputError(
            f"expected inputs of dim {model.spec.input_dim}, got shape {inputs.shape}"
        )
    if cfg.epsilon == 0.0:
        return inputs.copy()
    sign = -1.0 if cfg.mode == "targeted" else 1.0
    lo, hi = cfg.clip_range
    x = inputs.copy()
    for _ in range(cfg.iterations):
        g = input_gradient(model, x, labels)
        x = x + sign * cfg.step_size * np.sign(g)
        x = np.clip(x, inputs - cfg.epsilon, inputs + cfg.epsilon)
        x = np.clip(x, lo, hi)
    return x
