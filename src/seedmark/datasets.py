"""Deterministic synthetic multiclass datasets.

Features always live in FEATURE_RANGE, [-1, 1] per dimension: `Dataset`
rejects any other value, BIM clips to it and random probes are drawn from
it. The one generator draws gaussian blobs around uniformly placed class
means.
"""

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import (INTEGER, STRING, WHOLE_NUMBER, FormatError, InputError, SpecError, check,
                     check_field_types, within)
from .rng import stream
from .serialize import (_LABELS, _check_fields, _decode_array, _encode_array, _read_artifact,
                        _read_text, _write_artifact, _write_text)

FEATURE_RANGE = (-1.0, 1.0)

# Default blob spread: tuned so a family-A model reaches ~0.85-0.92 test
# accuracy on the default scale, leaving enough misclassifications for
# watermark material and a clearly nonzero population disagreement share.
DEFAULT_SPREAD = 0.45


@dataclass(frozen=True)
class GenSpec:
    classes: Annotated[int, "[2, inf)"] = 4
    dims: Annotated[int, "[2, inf)"] = 8
    samples_per_class: Annotated[int, "[1, inf)"] = 250
    spread: Annotated[float, "(0, inf)"] = DEFAULT_SPREAD

    def __post_init__(self):
        check_field_types(self, SpecError)


@dataclass(frozen=True, eq=False)  # arrays have no single == truth value
class Dataset:
    features: np.ndarray  # (N, D) float64 in [-1, 1]
    labels: np.ndarray  # (N,) ints in [0, K)
    class_count: Annotated[int, "[2, inf)"]
    name: str
    seed: int

    def __post_init__(self):
        check_field_types(self, SpecError)
        if np.ndim(self.features) != 2:
            raise SpecError(f"features must be a 2-d (rows, dims) array, got shape "
                            f"{np.shape(self.features)}")
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
            raise SpecError(f"labels must be a 1-d integer vector, got {labels.dtype} "
                            f"of shape {labels.shape}")
        if len(self.features) == 0 or len(self.features) != len(self.labels):
            raise SpecError("features/labels size mismatch or empty dataset")
        if not np.isfinite(self.features).all():
            raise SpecError("non-finite features")
        (lo, hi), low, high = FEATURE_RANGE, self.features.min(), self.features.max()
        if low < lo or high > hi:
            # BIM clips to this range, so a row outside it leaves BIM's epsilon-ball
            raise SpecError(f"features must lie in the feature range [{lo}, {hi}], "
                            f"got values in [{low}, {high}]")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise SpecError("label out of range")

    def __len__(self):
        return len(self.features)

    @property
    def dims(self):
        return self.features.shape[1]


def check_fits(data: Dataset, model, role: str):
    """Raise an InputError unless `data` has `model`'s input and class
    counts; `role` names the model in the message."""
    if (data.dims, data.class_count) != (model.spec.input_dim, model.spec.output_classes):
        raise InputError(
            f"dataset of {data.dims} features and {data.class_count} classes does not fit "
            f"a {role} of {model.spec.input_dim} inputs and {model.spec.output_classes} classes"
        )


def generate(spec: GenSpec, seed: int) -> Dataset:
    rng = stream(seed, "gen/gaussian_blobs")
    k, d, m = spec.classes, spec.dims, spec.samples_per_class
    means = rng.uniform(-0.6, 0.6, size=(k, d))
    features = np.concatenate(
        [means[c] + spec.spread * rng.standard_normal((m, d)) for c in range(k)]
    )
    features = np.clip(features, *FEATURE_RANGE)
    labels = np.repeat(np.arange(k), m)
    return Dataset(features, labels, k, f"gaussian_blobs-k{k}-d{d}", seed)


def split(dataset: Dataset, test_fraction: float, seed: int):
    """Disjoint, union-complete (train, test) split with a seeded shuffle."""
    check("test_fraction", test_fraction, within("(0, 1)"), SpecError)
    n = len(dataset)
    n_test = int(round(n * test_fraction))
    if n_test == 0 or n_test == n:
        raise SpecError("degenerate split: one side would be empty")
    order = stream(seed, "split").permutation(n)
    test_idx, train_idx = order[:n_test], order[n_test:]
    mk = lambda idx, suffix: Dataset(
        dataset.features[idx], dataset.labels[idx], dataset.class_count,
        f"{dataset.name}/{suffix}", seed,
    )
    return mk(train_idx, "train"), mk(test_idx, "test")


def random_probe_inputs(count: int, dims: int, seed: int = 0) -> np.ndarray:
    """`count` uniform draws from the feature range."""
    check("count", count, within("[1, inf)", WHOLE_NUMBER), SpecError)
    return stream(seed, "probes").uniform(*FEATURE_RANGE, size=(count, dims))


DATASET_FORMAT = "seedmark-dataset"


def dump_dataset(dataset: Dataset) -> str:
    return _write_artifact(DATASET_FORMAT, name=dataset.name, seed=dataset.seed,
                           classes=dataset.class_count,
                           labels=[int(v) for v in dataset.labels],
                           features=_encode_array(dataset.features))


def parse_dataset(text: str) -> Dataset:
    doc = _check_fields(_read_artifact(text, DATASET_FORMAT), "dataset",
                        {"name": STRING, "seed": INTEGER, "classes": INTEGER, "labels": _LABELS})
    features = _decode_array(doc.get("features"), (len(doc["labels"]), None))
    try:
        return Dataset(features, np.array(doc["labels"]), doc["classes"], doc["name"], doc["seed"])
    except SpecError as exc:
        raise FormatError(f"bad dataset: {exc}") from exc


def save_dataset(dataset: Dataset, path):
    _write_text(path, dump_dataset(dataset))


def load_dataset(path) -> Dataset:
    return parse_dataset(_read_text(path))
