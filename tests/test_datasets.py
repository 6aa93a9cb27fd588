import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedmark.datasets import (
    Dataset,
    GenSpec,
    dump_dataset,
    generate,
    load_dataset,
    parse_dataset,
    random_probe_inputs,
    save_dataset,
    split,
)
from seedmark.errors import FormatError, SpecError


class TestGenerate:
    def test_deterministic(self):
        spec = GenSpec()
        d1, d2 = generate(spec, 3), generate(spec, 3)
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.labels, d2.labels)

    def test_balanced_labels(self):
        data = generate(GenSpec(classes=3, samples_per_class=40), 0)
        assert all(np.sum(data.labels == c) == 40 for c in range(3))

    def test_feature_range(self):
        data = generate(GenSpec(spread=2.0), 1)
        assert data.features.min() >= -1.0 and data.features.max() <= 1.0

    def test_bad_spec(self):
        with pytest.raises(SpecError):
            GenSpec(classes=1)
        with pytest.raises(SpecError):
            GenSpec(spread=0.0)
        with pytest.raises(TypeError, match="kind"):  # one generator, no kind to pick
            GenSpec(kind="gaussian_blobs")


class TestSplit:
    def test_sizes_and_disjoint(self):
        data = generate(GenSpec(samples_per_class=25), 0)  # N = 100
        train, test = split(data, 0.2, 1)
        assert len(train) == 80 and len(test) == 20

    def test_deterministic(self):
        data = generate(GenSpec(), 0)
        (tr1, te1), (tr2, te2) = split(data, 0.3, 9), split(data, 0.3, 9)
        assert np.array_equal(tr1.features, tr2.features)
        assert np.array_equal(te1.labels, te2.labels)

    @given(st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_union_complete(self, fraction, seed):
        data = generate(GenSpec(samples_per_class=30), 4)
        train, test = split(data, fraction, seed)
        combined = np.concatenate([train.features, test.features])
        assert len(combined) == len(data)
        # same multiset of rows
        key = lambda arr: np.lexsort(arr.T)
        assert np.array_equal(combined[key(combined)], data.features[key(data.features)])

    def test_degenerate_fraction(self):
        data = generate(GenSpec(), 0)
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(SpecError):
                split(data, bad, 0)


class TestProbes:
    def test_shape_and_range(self):
        p = random_probe_inputs(5, 2, seed=0)
        assert p.shape == (5, 2)
        assert p.min() >= -1 and p.max() <= 1

    def test_deterministic(self):
        assert np.array_equal(
            random_probe_inputs(10, 3, seed=4), random_probe_inputs(10, 3, seed=4)
        )

    def test_empirical_mean(self):
        p = random_probe_inputs(100_000, 1, seed=1)
        assert abs(p.mean()) < 0.01


class TestDatasetShapes:
    @pytest.mark.parametrize("features, labels, classes, message", [
        (np.zeros(5), np.zeros(5, int), 2, r"features must be a 2-d \(rows, dims\) array, "
                                           r"got shape \(5,\)"),
        (np.zeros((2, 2, 2)), np.zeros(2, int), 2,
         r"features must be a 2-d .* got shape \(2, 2, 2\)"),
        (np.zeros((2, 2)), np.array([0, 0.5]), 2, r"labels must be a 1-d integer vector, "
                                                  r"got float64 of shape \(2,\)"),
        (np.zeros((2, 2)), np.array([0.0, 1.0]), 2, "labels must be a 1-d integer vector"),
        (np.zeros((2, 2)), np.array([True, False]), 2, "labels must be a 1-d integer vector"),
        (np.zeros((2, 2)), np.zeros((2, 1), int), 2, r"labels must be .* of shape \(2, 1\)"),
        (np.zeros((2, 2)), np.zeros(2, int), 2.5, r"class_count must be an integer, got 2.5"),
        (np.zeros((2, 2)), np.zeros(2, int), True, "class_count must be an integer, got True"),
        (np.zeros((2, 2)), np.zeros(2, int), np.int64(2), "class_count must be an integer"),
        (np.zeros((2, 2)), np.zeros(2, int), 1, r"class_count must be in \[2, inf\), got 1$"),
    ], ids=["1-d-features", "3-d-features", "fractional-labels", "float-labels", "bool-labels",
            "2-d-labels", "fractional-classes", "bool-classes", "numpy-classes", "one-class"])
    def test_bad_shape_raises_spec_error(self, features, labels, classes, message):
        with pytest.raises(SpecError, match=f"^{message}"):
            Dataset(features, labels, classes, "x", 0)

    @pytest.mark.parametrize("name, seed, message", [
        (5, 0, "name must be a string, got 5"),
        ("x", 1.5, r"seed must be an integer, got 1.5"),
    ], ids=["name-number", "seed-fraction"])
    def test_field_of_the_wrong_type_raises_spec_error(self, name, seed, message):
        with pytest.raises(SpecError, match=f"^{message}$"):
            Dataset(np.zeros((2, 2)), np.zeros(2, int), 2, name, seed)

    def test_one_class_file_raises_format_error(self):
        doc = _dataset_doc([[0.0, 0.0]], [0])
        doc["classes"] = 1
        with pytest.raises(FormatError,
                           match=r"bad dataset: class_count must be in \[2, inf\), got 1$"):
            parse_dataset(json.dumps(doc))


def _dataset_doc(features, labels, classes=2):
    """A dataset artifact holding `features` and `labels`, as JSON."""
    data = Dataset(np.zeros((len(labels), 2)), np.zeros(len(labels), dtype=int), classes, "x", 0)
    doc = json.loads(dump_dataset(data))
    doc["features"] = np.asarray(features, dtype="<f8").tobytes().hex()
    doc["labels"] = labels
    return doc


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        data = generate(GenSpec(samples_per_class=10), 6)
        path = tmp_path / "d.json"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert loaded.features.tobytes() == data.features.tobytes()
        assert np.array_equal(loaded.labels, data.labels)
        assert loaded.class_count == data.class_count
        assert (loaded.name, loaded.seed) == (data.name, data.seed)

    def test_truncated(self):
        text = dump_dataset(generate(GenSpec(samples_per_class=5), 0))
        with pytest.raises(FormatError):
            parse_dataset(text[: len(text) // 2])

    def test_bad_header(self):
        # the version-1 text format, regenerated rather than read
        with pytest.raises(FormatError):
            parse_dataset("# seedmark-dataset v1 dims=2 classes=2 seed=0 name=x\n0.0,1.0,0\n")
        with pytest.raises(FormatError, match="not a seedmark-dataset artifact"):
            parse_dataset(dump_dataset(generate(GenSpec(), 0)).replace("-dataset", "-keyset"))

    def test_label_class_mismatch(self):
        with pytest.raises(FormatError, match="label out of range"):
            parse_dataset(json.dumps(_dataset_doc([[0.0, 0.0]], [5])))

    @pytest.mark.parametrize("field, value", [
        ("labels", [0, 1.0]), ("labels", [0, "1"]), ("labels", [0, True]), ("labels", []),
        ("name", 5), ("seed", "0"), ("seed", 1.5), ("classes", None),
    ], ids=["float-label", "string-label", "bool-label", "no-rows", "name-number",
            "seed-string", "seed-float", "classes-null"])
    def test_field_of_the_wrong_type_raises_format_error(self, field, value):
        doc = _dataset_doc([[0.0, 1.0], [0.5, 0.0]], [0, 1])
        doc[field] = value
        with pytest.raises(FormatError, match="dataset"):
            parse_dataset(json.dumps(doc))

    def test_bad_label_error_is_short_and_names_its_index(self):
        # the default dataset has 600 labels; the error shows the bad one, not all
        doc = json.loads(dump_dataset(generate(GenSpec(), 0)))
        doc["labels"][417] = 2**63
        with pytest.raises(FormatError) as info:
            parse_dataset(json.dumps(doc))
        message = str(info.value)
        assert len(message) < 200
        assert message.startswith("dataset labels must be ")
        assert message.endswith("got 9223372036854775808 at index 417")

    def test_non_finite_features_raise_format_error(self):
        with pytest.raises(FormatError, match="non-finite"):
            parse_dataset(json.dumps(_dataset_doc([[0.0, np.nan], [0.5, 0.0]], [0, 1])))

    @pytest.mark.parametrize("value", ["1.5", "-1.0000001", "3.0"])
    def test_feature_outside_the_range(self, value):
        features = np.array([[0.0, 1.0], [float(value), 0.0]])
        with pytest.raises(FormatError, match=r"feature range \[-1.0, 1.0\]"):
            parse_dataset(json.dumps(_dataset_doc(features, [0, 1])))
        with pytest.raises(SpecError, match=r"feature range \[-1.0, 1.0\]"):
            Dataset(features, np.array([0, 1]), 2, "x", 0)
