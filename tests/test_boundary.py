import re

import numpy as np
import pytest

from seedmark.bim import BimConfig
from seedmark.boundary import (
    SubsetReport,
    find_disagreements,
    find_transferable,
    find_unique_disagreements,
    run_analysis,
    write_analysis_table,
)
from seedmark.errors import InputError
from seedmark.harness import EvaluationConfig, build_attacked_model
from seedmark.nnet import TrainConfig, family_spec, forward, init_model, predict, train


class TestSubsets:
    def test_all_agree_excluded(self):
        labels = np.array([[1, 2], [1, 2], [1, 2]])
        assert len(find_disagreements(labels)) == 0

    def test_any_disagreement_included(self):
        labels = np.array([[1, 0], [2, 0], [1, 0]])
        assert list(find_disagreements(labels)) == [0]

    def test_brute_force_recount(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 3, size=(5, 40))
        expected = [i for i in range(40) if len(set(preds[:, i])) > 1]
        assert list(find_disagreements(preds)) == expected

    def test_unique_definition(self):
        # truth 2; model 0 misclassifies, others correct
        labels = np.array([[1], [2], [2]])
        assert list(find_unique_disagreements(labels, np.array([2]), 0)) == [0]
        assert list(find_unique_disagreements(labels, np.array([2]), 1)) == []

    def test_two_wrong_excluded(self):
        labels = np.array([[1], [1], [2]])
        for mi in range(3):
            assert list(find_unique_disagreements(labels, np.array([2]), mi)) == []

    def test_unique_subset_of_disagreements(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, size=(6, 60))
        truth = rng.integers(0, 3, size=60)
        dis = set(find_disagreements(labels))
        for mi in range(6):
            assert set(find_unique_disagreements(labels, truth, mi)) <= dis

    @pytest.mark.parametrize("labels, message", [
        ([[1, 2]], "need at least two models"),
        ([1, 2], "label table shape mismatch"),
        ([[[1, 2]], [[1, 2]]], "label table shape mismatch"),
    ], ids=["one-model", "1-d", "3-d"])
    def test_bad_label_table_rejected(self, labels, message):
        with pytest.raises(InputError, match=message):
            find_disagreements(np.array(labels))
        with pytest.raises(InputError, match=message):
            find_unique_disagreements(np.array(labels), np.array([1, 2]), 0)

    @pytest.mark.parametrize("truth", [[1, 2, 0], [[1, 2]], 1], ids=["too-long", "2-d", "0-d"])
    def test_truth_of_another_shape_rejected(self, truth):
        with pytest.raises(InputError, match="label table shape mismatch"):
            find_unique_disagreements(np.array([[1, 2], [1, 2]]), np.array(truth), 0)

    def test_transferable_rules(self):
        truth = np.array([2, 2, 2])
        protected = np.array([1, 1, 1])
        extracted = np.array([1, 3, 2])
        unique = np.array([0, 1, 2])
        assert list(find_transferable(unique, protected, extracted, truth)) == [0]

    @pytest.mark.parametrize("model_index", [2, 5, -1, 1.5, True, "0", None],
                             ids=["models", "past-the-end", "negative", "fraction", "bool",
                                  "string", "none"])
    def test_model_index_must_name_a_model(self, model_index):
        with pytest.raises(InputError, match=r"model_index must be an integer in \[0, 2\), "
                                             f"got {re.escape(repr(model_index))}"):
            find_unique_disagreements(np.array([[1, 2], [2, 2]]), np.array([2, 2]), model_index)

    @pytest.mark.parametrize("unique_set", [[-1], [3], [0, 3]],
                             ids=["negative", "rows", "one-of-two"])
    def test_transferable_rows_must_be_in_range(self, unique_set):
        labels = np.array([1, 1, 1])
        with pytest.raises(InputError, match=r"row index -?\d+ is outside \[0, 3\)"):
            find_transferable(unique_set, labels, labels, np.array([2, 2, 2]))

    @pytest.mark.parametrize("unique_set", [[1.5], [True], [0, 1.0]],
                             ids=["fraction", "bool", "float-list"])
    def test_transferable_rows_must_be_integers(self, unique_set):
        labels = np.array([1, 1, 1])
        with pytest.raises(InputError, match="row indices must be integers"):
            find_transferable(unique_set, labels, labels, np.array([2, 2, 2]))

    @pytest.mark.parametrize("protected, extracted, truth", [
        ([1, 1], [1, 1, 1], [2, 2, 2]),
        ([1, 1, 1], [1, 1], [2, 2, 2]),
        ([1, 1, 1], [1, 1, 1], [2, 2]),
        ([[1, 1, 1]], [[1, 1, 1]], [[2, 2, 2]]),
    ], ids=["short-protected", "short-extracted", "short-truth", "2-d"])
    def test_transferable_label_vectors_must_be_one_length(self, protected, extracted, truth):
        with pytest.raises(InputError, match="label vectors must be 1-d and of one length"):
            find_transferable([0], np.array(protected), np.array(extracted), np.array(truth))


@pytest.fixture(scope="module")
def small_population(blob_data):
    train_set, test_set = blob_data
    spec = family_spec("A", train_set.dims, train_set.class_count)
    protected = [
        train(init_model(spec, 100 + s), train_set.features, train_set.labels,
              TrainConfig(seed=100 + s))
        for s in range(4)
    ]
    extracted = [build_attacked_model(EvaluationConfig(), m, "RET", train_set, 500 + i)
                 for i, m in enumerate(protected)]
    return protected, extracted, test_set


def reference_analysis(protected_models, extracted_models, eval_set):
    """The analysis as first written: the whole population's (models, rows,
    classes) confidence table, with the subset rules restated on its argmax."""
    features = np.asarray(eval_set.features, dtype=np.float64)
    truth = np.asarray(eval_set.labels)
    n = len(truth)
    confs = np.stack([forward(m, features) for m in protected_models])
    preds = np.argmax(confs, axis=2)
    uniq_shares, trans_shares, trans_confs = [], [], []
    for mi, extracted in enumerate(extracted_models):
        others_right = (np.delete(preds, mi, axis=0) == truth).all(axis=0)
        uniq = np.flatnonzero((preds[mi] != truth) & others_right)
        uniq_shares.append(len(uniq) / n)
        ext = predict(extracted, features)
        trans = uniq[(ext[uniq] == preds[mi, uniq]) & (preds[mi, uniq] != truth[uniq])]
        trans_shares.append(len(trans) / n)
        trans_confs.extend(confs[mi, trans, preds[mi, trans]])
    disagreements = np.flatnonzero((preds != preds[0]).any(axis=0))
    return SubsetReport(len(disagreements) / n, float(np.mean(uniq_shares)),
                        float(np.mean(trans_shares)),
                        float(np.mean(trans_confs)) if trans_confs else 0.0)


@pytest.fixture(scope="module")
def analysis(small_population):
    return run_analysis(*small_population)


@pytest.mark.parametrize("bim_cfg", [BimConfig(), BimConfig(epsilon=0.05)],
                         ids=["none-default-bim", "none-epsilon-0.05"])
def test_analysis_bit_identical_to_the_confidence_table(blob_data, small_population, analysis,
                                                        bim_cfg):
    """The one clean ('none') report equals the reference bit for bit, and the
    config's BIM settings, which only key-set generation reads, do not reach
    it: partners extracted under a config carrying `bim_cfg` give the same report."""
    train_set, _ = blob_data
    protected, _, test_set = small_population
    extracted = [build_attacked_model(EvaluationConfig(bim=bim_cfg), m, "RET", train_set, 500 + i)
                 for i, m in enumerate(protected)]
    report = run_analysis(protected, extracted, test_set)
    assert report == analysis
    expected = reference_analysis(protected, extracted, test_set)
    assert report.disagreement_share == expected.disagreement_share
    for name in ("unique_share", "transferable_share", "mean_transferable_confidence"):
        assert getattr(report, name).hex() == getattr(expected, name).hex(), name


class TestStrategyAnalysis:
    def test_all_agree_population_zero_shares(self, blob_data):
        train_set, test_set = blob_data
        spec = family_spec("A", train_set.dims, train_set.class_count)
        m = train(init_model(spec, 1), train_set.features, train_set.labels, TrainConfig(seed=1))
        report = run_analysis([m, m], [m, m], test_set)
        assert report.disagreement_share == 0.0
        assert report.unique_share == 0.0
        assert report.transferable_share == 0.0

    def test_set_relations_and_shares(self, analysis):
        assert 0 < analysis.disagreement_share <= 1
        assert analysis.unique_share <= analysis.disagreement_share
        assert analysis.transferable_share <= analysis.unique_share

    def test_table_csv(self, analysis, tmp_path):
        path = tmp_path / "table.csv"
        write_analysis_table(analysis, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "disagreements,unique,transferable,confidence"
        assert len(lines) == 2
        assert [float(v) for v in lines[1].split(",")] == [
            analysis.disagreement_share, analysis.unique_share, analysis.transferable_share,
            analysis.mean_transferable_confidence]
