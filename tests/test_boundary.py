import re

import numpy as np
import pytest

from seedmark import boundary
from seedmark.bim import BimConfig, bim_batch
from seedmark.boundary import (
    STRATEGIES,
    SubsetReport,
    find_disagreements,
    find_transferable,
    find_unique_disagreements,
    run_strategy_analysis,
    write_strategy_table,
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


def reference_analysis(protected_models, extracted_models, eval_set, strategy, bim_cfg):
    """The analysis as first written: for each model, the whole population's
    (models, rows, classes) confidence table on its perturbed set, with the
    subset rules restated on its argmax."""
    features = np.asarray(eval_set.features, dtype=np.float64)
    truth = np.asarray(eval_set.labels)
    n = len(truth)

    def confidences(x):
        return np.stack([forward(m, x) for m in protected_models])

    def disagreements(preds):
        return np.flatnonzero((preds != preds[0]).any(axis=0))

    def unique(preds, mi):
        others_right = (np.delete(preds, mi, axis=0) == truth).all(axis=0)
        return np.flatnonzero((preds[mi] != truth) & others_right)

    clean = np.argmax(confidences(features), axis=2)
    dis_shares, uniq_shares, trans_shares, trans_confs = [], [], [], []
    for mi, (protected, extracted) in enumerate(zip(protected_models, extracted_models)):
        subset = {"none": np.array([], dtype=int), "unique": unique(clean, mi),
                  "disagreements": disagreements(clean), "entire_set": np.arange(n)}[strategy]
        perturbed = features
        if len(subset):
            perturbed = features.copy()
            perturbed[subset] = bim_batch(protected, features[subset], clean[mi, subset], bim_cfg)
        confs = confidences(perturbed)
        preds = np.argmax(confs, axis=2)
        dis_shares.append(len(disagreements(preds)) / n)
        uniq = unique(preds, mi)
        uniq_shares.append(len(uniq) / n)
        ext = predict(extracted, perturbed)
        trans = uniq[(ext[uniq] == preds[mi, uniq]) & (preds[mi, uniq] != truth[uniq])]
        trans_shares.append(len(trans) / n)
        trans_confs.extend(confs[mi, trans, preds[mi, trans]])
    return SubsetReport(strategy, float(np.mean(dis_shares)), float(np.mean(uniq_shares)),
                        float(np.mean(trans_shares)),
                        float(np.mean(trans_confs)) if trans_confs else 0.0)


def by_strategy(reports):
    assert [r.strategy for r in reports] == list(STRATEGIES)
    return {r.strategy: r for r in reports}


@pytest.fixture(scope="module")
def analysis(small_population):
    """The one-call analysis of `small_population` under a BIM config, by strategy."""
    runs = {}

    def reports(bim_cfg):
        if bim_cfg not in runs:
            runs[bim_cfg] = by_strategy(run_strategy_analysis(*small_population, bim_cfg))
        return runs[bim_cfg]
    return reports


@pytest.mark.parametrize("bim_cfg", [BimConfig(), BimConfig(epsilon=0.05)],
                         ids=["default-bim", "epsilon-0.05"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_analysis_bit_identical_to_the_confidence_table(small_population, analysis, strategy,
                                                        bim_cfg):
    report = analysis(bim_cfg)[strategy]
    expected = reference_analysis(*small_population, strategy, bim_cfg)
    assert report.strategy == expected.strategy
    for name in ("disagreement_share", "unique_share", "transferable_share",
                 "mean_transferable_confidence"):
        assert getattr(report, name).hex() == getattr(expected, name).hex(), name


def test_analysis_strengthens_every_row_once_per_model(small_population, monkeypatch):
    protected, extracted, test_set = small_population
    calls = []

    def recording_bim_batch(model, inputs, labels, cfg):
        calls.append((model, np.array(inputs), np.array(labels)))
        return bim_batch(model, inputs, labels, cfg)

    monkeypatch.setattr(boundary, "bim_batch", recording_bim_batch)
    run_strategy_analysis(protected, extracted, test_set, BimConfig(iterations=2))
    assert [model for model, _, _ in calls] == protected
    for model, inputs, labels in calls:
        assert np.array_equal(inputs, test_set.features)
        assert np.array_equal(labels, predict(model, test_set.features))


class TestStrategyAnalysis:
    def test_all_agree_population_zero_shares(self, blob_data):
        train_set, test_set = blob_data
        spec = family_spec("A", train_set.dims, train_set.class_count)
        m = train(init_model(spec, 1), train_set.features, train_set.labels, TrainConfig(seed=1))
        for report in run_strategy_analysis([m, m], [m, m], test_set, BimConfig(iterations=3)):
            assert report.disagreement_share == 0.0
            assert report.unique_share == 0.0
            assert report.transferable_share == 0.0

    def test_set_relations_and_shares(self, small_population):
        protected, extracted, test_set = small_population
        reports = by_strategy(run_strategy_analysis(protected, extracted, test_set))
        assert 0 < reports["none"].disagreement_share <= 1
        for report in reports.values():
            assert report.unique_share <= report.disagreement_share
            assert report.transferable_share <= report.unique_share

    def test_bim_strategy_raises_confidence(self, small_population):
        protected, extracted, test_set = small_population
        # a gentle budget strengthens a model's own misclassifications without
        # dragging every other model's prediction along with it
        reports = by_strategy(run_strategy_analysis(protected, extracted, test_set,
                                                    BimConfig(epsilon=0.05)))
        assert (reports["disagreements"].mean_transferable_confidence
                >= reports["none"].mean_transferable_confidence)

    def test_table_csv(self, small_population, tmp_path):
        protected, extracted, test_set = small_population
        reports = run_strategy_analysis(protected, extracted, test_set, BimConfig(iterations=3))
        path = tmp_path / "table.csv"
        write_strategy_table(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "strategy,disagreements,unique,transferable,confidence"
        assert [line.split(",")[0] for line in lines[1:]] == list(STRATEGIES)
        assert float(lines[1].split(",")[1]) == reports[0].disagreement_share
