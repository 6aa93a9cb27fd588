import numpy as np
import pytest

from seedmark.bim import BimConfig
from seedmark.boundary import SubsetReport, run_analysis, subset_masks, write_analysis_table
from seedmark.errors import InputError
from seedmark.harness import EvaluationConfig, build_attacked_model
from seedmark.nnet import TrainConfig, family_spec, forward, init_model, predict, train


def disagreements(labels):
    """The disagreement mask of a label table whose truth and partners are unused."""
    labels = np.asarray(labels)
    return subset_masks(labels, labels, labels[0])[0]


class TestSubsets:
    def test_all_agree_excluded(self):
        labels = np.array([[1, 2], [1, 2], [1, 2]])
        assert not disagreements(labels).any()

    def test_any_disagreement_included(self):
        labels = np.array([[1, 0], [2, 0], [1, 0]])
        assert list(disagreements(labels)) == [True, False]

    def test_brute_force_recount(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 3, size=(5, 40))
        expected = [i for i in range(40) if len(set(preds[:, i])) > 1]
        assert list(np.flatnonzero(disagreements(preds))) == expected

    def test_unique_definition(self):
        # truth 2; model 0 misclassifies, others correct
        labels = np.array([[1], [2], [2]])
        _, unique, _ = subset_masks(labels, labels, np.array([2]))
        assert unique.tolist() == [[True], [False], [False]]

    def test_two_wrong_excluded(self):
        labels = np.array([[1], [1], [2]])
        _, unique, _ = subset_masks(labels, labels, np.array([2]))
        assert not unique.any()

    def test_unique_subset_of_disagreements(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, size=(6, 60))
        truth = rng.integers(0, 3, size=60)
        dis, unique, _ = subset_masks(labels, labels, truth)
        assert unique.any()
        assert not (unique & ~dis).any()
        # a unique row is one the model alone misclassifies, recounted per model
        for mi in range(6):
            others_right = (np.delete(labels, mi, axis=0) == truth).all(axis=0)
            assert unique[mi].tolist() == ((labels[mi] != truth) & others_right).tolist()

    @pytest.mark.parametrize("labels, message", [
        ([[1, 2]], "need at least two models"),
        ([1, 2], "label table shape mismatch"),
        ([[[1, 2]], [[1, 2]]], "label table shape mismatch"),
    ], ids=["one-model", "1-d", "3-d"])
    def test_bad_label_table_rejected(self, labels, message):
        with pytest.raises(InputError, match=message):
            subset_masks(np.array(labels), np.array(labels), np.array([1, 2]))

    @pytest.mark.parametrize("truth", [[1, 2, 0], [[1, 2]], 1], ids=["too-long", "2-d", "0-d"])
    def test_truth_of_another_shape_rejected(self, truth):
        labels = np.array([[1, 2], [1, 2]])
        with pytest.raises(InputError, match="label table shape mismatch"):
            subset_masks(labels, labels, np.array(truth))

    def test_transferable_rules(self):
        # every model alone misclassifies one row, and only model 0's
        # partner repeats that label: a partner that errs otherwise, or is
        # right, does not transfer
        truth = np.array([2, 2, 2])
        labels = np.array([[1, 2, 2], [2, 1, 2], [2, 2, 1]])
        partners = np.array([[1, 2, 2], [2, 3, 2], [2, 2, 2]])
        _, unique, transferable = subset_masks(labels, partners, truth)
        assert unique.tolist() == np.eye(3, dtype=bool).tolist()
        assert transferable.tolist() == [[True, False, False], [False] * 3, [False] * 3]

    @pytest.mark.parametrize("protected, extracted, truth", [
        ([[1, 1], [1, 1]], [[1, 1, 1], [1, 1, 1]], [2, 2, 2]),
        ([[1, 1, 1], [1, 1, 1]], [[1, 1], [1, 1]], [2, 2, 2]),
        ([[1, 1, 1], [1, 1, 1]], [[1, 1, 1], [1, 1, 1]], [2, 2]),
        ([[1, 1, 1], [1, 1, 1]], [[[1, 1, 1]], [[1, 1, 1]]], [2, 2, 2]),
        ([[1, 1, 1], [1, 1, 1]], [[1, 1, 1]], [2, 2, 2]),
    ], ids=["short-protected", "short-extracted", "short-truth", "2-d", "fewer-partners"])
    def test_transferable_label_vectors_must_be_one_length(self, protected, extracted, truth):
        # each model's labels, its partner's and the truth are one length, and
        # the partner table has one row per model
        with pytest.raises(InputError, match="label table shape mismatch"):
            subset_masks(np.array(protected), np.array(extracted), np.array(truth))


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
