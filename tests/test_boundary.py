import numpy as np
import pytest

from seedmark.bim import BimConfig
from seedmark.boundary import (
    PopulationPredictions,
    find_disagreements,
    find_transferable,
    find_unique_disagreements,
    run_strategy_analysis,
    write_strategy_table,
)
from seedmark.errors import InputError
from seedmark.harness import EvaluationConfig, build_attacked_model
from seedmark.nnet import TrainConfig, family_spec, init_model, train


def table(preds, truth, classes=4):
    preds = np.array(preds)
    m, n = preds.shape
    confs = np.zeros((m, n, classes))
    confs[np.arange(m)[:, None], np.arange(n)[None, :], preds] = 1.0
    return PopulationPredictions(preds, confs, np.array(truth))


class TestSubsets:
    def test_all_agree_excluded(self):
        pop = table([[1, 2], [1, 2], [1, 2]], [1, 2])
        assert len(find_disagreements(pop)) == 0

    def test_any_disagreement_included(self):
        pop = table([[1, 0], [2, 0], [1, 0]], [1, 0])
        assert list(find_disagreements(pop)) == [0]

    def test_brute_force_recount(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 3, size=(5, 40))
        truth = rng.integers(0, 3, size=40)
        pop = table(preds, truth, classes=3)
        expected = [i for i in range(40) if len(set(preds[:, i])) > 1]
        assert list(find_disagreements(pop)) == expected

    def test_unique_definition(self):
        # truth 2; model 0 misclassifies, others correct
        pop = table([[1], [2], [2]], [2])
        assert list(find_unique_disagreements(pop, 0)) == [0]
        assert list(find_unique_disagreements(pop, 1)) == []

    def test_two_wrong_excluded(self):
        pop = table([[1], [1], [2]], [2])
        for mi in range(3):
            assert list(find_unique_disagreements(pop, mi)) == []

    def test_unique_subset_of_disagreements(self):
        rng = np.random.default_rng(1)
        preds = rng.integers(0, 3, size=(6, 60))
        truth = rng.integers(0, 3, size=60)
        pop = table(preds, truth, classes=3)
        dis = set(find_disagreements(pop))
        for mi in range(6):
            assert set(find_unique_disagreements(pop, mi)) <= dis

    def test_transferable_rules(self):
        truth = np.array([2, 2, 2])
        protected = np.array([1, 1, 1])
        extracted = np.array([1, 3, 2])
        unique = np.array([0, 1, 2])
        assert list(find_transferable(unique, protected, extracted, truth)) == [0]


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


class TestStrategyAnalysis:
    def test_all_agree_population_zero_shares(self, blob_data):
        train_set, test_set = blob_data
        spec = family_spec("A", train_set.dims, train_set.class_count)
        m = train(init_model(spec, 1), train_set.features, train_set.labels, TrainConfig(seed=1))
        report = run_strategy_analysis([m, m], [m, m], test_set, "none")
        assert report.disagreement_share == 0.0
        assert report.unique_share == 0.0
        assert report.transferable_share == 0.0

    def test_set_relations_and_shares(self, small_population):
        protected, extracted, test_set = small_population
        report = run_strategy_analysis(protected, extracted, test_set, "none")
        assert 0 < report.disagreement_share <= 1
        assert report.unique_share <= report.disagreement_share
        assert report.transferable_share <= report.unique_share

    def test_bim_strategy_raises_confidence(self, small_population):
        protected, extracted, test_set = small_population
        base = run_strategy_analysis(protected, extracted, test_set, "none")
        # a gentle budget strengthens a model's own misclassifications without
        # dragging every other model's prediction along with it
        strengthened = run_strategy_analysis(protected, extracted, test_set,
                                             "disagreements", BimConfig(epsilon=0.05))
        assert strengthened.mean_transferable_confidence >= base.mean_transferable_confidence

    def test_unknown_strategy(self, small_population):
        protected, extracted, test_set = small_population
        with pytest.raises(InputError):
            run_strategy_analysis(protected, extracted, test_set, "everything")

    def test_table_csv(self, small_population, tmp_path):
        protected, extracted, test_set = small_population
        reports = [run_strategy_analysis(protected, extracted, test_set, s,
                                         BimConfig(iterations=3))
                   for s in ("none", "unique")]
        path = tmp_path / "table.csv"
        write_strategy_table(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "strategy,disagreements,unique,transferable,confidence"
        assert len(lines) == 3
        assert float(lines[1].split(",")[1]) == reports[0].disagreement_share
