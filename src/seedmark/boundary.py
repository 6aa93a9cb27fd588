"""Population decision-boundary analysis.

Given a population of independently seeded models (plus one extracted
partner per model) evaluated on a common input set, computes the nested
subsets that make seed-induced behavior visible: disagreements, per-model
unique disagreements, and disagreements that transfer to the extracted
partner. Also measures how iterative adversarial strengthening of those
subsets changes their size and confidence.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .bim import BimConfig, bim_batch
from .errors import InputError
from .nnet import forward, predict

STRATEGIES = ("none", "unique", "disagreements", "entire_set")


@dataclass(frozen=True, eq=False)  # arrays have no single == truth value
class PopulationPredictions:
    preds: np.ndarray  # (M, N) int labels, one row per model
    confs: np.ndarray  # (M, N, K) confidence vectors
    truth: np.ndarray  # (N,) ground-truth labels

    def __post_init__(self):
        if self.preds.ndim != 2 or self.preds.shape[1] != len(self.truth):
            raise InputError("prediction table shape mismatch")
        if self.confs.shape[:2] != self.preds.shape:
            raise InputError("confidence table shape mismatch")

    @property
    def model_count(self):
        return self.preds.shape[0]


def predictions_for(models, features, truth) -> PopulationPredictions:
    confs = np.stack([forward(m, features) for m in models])
    return PopulationPredictions(np.argmax(confs, axis=2), confs, np.asarray(truth))


@dataclass(frozen=True)
class SubsetReport:
    strategy: str
    disagreement_share: float
    unique_share: float
    transferable_share: float
    mean_transferable_confidence: float


def find_disagreements(pop: PopulationPredictions) -> np.ndarray:
    """Indices where not all models predict the same class."""
    if pop.model_count < 2:
        raise InputError("need at least two models")
    return np.flatnonzero((pop.preds != pop.preds[0]).any(axis=0))


def find_unique_disagreements(pop: PopulationPredictions, model_index: int) -> np.ndarray:
    """Indices this model misclassifies while every other model is correct."""
    mine_wrong = pop.preds[model_index] != pop.truth
    others = np.delete(pop.preds, model_index, axis=0)
    others_right = (others == pop.truth).all(axis=0)
    return np.flatnonzero(mine_wrong & others_right)


def find_transferable(unique_set, protected_preds, extracted_preds, truth) -> np.ndarray:
    """Subset of unique_set where the extracted partner repeats the misclassification."""
    unique_set = np.asarray(unique_set, dtype=int)
    protected_preds = np.asarray(protected_preds)
    extracted_preds = np.asarray(extracted_preds)
    truth = np.asarray(truth)
    keep = (
        (extracted_preds[unique_set] == protected_preds[unique_set])
        & (protected_preds[unique_set] != truth[unique_set])
    )
    return unique_set[keep]


def _strategy_subset(pop, model_index, strategy):
    n = len(pop.truth)
    if strategy == "none":
        return np.array([], dtype=int)
    if strategy == "unique":
        return find_unique_disagreements(pop, model_index)
    if strategy == "disagreements":
        return find_disagreements(pop)
    return np.arange(n)


def run_strategy_analysis(protected_models, extracted_models, eval_set, strategy, bim_cfg=None) -> SubsetReport:
    """Per-model perturb-and-recount analysis, averaged over the population.

    For each protected model the strategy subset (computed on the clean set)
    is perturbed toward that model's own predictions; subsets are then
    recounted on the perturbed set. Shares are means over models; the
    confidence of a transferable point is the model's probability for its
    own (wrong) predicted class there.
    """
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}")
    if len(protected_models) == 0 or len(protected_models) != len(extracted_models):
        raise InputError("need equal non-empty protected/extracted populations")
    bim_cfg = bim_cfg or BimConfig()
    features = np.asarray(eval_set.features, dtype=np.float64)
    truth = np.asarray(eval_set.labels)
    n = len(truth)
    clean = predictions_for(protected_models, features, truth)

    dis_shares, uniq_shares, trans_shares, trans_confs = [], [], [], []
    for mi, (protected, extracted) in enumerate(zip(protected_models, extracted_models)):
        subset = _strategy_subset(clean, mi, strategy)
        perturbed = features
        if len(subset):
            targets = clean.preds[mi, subset]
            perturbed = features.copy()
            perturbed[subset] = bim_batch(protected, features[subset], targets, bim_cfg)
        pop = predictions_for(protected_models, perturbed, truth)
        dis_shares.append(len(find_disagreements(pop)) / n)
        uniq = find_unique_disagreements(pop, mi)
        uniq_shares.append(len(uniq) / n)
        extracted_preds = predict(extracted, perturbed)
        trans = find_transferable(uniq, pop.preds[mi], extracted_preds, truth)
        trans_shares.append(len(trans) / n)
        if len(trans):
            trans_confs.extend(pop.confs[mi, trans, pop.preds[mi, trans]])
    return SubsetReport(
        strategy,
        float(np.mean(dis_shares)),
        float(np.mean(uniq_shares)),
        float(np.mean(trans_shares)),
        float(np.mean(trans_confs)) if trans_confs else 0.0,
    )


def write_strategy_table(reports, path):
    """CSV table: one row per strategy with subset shares and confidence."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["strategy", "disagreements", "unique", "transferable", "confidence"]
        )
        for r in reports:
            writer.writerow(
                [
                    r.strategy,
                    repr(r.disagreement_share),
                    repr(r.unique_share),
                    repr(r.transferable_share),
                    repr(r.mean_transferable_confidence),
                ]
            )
