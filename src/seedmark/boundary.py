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


def population_labels(models, features) -> np.ndarray:
    """(models, rows) array of each model's predicted labels on `features`."""
    return np.stack([predict(m, features) for m in models])


@dataclass(frozen=True)
class SubsetReport:
    strategy: str
    disagreement_share: float
    unique_share: float
    transferable_share: float
    mean_transferable_confidence: float


def _check_labels(labels, truth=None) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 2 or (truth is not None and np.shape(truth) != labels.shape[1:]):
        raise InputError("label table shape mismatch")
    if len(labels) < 2:
        raise InputError("need at least two models")
    return labels


def find_disagreements(labels) -> np.ndarray:
    """Indices where not all models predict the same class."""
    labels = _check_labels(labels)
    return np.flatnonzero((labels != labels[0]).any(axis=0))


def find_unique_disagreements(labels, truth, model_index: int) -> np.ndarray:
    """Indices this model misclassifies while every other model is correct."""
    labels = _check_labels(labels, truth)
    others_right = (np.delete(labels, model_index, axis=0) == truth).all(axis=0)
    return np.flatnonzero((labels[model_index] != truth) & others_right)


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


def _strategy_subset(labels, truth, model_index, strategy):
    if strategy == "none":
        return np.array([], dtype=int)
    if strategy == "unique":
        return find_unique_disagreements(labels, truth, model_index)
    if strategy == "disagreements":
        return find_disagreements(labels)
    return np.arange(len(truth))


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
    clean = population_labels(protected_models, features)

    dis_shares, uniq_shares, trans_shares, trans_confs = [], [], [], []
    for mi, (protected, extracted) in enumerate(zip(protected_models, extracted_models)):
        subset = _strategy_subset(clean, truth, mi, strategy)
        perturbed, labels = features, clean
        if len(subset):
            perturbed = features.copy()
            perturbed[subset] = bim_batch(protected, features[subset], clean[mi, subset], bim_cfg)
            labels = population_labels(protected_models, perturbed)
        dis_shares.append(len(find_disagreements(labels)) / n)
        uniq = find_unique_disagreements(labels, truth, mi)
        uniq_shares.append(len(uniq) / n)
        trans = find_transferable(uniq, labels[mi], predict(extracted, perturbed), truth)
        trans_shares.append(len(trans) / n)
        if len(trans):
            trans_confs.extend(forward(protected, perturbed)[trans, labels[mi, trans]])
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
