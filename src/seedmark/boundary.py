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
    if isinstance(model_index, bool) or not (
            isinstance(model_index, int) and 0 <= model_index < len(labels)):
        raise InputError(f"model_index must be an integer in [0, {len(labels)}), "
                         f"got {model_index!r}")
    others_right = (np.delete(labels, model_index, axis=0) == truth).all(axis=0)
    return np.flatnonzero((labels[model_index] != truth) & others_right)


def find_transferable(unique_set, protected_preds, extracted_preds, truth) -> np.ndarray:
    """Subset of unique_set where the extracted partner repeats the misclassification."""
    unique_set = np.asarray(unique_set)
    if unique_set.size and unique_set.dtype.kind not in "iu":
        raise InputError(f"row indices must be integers, got {unique_set.dtype} values")
    unique_set = unique_set.astype(int)
    protected_preds = np.asarray(protected_preds)
    extracted_preds = np.asarray(extracted_preds)
    truth = np.asarray(truth)
    if truth.ndim != 1 or not protected_preds.shape == extracted_preds.shape == truth.shape:
        raise InputError("label vectors must be 1-d and of one length")
    outside = unique_set[(unique_set < 0) | (unique_set >= len(truth))]
    if len(outside):
        raise InputError(f"row index {outside[0]} is outside [0, {len(truth)})")
    keep = (
        (extracted_preds[unique_set] == protected_preds[unique_set])
        & (protected_preds[unique_set] != truth[unique_set])
    )
    return unique_set[keep]


def run_strategy_analysis(protected_models, extracted_models, eval_set, bim_cfg=None) -> list:
    """Per-model perturb-and-recount analysis, averaged over the population:
    one SubsetReport per strategy, in STRATEGIES order.

    Each protected model strengthens every row once toward its own clean
    prediction. Each strategy swaps in the strengthened rows of its subset,
    found on the clean set: none, the model's unique disagreements, the
    disagreements, or every row (`bim_batch` never mixes rows, so this equals
    strengthening that subset alone). Subsets are then recounted on the
    perturbed set. Shares are means over models; the confidence of a
    transferable point is the model's probability for its own (wrong)
    predicted class there.
    """
    if len(protected_models) == 0 or len(protected_models) != len(extracted_models):
        raise InputError("need equal non-empty protected/extracted populations")
    bim_cfg = bim_cfg or BimConfig()
    features = np.asarray(eval_set.features, dtype=np.float64)
    truth = np.asarray(eval_set.labels)
    n = len(truth)
    clean = population_labels(protected_models, features)
    clean_dis = find_disagreements(clean)

    tallies = {s: ([], [], [], []) for s in STRATEGIES}
    for mi, (protected, extracted) in enumerate(zip(protected_models, extracted_models)):
        strengthened = bim_batch(protected, features, clean[mi], bim_cfg)
        subsets = ([], find_unique_disagreements(clean, truth, mi), clean_dis, np.arange(n))
        for subset, (dis_shares, uniq_shares, trans_shares, trans_confs) in zip(
                subsets, tallies.values()):
            perturbed, labels = features, clean
            if len(subset):
                perturbed = features.copy()
                perturbed[subset] = strengthened[subset]
                labels = population_labels(protected_models, perturbed)
            dis_shares.append(len(find_disagreements(labels)) / n)
            uniq = find_unique_disagreements(labels, truth, mi)
            uniq_shares.append(len(uniq) / n)
            trans = find_transferable(uniq, labels[mi], predict(extracted, perturbed), truth)
            trans_shares.append(len(trans) / n)
            if len(trans):
                trans_confs.extend(forward(protected, perturbed)[trans, labels[mi, trans]])
    return [
        SubsetReport(strategy, float(np.mean(dis)), float(np.mean(uniq)), float(np.mean(trans)),
                     float(np.mean(confs)) if confs else 0.0)
        for strategy, (dis, uniq, trans, confs) in tallies.items()
    ]


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
