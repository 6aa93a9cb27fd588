"""Population decision-boundary analysis.

Given a population of independently seeded models (plus one extracted
partner per model) evaluated on a common input set, computes the nested
subsets that make seed-induced behavior visible: disagreements, per-model
unique disagreements, and disagreements that transfer to the extracted
partner.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .nnet import forward, predict


def population_labels(models, features) -> np.ndarray:
    """(models, rows) array of each model's predicted labels on `features`."""
    return np.stack([predict(m, features) for m in models])


@dataclass(frozen=True)
class SubsetReport:
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


def run_analysis(protected_models, extracted_models, eval_set) -> SubsetReport:
    """The population's subset shares on the clean `eval_set`.

    The disagreement share is the population's; the unique and transferable
    shares are means over models of each model's own subsets. The confidence
    of a transferable point is the model's probability for its own (wrong)
    predicted class there, averaged over every model's transferable points.
    """
    if len(protected_models) == 0 or len(protected_models) != len(extracted_models):
        raise InputError("need equal non-empty protected/extracted populations")
    features = np.asarray(eval_set.features, dtype=np.float64)
    truth = np.asarray(eval_set.labels)
    n = len(truth)
    labels = population_labels(protected_models, features)
    uniq_shares, trans_shares, trans_confs = [], [], []
    for mi, (protected, extracted) in enumerate(zip(protected_models, extracted_models)):
        uniq = find_unique_disagreements(labels, truth, mi)
        uniq_shares.append(len(uniq) / n)
        trans = find_transferable(uniq, labels[mi], predict(extracted, features), truth)
        trans_shares.append(len(trans) / n)
        if len(trans):
            trans_confs.extend(forward(protected, features)[trans, labels[mi, trans]])
    return SubsetReport(len(find_disagreements(labels)) / n, float(np.mean(uniq_shares)),
                        float(np.mean(trans_shares)),
                        float(np.mean(trans_confs)) if trans_confs else 0.0)


def write_analysis_table(report, path):
    """CSV table: a header and one row of the report's shares and confidence."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["disagreements", "unique", "transferable", "confidence"])
        writer.writerow([repr(report.disagreement_share), repr(report.unique_share),
                         repr(report.transferable_share),
                         repr(report.mean_transferable_confidence)])
