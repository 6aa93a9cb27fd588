"""Population decision-boundary analysis.

Given a population of independently seeded models, each with one extracted
partner, evaluated on a common input set, computes as boolean masks the
nested subsets that make seed-induced behavior visible: disagreements,
per-model unique disagreements, and those that transfer to the partner.
"""

import csv
from dataclasses import astuple, dataclass

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


def subset_masks(labels, partner_labels, truth):
    """`(disagreements, unique, transferable)` masks of a (models, rows) label table.

    Disagreements are the rows where not all models predict the same class.
    A model's unique rows are those it alone misclassifies, and its
    transferable rows those of them where its partner (the same row of
    `partner_labels`) repeats its label.
    """
    labels = np.asarray(labels)
    if (labels.ndim != 2 or np.shape(partner_labels) != labels.shape
            or np.shape(truth) != labels.shape[1:]):
        raise InputError("label table shape mismatch")
    if len(labels) < 2:
        raise InputError("need at least two models")
    wrong = labels != truth
    unique = wrong & (wrong.sum(axis=0) == 1)
    return (labels != labels[0]).any(axis=0), unique, unique & (partner_labels == labels)


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
    disagreements, unique, transferable = subset_masks(
        labels, population_labels(extracted_models, features), truth)
    trans_confs = [forward(protected_models[mi], features)[rows, labels[mi, rows]]
                   for mi, rows in enumerate(map(np.flatnonzero, transferable)) if len(rows)]
    return SubsetReport(int(disagreements.sum()) / n,
                        float(np.mean(unique.sum(axis=1) / n)),
                        float(np.mean(transferable.sum(axis=1) / n)),
                        float(np.mean(np.concatenate(trans_confs))) if trans_confs else 0.0)


def write_analysis_table(report, path):
    """CSV table: a header and one row of the report's shares and confidence."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([["disagreements", "unique", "transferable", "confidence"],
                                  [repr(value) for value in astuple(report)]])
