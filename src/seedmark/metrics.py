"""ROC curves with constrained operating points.

The curve sweeps every distinct score as a threshold (score >= threshold
counts as positive), so the trapezoidal AUC equals the Mann-Whitney
pairwise statistic with ties counted 1/2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class RocCurve:
    points: tuple  # ordered (fpr, tpr) pairs from (0, 0) to (1, 1)
    auc: float
    tpr_at_fpr0: float
    fpr_at_tpr1: float


def roc_auc(pos_scores, neg_scores) -> RocCurve:
    """ROC of positive (extracted) vs negative (non-extracted) scores."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if len(pos) == 0 or len(neg) == 0:
        raise InputError("both score lists must be non-empty")
    if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
        raise InputError("scores must be finite")
    thresholds = np.unique(np.concatenate([pos, neg]))[::-1]
    points = [(0.0, 0.0)]
    for t in thresholds:
        tpr = float(np.mean(pos >= t))
        fpr = float(np.mean(neg >= t))
        points.append((fpr, tpr))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    pts = np.array(points)
    auc = float(np.trapezoid(pts[:, 1], pts[:, 0]))
    tpr_at_fpr0 = max(tpr for fpr, tpr in points if fpr == 0.0)
    fpr_at_tpr1 = min(fpr for fpr, tpr in points if tpr == 1.0)
    return RocCurve(tuple(map(tuple, points)), auc, tpr_at_fpr0, fpr_at_tpr1)
