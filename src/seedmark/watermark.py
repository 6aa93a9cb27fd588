"""Watermark key-set generation, verifier fitting, and verification.

Offline: pick the misclassified inputs whose adversarially strengthened
versions best separate extracted from non-extracted models' confidence on
the protected model's predicted class, then fit one binary scalar
classifier per chosen input. Online: score a suspect model by the fraction
of key-set inputs on which its confidence is classified "extracted".
"""

import json
from dataclasses import dataclass

import numpy as np

from .bim import BimConfig, bim_batch
from .errors import FormatError, InputError, WatermarkError
from .nnet import Model, forward, predict
from .serialize import VERSION, _check_envelope, _decode_array, _encode_array, model_digest

LR_LAMBDA = 1e-4
LR_TOL = 1e-8
LR_MAX_ITER = 200
GNB_VAR_FLOOR = 1e-9

CANDIDATE_SOURCES = ("misclassifications", "disagreements")

KEYSET_FORMAT = "seedmark-keyset"
VERIFIER_FORMAT = "seedmark-verifier"


@dataclass(frozen=True)
class KeySet:
    watermarks: np.ndarray  # (n, D) perturbed inputs
    labels: np.ndarray  # (n,) protected model's predicted classes
    provenance: dict

    def __post_init__(self):
        if len(self.watermarks) == 0 or len(self.watermarks) != len(self.labels):
            raise WatermarkError("key-set must be non-empty and index-aligned")

    def __len__(self):
        return len(self.watermarks)


@dataclass(frozen=True)
class LogisticClassifier:
    weight: float
    bias: float

    def prob_extracted(self, s):
        # sigmoid(z) as exp(-log(1 + exp(-z))): no overflow for any finite z
        z = self.weight * np.asarray(s) + self.bias
        return np.exp(-np.logaddexp(0.0, -z))

    def decide(self, s) -> bool:
        """prob_extracted(s) >= 0.5, tested on its logit."""
        return bool(self.weight * s + self.bias >= 0)


@dataclass(frozen=True)
class GaussianNBClassifier:
    means: tuple  # (non-extracted, extracted)
    variances: tuple
    priors: tuple

    def log_posteriors(self, s):
        out = []
        for mean, var, prior in zip(self.means, self.variances, self.priors):
            out.append(
                np.log(prior) - 0.5 * np.log(2 * np.pi * var) - (s - mean) ** 2 / (2 * var)
            )
        return out

    def decide(self, s) -> bool:
        lp_ne, lp_e = self.log_posteriors(float(s))
        return bool(lp_e > lp_ne)


@dataclass(frozen=True)
class VerificationModel:
    kind: str  # lr | gnb
    classifiers: tuple  # one per watermark, index-aligned with the key-set

    def __len__(self):
        return len(self.classifiers)


@dataclass(frozen=True)
class Verdict:
    score: float  # fraction of watermarks classified "extracted"
    decisions: tuple


def generate_keyset(
    protected: Model,
    extracted_pop,
    nonextracted_pop,
    data,
    n: int,
    bim_cfg: BimConfig = None,
    candidate_source: str = "misclassifications",
) -> KeySet:
    """Select the n strengthened misclassifications with the largest
    extracted/non-extracted mean-confidence gap.

    candidate_source="disagreements" widens the candidate pool to inputs
    where any non-extracted model disputes the protected model's prediction.
    """
    if n < 1:
        raise WatermarkError("key-set size must be positive")
    if len(extracted_pop) == 0 or len(nonextracted_pop) == 0:
        raise WatermarkError("both model populations must be non-empty")
    if candidate_source not in CANDIDATE_SOURCES:
        raise WatermarkError(f"unknown candidate source {candidate_source!r}")
    bim_cfg = bim_cfg or BimConfig()
    features = np.asarray(data.features, dtype=np.float64)
    truth = np.asarray(data.labels)
    preds = predict(protected, features)
    if candidate_source == "misclassifications":
        candidates = np.flatnonzero(preds != truth)
    else:
        others = np.stack([predict(m, features) for m in nonextracted_pop])
        candidates = np.flatnonzero((others != preds).any(axis=0))
    if len(candidates) == 0:
        raise WatermarkError("no watermark material: protected model has no candidate inputs")

    perturbed = bim_batch(protected, features[candidates], preds[candidates], bim_cfg)
    post_preds = predict(protected, perturbed)
    keep = post_preds != truth[candidates]  # drop inputs BIM made correct
    candidates, perturbed, post_preds = candidates[keep], perturbed[keep], post_preds[keep]
    if len(candidates) == 0:
        raise WatermarkError("no watermark material: all candidates became correctly classified")
    if n > len(candidates):
        raise WatermarkError(
            f"requested key-set size {n} exceeds {len(candidates)} available candidates"
        )

    conf_e = np.mean(
        [forward(m, perturbed)[np.arange(len(perturbed)), post_preds] for m in extracted_pop],
        axis=0,
    )
    conf_ne = np.mean(
        [forward(m, perturbed)[np.arange(len(perturbed)), post_preds] for m in nonextracted_pop],
        axis=0,
    )
    gaps = np.abs(conf_e - conf_ne)
    order = sorted(range(len(candidates)), key=lambda i: (-gaps[i], candidates[i]))
    chosen = order[:n]
    prov = {
        "protected": model_digest(protected),
        "candidate_source": candidate_source,
        "bim": {
            "iterations": bim_cfg.iterations,
            "epsilon": bim_cfg.epsilon,
            "step_size": bim_cfg.step_size,
        },
        "dataset": getattr(data, "name", "unknown"),
    }
    return KeySet(perturbed[chosen], post_preds[chosen], prov)


def confidence_profile(model: Model, keyset: KeySet) -> np.ndarray:
    """Entry i: the model's softmax probability of keyset.labels[i] on watermark i."""
    confs = forward(model, keyset.watermarks)
    return confs[np.arange(len(keyset)), keyset.labels]


def fit_lr(samples, labels) -> LogisticClassifier:
    """L2-regularized 1-D logistic regression, Newton-iterated to convergence.

    labels: 1 = extracted, 0 = not. The bias is unregularized."""
    s = np.asarray(samples, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if len(s) != len(y) or len(s) == 0:
        raise InputError("samples/labels mismatch or empty")
    if len(np.unique(y)) < 2:
        raise InputError("logistic fit requires both classes present")
    n = len(s)
    w, b = 0.0, 0.0
    for _ in range(LR_MAX_ITER):
        z = w * s + b
        p = 1.0 / (1.0 + np.exp(-z))
        gw = np.mean((p - y) * s) + LR_LAMBDA * w
        gb = np.mean(p - y)
        if np.hypot(gw, gb) <= LR_TOL:
            break
        r = p * (1 - p)
        hww = np.mean(r * s * s) + LR_LAMBDA
        hwb = np.mean(r * s)
        hbb = np.mean(r)
        det = hww * hbb - hwb * hwb
        if det <= 1e-300:
            w -= gw
            b -= gb
            continue
        w -= (hbb * gw - hwb * gb) / det
        b -= (hww * gb - hwb * gw) / det
    return LogisticClassifier(float(w), float(b))


def fit_gnb(samples, labels) -> GaussianNBClassifier:
    """Per-class Gaussian with floored variance and empirical priors."""
    s = np.asarray(samples, dtype=np.float64)
    y = np.asarray(labels, dtype=int)
    if len(s) != len(y) or len(s) == 0:
        raise InputError("samples/labels mismatch or empty")
    means, variances, priors = [], [], []
    for cls in (0, 1):
        vals = s[y == cls]
        if len(vals) == 0:
            raise InputError("gaussian fit requires both classes present")
        means.append(float(vals.mean()))
        variances.append(float(max(vals.var(), GNB_VAR_FLOOR)))
        priors.append(len(vals) / len(s))
    return GaussianNBClassifier(tuple(means), tuple(variances), tuple(priors))


def build_verifier(extracted_pop, nonextracted_pop, keyset: KeySet, kind: str = "lr") -> VerificationModel:
    """One classifier per watermark, fitted on the two populations' confidences."""
    if kind not in ("lr", "gnb"):
        raise InputError(f"unknown classifier kind {kind!r}")
    if len(extracted_pop) == 0 or len(nonextracted_pop) == 0:
        raise InputError("both model populations must be non-empty")
    prof_e = np.stack([confidence_profile(m, keyset) for m in extracted_pop])
    prof_ne = np.stack([confidence_profile(m, keyset) for m in nonextracted_pop])
    fit = fit_lr if kind == "lr" else fit_gnb
    classifiers = []
    labels = np.concatenate([np.ones(len(extracted_pop)), np.zeros(len(nonextracted_pop))])
    for i in range(len(keyset)):
        samples = np.concatenate([prof_e[:, i], prof_ne[:, i]])
        try:
            classifiers.append(fit(samples, labels))
        except Exception as exc:
            raise WatermarkError(f"classifier fit failed for watermark {i}: {exc}") from exc
    return VerificationModel(kind, tuple(classifiers))


def verify(suspect: Model, verifier: VerificationModel, keyset: KeySet) -> Verdict:
    if len(verifier) != len(keyset):
        raise InputError("verifier/key-set length mismatch")
    profile = confidence_profile(suspect, keyset)
    decisions = tuple(clf.decide(s) for clf, s in zip(verifier.classifiers, profile))
    return Verdict(sum(decisions) / len(decisions), decisions)


# --- persistence -----------------------------------------------------------


def dump_keyset(keyset: KeySet) -> str:
    return json.dumps(
        {
            "format": KEYSET_FORMAT,
            "version": VERSION,
            "provenance": keyset.provenance,
            "labels": [int(v) for v in keyset.labels],
            "watermarks": _encode_array(keyset.watermarks),
        },
        indent=1,
    )


def parse_keyset(text: str) -> KeySet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    _check_envelope(doc, KEYSET_FORMAT)
    try:
        return KeySet(
            _decode_array(doc["watermarks"]),
            np.array([int(v) for v in doc["labels"]]),
            doc.get("provenance", {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed key-set artifact: {exc}") from exc


def dump_verifier(verifier: VerificationModel) -> str:
    entries = []
    for clf in verifier.classifiers:
        if verifier.kind == "lr":
            entries.append({"w": float(clf.weight).hex(), "b": float(clf.bias).hex()})
        else:
            entries.append(
                {
                    "means": [float(v).hex() for v in clf.means],
                    "variances": [float(v).hex() for v in clf.variances],
                    "priors": [float(v).hex() for v in clf.priors],
                }
            )
    return json.dumps(
        {"format": VERIFIER_FORMAT, "version": VERSION, "kind": verifier.kind, "classifiers": entries},
        indent=1,
    )


def parse_verifier(text: str) -> VerificationModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    _check_envelope(doc, VERIFIER_FORMAT)
    kind = doc.get("kind")
    if kind not in ("lr", "gnb"):
        raise FormatError(f"unknown verifier kind {kind!r}")
    classifiers = []
    try:
        for entry in doc["classifiers"]:
            if kind == "lr":
                classifiers.append(
                    LogisticClassifier(float.fromhex(entry["w"]), float.fromhex(entry["b"]))
                )
            else:
                classifiers.append(
                    GaussianNBClassifier(
                        tuple(float.fromhex(v) for v in entry["means"]),
                        tuple(float.fromhex(v) for v in entry["variances"]),
                        tuple(float.fromhex(v) for v in entry["priors"]),
                    )
                )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed verifier artifact: {exc}") from exc
    return VerificationModel(kind, tuple(classifiers))


def save_keyset(keyset, path):
    with open(path, "w") as fh:
        fh.write(dump_keyset(keyset))


def load_keyset(path) -> KeySet:
    with open(path) as fh:
        return parse_keyset(fh.read())


def save_verifier(verifier, path):
    with open(path, "w") as fh:
        fh.write(dump_verifier(verifier))


def load_verifier(path) -> VerificationModel:
    with open(path) as fh:
        return parse_verifier(fh.read())
