"""Watermark key-set generation, verifier fitting, and verification.

Offline: pick the misclassified inputs whose adversarially strengthened
versions best separate extracted from non-extracted models' confidence on
the protected model's predicted class, then fit one binary scalar
classifier per chosen input. Online: score a suspect model by the fraction
of key-set inputs on which its confidence is classified "extracted".
"""

import hashlib
import math
import re
from dataclasses import asdict, dataclass

import numpy as np

from .bim import BimConfig, bim_batch
from .datasets import FEATURE_RANGE, check_fits
from .errors import (STRING, WHOLE_NUMBER, FormatError, InputError, Rule, WatermarkError, among,
                     check, within)
from .nnet import Model, forward, predict
from .serialize import (_LABELS, _check_fields, _decode_array, _encode_array, _read_artifact,
                        _read_text, _write_artifact, _write_text, model_digest)

LR_LAMBDA = 1e-4
LR_TOL = 1e-8
LR_MAX_ITER = 200
GNB_VAR_FLOOR = 1e-9

# each classifier kind's parameters; every GNB parameter has one value per
# class, ordered (non-extracted, extracted)
VERIFIER_FIELDS = {"lr": ("weight", "bias"), "gnb": ("means", "variances", "priors")}

_KIND = among(VERIFIER_FIELDS)

KEYSET_FORMAT = "seedmark-keyset"
VERIFIER_FORMAT = "seedmark-verifier"


@dataclass(frozen=True, eq=False)  # arrays have no single == truth value
class KeySet:
    watermarks: np.ndarray  # (n, D) perturbed inputs
    labels: np.ndarray  # (n,) protected model's predicted classes
    provenance: dict

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if (np.ndim(self.watermarks) != 2 or labels.ndim != 1
                or not np.issubdtype(labels.dtype, np.integer)):
            raise WatermarkError(f"key-set needs 2-d watermarks and 1-d integer labels, got "
                                 f"{np.shape(self.watermarks)} and {labels.dtype} {labels.shape}")
        if len(self.watermarks) == 0 or len(self.watermarks) != len(self.labels):
            raise WatermarkError("key-set must be non-empty and index-aligned")

    def __len__(self):
        return len(self.watermarks)


@dataclass(frozen=True, eq=False)  # arrays have no single == truth value
class VerificationModel:
    kind: str  # lr | gnb
    # VERIFIER_FIELDS[kind] -> float64 array, one row per watermark: (n,) LR, (n, 2) GNB
    params: dict
    keyset: str  # keyset_digest of the key-set the classifiers were fitted on

    def __len__(self):
        return len(self.params[VERIFIER_FIELDS[self.kind][0]])


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
    # only bench/workloads.py passes it, and it takes no other value
    candidate_source: str = "misclassifications",
) -> KeySet:
    """Select the n strengthened misclassifications with the largest
    extracted/non-extracted mean-confidence gap.

    Each candidate is BIM-perturbed toward the protected model's label and
    kept only if the model still predicts that label. `data` must have the
    protected model's input and class counts, and `n` is a whole number.
    """
    check("key-set size", n, within("[1, inf)", WHOLE_NUMBER), WatermarkError)
    if len(extracted_pop) == 0 or len(nonextracted_pop) == 0:
        raise WatermarkError("both model populations must be non-empty")
    check("candidate_source", candidate_source, among(("misclassifications",)), WatermarkError)
    check_fits(data, protected, "protected model")
    bim_cfg = bim_cfg or BimConfig()
    features = np.asarray(data.features, dtype=np.float64)
    truth = np.asarray(data.labels)
    preds = predict(protected, features)
    candidates = np.flatnonzero(preds != truth)
    if len(candidates) == 0:
        raise WatermarkError("no watermark material: protected model has no candidate inputs")

    perturbed = bim_batch(protected, features[candidates], preds[candidates], bim_cfg)
    post_preds = predict(protected, perturbed)
    keep = post_preds == preds[candidates]  # drop inputs BIM carried off its target label
    candidates, perturbed, post_preds = candidates[keep], perturbed[keep], post_preds[keep]
    if len(candidates) == 0:
        raise WatermarkError("no watermark material: BIM carried every candidate off the "
                             "protected model's label")
    if n > len(candidates):
        raise WatermarkError(
            f"requested key-set size {n} exceeds {len(candidates)} available candidates"
        )

    strengthened = KeySet(perturbed, post_preds, {})
    conf_e, conf_ne = (confidence_table(pop, strengthened).mean(axis=0)
                       for pop in (extracted_pop, nonextracted_pop))
    gaps = np.abs(conf_e - conf_ne)
    order = sorted(range(len(candidates)), key=lambda i: (-gaps[i], candidates[i]))
    chosen = order[:n]
    prov = {"protected": model_digest(protected), "bim": asdict(bim_cfg), "dataset": data.name}
    return KeySet(perturbed[chosen], post_preds[chosen], prov)


def confidence_profile(model: Model, keyset: KeySet) -> np.ndarray:
    """Entry i: the model's softmax probability of keyset.labels[i] on watermark i."""
    classes = model.spec.output_classes
    bad = keyset.labels[(keyset.labels < 0) | (keyset.labels >= classes)]
    if len(bad):
        raise InputError(f"key-set label {bad[0]} is outside the model's classes [0, {classes})")
    confs = forward(model, keyset.watermarks)
    return confs[np.arange(len(keyset)), keyset.labels]


def confidence_table(models, keyset: KeySet) -> np.ndarray:
    """The (models, watermarks) array of each model's `confidence_profile`."""
    return np.stack([confidence_profile(m, keyset) for m in models])


def keyset_digest(keyset: KeySet) -> str:
    """Short stable identifier: the first 12 hex digits of SHA-256 over the
    labels as `<i8` bytes, then the watermarks as `<f8` bytes in C order."""
    h = hashlib.sha256(np.ascontiguousarray(keyset.labels, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(keyset.watermarks, dtype="<f8").tobytes())
    return h.hexdigest()[:12]


def _fit_labels(s, labels) -> np.ndarray:
    """A verifier fit's labels as floats, checked: each 0 or 1, both classes
    present, one per sample along the last axis of the finite samples `s`."""
    y = np.asarray(labels)
    if y.ndim != 1 or s.shape[-1:] != y.shape or len(y) == 0:
        raise InputError("samples/labels mismatch or empty")
    if not np.isin(y, (0, 1)).all():
        raise InputError("labels must each be 0 (not extracted) or 1 (extracted)")
    # not np.unique, which imports numpy.ma on its first call
    if y.min() == y.max():
        raise InputError("a verifier fit requires both classes present")
    if not np.isfinite(s).all():
        raise InputError("samples must be finite")
    return y.astype(np.float64)


def fit_lr(samples, labels) -> tuple:
    """L2-regularized 1-D logistic regressions, Newton-iterated to convergence.

    Each row along the last axis of `samples` is one classifier's samples,
    and each row stops at its own tolerance. labels: 1 = extracted, 0 = not.
    The bias is unregularized. Returns the weights and biases, one per row;
    a classifier reads "extracted" where w * s + b >= 0."""
    # C-contiguous rows, whatever the caller's layout, so that each row's sums
    # run as a 1-D fit's do and match it bit for bit
    s = np.ascontiguousarray(samples, dtype=np.float64)
    y = _fit_labels(s, labels)
    w, b = np.zeros(s.shape[:-1]), np.zeros(s.shape[:-1])
    active = np.ones(s.shape[:-1], dtype=bool)
    for _ in range(LR_MAX_ITER):
        p = 1.0 / (1.0 + np.exp(-(w[..., None] * s + b[..., None])))
        gw = np.mean((p - y) * s, axis=-1) + LR_LAMBDA * w
        gb = np.mean(p - y, axis=-1)
        active &= np.hypot(gw, gb) > LR_TOL
        if not active.any():
            break
        r = p * (1 - p)
        hww = np.mean(r * s * s, axis=-1) + LR_LAMBDA
        hwb = np.mean(r * s, axis=-1)
        hbb = np.mean(r, axis=-1)
        det = hww * hbb - hwb * hwb
        newton = det > 1e-300  # else a plain gradient step
        safe = np.where(newton, det, 1.0)
        w -= np.where(active, np.where(newton, (hbb * gw - hwb * gb) / safe, gw), 0.0)
        b -= np.where(active, np.where(newton, (hww * gb - hwb * gw) / safe, gb), 0.0)
    return w, b


def fit_gnb(samples, labels) -> tuple:
    """Per-class Gaussians with floored variance and empirical priors, one
    classifier per row along the last axis of `samples`: returns (means,
    variances, priors), each with a last axis (non-extracted, extracted)."""
    s = np.asarray(samples, dtype=np.float64)
    y = _fit_labels(s, labels)
    # C-contiguous per-class blocks: a masked view's sums differ in the last bit
    blocks = [np.ascontiguousarray(s[..., y == cls]) for cls in (0, 1)]
    means = np.stack([v.mean(axis=-1) for v in blocks], axis=-1)
    variances = np.maximum(np.stack([v.var(axis=-1) for v in blocks], axis=-1), GNB_VAR_FLOOR)
    priors = np.broadcast_to([v.shape[-1] / len(y) for v in blocks], means.shape).copy()
    return means, variances, priors


def gnb_log_posteriors(means, variances, priors, s) -> np.ndarray:
    """Each class's log prior plus Gaussian log likelihood of confidences `s`;
    the parameters' last axis is the classes (non-extracted, extracted).
    The square is libm `pow`, as a Python float's `** 2` is: an array's
    `** 2` is `x * x`, which differs in the last bit for about 0.1% of inputs."""
    s, var = np.asarray(s, dtype=np.float64)[..., None], np.asarray(variances, dtype=np.float64)
    return np.log(priors) - 0.5 * np.log(2 * np.pi * var) - np.float_power(s - means, 2) / (2 * var)


def build_verifier(extracted_pop, nonextracted_pop, keyset: KeySet, kind: str = "lr") -> VerificationModel:
    """One classifier per watermark, all fitted in one call on the (watermarks,
    models) table of the two populations' confidences."""
    return _fit_verifier(extracted_pop, nonextracted_pop, keyset, kind)[0]


def _fit_verifier(extracted_pop, nonextracted_pop, keyset: KeySet, kind: str):
    """`build_verifier`'s verifier, and the two populations' (models, watermarks)
    confidence tables it was fitted on."""
    check("kind", kind, _KIND, InputError)
    if len(extracted_pop) == 0 or len(nonextracted_pop) == 0:
        raise InputError("both model populations must be non-empty")
    tables = tuple(confidence_table(p, keyset) for p in (extracted_pop, nonextracted_pop))
    labels = np.concatenate([np.ones(len(extracted_pop)), np.zeros(len(nonextracted_pop))])
    fitted = (fit_lr if kind == "lr" else fit_gnb)(np.concatenate(tables).T, labels)
    verifier = VerificationModel(kind, dict(zip(VERIFIER_FIELDS[kind], fitted)),
                                 keyset_digest(keyset))
    return verifier, tables


def decide(verifier: VerificationModel, s) -> np.ndarray:
    """Each watermark's classifier applied to its confidence in `s`: True
    reads "extracted". A GNB tie reads as not extracted."""
    p = verifier.params
    if verifier.kind == "lr":  # w * s + b >= 0 without the sum, which overflows at huge w and b
        return p["weight"] * s >= -p["bias"]
    lp = gnb_log_posteriors(p["means"], p["variances"], p["priors"], s)
    return lp[:, 1] > lp[:, 0]


def verify(suspect: Model, verifier: VerificationModel, keyset: KeySet) -> Verdict:
    if len(verifier) != len(keyset):
        raise InputError("verifier/key-set length mismatch")
    digest = keyset_digest(keyset)
    if digest != verifier.keyset:
        raise WatermarkError(f"verifier fits key-set {verifier.keyset}, not key-set {digest}")
    decisions = tuple(decide(verifier, confidence_profile(suspect, keyset)).tolist())
    return Verdict(sum(decisions) / len(decisions), decisions)


# --- persistence -----------------------------------------------------------


def dump_keyset(keyset: KeySet) -> str:
    return _write_artifact(KEYSET_FORMAT, provenance=keyset.provenance,
                           labels=[int(v) for v in keyset.labels],
                           watermarks=_encode_array(keyset.watermarks))


# a `keyset_digest` or `serialize.model_digest`, as `_check_fields` checks it
_DIGEST = Rule(lambda v: type(v) is str and re.fullmatch("[0-9a-f]{12}", v) is not None,
               "a 12-digit lowercase hex digest")
# each key-set provenance field that `generate_keyset` writes, checked when present
_PROVENANCE_CHECKS = {
    "protected": _DIGEST,
    "dataset": STRING,
    "bim": Rule(lambda v: type(v) is dict and type(v.get("iterations")) is int
                and all(type(x) in (int, float) and math.isfinite(x) for x in v.values()),
                "an object with an integer iterations and finite numbers"),
}


def parse_keyset(text: str) -> KeySet:
    doc = _check_fields(_read_artifact(text, KEYSET_FORMAT), "key-set", {"labels": _LABELS})
    watermarks = _decode_array(doc.get("watermarks"), (len(doc["labels"]), None))
    lo, hi = FEATURE_RANGE  # BIM keeps every watermark in it
    if not ((watermarks >= lo) & (watermarks <= hi)).all():
        raise FormatError(f"key-set watermarks must lie in the feature range [{lo}, {hi}]")
    prov = _check_fields(doc.get("provenance", {}), "key-set provenance", _PROVENANCE_CHECKS,
                         optional=_PROVENANCE_CHECKS)
    return KeySet(watermarks, np.array(doc["labels"]), prov)


def dump_verifier(verifier: VerificationModel) -> str:
    return _write_artifact(VERIFIER_FORMAT, kind=verifier.kind, keyset=verifier.keyset,
                           **{name: _encode_array(verifier.params[name])
                              for name in VERIFIER_FIELDS[verifier.kind]})


def parse_verifier(text: str) -> VerificationModel:
    doc = _check_fields(_read_artifact(text, VERIFIER_FORMAT), "verifier",
                        {"kind": _KIND, "keyset": _DIGEST})
    kind = doc["kind"]
    shape = (None,) if kind == "lr" else (None, 2)
    params = {name: _decode_array(doc.get(name), shape) for name in VERIFIER_FIELDS[kind]}
    if len({len(a) for a in params.values()}) != 1:
        raise FormatError(f"{kind} verifier fields differ in length")
    if not all(np.isfinite(a).all() for a in params.values()):
        raise FormatError(f"non-finite {kind} classifier parameter")
    # a fit on confidences in [0, 1] gives no other GNB values, and they keep `decide` finite
    if kind == "gnb":
        m, v, p = params.values()
        if not (((0 <= m) & (m <= 1)).all() and ((GNB_VAR_FLOOR <= v) & (v <= 1)).all()
                and ((0 < p) & (p <= 1)).all()):
            raise FormatError(f"GNB means, variances and priors must lie in [0, 1], "
                              f"[{GNB_VAR_FLOOR}, 1] and (0, 1]")
    return VerificationModel(kind, params, doc["keyset"])


def save_keyset(keyset, path):
    _write_text(path, dump_keyset(keyset))


def load_keyset(path) -> KeySet:
    return parse_keyset(_read_text(path))


def save_verifier(verifier, path):
    _write_text(path, dump_verifier(verifier))


def load_verifier(path) -> VerificationModel:
    return parse_verifier(_read_text(path))
