"""End-to-end evaluation harness.

Builds seeded model populations, runs the offline watermark stage against
"seen" attacks, then scores a test population built with "unseen" attacks
(optionally blurred) plus fresh non-extracted controls, aggregating verdict
scores into a ROC curve. The whole pipeline is a pure function of the
config's master seed.
"""

import csv
import hashlib
import json
import logging
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .attacks import ATTACKS, blur_prune, blur_quantize, extract, sample_queries
from .bim import BimConfig
from .datasets import Dataset, GenSpec, generate, split
from .datasets import random_probe_inputs
from .errors import ConfigError, InputError, check_field_types
from .metrics import RocCurve, roc_auc
from .nnet import FAMILY_DEFAULTS, Model, TrainConfig, family_spec, init_model, train
from .rng import derive_seed
from .serialize import model_digest
from .watermark import CANDIDATE_SOURCES, VERIFIER_FIELDS, build_verifier, confidence_table
from .watermark import generate_keyset, verify

log = logging.getLogger(__name__)

BLUR_METHODS = ("WP", "WQ")

# CAR trains a surrogate of this family, DIS trains on the victim's confidences
# at this soft-label temperature, and TRL keeps this many of the pretrained
# network's first dense layers frozen (every family has at least three).
CROSS_ARCH_FAMILY = "C"
DISTILL_TEMPERATURE = 2.0
FROZEN_LAYERS = 1


def parse_attack_token(token: str):
    """'RET' -> ('RET', None); 'WP(DIS)' -> ('DIS', 'WP')."""
    token = token.strip()
    if "(" in token:
        blur_name, rest = token.split("(", 1)
        if not rest.endswith(")") or blur_name not in BLUR_METHODS:
            raise ConfigError(f"bad attack token {token!r}")
        inner = rest[:-1]
        if inner not in ATTACKS:
            raise ConfigError(f"bad attack token {token!r}")
        return inner, blur_name
    if token not in ATTACKS:
        raise ConfigError(f"unknown attack token {token!r}")
    return token, None


@dataclass(frozen=True)
class EvaluationConfig:
    master_seed: int = 0
    repetitions: int = 5
    gen: GenSpec = GenSpec()
    test_fraction: float = 0.5
    protected_family: str = "A"
    nonextracted_families: tuple = ("A", "B", "C")
    n_extracted_train: int = 10
    n_nonextracted_train: int = 10
    n_extracted_test: int = 6
    n_nonextracted_test: int = 6
    seen_attacks: tuple = ("RET",)
    unseen_attacks: tuple = ("RET",)
    classifier_kind: str = "lr"
    keyset_size: int = 32
    candidate_source: str = "misclassifications"
    epochs: int = 10
    batch_size: int = 32
    query_budget_fraction: float = 0.5
    copycat_probe_factor: int = 20
    prune_sparsity: float = 0.5
    quantize_bits: int = 8
    bim: BimConfig = field(default_factory=BimConfig)

    def __post_init__(self):
        check_field_types(self, ConfigError)
        for attr in ("repetitions", "n_extracted_train", "n_nonextracted_train",
                     "n_extracted_test", "n_nonextracted_test", "keyset_size",
                     "copycat_probe_factor", "epochs", "batch_size"):
            if getattr(self, attr) < 1:
                raise ConfigError(f"{attr} must be positive")
        if self.classifier_kind not in VERIFIER_FIELDS:
            raise ConfigError("classifier_kind must be 'lr' or 'gnb'")
        if self.candidate_source not in CANDIDATE_SOURCES:
            raise ConfigError(f"candidate_source must be one of {CANDIDATE_SOURCES}")
        # populations cycle through these, so each needs at least one entry
        for attr in ("seen_attacks", "unseen_attacks", "nonextracted_families"):
            if not getattr(self, attr):
                raise ConfigError(f"{attr} must be non-empty")
        for family in (self.protected_family, *self.nonextracted_families):
            if family not in FAMILY_DEFAULTS:
                raise ConfigError(f"unknown family {family!r}, expected one of {sorted(FAMILY_DEFAULTS)}")
        for token in self.seen_attacks + self.unseen_attacks:
            parse_attack_token(token)
        for attr, ok, expected in (
            ("query_budget_fraction", 0 < self.query_budget_fraction <= 1, "in (0, 1]"),
            ("prune_sparsity", 0 <= self.prune_sparsity < 1, "in [0, 1)"),
            ("quantize_bits", 1 <= self.quantize_bits <= 16, "in [1, 16]"),
            ("test_fraction", 0 < self.test_fraction < 1, "in (0, 1)"),
        ):
            if not ok:
                raise ConfigError(f"{attr} must be {expected}, got {getattr(self, attr)!r}")

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def eval_config_from_dict(doc: dict) -> EvaluationConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    for key in ("gen", "bim"):
        if not isinstance(doc.get(key, {}), dict):
            raise ConfigError(f"config field {key!r} must be a JSON object")
    doc = dict(doc)
    try:
        if "gen" in doc:
            doc["gen"] = GenSpec(**doc["gen"])
        if "bim" in doc:
            doc["bim"] = BimConfig(**doc["bim"])
        return EvaluationConfig(**doc)
    except TypeError as exc:
        raise ConfigError(f"bad evaluation config: {exc}") from exc


def load_eval_config(path) -> EvaluationConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return eval_config_from_dict(doc)


@dataclass(frozen=True, eq=False)  # arrays have no single == truth value
class EvaluationReport:
    pos_scores: tuple  # verdict scores of extracted test models, all repetitions
    neg_scores: tuple
    roc: RocCurve
    config_digest: str
    repetition_scores: tuple  # per rep: (pos tuple, neg tuple)
    train_profiles: tuple  # per rep: (extracted (M,n), non-extracted (M,n)) arrays


def _train_cfg(cfg: EvaluationConfig, seed: int) -> TrainConfig:
    return TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size, seed=seed)


def train_fresh(cfg: EvaluationConfig, data: Dataset, family: str, seed: int) -> Model:
    spec = family_spec(family, data.dims, data.class_count)
    model = init_model(spec, derive_seed(seed, "init"))
    return train(model, data.features, data.labels, _train_cfg(cfg, derive_seed(seed, "train")))


def build_attacked_model(cfg: EvaluationConfig, victim: Model, token: str, data: Dataset, seed: int) -> Model:
    """Run one attack token (e.g. 'RET' or 'WP(DIS)') against the victim.

    The token picks the queries (a sample of `data`, or random probes for
    CC), the targets (confidence vectors for DIS, labels otherwise) and the
    starting network (a pretrained model for TRL, else a fresh one of the
    protected family, or of the cross-arch family for CAR). The surrogate
    is sized from `data`, so `data` must have the victim's input and class
    counts."""
    base, blur_name = parse_attack_token(token)
    if (data.dims, data.class_count) != (victim.spec.input_dim, victim.spec.output_classes):
        raise InputError(
            f"dataset of {data.dims} features and {data.class_count} classes does not fit "
            f"a victim of {victim.spec.input_dim} inputs and {victim.spec.output_classes} classes"
        )
    if base == "CC":
        queries = random_probe_inputs(cfg.copycat_probe_factor * len(data), data.dims,
                                      seed=derive_seed(seed, "probes"))
    else:
        queries = sample_queries(data.features, cfg.query_budget_fraction, seed)
    if base == "TRL":
        # Pretraining data must match the victim's data shape, which need not be cfg.gen's.
        pre_gen = replace(cfg.gen, dims=data.dims, classes=data.class_count)
        pre_data = generate(pre_gen, derive_seed(seed, "pretrain-data"))
        surrogate = train_fresh(cfg, pre_data, cfg.protected_family, derive_seed(seed, "pretrain"))
    else:
        family = CROSS_ARCH_FAMILY if base == "CAR" else cfg.protected_family
        spec = family_spec(family, data.dims, data.class_count)
        surrogate = init_model(spec, derive_seed(seed, "surrogate-init"))
    model = extract(victim, queries, surrogate, _train_cfg(cfg, seed), base,
                    temperature=DISTILL_TEMPERATURE if base == "DIS" else None,
                    frozen_dense=FROZEN_LAYERS if base == "TRL" else 0)
    if blur_name is not None:
        model = blur_model(cfg, model, blur_name)
    return model


def blur_model(cfg: EvaluationConfig, model: Model, method: str) -> Model:
    """Blur with `method` ('WP' or 'WQ') at the config's sparsity or bit count."""
    if method == "WP":
        return blur_prune(model, cfg.prune_sparsity)
    return blur_quantize(model, cfg.quantize_bits)


def _attack_population(cfg, victim, tokens, data, count, seed, tag):
    """`count` models, attacks distributed evenly across `tokens`."""
    return [
        build_attacked_model(cfg, victim, tokens[i % len(tokens)], data,
                             derive_seed(seed, f"{tag}/{i}"))
        for i in range(count)
    ]


def _control_population(cfg, data, count, seed, tag):
    return [
        train_fresh(cfg, data, cfg.nonextracted_families[i % len(cfg.nonextracted_families)],
                    derive_seed(seed, f"{tag}/{i}"))
        for i in range(count)
    ]


def run_repetition(cfg: EvaluationConfig, train_set: Dataset, rep_seed: int):
    """One offline+online pass; returns (pos scores, neg scores, profiles, key-set)."""
    protected = train_fresh(cfg, train_set, cfg.protected_family, derive_seed(rep_seed, "protected"))
    ext_train = _attack_population(
        cfg, protected, cfg.seen_attacks, train_set, cfg.n_extracted_train, rep_seed, "ext-train"
    )
    ne_train = _control_population(cfg, train_set, cfg.n_nonextracted_train, rep_seed, "ne-train")
    keyset = generate_keyset(
        protected, ext_train, ne_train, train_set, cfg.keyset_size, cfg.bim,
        candidate_source=cfg.candidate_source,
    )
    verifier = build_verifier(ext_train, ne_train, keyset, cfg.classifier_kind)

    ext_test = _attack_population(
        cfg, protected, cfg.unseen_attacks, train_set, cfg.n_extracted_test, rep_seed, "ext-test"
    )
    ne_test = _control_population(cfg, train_set, cfg.n_nonextracted_test, rep_seed, "ne-test")

    def scores(models):
        keyed = sorted((model_digest(m), verify(m, verifier, keyset).score) for m in models)
        return tuple(s for _, s in keyed)

    profiles = (confidence_table(ext_train, keyset), confidence_table(ne_train, keyset))
    return scores(ext_test), scores(ne_test), profiles, keyset


def prepare_data(cfg: EvaluationConfig):
    """The (train, test) split of the config's dataset."""
    dataset = generate(cfg.gen, derive_seed(cfg.master_seed, "data"))
    return split(dataset, cfg.test_fraction, derive_seed(cfg.master_seed, "split"))


def run_raw_evaluation(cfg: EvaluationConfig) -> EvaluationReport:
    train_set, _test_set = prepare_data(cfg)
    rep_results = []
    for rep in range(cfg.repetitions):
        rep_seed = derive_seed(cfg.master_seed, f"rep/{rep}")
        pos, neg, profiles, _keyset = run_repetition(cfg, train_set, rep_seed)
        log.info("repetition %d: mean extracted score %.3f, mean control score %.3f",
                 rep, float(np.mean(pos)), float(np.mean(neg)))
        rep_results.append((pos, neg, profiles))
    all_pos = tuple(s for pos, _, _ in rep_results for s in pos)
    all_neg = tuple(s for _, neg, _ in rep_results for s in neg)
    roc = roc_auc(all_pos, all_neg)
    return EvaluationReport(
        pos_scores=all_pos,
        neg_scores=all_neg,
        roc=roc,
        config_digest=cfg.digest(),
        repetition_scores=tuple((pos, neg) for pos, neg, _ in rep_results),
        train_profiles=tuple(profiles for _, _, profiles in rep_results),
    )


def export_report(report: EvaluationReport, path):
    """ROC points plus summary metrics, re-importable without precision loss."""
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# seedmark-report auc={report.roc.auc!r} "
            f"tpr_at_fpr0={report.roc.tpr_at_fpr0!r} "
            f"fpr_at_tpr1={report.roc.fpr_at_tpr1!r} "
            f"config={report.config_digest}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for fpr, tpr in report.roc.points:
            writer.writerow([repr(fpr), repr(tpr)])


def dump_confidences(prof_e, prof_ne, path):
    """Per-watermark confidences of both populations, with group means.

    `prof_e` and `prof_ne` are (models, watermarks) confidence profiles."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["watermark", "mean_extracted", "mean_nonextracted"]
            + [f"extracted_{i}" for i in range(len(prof_e))]
            + [f"nonextracted_{i}" for i in range(len(prof_ne))]
        )
        for i in range(prof_e.shape[1]):
            writer.writerow(
                [i, repr(float(prof_e[:, i].mean())), repr(float(prof_ne[:, i].mean()))]
                + [repr(float(v)) for v in prof_e[:, i]]
                + [repr(float(v)) for v in prof_ne[:, i]]
            )
