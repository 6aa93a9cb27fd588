"""End-to-end evaluation harness.

A repetition is an owner stage, which trains the protected model and fresh
non-extracted controls, then an attack stage, which runs the offline
watermark stage against "seen" attacks and scores "unseen" ones (optionally
blurred) and the test controls. Verdict scores aggregate into a ROC curve.
The whole pipeline is a pure function of the config's master seed.
"""

import csv
import hashlib
import json
import logging
from dataclasses import dataclass, field, asdict, replace
from typing import Annotated, ClassVar

import numpy as np

from .attacks import ATTACKS, blur_prune, blur_quantize, sample_queries
from .bim import BimConfig
from .datasets import Dataset, GenSpec, check_fits, generate, split
from .datasets import random_probe_inputs
from .errors import NON_EMPTY, ConfigError, Rule, among, check, check_field_types, each
from .metrics import RocCurve, roc_auc
from .nnet import FAMILY_DEFAULTS, Model, TrainConfig, family_spec, forward, init_model, predict
from .nnet import train, train_jobs
from .rng import derive_seed
from .serialize import _OBJECT, _read_text, model_digest
from .watermark import VERIFIER_FIELDS, _fit_verifier
from .watermark import generate_keyset, verify

log = logging.getLogger(__name__)

BLUR_METHODS = ("WP", "WQ")

# CAR trains a surrogate of this family, DIS trains on the victim's confidences
# at this soft-label temperature, and TRL keeps this many of the pretrained
# network's first dense layers frozen (every family has at least three).
CROSS_ARCH_FAMILY = "C"
DISTILL_TEMPERATURE = 2.0
FROZEN_LAYERS = 1


# Every attack token, each extraction alone or inside a blur: 'RET' -> ('RET', None)
# and 'WP(DIS)' -> ('DIS', 'WP').
ATTACK_TOKENS = {f"{blur}({attack})" if blur else attack: (attack, blur)
                 for blur in (None, *BLUR_METHODS) for attack in ATTACKS}
_TOKEN = Rule(among(ATTACK_TOKENS).ok,
              f"{among(ATTACKS).what}, alone or inside "
              + " or ".join(f"{blur}(...)" for blur in BLUR_METHODS))


def parse_attack_token(token: str):
    """The (extraction, blur or None) of an attack token (`ATTACK_TOKENS`)."""
    check("attack token", token, _TOKEN, ConfigError)
    return ATTACK_TOKENS[token]


@dataclass(frozen=True)
class EvaluationConfig:
    master_seed: int = 0
    repetitions: Annotated[int, "[1, inf)"] = 5
    gen: GenSpec = GenSpec()
    # populations cycle through the families and the attacks, so each list needs an entry
    nonextracted_families: Annotated[tuple, NON_EMPTY, each(among(FAMILY_DEFAULTS))] = (
        "A", "B", "C")
    n_extracted_train: Annotated[int, "[1, inf)"] = 10
    n_nonextracted_train: Annotated[int, "[1, inf)"] = 10
    n_extracted_test: Annotated[int, "[1, inf)"] = 6
    n_nonextracted_test: Annotated[int, "[1, inf)"] = 6
    seen_attacks: Annotated[tuple, NON_EMPTY, each(_TOKEN)] = ("RET",)
    unseen_attacks: Annotated[tuple, NON_EMPTY, each(_TOKEN)] = ("RET",)
    classifier_kind: Annotated[str, among(VERIFIER_FIELDS)] = "lr"
    keyset_size: Annotated[int, "[1, inf)"] = 32
    epochs: Annotated[int, "[1, inf)"] = 10
    query_budget_fraction: Annotated[float, "(0, 1]"] = 0.5
    prune_sparsity: Annotated[float, "[0, 1)"] = 0.5
    quantize_bits: Annotated[int, "[1, 16]"] = 8
    bim: BimConfig = field(default_factory=BimConfig)
    # not settable: the split's test share, the family of the protected model and
    # of every surrogate but CAR's, CC's random probes per data row and the batch size
    test_fraction: ClassVar[float] = 0.5
    protected_family: ClassVar[str] = "A"
    copycat_probe_factor: ClassVar[int] = 20
    batch_size: ClassVar[int] = TrainConfig.batch_size
    # only bench/workloads.py reads it, to pass to `generate_keyset`
    candidate_source: ClassVar[str] = "misclassifications"

    def __post_init__(self):
        check_field_types(self, ConfigError)

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def eval_config_from_dict(doc: dict) -> EvaluationConfig:
    check("config", doc, _OBJECT, ConfigError)
    doc = dict(doc)
    try:
        for key, cls in (("gen", GenSpec), ("bim", BimConfig)):
            if key in doc:
                check(key, doc[key], _OBJECT, ConfigError)
                doc[key] = cls(**doc[key])
        return EvaluationConfig(**doc)
    except TypeError as exc:
        raise ConfigError(f"bad evaluation config: {exc}") from exc


def load_eval_config(path) -> EvaluationConfig:
    try:
        doc = json.loads(_read_text(path, ConfigError))
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


def _fresh_job(cfg: EvaluationConfig, data: Dataset, family: str, seed: int) -> tuple:
    """The `nnet.train_jobs` job of `train_fresh`."""
    spec = family_spec(family, data.dims, data.class_count)
    return (init_model(spec, derive_seed(seed, "init")), data.features, data.labels,
            TrainConfig(cfg.epochs, derive_seed(seed, "train")), 0)


def train_fresh(cfg: EvaluationConfig, data: Dataset, family: str, seed: int) -> Model:
    return train(*_fresh_job(cfg, data, family, seed))


def build_attacked_model(cfg: EvaluationConfig, victim: Model, token: str, data: Dataset, seed: int) -> Model:
    """Run one attack token (e.g. 'RET' or 'WP(DIS)') against the victim.

    The token picks the queries (a sample of `data`, or random probes for
    CC), the targets (confidence vectors for DIS, labels otherwise) and the
    starting network (a pretrained model for TRL, else a fresh one of the
    protected family, or of the cross-arch family for CAR). The surrogate
    is sized from `data`, so `data` must have the victim's input and class
    counts. This is `build_attacked_models` of one attack."""
    return build_attacked_models(cfg, [(victim, token, data, seed)])[0]


def build_attacked_models(cfg: EvaluationConfig, attacks) -> list:
    """`build_attacked_model` of each attack, a (victim, token, data, seed) tuple.

    Every TRL pretraining trains first, then every extraction, each in
    lockstep groups (`nnet.train_jobs`). Returns the models in attack order.
    Errors come in that order, after the token and shape checks: the pretrainings,
    then each attack's queries and targets, then the extractions, each in attack order."""
    parsed = [parse_attack_token(token) for _, token, _, _ in attacks]
    for victim, _, data, _ in attacks:
        check_fits(data, victim, "victim")
    # Pretraining data must match the victim's data shape, which need not be cfg.gen's.
    pretrained = iter(train_jobs([
        _fresh_job(cfg, generate(replace(cfg.gen, dims=data.dims, classes=data.class_count),
                                 derive_seed(seed, "pretrain-data")),
                   cfg.protected_family, derive_seed(seed, "pretrain"))
        for (_, _, data, seed), (base, _) in zip(attacks, parsed) if base == "TRL"]))
    jobs = []
    for (victim, _, data, seed), (base, _) in zip(attacks, parsed):
        if base == "CC":
            queries = random_probe_inputs(cfg.copycat_probe_factor * len(data), data.dims,
                                          seed=derive_seed(seed, "probes"))
        else:
            queries = sample_queries(data.features, cfg.query_budget_fraction, seed)
        if base == "TRL":
            surrogate = next(pretrained)
        else:
            family = CROSS_ARCH_FAMILY if base == "CAR" else cfg.protected_family
            spec = family_spec(family, data.dims, data.class_count)
            surrogate = init_model(spec, derive_seed(seed, "surrogate-init"))
        if base == "DIS":
            targets = forward(victim, queries)
            train_cfg = TrainConfig(cfg.epochs, seed, DISTILL_TEMPERATURE)
        else:
            targets, train_cfg = predict(victim, queries), TrainConfig(cfg.epochs, seed)
        jobs.append((surrogate, queries, targets, train_cfg,
                     FROZEN_LAYERS if base == "TRL" else 0))
    models = []
    for trained, (victim, _, _, _), (base, blur) in zip(train_jobs(jobs), attacks, parsed):
        model = Model(trained.spec, trained.params, trained.provenance + (
            dict(attack=base, victim=model_digest(victim), stage="extracted"),))
        models.append(model if blur is None else blur_model(cfg, model, blur))
    return models


def blur_model(cfg: EvaluationConfig, model: Model, method: str) -> Model:
    """Blur with `method` ('WP' or 'WQ') at the config's sparsity or bit count."""
    if method == "WP":
        return blur_prune(model, cfg.prune_sparsity)
    return blur_quantize(model, cfg.quantize_bits)


def train_fresh_models(cfg: EvaluationConfig, data: Dataset, runs) -> list:
    """`train_fresh` of each (family, seed) run, in lockstep groups (`nnet.train_jobs`).
    Returns the models in run order."""
    return train_jobs([_fresh_job(cfg, data, family, seed) for family, seed in runs])


def _control_runs(cfg, count, seed, tag):
    """The (family, seed) runs of a control population, cycling through the config's families."""
    families = cfg.nonextracted_families
    return [(families[i % len(families)], derive_seed(seed, f"{tag}/{i}")) for i in range(count)]


def owner_stage(cfg: EvaluationConfig, train_set: Dataset, rep_seed: int):
    """One repetition's (protected, ne-train, ne-test) models, trained in lockstep groups.
    It reads no attack, key-set, BIM, verifier, blur or query-budget setting, so configs
    differing only there share it."""
    runs = [(cfg.protected_family, derive_seed(rep_seed, "protected"))]
    runs += _control_runs(cfg, cfg.n_nonextracted_train, rep_seed, "ne-train")
    runs += _control_runs(cfg, cfg.n_nonextracted_test, rep_seed, "ne-test")
    models, n = train_fresh_models(cfg, train_set, runs), cfg.n_nonextracted_train
    return models[0], models[1 : 1 + n], models[1 + n :]


def attack_stage(cfg: EvaluationConfig, train_set: Dataset, rep_seed: int, owner):
    """Both extraction populations on an `owner_stage`, then the key-set, the verifier
    and the scores; returns (pos scores, neg scores, profiles, key-set), where the
    profiles are the seen extractions' and the ne-train controls' confidence tables
    that the verifier was fitted on."""
    protected, ne_train, ne_test = owner
    extracted = build_attacked_models(cfg, [
        (protected, tokens[i % len(tokens)], train_set, derive_seed(rep_seed, f"{tag}/{i}"))
        for tag, tokens, count in (("ext-train", cfg.seen_attacks, cfg.n_extracted_train),
                                   ("ext-test", cfg.unseen_attacks, cfg.n_extracted_test))
        for i in range(count)])
    ext_train, ext_test = extracted[:cfg.n_extracted_train], extracted[cfg.n_extracted_train:]
    keyset = generate_keyset(protected, ext_train, ne_train, train_set, cfg.keyset_size, cfg.bim)
    verifier, profiles = _fit_verifier(ext_train, ne_train, keyset, cfg.classifier_kind)

    def scores(models):
        keyed = sorted((model_digest(m), verify(m, verifier, keyset).score) for m in models)
        return tuple(s for _, s in keyed)

    return scores(ext_test), scores(ne_test), profiles, keyset


def run_repetition(cfg: EvaluationConfig, train_set: Dataset, rep_seed: int):
    """One offline+online pass: `attack_stage` on a fresh `owner_stage`."""
    return attack_stage(cfg, train_set, rep_seed, owner_stage(cfg, train_set, rep_seed))


def prepare_data(cfg: EvaluationConfig):
    """The (train, test) split of the config's dataset."""
    dataset = generate(cfg.gen, derive_seed(cfg.master_seed, "data"))
    return split(dataset, cfg.test_fraction, derive_seed(cfg.master_seed, "split"))


def owner_stages(cfg: EvaluationConfig):
    """The config's train split and each repetition's (seed, `owner_stage`)."""
    train_set, _test_set = prepare_data(cfg)
    seeds = [derive_seed(cfg.master_seed, f"rep/{rep}") for rep in range(cfg.repetitions)]
    return train_set, tuple((seed, owner_stage(cfg, train_set, seed)) for seed in seeds)


def attack_evaluation(cfg: EvaluationConfig, owners) -> EvaluationReport:
    """The report of the config's attacks on `owners`, the `owner_stages` of
    a config that differs from `cfg` only in fields `owner_stage` does not read."""
    train_set, stages = owners
    rep_results = []
    for rep, (rep_seed, owner) in enumerate(stages):
        pos, neg, profiles, _keyset = attack_stage(cfg, train_set, rep_seed, owner)
        log.info("repetition %d: mean extracted score %.3f, mean control score %.3f",
                 rep, float(np.mean(pos)), float(np.mean(neg)))
        rep_results.append((pos, neg, profiles))
    all_pos = tuple(s for pos, _, _ in rep_results for s in pos)
    all_neg = tuple(s for _, neg, _ in rep_results for s in neg)
    return EvaluationReport(
        pos_scores=all_pos,
        neg_scores=all_neg,
        roc=roc_auc(all_pos, all_neg),
        config_digest=cfg.digest(),
        repetition_scores=tuple((pos, neg) for pos, neg, _ in rep_results),
        train_profiles=tuple(profiles for _, _, profiles in rep_results),
    )


def run_raw_evaluation(cfg: EvaluationConfig) -> EvaluationReport:
    return attack_evaluation(cfg, owner_stages(cfg))


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
