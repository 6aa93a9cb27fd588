"""Command-line entry points.

Granular subcommands cover each pipeline stage (population training,
extraction, blurring, key-set generation, verifier fitting, verification)
and `evaluate` runs the whole end-to-end evaluation. On failure a single
machine-readable JSON error line goes to stderr and the exit code is 1.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import boundary, serialize, watermark
from .datasets import load_dataset, save_dataset
from .errors import SeedmarkError
from .harness import (
    BLUR_METHODS,
    EvaluationConfig,
    blur_model,
    build_attacked_model,
    dump_confidences,
    export_report,
    load_eval_config,
    prepare_data,
    run_raw_evaluation,
    train_fresh,
)
from .rng import derive_seed

# The paper's evaluation scenarios, as (seen, unseen) attack mixes.
PRESETS = {
    "naive": {"seen_attacks": ("RET",), "unseen_attacks": ("RET",)},
    "unseen": {"seen_attacks": ("TRL", "DIS"), "unseen_attacks": ("RET",)},
    "informed": {"seen_attacks": ("WQ(RET)",), "unseen_attacks": ("WP(RET)",)},
    "cross-arch": {"seen_attacks": ("TRL",), "unseen_attacks": ("CAR",)},
}


def _load_config(args) -> EvaluationConfig:
    """--config, then --preset's attack mix, then --seed."""
    cfg = load_eval_config(args.config) if args.config else EvaluationConfig()
    if getattr(args, "preset", None):
        cfg = replace(cfg, **PRESETS[args.preset])
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed)
    return cfg


def cmd_train_population(args):
    cfg = _load_config(args)
    train_set, _ = prepare_data(cfg)
    os.makedirs(args.out, exist_ok=True)
    digest = cfg.digest()
    save_dataset(train_set, os.path.join(args.out, f"data-{digest}.csv"))
    for i in range(args.count):
        family = cfg.nonextracted_families[i % len(cfg.nonextracted_families)]
        seed = derive_seed(cfg.master_seed, f"population/{i}")
        model = train_fresh(cfg, train_set, family, seed)
        path = os.path.join(args.out, f"model-{family}-{i:03d}-{digest}.json")
        serialize.save_model(model, path)
        print(path)


def cmd_extract(args):
    cfg = _load_config(args)
    victim = serialize.load_model(args.victim)
    data = load_dataset(args.data)
    model = build_attacked_model(cfg, victim, args.attack, data, cfg.master_seed)
    serialize.save_model(model, args.out)
    print(args.out)


def cmd_blur(args):
    cfg = _load_config(args)
    blurred = blur_model(cfg, serialize.load_model(args.model), args.method)
    serialize.save_model(blurred, args.out)
    print(args.out)


def cmd_analyze(args):
    from .bim import BimConfig

    cfg = _load_config(args)
    train_set, test_set = prepare_data(cfg)
    # analysis uses a gentler budget than key-set generation: a large step
    # drags every population member onto the target class, emptying the
    # recounted subsets
    analysis_bim = BimConfig(iterations=cfg.bim.iterations, epsilon=args.bim_epsilon)
    count = args.population or cfg.n_nonextracted_train
    protected = [
        train_fresh(cfg, train_set, cfg.protected_family,
                    derive_seed(cfg.master_seed, f"analysis/protected/{i}"))
        for i in range(count)
    ]
    extracted = [
        build_attacked_model(cfg, m, "RET", train_set,
                             derive_seed(cfg.master_seed, f"analysis/extracted/{i}"))
        for i, m in enumerate(protected)
    ]
    reports = [
        boundary.run_strategy_analysis(protected, extracted, test_set, strategy, analysis_bim)
        for strategy in boundary.STRATEGIES
    ]
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"boundary-{cfg.digest()}.csv")
    boundary.write_strategy_table(reports, path)
    for r in reports:
        print(
            f"{r.strategy}: disagreements={r.disagreement_share:.4f} "
            f"unique={r.unique_share:.4f} transferable={r.transferable_share:.4f} "
            f"confidence={r.mean_transferable_confidence:.4f}"
        )
    print(path)


def cmd_keygen(args):
    cfg = _load_config(args)
    protected = serialize.load_model(args.protected)
    extracted = [serialize.load_model(p) for p in args.extracted]
    nonextracted = [serialize.load_model(p) for p in args.nonextracted]
    data = load_dataset(args.data)
    keyset = watermark.generate_keyset(
        protected, extracted, nonextracted, data, cfg.keyset_size, cfg.bim,
        candidate_source=cfg.candidate_source,
    )
    watermark.save_keyset(keyset, args.out)
    print(args.out)


def cmd_build_verifier(args):
    cfg = _load_config(args)
    keyset = watermark.load_keyset(args.keyset)
    extracted = [serialize.load_model(p) for p in args.extracted]
    nonextracted = [serialize.load_model(p) for p in args.nonextracted]
    verifier = watermark.build_verifier(extracted, nonextracted, keyset, cfg.classifier_kind)
    watermark.save_verifier(verifier, args.out)
    print(args.out)


def cmd_verify(args):
    suspect = serialize.load_model(args.suspect)
    verifier = watermark.load_verifier(args.verifier)
    keyset = watermark.load_keyset(args.keyset)
    verdict = watermark.verify(suspect, verifier, keyset)
    print(f"score {verdict.score!r}")
    print("decisions " + "".join("E" if d else "." for d in verdict.decisions))
    if args.threshold is not None:
        print(f"verdict {'extracted' if verdict.score >= args.threshold else 'not-extracted'}")


def cmd_evaluate(args):
    cfg = _load_config(args)
    report = run_raw_evaluation(cfg)
    os.makedirs(args.out, exist_ok=True)
    digest = report.config_digest
    report_path = os.path.join(args.out, f"report-{digest}.csv")
    export_report(report, report_path)
    conf_path = os.path.join(args.out, f"confidences-{digest}.csv")
    dump_confidences(*report.train_profiles[0], conf_path)
    print(f"auc {report.roc.auc!r}")
    print(f"tpr_at_fpr0 {report.roc.tpr_at_fpr0!r}")
    print(f"fpr_at_tpr1 {report.roc.fpr_at_tpr1!r}")
    print(f"mean_extracted_score {float(np.mean(report.pos_scores))!r}")
    print(f"mean_nonextracted_score {float(np.mean(report.neg_scores))!r}")
    print(report_path)
    print(conf_path)


def cmd_dump_confidences(args):
    keyset = watermark.load_keyset(args.keyset)
    extracted = [serialize.load_model(p) for p in args.extracted]
    nonextracted = [serialize.load_model(p) for p in args.nonextracted]
    prof_e, prof_ne = (np.stack([watermark.confidence_profile(m, keyset) for m in pop])
                       for pop in (extracted, nonextracted))
    dump_confidences(prof_e, prof_ne, args.out)
    print(args.out)


def build_parser():
    parser = argparse.ArgumentParser(prog="seedmark")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("train-population", cmd_train_population, help="train fresh seeded models")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--out", required=True)

    p = add("extract", cmd_extract, help="run an extraction attack against a victim model")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--victim", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--attack", required=True, help="RET|DIS|TRL|CAR|CC or WP(...)/WQ(...)")
    p.add_argument("--out", required=True)

    p = add("blur", cmd_blur, help="prune or quantize a model's weights")
    p.add_argument("--config")
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=BLUR_METHODS, required=True)
    p.add_argument("--out", required=True)

    p = add("analyze", cmd_analyze, help="population disagreement/strategy analysis")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--population", type=int)
    p.add_argument("--bim-epsilon", type=float, default=0.05,
                   help="perturbation budget for the strengthening strategies")
    p.add_argument("--out", required=True)

    p = add("keygen", cmd_keygen, help="generate a watermark key-set")
    p.add_argument("--config")
    p.add_argument("--protected", required=True)
    p.add_argument("--extracted", nargs="+", required=True)
    p.add_argument("--nonextracted", nargs="+", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = add("build-verifier", cmd_build_verifier, help="fit per-watermark classifiers")
    p.add_argument("--config")
    p.add_argument("--keyset", required=True)
    p.add_argument("--extracted", nargs="+", required=True)
    p.add_argument("--nonextracted", nargs="+", required=True)
    p.add_argument("--out", required=True)

    p = add("verify", cmd_verify, help="score a suspect model against a verifier")
    p.add_argument("--suspect", required=True)
    p.add_argument("--verifier", required=True)
    p.add_argument("--keyset", required=True)
    p.add_argument("--threshold", type=float, default=None,
                   help="optionally print a binary verdict at this score threshold")

    p = add("evaluate", cmd_evaluate, help="run the full end-to-end evaluation")
    p.add_argument("--config")
    p.add_argument("--preset", choices=tuple(PRESETS),
                   help="set the seen/unseen attacks to one of the paper's scenarios")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = add("dump-confidences", cmd_dump_confidences, help="per-watermark confidence CSV")
    p.add_argument("--keyset", required=True)
    p.add_argument("--extracted", nargs="+", required=True)
    p.add_argument("--nonextracted", nargs="+", required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args.fn(args)
    except SeedmarkError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
