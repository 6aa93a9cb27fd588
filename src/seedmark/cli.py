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
from .errors import INTEGER, NUMBER, InputError, SeedmarkError, WatermarkError, check, within
from .harness import (
    BLUR_METHODS,
    EvaluationConfig,
    _TOKEN,
    _control_population,
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
    check("--count", args.count, within("[1, inf)", INTEGER), InputError)
    cfg = _load_config(args)
    train_set, _ = prepare_data(cfg)
    os.makedirs(args.out, exist_ok=True)
    digest = cfg.digest()
    save_dataset(train_set, os.path.join(args.out, f"data-{digest}.json"))
    models = _control_population(cfg, train_set, args.count, cfg.master_seed, "population")
    for i, model in enumerate(models):
        family = cfg.nonextracted_families[i % len(cfg.nonextracted_families)]
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
    cfg = _load_config(args)
    train_set, test_set = prepare_data(cfg)
    protected = [
        train_fresh(cfg, train_set, cfg.protected_family,
                    derive_seed(cfg.master_seed, f"analysis/protected/{i}"))
        for i in range(cfg.n_nonextracted_train)
    ]
    extracted = [
        build_attacked_model(cfg, m, "RET", train_set,
                             derive_seed(cfg.master_seed, f"analysis/extracted/{i}"))
        for i, m in enumerate(protected)
    ]
    report = boundary.run_analysis(protected, extracted, test_set)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"boundary-{cfg.digest()}.csv")
    boundary.write_analysis_table(report, path)
    print(f"disagreements={report.disagreement_share:.4f} unique={report.unique_share:.4f} "
          f"transferable={report.transferable_share:.4f} "
          f"confidence={report.mean_transferable_confidence:.4f}")
    print(path)


def _check_victims(paths, models, protected_digest):
    """Raise a WatermarkError unless every extraction record of each
    `--extracted` model names the protected model as its victim."""
    for path, model in zip(paths, models):
        for record in model.provenance:
            if record["stage"] == "extracted" and record.get("victim") != protected_digest:
                raise WatermarkError(f"{path} was extracted from model {record.get('victim')}, "
                                     f"not from the protected model {protected_digest}")


def cmd_keygen(args):
    cfg = _load_config(args)
    protected = serialize.load_model(args.protected)
    extracted = [serialize.load_model(p) for p in args.extracted]
    _check_victims(args.extracted, extracted, serialize.model_digest(protected))
    nonextracted = [serialize.load_model(p) for p in args.nonextracted]
    data = load_dataset(args.data)
    keyset = watermark.generate_keyset(protected, extracted, nonextracted, data,
                                       cfg.keyset_size, cfg.bim)
    watermark.save_keyset(keyset, args.out)
    print(args.out)


def cmd_build_verifier(args):
    cfg = _load_config(args)
    keyset = watermark.load_keyset(args.keyset)
    extracted = [serialize.load_model(p) for p in args.extracted]
    if "protected" in keyset.provenance:
        _check_victims(args.extracted, extracted, keyset.provenance["protected"])
    nonextracted = [serialize.load_model(p) for p in args.nonextracted]
    verifier = watermark.build_verifier(extracted, nonextracted, keyset, cfg.classifier_kind)
    watermark.save_verifier(verifier, args.out)
    print(args.out)


def cmd_verify(args):
    """Score each `--suspect` against one key-set and verifier.

    Every suspect is read and scored before anything is printed, so a
    failure leaves stdout empty; among several suspects, its error names the
    suspect's path. One suspect prints its score, decisions and
    optional verdict lines; several print each block after a
    `suspect <path>` line."""
    if args.threshold is not None:
        check("--threshold", args.threshold, NUMBER, InputError)
    verifier = watermark.load_verifier(args.verifier)
    keyset = watermark.load_keyset(args.keyset)
    verdicts = []
    for path in args.suspect:
        try:
            verdicts.append(watermark.verify(serialize.load_model(path), verifier, keyset))
        except SeedmarkError as exc:
            if len(args.suspect) > 1:  # name the failing one among several
                exc.args = (f"suspect {path}: {exc}",)
            raise
    for path, verdict in zip(args.suspect, verdicts):
        if len(verdicts) > 1:
            print(f"suspect {path}")
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
    dump_confidences(watermark.confidence_table(extracted, keyset),
                     watermark.confidence_table(nonextracted, keyset), args.out)
    print(args.out)


# Every option of every subcommand: its `add_argument` keywords. An option
# means the same in each command that takes it.
OPTIONS = {
    "--config": {},
    "--seed": {"type": int},
    "--count": {"type": int, "default": 10},
    "--out": {"required": True},
    "--victim": {"required": True},
    "--data": {"required": True},
    "--attack": {"required": True, "help": _TOKEN.what},
    "--model": {"required": True},
    "--method": {"choices": BLUR_METHODS, "required": True},
    "--protected": {"required": True},
    "--extracted": {"nargs": "+", "required": True},
    "--nonextracted": {"nargs": "+", "required": True},
    "--keyset": {"required": True},
    "--suspect": {"action": "extend", "nargs": "+", "required": True},
    "--verifier": {"required": True},
    "--threshold": {"type": float, "default": None,
                    "help": "optionally print a binary verdict at this score threshold"},
    "--preset": {"choices": tuple(PRESETS),
                 "help": "set the seen/unseen attacks to one of the paper's scenarios"},
}

# Every subcommand: its entry point, its one-line help in `seedmark -h` and
# its options, in the order its usage lists them.
COMMANDS = {
    "train-population": (cmd_train_population, "train fresh seeded models",
                         ("--config", "--seed", "--count", "--out")),
    "extract": (cmd_extract, "run an extraction attack against a victim model",
                ("--config", "--seed", "--victim", "--data", "--attack", "--out")),
    "blur": (cmd_blur, "prune or quantize a model's weights",
             ("--config", "--model", "--method", "--out")),
    "analyze": (cmd_analyze, "population disagreement analysis",
                ("--config", "--seed", "--out")),
    "keygen": (cmd_keygen, "generate a watermark key-set",
               ("--config", "--protected", "--extracted", "--nonextracted", "--data", "--out")),
    "build-verifier": (cmd_build_verifier, "fit per-watermark classifiers",
                       ("--config", "--keyset", "--extracted", "--nonextracted", "--out")),
    "verify": (cmd_verify, "score one or more suspect models against a verifier",
               ("--suspect", "--verifier", "--keyset", "--threshold")),
    "evaluate": (cmd_evaluate, "run the full end-to-end evaluation",
                 ("--config", "--preset", "--seed", "--out")),
    "dump-confidences": (cmd_dump_confidences, "per-watermark confidence CSV",
                         ("--keyset", "--extracted", "--nonextracted", "--out")),
}


def build_parser(command=None):
    """The argparse tree. With `command` None it holds every subcommand;
    with one of `COMMANDS` it holds only that one's parser, and the root
    usage still names all nine, so its usage and errors read the same. A
    process runs one command, and building the other eight's parsers takes
    about as long as `verify` takes to read its files and score a suspect."""
    parser = argparse.ArgumentParser(prog="seedmark")
    parser.add_argument("-v", "--verbose", action="store_true")
    # the metavar argparse derives from all nine choices, so a one-command
    # tree's usage reads as the full tree's; only the full tree can print an
    # error about the command itself, which would name the metavar
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (fn, text, options) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=text)
            p.set_defaults(fn=fn)
            for option in options:
                p.add_argument(option, **OPTIONS[option])
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # a known command after nothing but the root's -v flag gets a one-command
    # tree; root help, a bad root option and a missing or unknown command get
    # all nine, whose help and errors list every command
    command = next((a for a in argv if a not in ("-v", "--verbose")), None)
    args = build_parser(command if command in COMMANDS else None).parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    # basicConfig leaves the level alone once the root logger has a handler
    logging.getLogger().setLevel(logging.INFO if args.verbose else logging.WARNING)
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
