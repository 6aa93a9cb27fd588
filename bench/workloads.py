"""The four benchmark workloads.

Each workload has a `setup(seed, workdir)` that builds its inputs from the
workload seed, an `op(state, i)` that is the timed unit of work, a
`check_op` that validates one op's output outside the timed region, and a
`finish` that runs the whole-run checks and returns the detection AUC.
The program is only ever handed the generated configs, models and files.
"""

import contextlib
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from seedmark import cli, datasets, harness, metrics, nnet, serialize, watermark
from seedmark.datasets import GenSpec
from seedmark.harness import EvaluationConfig, parse_attack_token
from seedmark.rng import derive_seed

# Repetitions the eval-* ops cycle through, and that the AUC pools: the
# work done and the AUC are then functions of the seed, not of run length.
AUC_REPETITIONS = 3

# Every workload trains on master seed 0's data; the workload seed picks
# only the model and repetition seeds. Drawn afresh per seed, the data
# leaves fewer than 32 key-set candidates in about one repetition in
# seven (25 of 180), and the repetition aborts with WatermarkError (the open
# "well-separated data" defect, ROADMAP.md item 4). On seed 0's data the
# candidate count stayed at 57 or more across 630 model seeds.
DATA_SEED = 0


def mann_whitney_auc(pos, neg) -> float:
    """P(pos > neg) + P(pos == neg) / 2, by counting every pair."""
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def same_bits(a, b) -> bool:
    return [float(x).hex() for x in a] == [float(x).hex() for x in b]


def training_data(cfg: EvaluationConfig):
    """The train split as `run_raw_evaluation` derives it at master seed
    DATA_SEED."""
    dataset = datasets.generate(cfg.gen, derive_seed(DATA_SEED, "data"))
    return datasets.split(dataset, cfg.test_fraction, derive_seed(DATA_SEED, "split"))[0]


def populations(cfg, protected, train_set, tag):
    """(RET-extracted, control) models seeded like a harness repetition's."""
    seed = cfg.master_seed
    n_ext, n_ne = ((cfg.n_extracted_train, cfg.n_nonextracted_train) if tag == "train"
                   else (cfg.n_extracted_test, cfg.n_nonextracted_test))
    families = cfg.nonextracted_families
    extracted = [harness.build_attacked_model(cfg, protected, "RET", train_set,
                                              derive_seed(seed, f"ext-{tag}/{i}"))
                 for i in range(n_ext)]
    controls = [harness.train_fresh(cfg, train_set, families[i % len(families)],
                                    derive_seed(seed, f"ne-{tag}/{i}"))
                for i in range(n_ne)]
    return extracted, controls


def owner_models(cfg, train_set):
    """The protected model and its training populations, as the owner has them."""
    protected = harness.train_fresh(cfg, train_set, cfg.protected_family,
                                    derive_seed(cfg.master_seed, "protected"))
    return (protected, *populations(cfg, protected, train_set, "train"))


def expected_repetition_counts(cfg: EvaluationConfig, train_rows: int) -> dict:
    """Trainings, optimizer steps and digests one `run_repetition` makes today."""
    def steps(rows):
        return cfg.epochs * math.ceil(rows / cfg.batch_size)

    query_rows = int(round(train_rows * cfg.query_budget_fraction))
    calls = 1 + cfg.n_nonextracted_train + cfg.n_nonextracted_test
    total = steps(train_rows) * calls
    digests = 1 + cfg.n_extracted_test + cfg.n_nonextracted_test  # key-set + scores
    for tokens, count in ((cfg.seen_attacks, cfg.n_extracted_train),
                          (cfg.unseen_attacks, cfg.n_extracted_test)):
        for i in range(count):
            base, blur = parse_attack_token(tokens[i % len(tokens)])
            calls += 1
            digests += 1 + (blur is not None)  # victim digest, blur parent digest
            if base == "TRL":
                calls += 1
                total += steps(cfg.gen.classes * cfg.gen.samples_per_class)
            if base == "CC":
                total += steps(cfg.copycat_probe_factor * train_rows)
            else:
                total += steps(query_rows)
    return {"nnet.train.calls": calls, "nnet.train.steps": total,
            "serialize.model_digest.calls": digests}


class Workload:
    """A named workload; `overrides` are `EvaluationConfig` fields."""

    min_ops = 2

    def __init__(self, name, why, **overrides):
        self.name, self.why, self.overrides = name, why, overrides

    def config(self, seed) -> EvaluationConfig:
        return EvaluationConfig(master_seed=seed, **self.overrides)


@dataclass
class EvalState:
    cfg: EvaluationConfig
    train_set: object
    scores: dict = field(default_factory=dict)  # op index -> (pos, neg)


class EvalWorkload(Workload):
    """One op is one `harness.run_repetition`; op i is repetition i mod 3.

    At seed DATA_SEED the ops are `run_raw_evaluation`'s first three
    repetitions. Every op after the first cycle reruns a repetition and
    must reproduce its scores bit for bit."""

    min_ops = AUC_REPETITIONS + 1

    def config(self, seed) -> EvaluationConfig:
        return EvaluationConfig(master_seed=seed, repetitions=AUC_REPETITIONS, **self.overrides)

    def setup(self, seed, workdir):
        cfg = self.config(seed)
        return EvalState(cfg, training_data(cfg))

    def op(self, state, i):
        rep_seed = derive_seed(state.cfg.master_seed, f"rep/{i % AUC_REPETITIONS}")
        pos, neg, _profiles, _keyset = harness.run_repetition(state.cfg, state.train_set, rep_seed)
        return pos, neg

    def check_op(self, state, i, out):
        pos, neg = out
        cfg = state.cfg
        if (len(pos), len(neg)) != (cfg.n_extracted_test, cfg.n_nonextracted_test):
            return f"op {i}: expected {cfg.n_extracted_test}+{cfg.n_nonextracted_test} scores"
        if not all(0.0 <= s <= 1.0 for s in pos + neg):
            return f"op {i}: score outside [0, 1]"
        first = state.scores.setdefault(i % AUC_REPETITIONS, out)
        if not (same_bits(pos, first[0]) and same_bits(neg, first[1])):
            return f"op {i}: scores differ from op {i % AUC_REPETITIONS}'s run of the same repetition"
        return None

    def finish(self, state):
        missing = [i for i in range(AUC_REPETITIONS) if i not in state.scores]
        if missing:
            return None, [f"no AUC: repetitions {missing} failed"]
        problems = []
        pos = tuple(s for i in range(AUC_REPETITIONS) for s in state.scores[i][0])
        neg = tuple(s for i in range(AUC_REPETITIONS) for s in state.scores[i][1])
        auc = metrics.roc_auc(pos, neg).auc
        if abs(auc - mann_whitney_auc(pos, neg)) > 1e-12:
            problems.append(f"roc auc {auc!r} != pair-counting auc")
        return auc, problems

    def expected_counts(self, state):
        return expected_repetition_counts(state.cfg, len(state.train_set))


@dataclass
class KeygenState:
    cfg: EvaluationConfig
    train_set: object
    protected: object
    extracted: list
    controls: list
    test_extracted: list
    test_controls: list
    first: tuple = None  # (key-set, verifier, key-set bytes) of op 0


class KeygenWorkload(Workload):
    """One op is `generate_keyset` + `build_verifier` on populations trained in setup.

    The candidate count, and so the op's BIM work, depends mostly on the
    data (about 335 to 565 rows across data seeds 0-2) and little on the
    models (about 395 to 430 at DATA_SEED)."""

    def setup(self, seed, workdir):
        cfg = self.config(seed)
        train_set = training_data(cfg)
        protected, ext, ne = owner_models(cfg, train_set)
        test_ext, test_ne = populations(cfg, protected, train_set, "test")
        return KeygenState(cfg, train_set, protected, ext, ne, test_ext, test_ne)

    def op(self, state, i):
        cfg = state.cfg
        keyset = watermark.generate_keyset(
            state.protected, state.extracted, state.controls, state.train_set,
            cfg.keyset_size, cfg.bim, candidate_source=cfg.candidate_source,
        )
        return keyset, watermark.build_verifier(state.extracted, state.controls, keyset,
                                                cfg.classifier_kind)

    def check_op(self, state, i, out):
        keyset, verifier = out
        text = watermark.dump_keyset(keyset)
        if state.first is None:
            state.first = (keyset, verifier, text)
        elif text != state.first[2]:
            return f"op {i}: key-set bytes differ from op 0"
        if len(keyset) != state.cfg.keyset_size or len(verifier) != len(keyset):
            return f"op {i}: key-set or verifier has the wrong size"
        return None

    def finish(self, state):
        if state.first is None:
            return None, ["no AUC: no op produced a key-set"]
        keyset, verifier, _ = state.first
        problems = []
        data, eps = state.train_set, state.cfg.bim.epsilon
        preds = nnet.predict(state.protected, data.features)
        wrong = preds != data.labels
        if not np.array_equal(nnet.predict(state.protected, keyset.watermarks), keyset.labels):
            problems.append("protected model no longer predicts the key-set labels")
        for w, label in zip(keyset.watermarks, keyset.labels):
            near = np.abs(data.features - w).max(axis=1) <= eps + 1e-9
            if not (near & wrong & (data.labels != label)).any():
                problems.append("a watermark has no misclassified source row within epsilon")
                break
        pos = [watermark.verify(m, verifier, keyset).score for m in state.test_extracted]
        neg = [watermark.verify(m, verifier, keyset).score for m in state.test_controls]
        return metrics.roc_auc(pos, neg).auc, problems

    def expected_counts(self, state):
        return {"nnet.train.calls": 0, "bim.bim_batch.calls": 1}


@dataclass
class VerifyState:
    suspects: list  # (path, expected score)
    argv_tail: list
    pos: list
    neg: list


class VerifyCliWorkload(Workload):
    """One op is `seedmark verify` through `cli.main`, in process, on a suspect file."""

    def setup(self, seed, workdir):
        cfg = self.config(seed)
        train_set = training_data(cfg)
        protected, ext, ne = owner_models(cfg, train_set)
        keyset = watermark.generate_keyset(protected, ext, ne, train_set, cfg.keyset_size,
                                           cfg.bim, candidate_source=cfg.candidate_source)
        verifier = watermark.build_verifier(ext, ne, keyset, cfg.classifier_kind)
        keyset_path = os.path.join(workdir, "keyset.json")
        verifier_path = os.path.join(workdir, "verifier.json")
        watermark.save_keyset(keyset, keyset_path)
        watermark.save_verifier(verifier, verifier_path)
        test_ext, test_ne = populations(cfg, protected, train_set, "test")
        suspects = []
        for j, model in enumerate(test_ext + test_ne):
            path = os.path.join(workdir, f"suspect-{j:02d}.json")
            serialize.save_model(model, path)
            suspects.append((path, watermark.verify(model, verifier, keyset).score))
        scores = [s for _, s in suspects]
        return VerifyState(
            suspects,
            ["--verifier", verifier_path, "--keyset", keyset_path, "--threshold", "0.5"],
            scores[:len(test_ext)], scores[len(test_ext):],
        )

    def op(self, state, i):
        path, _ = state.suspects[i % len(state.suspects)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--suspect", path] + state.argv_tail)
        return code, out.getvalue()

    def check_op(self, state, i, out):
        code, text = out
        expected = state.suspects[i % len(state.suspects)][1]
        if code != 0:
            return f"op {i}: exit code {code}"
        printed = [line.split()[1] for line in text.splitlines() if line.startswith("score ")]
        if printed != [repr(expected)]:
            return f"op {i}: printed score {printed} != library score {expected!r}"
        return None

    def finish(self, state):
        return metrics.roc_auc(state.pos, state.neg).auc, []

    def expected_counts(self, state):
        return {"serialize.load_model.calls": 1, "watermark.verify.calls": 1}


WORKLOADS = {w.name: w for w in (
    EvalWorkload(
        "eval-naive",
        "headline RET->RET repetition, 33 same-shaped trainings: training-bound",
    ),
    EvalWorkload(
        "eval-mixed",
        "repetition over soft loss, frozen layers, pretraining, family C and blur: non-RET paths",
        seen_attacks=("TRL", "DIS", "WQ(RET)"), unseen_attacks=("CAR", "WP(RET)"),
    ),
    KeygenWorkload(
        "keygen-wide",
        "key-set + verifier over ~415 candidates with populations trained in setup: BIM-bound",
        gen=GenSpec(samples_per_class=1000),
    ),
    VerifyCliWorkload(
        "verify-cli",
        "the owner's online path: seedmark verify on saved artifacts; decodes, trains nothing",
    ),
)}

