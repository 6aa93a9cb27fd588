from dataclasses import replace

import numpy as np
import pytest

from seedmark.attacks import extract, sample_queries
from seedmark.bim import BimConfig
from seedmark.cli import PRESETS
from seedmark.datasets import GenSpec, generate, random_probe_inputs
from seedmark.errors import ConfigError, SpecError
from seedmark.harness import (
    CROSS_ARCH_FAMILY,
    DISTILL_TEMPERATURE,
    FROZEN_LAYERS,
    EvaluationConfig,
    attack_evaluation,
    build_attacked_model,
    dump_confidences,
    eval_config_from_dict,
    export_report,
    load_eval_config,
    owner_stage,
    owner_stages,
    parse_attack_token,
    prepare_data,
    run_raw_evaluation,
    train_fresh,
)
from seedmark.nnet import TrainConfig, family_spec, init_model
from seedmark.rng import derive_seed
from seedmark.serialize import model_digest

from conftest import accuracy


def tiny_config(**over):
    base = dict(
        master_seed=3,
        repetitions=2,
        gen=GenSpec(classes=3, dims=4, samples_per_class=60),
        n_extracted_train=3,
        n_nonextracted_train=3,
        n_extracted_test=2,
        n_nonextracted_test=2,
        keyset_size=8,
        epochs=4,
    )
    base.update(over)
    return EvaluationConfig(**base)


class TestTokens:
    @pytest.mark.parametrize("token,expected", [
        ("RET", ("RET", None)),
        ("DIS", ("DIS", None)),
        ("WP(DIS)", ("DIS", "WP")),
        ("WQ(RET)", ("RET", "WQ")),
    ])
    def test_valid(self, token, expected):
        assert parse_attack_token(token) == expected

    @pytest.mark.parametrize("token", ["XYZ", "WP(XYZ)", "WP(RET", "WZ(RET)", "WP()", " CC "])
    def test_invalid(self, token):
        with pytest.raises(ConfigError):
            parse_attack_token(token)

    @pytest.mark.parametrize("parse, message", [
        (parse_attack_token, r"^attack token must be one of .*, got 'X+\.\.\.X+'$"),
        (lambda t: eval_config_from_dict({"seen_attacks": [t]}),
         r"^seen_attacks must be a list, each one of .*, got 'X+\.\.\.X+' at index 0$"),
    ], ids=["token", "config"])
    def test_long_token_error_is_short(self, parse, message):
        # the whole token used to be in the message: over 5,000 characters
        with pytest.raises(ConfigError, match=message) as exc:
            parse("X" * 5000)
        assert len(str(exc.value)) < 200


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EvaluationConfig(repetitions=0)
        with pytest.raises(ConfigError):
            EvaluationConfig(classifier_kind="forest")
        with pytest.raises(ConfigError):
            EvaluationConfig(seen_attacks=("NOPE",))

    @pytest.mark.parametrize("over, message", [
        ({"seen_attacks": ()}, "seen_attacks must be non-empty"),
        ({"unseen_attacks": ()}, "unseen_attacks must be non-empty"),
        ({"nonextracted_families": ()}, "nonextracted_families must be non-empty"),
        ({"nonextracted_families": ("A", "Z")},
         "^nonextracted_families must be a list, each one of 'A', 'B', 'C', got 'Z' at index 1$"),
        ({"query_budget_fraction": 0.0}, "query_budget_fraction must be in"),
        ({"query_budget_fraction": 2.0}, "query_budget_fraction must be in"),
        ({"epochs": 0}, r"^epochs must be in \[1, inf\), got 0$"),
        ({"prune_sparsity": 1.0}, "prune_sparsity must be in"),
        ({"quantize_bits": 0}, "quantize_bits must be in"),
        ({"classifier_kind": "forest"},
         "^classifier_kind must be one of 'lr', 'gnb', got 'forest'$"),
    ], ids=["seen", "unseen", "families", "nonextracted-family",
            "query-budget-zero", "query-budget-above-one", "epochs",
            "prune-sparsity", "quantize-bits", "classifier-kind"])
    def test_bad_value_fails_at_construction(self, over, message):
        with pytest.raises(ConfigError, match=message):
            EvaluationConfig(**over)

    @pytest.mark.parametrize("doc, error, message", [
        ({"keyset_size": 2.5}, ConfigError, "keyset_size must be an integer, got 2.5"),
        ({"epochs": 1.5}, ConfigError, "epochs must be an integer, got 1.5"),
        ({"quantize_bits": 2.5}, ConfigError, "quantize_bits must be an integer"),
        ({"gen": {"dims": 8.5}}, SpecError, "dims must be an integer, got 8.5"),
        ({"bim": {"iterations": 2.5}}, SpecError, "iterations must be an integer"),
        ({"master_seed": 1.0}, ConfigError, "master_seed must be an integer, got 1.0"),
        ({"repetitions": True}, ConfigError, "repetitions must be an integer, got True"),
        ({"nonextracted_families": "AB"}, ConfigError, "nonextracted_families must be a list"),
        ({"seen_attacks": "RET"}, ConfigError, "seen_attacks must be a list, got 'RET'"),
        ({"bim": {"epsilon": np.nan}}, SpecError, "epsilon must be a finite number, got nan"),
        ({"bim": {"epsilon": np.inf}}, SpecError, "epsilon must be a finite number, got inf"),
        ({"bim": {"epsilon": True}}, SpecError, "epsilon must be a finite number, got True"),
        ({"bim": {"epsilon": "0.3"}}, SpecError, "epsilon must be a finite number, got '0.3'"),
        ({"gen": {"spread": np.nan}}, SpecError, "spread must be a finite number, got nan"),
        ({"gen": {"spread": np.inf}}, SpecError, "spread must be a finite number, got inf"),
        ({"query_budget_fraction": True}, ConfigError, "query_budget_fraction must be a finite"),
        ({"query_budget_fraction": np.inf}, ConfigError,
         "query_budget_fraction must be a finite number, got inf"),
        ({"prune_sparsity": "0.5"}, ConfigError, "prune_sparsity must be a finite number"),
        ({"nonextracted_families": [["A"]]}, ConfigError,
         r"^nonextracted_families must be a list, each one of 'A', 'B', 'C', got \['A'\] "
         r"at index 0$"),
        ({"unseen_attacks": ["RET", 5]}, ConfigError,
         r"^unseen_attacks must be a list, each one of 'RET', 'DIS', 'TRL', 'CAR', 'CC', "
         r"alone or inside WP\(\.\.\.\) or WQ\(\.\.\.\), got 5 at index 1$"),
    ], ids=["keyset-size", "epochs", "quantize-bits", "gen-dims",
            "bim-iterations", "master-seed", "repetitions", "families-string",
            "attacks-string", "bim-epsilon-nan", "bim-epsilon-inf", "bim-epsilon-bool",
            "bim-epsilon-string", "gen-spread-nan", "gen-spread-inf", "query-budget-bool",
            "query-budget-inf", "prune-sparsity-string", "families-nested", "attack-number"])
    def test_wrong_type_fails_at_construction(self, doc, error, message):
        with pytest.raises(error, match=message):
            eval_config_from_dict(doc)

    @pytest.mark.parametrize("doc, key", [
        ({"gen": {"kind": "gaussian_blobs"}}, "kind"),
        ({"distill_temperature": 2.0}, "distill_temperature"),
        ({"frozen_layers": 1}, "frozen_layers"),
        ({"learning_rate": 1e-2}, "learning_rate"),
        ({"cross_arch_family": "C"}, "cross_arch_family"),
        ({"test_fraction": 0.5}, "test_fraction"),
        ({"protected_family": "A"}, "protected_family"),
        ({"copycat_probe_factor": 20}, "copycat_probe_factor"),
        ({"batch_size": 32}, "batch_size"),
        ({"candidate_source": "misclassifications"}, "candidate_source"),
    ], ids=["gen-kind", "distill-temperature", "frozen-layers", "learning-rate",
            "cross-arch-family", "test-fraction", "protected-family", "copycat-probe-factor",
            "batch-size", "candidate-source"])
    def test_removed_key_fails_as_unknown(self, doc, key):
        # one generator; DIS's temperature, TRL's frozen layers, CAR's family,
        # the learning rate, the test split's share, the protected family,
        # CC's probe factor, the batch size and the key-set's candidate rule
        # are fixed, even at their own values
        with pytest.raises(ConfigError, match=f"unexpected keyword argument '{key}'"):
            eval_config_from_dict(doc)

    def test_default_digest_golden_value(self):
        # The digest names every `evaluate` output file: changing it must be deliberate.
        assert EvaluationConfig().digest() == "d33b5d372718"

    def test_digest_sensitivity(self):
        a = tiny_config()
        b = tiny_config(master_seed=4)
        assert a.digest() != b.digest()
        assert a.digest() == tiny_config().digest()

    def test_from_dict_nested(self):
        cfg = eval_config_from_dict({
            "master_seed": 9,
            "gen": {"classes": 3, "dims": 4, "samples_per_class": 50},
            "bim": {"iterations": 5, "epsilon": 0.2},
        })
        assert cfg.gen.classes == 3
        assert cfg.bim.iterations == 5

    def test_from_dict_unknown_key(self):
        with pytest.raises(ConfigError):
            eval_config_from_dict({"master_sneed": 1})

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{ nope")
        with pytest.raises(ConfigError):
            load_eval_config(path)

    def test_load_file_round_trip(self, tmp_path):
        import json
        from dataclasses import asdict

        cfg = tiny_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
        assert load_eval_config(path) == cfg


def read_report_csv(path):
    """Return (points, auc recomputed from the points)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    points = [tuple(float(c) for c in line.split(",")) for line in lines[2:] if line]
    pts = np.array(points)
    return points, float(np.trapezoid(pts[:, 1], pts[:, 0]))


@pytest.fixture(scope="module")
def tiny_report():
    return run_raw_evaluation(tiny_config())


class TestEvaluation:
    def test_shapes(self, tiny_report):
        cfg = tiny_config()
        assert len(tiny_report.pos_scores) == cfg.repetitions * cfg.n_extracted_test
        assert len(tiny_report.neg_scores) == cfg.repetitions * cfg.n_nonextracted_test
        assert len(tiny_report.repetition_scores) == cfg.repetitions
        assert all(0.0 <= s <= 1.0 for s in tiny_report.pos_scores + tiny_report.neg_scores)

    def test_bit_identical_rerun(self, tiny_report):
        again = run_raw_evaluation(tiny_config())
        assert again.pos_scores == tiny_report.pos_scores
        assert again.neg_scores == tiny_report.neg_scores
        assert again.roc.auc == tiny_report.roc.auc
        assert again.config_digest == tiny_report.config_digest
        for (e1, n1), (e2, n2) in zip(again.train_profiles, tiny_report.train_profiles):
            assert np.array_equal(e1, e2)
            assert np.array_equal(n1, n2)

    def test_seed_changes_scores(self, tiny_report):
        other = run_raw_evaluation(tiny_config(master_seed=4))
        assert other.pos_scores != tiny_report.pos_scores

    def test_separation_on_tiny_run(self, tiny_report):
        assert np.mean(tiny_report.pos_scores) > np.mean(tiny_report.neg_scores)

    def test_report_round_trip(self, tiny_report, tmp_path):
        path = tmp_path / "report.csv"
        export_report(tiny_report, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("# seedmark-report auc=")
        points, auc = read_report_csv(path)
        assert points == list(tiny_report.roc.points)
        assert auc == pytest.approx(tiny_report.roc.auc, abs=1e-9)


# a value other than the default for each field the owner stage must not read
ATTACK_SIDE = dict(
    seen_attacks=("WQ(DIS)", "CAR"), unseen_attacks=("CC",), keyset_size=3,
    bim=BimConfig(iterations=3, epsilon=0.1), classifier_kind="gnb", query_budget_fraction=0.2,
    prune_sparsity=0.9, quantize_bits=3, n_extracted_train=1, n_extracted_test=5,
)


def owner_digests(cfg, rep_seed=11):
    """The `model_digest`s of the owner stage's protected, ne-train and ne-test models."""
    protected, ne_train, ne_test = owner_stage(cfg, prepare_data(cfg)[0], rep_seed)
    return model_digest(protected), [model_digest(m) for m in ne_train + ne_test]


def same_bits(a, b) -> bool:
    return [float(x).hex() for x in a] == [float(x).hex() for x in b]


class TestOwnerStage:
    @pytest.mark.parametrize("field", [*ATTACK_SIDE, "all"])
    def test_reads_no_attack_setting(self, field):
        over = ATTACK_SIDE if field == "all" else {field: ATTACK_SIDE[field]}
        assert owner_digests(tiny_config(**over)) == owner_digests(tiny_config())

    @pytest.mark.parametrize("over, rep_seed", [({"epochs": 5}, 11), ({}, 12)],
                             ids=["epochs", "rep-seed"])
    def test_training_settings_and_seed_change_every_model(self, over, rep_seed):
        protected, controls = owner_digests(tiny_config(**over), rep_seed)
        base_protected, base_controls = owner_digests(tiny_config())
        assert protected != base_protected
        assert all(a != b for a, b in zip(controls, base_controls))

    def test_shared_owner_stages_give_solo_bytes(self, tmp_path):
        """Two attack mixes on the owner stages of a third config write the
        report bytes, scores and profiles of their own solo evaluations."""
        owners = owner_stages(tiny_config(**ATTACK_SIDE))
        for preset in ("naive", "cross-arch"):
            cfg = tiny_config(**PRESETS[preset])
            shared, solo = attack_evaluation(cfg, owners), run_raw_evaluation(cfg)
            export_report(shared, tmp_path / "shared.csv")
            export_report(solo, tmp_path / "solo.csv")
            assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "solo.csv").read_bytes()
            assert len(shared.repetition_scores) == cfg.repetitions
            for (pos, neg), (solo_pos, solo_neg) in zip(shared.repetition_scores,
                                                        solo.repetition_scores):
                assert same_bits(pos, solo_pos) and same_bits(neg, solo_neg)
            for profiles, solo_profiles in zip(shared.train_profiles, solo.train_profiles):
                assert [p.tobytes() for p in profiles] == [p.tobytes() for p in solo_profiles]


@pytest.fixture(scope="module")
def victim_and_data():
    cfg = tiny_config()
    train_set, _ = prepare_data(cfg)
    victim = train_fresh(cfg, train_set, "A", 77)
    return cfg, victim, train_set


class TestAttackedModels:
    def test_train_fresh_deterministic(self, victim_and_data):
        cfg, victim, train_set = victim_and_data
        again = train_fresh(cfg, train_set, "A", 77)
        for (w1, _), (w2, _) in zip(victim.weights, again.weights):
            assert np.array_equal(w1, w2)

    def test_blur_token_produces_zeros(self, victim_and_data):
        cfg, victim, train_set = victim_and_data
        model = build_attacked_model(cfg, victim, "WP(RET)", train_set, 5)
        flat = np.concatenate([w.ravel() for w, _ in model.weights])
        assert np.count_nonzero(flat == 0.0) == int(cfg.prune_sparsity * flat.size)
        stages = [h["stage"] for h in model.provenance]
        assert stages[-2:] == ["extracted", "blurred"]

    def test_cross_arch_uses_other_family(self, victim_and_data):
        cfg, victim, train_set = victim_and_data
        model = build_attacked_model(cfg, victim, "CAR", train_set, 6)
        expected = family_spec(CROSS_ARCH_FAMILY, train_set.dims, train_set.class_count)
        assert model.spec == expected
        assert model.provenance[-1]["attack"] == "CAR"

    @pytest.mark.parametrize("token", ["RET", "DIS", "TRL", "CAR", "CC"])
    def test_token_picks_the_inputs_of_extract(self, victim_and_data, token):
        """Each token is `extract` on its queries, surrogate and targets."""
        cfg, victim, data = victim_and_data
        seed = 9
        queries = sample_queries(data.features, cfg.query_budget_fraction, seed)
        family = CROSS_ARCH_FAMILY if token == "CAR" else cfg.protected_family
        surrogate = init_model(family_spec(family, data.dims, data.class_count),
                               derive_seed(seed, "surrogate-init"))
        kwargs = {}
        if token == "CC":
            queries = random_probe_inputs(cfg.copycat_probe_factor * len(data), data.dims,
                                          seed=derive_seed(seed, "probes"))
        if token == "DIS":
            kwargs["temperature"] = DISTILL_TEMPERATURE
        if token == "TRL":
            pre_data = generate(replace(cfg.gen, dims=data.dims, classes=data.class_count),
                                derive_seed(seed, "pretrain-data"))
            surrogate = train_fresh(cfg, pre_data, cfg.protected_family,
                                    derive_seed(seed, "pretrain"))
            kwargs["frozen_dense"] = FROZEN_LAYERS
        train_cfg = TrainConfig(epochs=cfg.epochs, seed=seed)
        expected = extract(victim, queries, surrogate, train_cfg, token, **kwargs)
        model = build_attacked_model(cfg, victim, token, data, seed)
        assert model.spec == expected.spec and model.provenance == expected.provenance
        for (w1, b1), (w2, b2) in zip(model.weights, expected.weights, strict=True):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_transfer_attack_on_data_unlike_default_gen(self):
        cfg = EvaluationConfig()
        data_5x3 = generate(GenSpec(classes=3, dims=5, samples_per_class=60), seed=4)
        assert (data_5x3.dims, data_5x3.class_count) != (cfg.gen.dims, cfg.gen.classes)
        victim = train_fresh(cfg, data_5x3, cfg.protected_family, 12)
        model = build_attacked_model(cfg, victim, "TRL", data_5x3, 13)
        assert model.spec == family_spec(cfg.protected_family, 5, 3)

    def test_informed_pipeline_records_both_stages(self, victim_and_data):
        cfg, victim, train_set = victim_and_data
        model = build_attacked_model(replace(cfg, quantize_bits=6), victim, "WQ(RET)", train_set, 8)
        stages = [h["stage"] for h in model.provenance]
        assert "extracted" in stages and "blurred" in stages
        blurred = [h for h in model.provenance if h["stage"] == "blurred"][0]
        assert blurred["method"] == "WQ" and blurred["bits"] == 6

    def test_blurred_accuracy_close(self, victim_and_data):
        cfg, victim, train_set = victim_and_data
        base = accuracy(victim, train_set.features, train_set.labels)
        quantized = build_attacked_model(cfg, victim, "WQ(RET)", train_set, 5)
        ref = build_attacked_model(cfg, victim, "RET", train_set, 5)
        acc_q = accuracy(quantized, train_set.features, train_set.labels)
        acc_r = accuracy(ref, train_set.features, train_set.labels)
        assert abs(acc_q - acc_r) <= 0.10
        assert base > 0.5  # sanity: the victim actually learned something


def test_dump_confidences_rows(tmp_path):
    from seedmark.watermark import confidence_table, generate_keyset

    cfg = tiny_config()
    train_set, _ = prepare_data(cfg)
    protected = train_fresh(cfg, train_set, "A", 1)
    ext = [build_attacked_model(cfg, protected, "RET", train_set, 10 + i) for i in range(2)]
    ne = [train_fresh(cfg, train_set, "B", 20 + i) for i in range(2)]
    keyset = generate_keyset(protected, ext, ne, train_set, 5)
    path = tmp_path / "conf.csv"
    dump_confidences(confidence_table(ext, keyset), confidence_table(ne, keyset), path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(keyset) + 1
    assert lines[0].split(",")[:3] == ["watermark", "mean_extracted", "mean_nonextracted"]
    first = lines[1].split(",")
    assert len(first) == 3 + len(ext) + len(ne)
    assert float(first[1]) == pytest.approx(np.mean([float(c) for c in first[3:5]]), abs=1e-12)
