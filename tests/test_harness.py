from dataclasses import replace

import numpy as np
import pytest

from seedmark.datasets import GenSpec, generate
from seedmark.errors import ConfigError
from seedmark.harness import (
    EvaluationConfig,
    build_attacked_model,
    dump_confidences,
    eval_config_from_dict,
    export_report,
    load_eval_config,
    parse_attack_token,
    prepare_data,
    read_report_csv,
    run_raw_evaluation,
    train_fresh,
)
from seedmark.nnet import accuracy, family_spec


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
        (" CC ", ("CC", None)),
        ("WP(DIS)", ("DIS", "WP")),
        ("WQ(RET)", ("RET", "WQ")),
    ])
    def test_valid(self, token, expected):
        assert parse_attack_token(token) == expected

    @pytest.mark.parametrize("token", ["XYZ", "WP(XYZ)", "WP(RET", "WZ(RET)", "WP()"])
    def test_invalid(self, token):
        with pytest.raises(ConfigError):
            parse_attack_token(token)


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
        ({"candidate_source": "bogus"}, "candidate_source must be one of"),
        ({"nonextracted_families": ("A", "Z")}, "unknown family 'Z'"),
        ({"cross_arch_family": "Z"}, "unknown family 'Z'"),
        ({"protected_family": "Z"}, "unknown family 'Z'"),
    ], ids=["seen", "unseen", "families", "source", "nonextracted-family",
            "cross-arch-family", "protected-family"])
    def test_bad_value_fails_at_construction(self, over, message):
        with pytest.raises(ConfigError, match=message):
            EvaluationConfig(**over)

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
        stages = [h["stage"] for h in model.provenance.history]
        assert stages[-2:] == ["extracted", "blurred"]

    def test_cross_arch_uses_other_family(self, victim_and_data):
        cfg, victim, train_set = victim_and_data
        model = build_attacked_model(cfg, victim, "CAR", train_set, 6)
        expected = family_spec(cfg.cross_arch_family, train_set.dims, train_set.class_count)
        assert model.spec == expected
        assert model.provenance.history[-1]["attack"] == "CAR"

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
        stages = [h["stage"] for h in model.provenance.history]
        assert "extracted" in stages and "blurred" in stages
        blurred = [h for h in model.provenance.history if h["stage"] == "blurred"][0]
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
    from seedmark.watermark import confidence_profile, generate_keyset

    cfg = tiny_config()
    train_set, _ = prepare_data(cfg)
    protected = train_fresh(cfg, train_set, "A", 1)
    ext = [build_attacked_model(cfg, protected, "RET", train_set, 10 + i) for i in range(2)]
    ne = [train_fresh(cfg, train_set, "B", 20 + i) for i in range(2)]
    keyset = generate_keyset(protected, ext, ne, train_set, 5)
    path = tmp_path / "conf.csv"
    prof_e, prof_ne = (np.stack([confidence_profile(m, keyset) for m in pop]) for pop in (ext, ne))
    dump_confidences(prof_e, prof_ne, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(keyset) + 1
    assert lines[0].split(",")[:3] == ["watermark", "mean_extracted", "mean_nonextracted"]
    first = lines[1].split(",")
    assert len(first) == 3 + len(ext) + len(ne)
    assert float(first[1]) == pytest.approx(np.mean([float(c) for c in first[3:5]]), abs=1e-12)
