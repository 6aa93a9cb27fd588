import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedmark.attacks import (
    ATTACKS,
    ExtractionConfig,
    _sample_queries,
    blur_prune,
    blur_quantize,
    extract,
    extract_copycat,
    extract_distillation,
    extract_retraining,
    extract_transfer,
)
from seedmark.datasets import GenSpec, generate, random_probe_inputs
from seedmark.errors import ConfigError, InputError, SpecError
from seedmark.harness import EvaluationConfig, build_attacked_model, parse_attack_token
from seedmark.nnet import (
    Dense,
    Model,
    ModelSpec,
    Provenance,
    TrainConfig,
    family_spec,
    forward,
    init_model,
    predict,
    train,
)

from conftest import random_small_model


def agreement(a, b, features):
    return float(np.mean(predict(a, features) == predict(b, features)))


@pytest.fixture(scope="module")
def surrogate_spec(blob_data):
    train_set, _ = blob_data
    return family_spec("A", train_set.dims, train_set.class_count)


def ret_cfg(surrogate_spec, seed=0, **over):
    return ExtractionConfig(
        kind="RET",
        surrogate_spec=surrogate_spec,
        train_cfg=TrainConfig(seed=seed),
        query_budget_fraction=over.pop("query_budget_fraction", 0.5),
        **over,
    )


class TestConfigs:
    def test_kind_specific_fields(self, surrogate_spec):
        with pytest.raises(ConfigError):
            ExtractionConfig("RET", surrogate_spec, TrainConfig(), distill_temperature=2.0)
        with pytest.raises(ConfigError):
            ExtractionConfig("DIS", surrogate_spec, TrainConfig())
        with pytest.raises(ConfigError):
            ExtractionConfig("TRL", surrogate_spec, TrainConfig())
        with pytest.raises(ConfigError):
            ExtractionConfig("RET", surrogate_spec, TrainConfig(), query_budget_fraction=0.0)

    def test_tokens_are_the_registry(self, surrogate_spec):
        # ExtractionConfig and the evaluation's attack tokens accept the same names
        assert tuple(ATTACKS) == ("RET", "DIS", "TRL", "CAR", "CC")
        for token in ATTACKS:
            assert parse_attack_token(token) == (token, None)
        for name in ("retraining", "cross_arch_retraining", "KNO", ""):
            with pytest.raises(ConfigError):
                ExtractionConfig(name, surrogate_spec, TrainConfig())
            with pytest.raises(ConfigError):
                parse_attack_token(name)

    def test_blur_config(self, trained_model):
        # an unknown blur method is a bad attack token: see TestTokens in test_harness.py
        with pytest.raises(ConfigError):
            blur_prune(trained_model, 1.0)
        with pytest.raises(ConfigError):
            blur_quantize(trained_model, 0)


class TestSampleQueries:
    def test_full_budget_is_shuffled_copy(self):
        data = generate(GenSpec(samples_per_class=25), 2)
        q = _sample_queries(data.features, 1.0, 5)
        assert len(q) == len(data)
        key = lambda arr: np.lexsort(arr.T)
        assert np.array_equal(q[key(q)], data.features[key(data.features)])

    def test_half_budget_exact(self):
        data = generate(GenSpec(samples_per_class=50), 2)  # N = 200
        assert len(_sample_queries(data.features, 0.5, 0)) == 100

    def test_deterministic(self):
        data = generate(GenSpec(), 2)
        assert np.array_equal(_sample_queries(data.features, 0.3, 7),
                              _sample_queries(data.features, 0.3, 7))


class TestRetraining:
    def test_inherits_key_behavior(self, trained_model, blob_data, surrogate_spec):
        # extraction premise: on the victim's own misclassifications, extracted
        # models repeat the victim's choices far more often than independent
        # models do (population means, 10 models each)
        train_set, _ = blob_data
        victim_preds = predict(trained_model, train_set.features)
        quirks = victim_preds != train_set.labels
        ext, ind = [], []
        for s in range(10):
            extracted = extract_retraining(trained_model, train_set.features,
                                           ret_cfg(surrogate_spec, seed=1000 + s))
            independent = train(init_model(surrogate_spec, 2000 + s), train_set.features,
                                train_set.labels, TrainConfig(seed=2000 + s))
            ext.append(np.mean(predict(extracted, train_set.features)[quirks] == victim_preds[quirks]))
            ind.append(np.mean(predict(independent, train_set.features)[quirks] == victim_preds[quirks]))
        assert np.mean(ext) > np.mean(ind)

    def test_determinism(self, trained_model, blob_data, surrogate_spec):
        train_set, _ = blob_data
        cfg = ret_cfg(surrogate_spec, seed=4)
        m1 = extract_retraining(trained_model, train_set.features, cfg)
        m2 = extract_retraining(trained_model, train_set.features, cfg)
        for (w1, _), (w2, _) in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    def test_provenance_records_attack(self, trained_model, blob_data, surrogate_spec):
        train_set, _ = blob_data
        m = extract_retraining(trained_model, train_set.features, ret_cfg(surrogate_spec))
        assert m.provenance.kind == "extracted"
        last = m.provenance.history[-1]
        assert last["attack"] == "RET" and "victim" in last

    def test_query_budget_too_small(self, trained_model, surrogate_spec):
        with pytest.raises(InputError):
            extract_retraining(trained_model, np.empty((0, 8)),
                               ret_cfg(surrogate_spec, query_budget_fraction=1.0))


class TestDistillation:
    def dis_cfg(self, spec, seed=0, temperature=1.0):
        return ExtractionConfig(
            kind="DIS", surrogate_spec=spec, train_cfg=TrainConfig(seed=seed),
            query_budget_fraction=0.5, distill_temperature=temperature,
        )

    def test_near_one_hot_targets_match_hard_labels(self, trained_model, blob_data):
        # at temperature 1 on confident responses, the soft targets carry
        # essentially the hard-label signal: per-sample KL is tiny
        train_set, _ = blob_data
        conf = forward(trained_model, train_set.features)
        confident = conf[conf.max(axis=1) > 0.99]
        hard = np.argmax(confident, axis=1)
        kl = -np.log(confident[np.arange(len(confident)), hard])
        assert kl.mean() < 0.05

    def test_closer_in_confidence_than_independent(self, trained_model, blob_data, surrogate_spec):
        # population means on the victim's misclassified training inputs,
        # where the inherited behavior concentrates
        train_set, _ = blob_data
        victim_preds = predict(trained_model, train_set.features)
        quirks = train_set.features[victim_preds != train_set.labels]
        victim_conf = forward(trained_model, quirks)
        d_dis, d_ind = [], []
        for s in range(6):
            distilled = extract_distillation(trained_model, train_set.features,
                                             self.dis_cfg(surrogate_spec, seed=600 + s, temperature=1.0))
            independent = train(init_model(surrogate_spec, 700 + s), train_set.features,
                                train_set.labels, TrainConfig(seed=700 + s))
            d_dis.append(np.linalg.norm(forward(distilled, quirks) - victim_conf, axis=1).mean())
            d_ind.append(np.linalg.norm(forward(independent, quirks) - victim_conf, axis=1).mean())
        assert np.mean(d_dis) < np.mean(d_ind)

    def test_determinism(self, trained_model, blob_data, surrogate_spec):
        train_set, _ = blob_data
        cfg = self.dis_cfg(surrogate_spec, seed=8, temperature=3.0)
        m1 = extract_distillation(trained_model, train_set.features, cfg)
        m2 = extract_distillation(trained_model, train_set.features, cfg)
        for (w1, _), (w2, _) in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)


@pytest.fixture(scope="module")
def pretrained(blob_data, surrogate_spec):
    train_set, _ = blob_data
    return train(init_model(surrogate_spec, 555), train_set.features,
                 train_set.labels, TrainConfig(seed=555))


class TestTransfer:
    def trl_cfg(self, spec, frozen, seed=0):
        return ExtractionConfig(
            kind="TRL", surrogate_spec=spec, train_cfg=TrainConfig(seed=seed),
            query_budget_fraction=0.5, frozen_layers=frozen,
        )

    def test_freeze_all_but_last(self, trained_model, blob_data, surrogate_spec, pretrained):
        train_set, _ = blob_data
        frozen = surrogate_spec.dense_count - 1
        tuned = extract_transfer(trained_model, train_set.features,
                                 self.trl_cfg(surrogate_spec, frozen), pretrained)
        for li in range(frozen):
            assert np.array_equal(tuned.weights[li][0], pretrained.weights[li][0])
        assert not np.array_equal(tuned.weights[-1][0], pretrained.weights[-1][0])

    def test_frozen_zero_equals_finetune_everything(self, trained_model, blob_data,
                                                    surrogate_spec, pretrained):
        train_set, _ = blob_data
        cfg = self.trl_cfg(surrogate_spec, 0, seed=3)
        tuned = extract_transfer(trained_model, train_set.features, cfg, pretrained)
        queries = _sample_queries(train_set.features, 0.5, cfg.train_cfg.seed)
        labels = predict(trained_model, queries)
        reference = train(pretrained, queries, labels, cfg.train_cfg)
        for (w1, b1), (w2, b2) in zip(tuned.weights, reference.weights):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_improves_victim_agreement(self, trained_model, blob_data, surrogate_spec, pretrained):
        train_set, test_set = blob_data
        tuned = extract_transfer(trained_model, train_set.features,
                                 self.trl_cfg(surrogate_spec, 1), pretrained)
        assert agreement(tuned, trained_model, test_set.features) > 0.9 * agreement(
            pretrained, trained_model, test_set.features
        )

    def test_freeze_everything_rejected(self, trained_model, blob_data, surrogate_spec, pretrained):
        train_set, _ = blob_data
        with pytest.raises(SpecError):
            extract_transfer(trained_model, train_set.features,
                             self.trl_cfg(surrogate_spec, surrogate_spec.dense_count), pretrained)


class TestCopycat:
    def cc_cfg(self, spec, seed=0):
        return ExtractionConfig(kind="CC", surrogate_spec=spec,
                                train_cfg=TrainConfig(seed=seed))

    def test_ample_probes_good_agreement(self, trained_model, blob_data, surrogate_spec):
        train_set, test_set = blob_data
        probes = random_probe_inputs(20 * len(train_set), train_set.dims, seed=17)
        copycat = extract_copycat(trained_model, probes, self.cc_cfg(surrogate_spec, seed=2))
        assert agreement(copycat, trained_model, test_set.features) >= 0.7

    def test_zero_probes_error(self, trained_model, surrogate_spec):
        with pytest.raises(InputError):
            extract_copycat(trained_model, np.empty((0, 8)), self.cc_cfg(surrogate_spec))

    def test_determinism(self, trained_model, blob_data, surrogate_spec):
        train_set, _ = blob_data
        probes = random_probe_inputs(200, train_set.dims, seed=3)
        cfg = self.cc_cfg(surrogate_spec, seed=5)
        m1 = extract_copycat(trained_model, probes, cfg)
        m2 = extract_copycat(trained_model, probes, cfg)
        for (w1, _), (w2, _) in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)


def tiny_model(w_flat, in_dim=2, out_dim=2, bias=None):
    spec = ModelSpec((Dense(in_dim, out_dim),), out_dim)
    w = np.array(w_flat, dtype=float).reshape(in_dim, out_dim)
    b = np.zeros(out_dim) if bias is None else np.array(bias, dtype=float)
    return Model(spec, ((w, b),), Provenance(0))


class TestPrune:
    def test_magnitude_ranking(self):
        m = tiny_model([0.1, -0.5, 0.3, -0.05])
        pruned = blur_prune(m, 0.5)
        assert np.array_equal(pruned.weights[0][0].ravel(), [0.0, -0.5, 0.3, 0.0])

    def test_zero_sparsity_identity(self, trained_model):
        pruned = blur_prune(trained_model, 0.0)
        for (w1, b1), (w2, b2) in zip(pruned.weights, trained_model.weights):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_exact_zero_fraction(self, trained_model):
        total = sum(w.size for w, _ in trained_model.weights)
        assert not any(np.any(w == 0.0) for w, _ in trained_model.weights)
        pruned = blur_prune(trained_model, 0.5)
        zeros = sum(int(np.sum(w == 0.0)) for w, _ in pruned.weights)
        assert zeros == int(np.floor(0.5 * total))

    def test_biases_untouched(self, trained_model):
        pruned = blur_prune(trained_model, 0.9)
        for (_, b1), (_, b2) in zip(pruned.weights, trained_model.weights):
            assert np.array_equal(b1, b2)

    def test_provenance(self, trained_model):
        pruned = blur_prune(trained_model, 0.5)
        assert pruned.provenance.kind == "blurred"
        assert pruned.provenance.history[-1]["method"] == "WP"


class TestQuantize:
    def test_level_grid(self):
        m = tiny_model([0.0, 1.0, 0.4, 0.7])
        q = blur_quantize(m, 2)
        levels = {0.0, 1 / 3, 2 / 3, 1.0}
        vals = q.weights[0][0].ravel()
        assert all(any(abs(v - l) < 1e-12 for l in levels) for v in vals)
        assert abs(vals[2] - 1 / 3) < 1e-12  # 0.4 snaps down

    def test_half_step_bound(self, trained_model):
        q = blur_quantize(trained_model, 4)
        for (wq, bq), (w, b) in zip(q.weights, trained_model.weights):
            lo = min(w.min(), b.min())
            hi = max(w.max(), b.max())
            step = (hi - lo) / 15
            assert np.abs(wq - w).max() <= step / 2 + 1e-12
            assert np.abs(bq - b).max() <= step / 2 + 1e-12

    def test_constant_layer_unchanged(self):
        m = tiny_model([0.25, 0.25, 0.25, 0.25], bias=[0.25, 0.25])
        q = blur_quantize(m, 3)
        assert np.array_equal(q.weights[0][0], m.weights[0][0])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_requantize_keeps_levels(self, seed, bits):
        """Quantizing again at the same bit count keeps every value on its
        level. The step is recomputed from the quantized range, which can
        differ from the original in its last bits, so a value may move by a
        few ulps of the layer's largest magnitude: the map is not bit-idempotent."""
        q = blur_quantize(random_small_model(np.random.default_rng(seed)), bits)
        qq = blur_quantize(q, bits)
        for (w, b), (w2, b2) in zip(q.weights, qq.weights, strict=True):
            x, y = np.concatenate([w.ravel(), b]), np.concatenate([w2.ravel(), b2])
            lo, hi = x.min(), x.max()
            step = (hi - lo) / ((1 << bits) - 1)
            assert np.array_equal(np.rint((x - lo) / step), np.rint((y - lo) / step))
            assert np.abs(y - x).max() <= 4 * np.spacing(max(abs(lo), abs(hi)))


def test_blur_dispatch(trained_model, blob_data):
    train_set, _ = blob_data
    cfg = EvaluationConfig(prune_sparsity=0.25, quantize_bits=6, epochs=2)
    p = build_attacked_model(cfg, trained_model, "WP(RET)", train_set, 3)
    q = build_attacked_model(cfg, trained_model, "WQ(RET)", train_set, 3)
    assert p.provenance.history[-1]["method"] == "WP"
    assert q.provenance.history[-1]["method"] == "WQ"
    assert p.provenance.history[-1]["sparsity"] == 0.25
    assert q.provenance.history[-1]["bits"] == 6


def test_extract_dispatch_requires_pretrained(trained_model, blob_data, surrogate_spec):
    train_set, _ = blob_data
    cfg = ExtractionConfig(kind="TRL", surrogate_spec=surrogate_spec,
                           train_cfg=TrainConfig(), frozen_layers=1)
    with pytest.raises(ConfigError):
        extract(trained_model, train_set.features, cfg)
