import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedmark.attacks import ATTACKS, blur_prune, blur_quantize, extract, sample_queries
from seedmark.datasets import GenSpec, generate, random_probe_inputs
from seedmark.errors import ConfigError, InputError, SpecError
from seedmark.harness import EvaluationConfig, build_attacked_model, parse_attack_token
from seedmark.nnet import (
    Model,
    ModelSpec,
    TrainConfig,
    family_spec,
    forward,
    init_model,
    predict,
    train,
)
from seedmark.rng import derive_seed

from conftest import flat_params, random_small_model


def agreement(a, b, features):
    return float(np.mean(predict(a, features) == predict(b, features)))


@pytest.fixture(scope="module")
def surrogate_spec(blob_data):
    train_set, _ = blob_data
    return family_spec("A", train_set.dims, train_set.class_count)


def fresh_extract(victim, inputs, spec, seed, attack="RET", temperature=None):
    """`build_attacked_model`'s extraction for a fresh surrogate: half the
    inputs as queries, the surrogate initialized from the attack seed."""
    return extract(victim, sample_queries(inputs, 0.5, seed),
                   init_model(spec, derive_seed(seed, "surrogate-init")),
                   TrainConfig(seed=seed), attack, temperature=temperature)


class TestConfigs:
    def test_tokens_are_the_registry(self):
        # the attack tokens are the names the evaluation's token parser accepts
        assert ATTACKS == ("RET", "DIS", "TRL", "CAR", "CC")
        for token in ATTACKS:
            assert parse_attack_token(token) == (token, None)
        for name in ("retraining", "cross_arch_retraining", "KNO", ""):
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
        q = sample_queries(data.features, 1.0, 5)
        assert len(q) == len(data)
        key = lambda arr: np.lexsort(arr.T)
        assert np.array_equal(q[key(q)], data.features[key(data.features)])

    def test_half_budget_exact(self):
        data = generate(GenSpec(samples_per_class=50), 2)  # N = 200
        assert len(sample_queries(data.features, 0.5, 0)) == 100

    def test_deterministic(self):
        data = generate(GenSpec(), 2)
        assert np.array_equal(sample_queries(data.features, 0.3, 7),
                              sample_queries(data.features, 0.3, 7))


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
            extracted = fresh_extract(trained_model, train_set.features, surrogate_spec, 1000 + s)
            independent = train(init_model(surrogate_spec, 2000 + s), train_set.features,
                                train_set.labels, TrainConfig(seed=2000 + s))
            ext.append(np.mean(predict(extracted, train_set.features)[quirks] == victim_preds[quirks]))
            ind.append(np.mean(predict(independent, train_set.features)[quirks] == victim_preds[quirks]))
        assert np.mean(ext) > np.mean(ind)

    def test_determinism(self, trained_model, blob_data, surrogate_spec):
        train_set, _ = blob_data
        m1 = fresh_extract(trained_model, train_set.features, surrogate_spec, 4)
        m2 = fresh_extract(trained_model, train_set.features, surrogate_spec, 4)
        for (w1, _), (w2, _) in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    def test_provenance_records_attack(self, trained_model, blob_data, surrogate_spec):
        train_set, _ = blob_data
        m = fresh_extract(trained_model, train_set.features, surrogate_spec, 0)
        last = m.provenance[-1]
        assert last["stage"] == "extracted"
        assert last["attack"] == "RET" and "victim" in last

    def test_query_budget_too_small(self):
        with pytest.raises(InputError):
            sample_queries(np.empty((0, 8)), 1.0, 0)
        with pytest.raises(InputError):
            sample_queries(np.zeros((3, 8)), 0.1, 0)
        # a fraction outside (0, 1] names itself instead of clamping or failing bare
        for fraction in (1.5, 0.0, -0.5, np.nan, np.inf, "0.5", None):
            with pytest.raises(InputError, match=r"fraction must be a number in \(0, 1\], "
                                                 f"got {re.escape(repr(fraction))}"):
                sample_queries(np.zeros((10, 3)), fraction, 0)


class TestDistillation:
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
            distilled = fresh_extract(trained_model, train_set.features, surrogate_spec,
                                      600 + s, "DIS", temperature=1.0)
            independent = train(init_model(surrogate_spec, 700 + s), train_set.features,
                                train_set.labels, TrainConfig(seed=700 + s))
            d_dis.append(np.linalg.norm(forward(distilled, quirks) - victim_conf, axis=1).mean())
            d_ind.append(np.linalg.norm(forward(independent, quirks) - victim_conf, axis=1).mean())
        assert np.mean(d_dis) < np.mean(d_ind)

    def test_determinism(self, trained_model, blob_data, surrogate_spec):
        train_set, _ = blob_data
        m1, m2 = (fresh_extract(trained_model, train_set.features, surrogate_spec, 8, "DIS",
                                temperature=3.0) for _ in range(2))
        for (w1, _), (w2, _) in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)


@pytest.fixture(scope="module")
def pretrained(blob_data, surrogate_spec):
    train_set, _ = blob_data
    return train(init_model(surrogate_spec, 555), train_set.features,
                 train_set.labels, TrainConfig(seed=555))


def transfer(victim, inputs, pretrained, frozen, seed=0):
    return extract(victim, sample_queries(inputs, 0.5, seed), pretrained,
                   TrainConfig(seed=seed), "TRL", frozen_dense=frozen)


class TestTransfer:
    def test_freeze_all_but_last(self, trained_model, blob_data, surrogate_spec, pretrained):
        train_set, _ = blob_data
        frozen = surrogate_spec.dense_count - 1
        tuned = transfer(trained_model, train_set.features, pretrained, frozen)
        for li in range(frozen):
            assert np.array_equal(tuned.weights[li][0], pretrained.weights[li][0])
        assert not np.array_equal(tuned.weights[-1][0], pretrained.weights[-1][0])

    def test_frozen_zero_equals_finetune_everything(self, trained_model, blob_data,
                                                    surrogate_spec, pretrained):
        train_set, _ = blob_data
        tuned = transfer(trained_model, train_set.features, pretrained, 0, seed=3)
        queries = sample_queries(train_set.features, 0.5, 3)
        labels = predict(trained_model, queries)
        reference = train(pretrained, queries, labels, TrainConfig(seed=3))
        for (w1, b1), (w2, b2) in zip(tuned.weights, reference.weights):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_improves_victim_agreement(self, trained_model, blob_data, surrogate_spec, pretrained):
        train_set, test_set = blob_data
        tuned = transfer(trained_model, train_set.features, pretrained, 1)
        assert agreement(tuned, trained_model, test_set.features) > 0.9 * agreement(
            pretrained, trained_model, test_set.features
        )

    def test_freeze_everything_rejected(self, trained_model, blob_data, surrogate_spec, pretrained):
        train_set, _ = blob_data
        with pytest.raises(SpecError):
            transfer(trained_model, train_set.features, pretrained, surrogate_spec.dense_count)

    @pytest.mark.parametrize("frozen", [-1, True, 1.5], ids=["negative", "bool", "fraction"])
    def test_frozen_count_must_be_a_whole_layer_count(self, trained_model, blob_data, pretrained,
                                                      frozen):
        train_set, _ = blob_data
        with pytest.raises(SpecError, match="frozen_dense must be an integer in"):
            transfer(trained_model, train_set.features, pretrained, frozen)


def copycat(victim, probes, spec, seed=0):
    return extract(victim, probes, init_model(spec, derive_seed(seed, "surrogate-init")),
                   TrainConfig(seed=seed), "CC")


class TestCopycat:
    def test_ample_probes_good_agreement(self, trained_model, blob_data, surrogate_spec):
        train_set, test_set = blob_data
        probes = random_probe_inputs(20 * len(train_set), train_set.dims, seed=17)
        model = copycat(trained_model, probes, surrogate_spec, seed=2)
        assert agreement(model, trained_model, test_set.features) >= 0.7

    def test_zero_probes_error(self, trained_model, surrogate_spec):
        with pytest.raises(InputError):
            copycat(trained_model, np.empty((0, 8)), surrogate_spec)

    def test_determinism(self, trained_model, blob_data, surrogate_spec):
        train_set, _ = blob_data
        probes = random_probe_inputs(200, train_set.dims, seed=3)
        m1 = copycat(trained_model, probes, surrogate_spec, seed=5)
        m2 = copycat(trained_model, probes, surrogate_spec, seed=5)
        for (w1, _), (w2, _) in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)


def tiny_model(w_flat, in_dim=2, out_dim=2, bias=None):
    spec = ModelSpec((in_dim, out_dim))
    w = np.array(w_flat, dtype=float).reshape(in_dim, out_dim)
    b = np.zeros(out_dim) if bias is None else np.array(bias, dtype=float)
    return Model(spec, flat_params(((w, b),)), ())


@pytest.mark.parametrize("blur", [lambda m: blur_prune(m, 0.5), lambda m: blur_quantize(m, 2)],
                         ids=["WP", "WQ"])
def test_blur_leaves_its_input_untouched(trained_model, blur):
    before = trained_model.params.copy()
    blurred = blur(trained_model)
    assert trained_model.params.tobytes() == before.tobytes()
    assert not np.shares_memory(blurred.params, trained_model.params)


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
        assert pruned.provenance[-1]["stage"] == "blurred"
        assert pruned.provenance[-1]["method"] == "WP"


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
        """Quantizing again at the same bit count changes no bit: the end
        levels are exactly the layer's min and max, so the grid is rebuilt
        from the same lo and hi."""
        q = blur_quantize(random_small_model(np.random.default_rng(seed)), bits)
        qq = blur_quantize(q, bits)
        assert qq.params.tobytes() == q.params.tobytes()
        for w, b in q.weights:
            assert len(np.unique(np.concatenate([w.ravel(), b]))) <= 1 << bits

    def test_requantize_is_bit_identical_on_a_probe(self):
        # 600 random small models at 8 bit counts: the grid lo + k*step, with
        # the step recomputed from the snapped maximum, moved 18 of these
        # 4,800 quantized models in their last bits
        rng = np.random.default_rng(0)
        moved = []
        for i in range(600):
            m = random_small_model(rng)
            for bits in (1, 2, 3, 4, 5, 8, 12, 16):
                q = blur_quantize(m, bits)
                if blur_quantize(q, bits).params.tobytes() != q.params.tobytes():
                    moved.append((i, bits))
        assert moved == []


def test_blur_dispatch(trained_model, blob_data):
    train_set, _ = blob_data
    cfg = EvaluationConfig(prune_sparsity=0.25, quantize_bits=6, epochs=2)
    p = build_attacked_model(cfg, trained_model, "WP(RET)", train_set, 3)
    q = build_attacked_model(cfg, trained_model, "WQ(RET)", train_set, 3)
    assert p.provenance[-1]["method"] == "WP"
    assert q.provenance[-1]["method"] == "WQ"
    assert p.provenance[-1]["sparsity"] == 0.25
    assert q.provenance[-1]["bits"] == 6

