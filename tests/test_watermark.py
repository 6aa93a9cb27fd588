import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from seedmark.attacks import ExtractionConfig, extract_retraining
from seedmark.bim import BimConfig, bim_batch
from seedmark.errors import FormatError, InputError, WatermarkError
from seedmark.nnet import Model, TrainConfig, family_spec, forward, init_model, mlp_spec, predict, train
from seedmark.watermark import (
    GNB_VAR_FLOOR,
    GaussianNBClassifier,
    KeySet,
    LR_LAMBDA,
    LogisticClassifier,
    VerificationModel,
    build_verifier,
    confidence_profile,
    dump_keyset,
    dump_verifier,
    fit_gnb,
    fit_lr,
    generate_keyset,
    parse_keyset,
    parse_verifier,
    verify,
)

from conftest import random_small_model


@pytest.fixture(scope="module")
def populations(blob_data, trained_model):
    train_set, _ = blob_data
    spec = family_spec("A", train_set.dims, train_set.class_count)
    extracted = [
        extract_retraining(
            trained_model, train_set.features,
            ExtractionConfig("RET", spec, TrainConfig(seed=900 + i),
                             query_budget_fraction=0.5),
        )
        for i in range(4)
    ]
    controls = [
        train(init_model(spec, 700 + i), train_set.features, train_set.labels,
              TrainConfig(seed=700 + i))
        for i in range(4)
    ]
    return extracted, controls


@pytest.fixture(scope="module")
def keyset(blob_data, trained_model, populations):
    train_set, _ = blob_data
    extracted, controls = populations
    return generate_keyset(trained_model, extracted, controls, train_set, 16)


class TestKeysetGeneration:
    def test_matches_exhaustive_selection(self, blob_data, trained_model, populations):
        """Re-derive the whole selection independently: enumerate candidates,
        perturb, compute the population confidence gap, and sort exhaustively."""
        train_set, _ = blob_data
        extracted, controls = populations
        n = 16
        ks = generate_keyset(trained_model, extracted, controls, train_set, n)

        cfg = BimConfig()
        preds = predict(trained_model, train_set.features)
        cand = [i for i in range(len(train_set)) if preds[i] != train_set.labels[i]]
        perturbed = bim_batch(trained_model, train_set.features[cand], preds[cand], cfg)
        post = predict(trained_model, perturbed)
        rows = []
        for j, i in enumerate(cand):
            if post[j] == train_set.labels[i]:
                continue
            ce = np.mean([forward(m, perturbed[j][None])[0, post[j]] for m in extracted])
            cn = np.mean([forward(m, perturbed[j][None])[0, post[j]] for m in controls])
            rows.append((abs(ce - cn), i, perturbed[j], post[j]))
        rows.sort(key=lambda r: (-r[0], r[1]))
        expect_marks = np.stack([r[2] for r in rows[:n]])
        expect_labels = np.array([r[3] for r in rows[:n]])
        assert np.array_equal(ks.watermarks, expect_marks)
        assert np.array_equal(ks.labels, expect_labels)

    def test_labels_disagree_with_truth(self, blob_data, trained_model, keyset):
        # every kept watermark still fools the protected model
        train_set, _ = blob_data
        assert np.array_equal(predict(trained_model, keyset.watermarks), keyset.labels)

    def test_disagreement_source(self, blob_data, trained_model, populations):
        train_set, _ = blob_data
        extracted, controls = populations
        ks = generate_keyset(trained_model, extracted, controls, train_set, 8,
                             candidate_source="disagreements")
        assert len(ks) == 8
        assert ks.provenance["candidate_source"] == "disagreements"
        # survivors still fool the protected model
        assert np.array_equal(predict(trained_model, ks.watermarks), ks.labels)

    def test_unknown_source(self, blob_data, trained_model, populations):
        train_set, _ = blob_data
        extracted, controls = populations
        with pytest.raises(WatermarkError):
            generate_keyset(trained_model, extracted, controls, train_set, 4,
                            candidate_source="quarrels")

    def test_no_material(self, blob_data, trained_model, populations):
        """If the protected model classifies every input correctly there is
        nothing to build watermarks from."""
        train_set, _ = blob_data
        extracted, controls = populations
        preds = predict(trained_model, train_set.features)
        perfect = type(train_set)(train_set.features, preds, train_set.class_count,
                                  "relabelled", train_set.seed)
        with pytest.raises(WatermarkError):
            generate_keyset(trained_model, extracted, controls, perfect, 4)

    def test_n_too_large(self, blob_data, trained_model, populations):
        train_set, _ = blob_data
        extracted, controls = populations
        with pytest.raises(WatermarkError):
            generate_keyset(trained_model, extracted, controls, train_set, 10_000)

    def test_bad_sizes(self, blob_data, trained_model, populations):
        train_set, _ = blob_data
        extracted, controls = populations
        with pytest.raises(WatermarkError):
            generate_keyset(trained_model, extracted, controls, train_set, 0)
        with pytest.raises(WatermarkError):
            generate_keyset(trained_model, [], controls, train_set, 4)

    def test_determinism(self, blob_data, trained_model, populations):
        train_set, _ = blob_data
        extracted, controls = populations
        a = generate_keyset(trained_model, extracted, controls, train_set, 8)
        b = generate_keyset(trained_model, extracted, controls, train_set, 8)
        assert np.array_equal(a.watermarks, b.watermarks)
        assert np.array_equal(a.labels, b.labels)


class TestConfidenceProfile:
    def test_constant_model(self):
        """Zero-weight model: softmax depends only on the output biases."""
        spec = mlp_spec(3, [], 2)
        logits = np.array([np.log(3.0), 0.0])
        model = Model(spec, ((np.zeros((3, 2)), logits),),
                      init_model(spec, 0).provenance)
        ks = KeySet(np.zeros((4, 3)), np.array([0, 1, 0, 1]), {})
        profile = confidence_profile(model, ks)
        assert profile == pytest.approx([0.75, 0.25, 0.75, 0.25], abs=1e-12)

    def test_alignment(self, trained_model, keyset):
        profile = confidence_profile(trained_model, keyset)
        confs = forward(trained_model, keyset.watermarks)
        for i in range(len(keyset)):
            assert profile[i] == confs[i, keyset.labels[i]]


def scipy_lr(samples, labels):
    s = np.asarray(samples, dtype=float)
    y = np.asarray(labels, dtype=float)

    def nll(theta):
        w, b = theta
        z = w * s + b
        # log(1 + exp(-(2y-1) z)) written stably
        m = -(2 * y - 1) * z
        return float(np.mean(np.logaddexp(0.0, m)) + 0.5 * LR_LAMBDA * w * w)

    res = minimize(nll, x0=[0.0, 0.0], method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000})
    return res.x


class TestLogisticFit:
    def test_matches_independent_optimizer(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            ne = rng.uniform(0.0, 0.5, size=8)
            ex = rng.uniform(0.4, 1.0, size=8)
            samples = np.concatenate([ex, ne])
            labels = np.concatenate([np.ones(8), np.zeros(8)])
            clf = fit_lr(samples, labels)
            w_ref, b_ref = scipy_lr(samples, labels)
            assert clf.weight == pytest.approx(w_ref, abs=1e-4)
            assert clf.bias == pytest.approx(b_ref, abs=1e-4)

    def test_separable_boundary_location(self):
        samples = [0.1, 0.15, 0.2, 0.8, 0.85, 0.9]
        labels = [0, 0, 0, 1, 1, 1]
        clf = fit_lr(samples, labels)
        crossing = -clf.bias / clf.weight  # where prob_extracted == 0.5
        assert 0.2 < crossing < 0.8
        assert clf.decide(0.9) and not clf.decide(0.1)

    def test_symmetric_data_near_half(self):
        clf = fit_lr([0.4, 0.6], [0, 1])
        assert clf.prob_extracted(0.5) == pytest.approx(0.5, abs=1e-6)

    def test_requires_both_classes(self):
        with pytest.raises(InputError):
            fit_lr([0.1, 0.2], [1, 1])
        with pytest.raises(InputError):
            fit_lr([], [])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_logits_do_not_overflow(self):
        clf = LogisticClassifier(1e4, -5e3)
        assert not clf.decide(-1.0) and clf.decide(0.5) and clf.decide(1.0)
        assert clf.prob_extracted(-1.0) == 0.0
        assert clf.prob_extracted(0.5) == 0.5
        assert clf.prob_extracted(1.0) == 1.0

    def test_prob_vectorized(self):
        clf = fit_lr([0.1, 0.9], [0, 1])
        probs = clf.prob_extracted(np.array([0.1, 0.5, 0.9]))
        assert probs.shape == (3,)
        assert np.all(np.diff(probs) > 0)


class TestGaussianFit:
    def test_closed_form_parameters(self):
        samples = np.array([0.1, 0.2, 0.3, 0.7, 0.8, 0.9, 1.0])
        labels = np.array([0, 0, 0, 1, 1, 1, 1])
        clf = fit_gnb(samples, labels)
        assert clf.means[0] == pytest.approx(0.2, abs=1e-15)
        assert clf.means[1] == pytest.approx(0.85, abs=1e-15)
        assert clf.variances[0] == pytest.approx(np.var([0.1, 0.2, 0.3]), abs=1e-15)
        assert clf.priors == pytest.approx((3 / 7, 4 / 7), abs=1e-15)

    def test_posterior_matches_manual(self):
        samples = np.array([0.1, 0.3, 0.6, 0.9])
        labels = np.array([0, 0, 1, 1])
        clf = fit_gnb(samples, labels)
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            lp = clf.log_posteriors(s)
            for cls in (0, 1):
                mu, var, pi = clf.means[cls], clf.variances[cls], clf.priors[cls]
                manual = np.log(pi) - 0.5 * np.log(2 * np.pi * var) - (s - mu) ** 2 / (2 * var)
                assert lp[cls] == pytest.approx(manual, abs=1e-9)

    def test_variance_floor(self):
        clf = fit_gnb([0.5, 0.5, 0.9, 0.9], [0, 0, 1, 1])
        assert clf.variances == (GNB_VAR_FLOOR, GNB_VAR_FLOOR)
        assert clf.decide(0.89)
        assert not clf.decide(0.51)

    def test_tie_goes_to_nonextracted(self):
        clf = fit_gnb([0.4, 0.6], [0, 1])
        # exact midpoint: equal posteriors, the benign reading wins
        assert not clf.decide(0.5)

    def test_requires_both_classes(self):
        with pytest.raises(InputError):
            fit_gnb([0.1, 0.2], [0, 0])


class TestVerifier:
    @pytest.mark.parametrize("kind", ["lr", "gnb"])
    def test_build_and_separation(self, kind, populations, keyset, trained_model):
        extracted, controls = populations
        verifier = build_verifier(extracted, controls, keyset, kind)
        assert len(verifier) == len(keyset)
        ext_scores = [verify(m, verifier, keyset).score for m in extracted]
        ne_scores = [verify(m, verifier, keyset).score for m in controls]
        assert np.mean(ext_scores) > np.mean(ne_scores)

    def test_unknown_kind(self, populations, keyset):
        extracted, controls = populations
        with pytest.raises(InputError):
            build_verifier(extracted, controls, keyset, "svm")

    def test_empty_population(self, populations, keyset):
        extracted, _ = populations
        with pytest.raises(InputError):
            build_verifier(extracted, [], keyset)

    def test_score_is_decision_fraction(self, populations, keyset, trained_model):
        extracted, controls = populations
        verifier = build_verifier(extracted, controls, keyset)
        verdict = verify(trained_model, verifier, keyset)
        assert verdict.score == sum(verdict.decisions) / len(keyset)
        assert len(verdict.decisions) == len(keyset)

    def test_length_mismatch(self, populations, keyset, trained_model):
        extracted, controls = populations
        verifier = build_verifier(extracted, controls, keyset)
        short = KeySet(keyset.watermarks[:4], keyset.labels[:4], {})
        with pytest.raises(InputError):
            verify(trained_model, verifier, short)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["lr", "gnb"]), st.data())
@settings(max_examples=50, deadline=None)
def test_verify_invariant_to_watermark_order(seed, kind, data):
    """Permuting the watermarks together with their classifiers permutes the
    decisions and leaves the score unchanged."""
    rng = np.random.default_rng(seed)
    suspect = random_small_model(rng)
    n = int(rng.integers(1, 12))
    watermarks = rng.uniform(-1, 1, size=(n, suspect.spec.input_dim))
    labels = rng.integers(0, suspect.spec.output_classes, size=n)
    if kind == "lr":
        classifiers = [LogisticClassifier(float(rng.normal(0, 20)), float(rng.normal(0, 10)))
                       for _ in range(n)]
    else:
        classifiers = [GaussianNBClassifier(tuple(rng.uniform(0, 1, 2)),
                                            tuple(rng.uniform(0.01, 0.1, 2)), (0.5, 0.5))
                       for _ in range(n)]
    perm = data.draw(st.permutations(range(n)))
    verdict = verify(suspect, VerificationModel(kind, tuple(classifiers)),
                     KeySet(watermarks, labels, {}))
    permuted = verify(suspect, VerificationModel(kind, tuple(classifiers[i] for i in perm)),
                      KeySet(watermarks[perm], labels[perm], {}))
    assert permuted.score == verdict.score
    assert permuted.decisions == tuple(verdict.decisions[i] for i in perm)


class TestPersistence:
    def test_keyset_round_trip(self, keyset):
        back = parse_keyset(dump_keyset(keyset))
        assert np.array_equal(back.watermarks, keyset.watermarks)
        assert np.array_equal(back.labels, keyset.labels)
        assert back.provenance == keyset.provenance

    def test_keyset_bad_inputs(self, keyset):
        with pytest.raises(FormatError):
            parse_keyset("not json {")
        with pytest.raises(FormatError):
            parse_keyset(dump_keyset(keyset).replace("seedmark-keyset", "seedmark-model"))
        doc = dump_keyset(keyset).replace('"version": 1', '"version": 99')
        with pytest.raises(FormatError, match="99"):
            parse_keyset(doc)

    @pytest.mark.parametrize("kind", ["lr", "gnb"])
    def test_verifier_round_trip(self, kind, populations, keyset):
        extracted, controls = populations
        verifier = build_verifier(extracted, controls, keyset, kind)
        back = parse_verifier(dump_verifier(verifier))
        assert back == verifier  # frozen dataclasses: bit-exact field equality

    def test_verifier_bad_inputs(self, populations, keyset):
        extracted, controls = populations
        verifier = build_verifier(extracted, controls, keyset)
        with pytest.raises(FormatError):
            parse_verifier("[]")
        with pytest.raises(FormatError):
            parse_verifier(dump_verifier(verifier).replace('"kind": "lr"', '"kind": "tree"'))
        truncated = dump_verifier(verifier)[:-40]
        with pytest.raises(FormatError):
            parse_verifier(truncated)
