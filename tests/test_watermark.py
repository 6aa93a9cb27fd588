import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from seedmark import watermark
from seedmark.bim import BimConfig, bim_batch
from seedmark.datasets import Dataset, GenSpec, generate
from seedmark.errors import FormatError, InputError, WatermarkError
from seedmark.harness import EvaluationConfig, build_attacked_model
from seedmark.nnet import Model, ModelSpec, TrainConfig, family_spec, forward, init_model, predict, train
from seedmark.serialize import VERSION, model_digest
from seedmark.watermark import (
    GNB_VAR_FLOOR,
    KeySet,
    LR_LAMBDA,
    LR_MAX_ITER,
    LR_TOL,
    VERIFIER_FIELDS,
    VerificationModel,
    build_verifier,
    confidence_profile,
    decide,
    dump_keyset,
    dump_verifier,
    fit_gnb,
    fit_lr,
    generate_keyset,
    gnb_log_posteriors,
    keyset_digest,
    parse_keyset,
    parse_verifier,
    verify,
)

from conftest import flat_params, random_small_model


@pytest.fixture(scope="module")
def populations(blob_data, trained_model):
    train_set, _ = blob_data
    spec = family_spec("A", train_set.dims, train_set.class_count)
    extracted = [build_attacked_model(EvaluationConfig(), trained_model, "RET", train_set, 900 + i)
                 for i in range(4)]
    controls = [
        train(init_model(spec, 700 + i), train_set.features, train_set.labels,
              TrainConfig(seed=700 + i))
        for i in range(4)
    ]
    return extracted, controls


def no_call(*args, **kwargs):
    raise AssertionError("called after a failed input check")


def one_classifier(kind, fitted):
    """A one-watermark verifier holding the parameters `fit_lr` or `fit_gnb` returned."""
    params = {name: np.array([value]) for name, value in zip(VERIFIER_FIELDS[kind], fitted)}
    return VerificationModel(kind, params, "0" * 12)


def decides(kind, fitted, s) -> bool:
    return bool(decide(one_classifier(kind, fitted), np.array([s]))[0])


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

    @pytest.mark.parametrize("source", ["quarrels", "disagreements"])
    def test_unknown_source(self, blob_data, trained_model, populations, source):
        train_set, _ = blob_data
        extracted, controls = populations
        message = f"candidate_source must be one of 'misclassifications', got '{source}'"
        with pytest.raises(WatermarkError, match=f"^{re.escape(message)}$"):
            generate_keyset(trained_model, extracted, controls, train_set, 4,
                            candidate_source=source)

    def test_candidate_source_keyword_and_config_constant_remain(self, blob_data, trained_model,
                                                                  populations, keyset):
        # bench/workloads.py passes `candidate_source=cfg.candidate_source` to
        # generate_keyset, so both stay until that call drops the keyword
        train_set, _ = blob_data
        extracted, controls = populations
        assert EvaluationConfig.candidate_source == "misclassifications"
        ks = generate_keyset(trained_model, extracted, controls, train_set, 16,
                             candidate_source=EvaluationConfig.candidate_source)
        assert dump_keyset(ks) == dump_keyset(keyset)

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

    def test_drops_rows_that_bim_carries_to_a_third_class(self):
        """A linear model on which one targeted BIM step carries row 0
        (truth 0, predicted 1) past class 1 into class 2, while row 1
        (truth 2, predicted 0) keeps its predicted label. Row 0 is still
        misclassified, but the model no longer predicts the label BIM aimed
        for, so it is no watermark."""
        w = np.array([[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        model = Model(ModelSpec((2, 3)), flat_params(((w, np.array([0.0, 0.0, -0.3])),)), ())
        data = Dataset(np.array([[0.1, 0.0], [-0.5, 0.0]]), np.array([0, 2]), 3, "two-rows", 0)
        cfg = BimConfig(iterations=1, epsilon=0.5)
        assert predict(model, data.features).tolist() == [1, 0]
        assert predict(model, bim_batch(model, data.features, [1, 0], cfg)).tolist() == [2, 0]
        keyset = generate_keyset(model, [model], [init_model(model.spec, 0)], data, 1, cfg)
        assert keyset.labels.tolist() == [0]
        assert keyset.watermarks.tolist() == [[-1.0, 0.0]]
        with pytest.raises(WatermarkError, match="size 2 exceeds 1 available"):
            generate_keyset(model, [model], [init_model(model.spec, 0)], data, 2, cfg)

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

    @pytest.mark.parametrize("n", [2.5, True, "3", 2.0, None],
                             ids=["fraction", "bool", "string", "float", "none"])
    def test_size_must_be_a_whole_number(self, blob_data, trained_model, populations,
                                         monkeypatch, n):
        """Checked before BIM runs: a fraction used to die slicing the chosen
        rows after BIM, and True returned a one-row key-set."""
        train_set, _ = blob_data
        extracted, controls = populations
        monkeypatch.setattr(watermark, "bim_batch", no_call)
        with pytest.raises(WatermarkError,
                           match=r"^key-set size must be a whole number in \[1, inf\), "
                                 rf"got {re.escape(repr(n))}$"):
            generate_keyset(trained_model, extracted, controls, train_set, n)

    def test_numpy_integer_size(self, blob_data, trained_model, populations):
        train_set, _ = blob_data
        extracted, controls = populations
        keyset = generate_keyset(trained_model, extracted, controls, train_set, np.int64(2))
        assert len(keyset) == 2

    @pytest.mark.parametrize("classes, dims", [(9, 8), (3, 8), (4, 6)],
                             ids=["more-classes", "fewer-classes", "fewer-dims"])
    def test_data_of_another_task_rejected(self, trained_model, populations, monkeypatch,
                                           classes, dims):
        """Rows of a 9-class task labelled 4-8 would always count as
        misclassified by a 4-class protected model; the data is rejected
        before any prediction or BIM."""
        extracted, controls = populations
        data = generate(GenSpec(classes=classes, dims=dims, samples_per_class=20), 5)
        monkeypatch.setattr(watermark, "predict", no_call)
        monkeypatch.setattr(watermark, "bim_batch", no_call)
        with pytest.raises(InputError, match=(
                rf"^dataset of {dims} features and {classes} classes does not fit "
                r"a protected model of 8 inputs and 4 classes$")):
            generate_keyset(trained_model, extracted, controls, data, 4)

    def test_determinism(self, blob_data, trained_model, populations):
        train_set, _ = blob_data
        extracted, controls = populations
        a = generate_keyset(trained_model, extracted, controls, train_set, 8)
        b = generate_keyset(trained_model, extracted, controls, train_set, 8)
        assert np.array_equal(a.watermarks, b.watermarks)
        assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("watermarks, labels", [
    (np.zeros((2, 3)), np.array([[0], [1]])), (np.zeros((2, 3)), np.array([0.0, 1.0])),
    (np.zeros((2, 3)), np.array([True, False])), (np.zeros(3), np.array([0, 1, 0]))],
    ids=["2-d-labels", "float-labels", "bool-labels", "1-d-watermarks"])
def test_keyset_needs_2d_watermarks_and_1d_integer_labels(watermarks, labels):
    """Refused where it is built: 2-d labels used to reach `verify` and
    `dump_keyset` as a bare TypeError, and float labels `confidence_profile`
    as an IndexError. A label outside the classes is `confidence_profile`'s
    to refuse, for the suspect model's class count."""
    with pytest.raises(WatermarkError, match=r"^key-set needs 2-d watermarks and 1-d integer "
                                             r"labels, got \("):
        KeySet(watermarks, labels, {})
    assert KeySet(np.zeros((2, 3)), np.array([-1, 9]), {}).labels.tolist() == [-1, 9]


class TestConfidenceProfile:
    def test_constant_model(self):
        """Zero-weight model: softmax depends only on the output biases."""
        spec = ModelSpec((3, 2))
        logits = np.array([np.log(3.0), 0.0])
        model = Model(spec, flat_params(((np.zeros((3, 2)), logits),)),
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
            w, b = fit_lr(samples, labels)
            w_ref, b_ref = scipy_lr(samples, labels)
            assert w == pytest.approx(w_ref, abs=1e-4)
            assert b == pytest.approx(b_ref, abs=1e-4)

    def test_separable_boundary_location(self):
        samples = [0.1, 0.15, 0.2, 0.8, 0.85, 0.9]
        labels = [0, 0, 0, 1, 1, 1]
        w, b = fit_lr(samples, labels)
        crossing = -b / w  # where the logit is 0
        assert 0.2 < crossing < 0.8
        assert decides("lr", (w, b), 0.9) and not decides("lr", (w, b), 0.1)

    def test_symmetric_data_near_half(self):
        w, b = fit_lr([0.4, 0.6], [0, 1])
        assert w * 0.5 + b == pytest.approx(0.0, abs=4e-6)  # sigmoid within 1e-6 of 0.5

    def test_requires_both_classes(self):
        with pytest.raises(InputError):
            fit_lr([0.1, 0.2], [1, 1])
        with pytest.raises(InputError):
            fit_lr([], [])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_logits_do_not_overflow(self):
        clf = (1e4, -5e3)
        assert not decides("lr", clf, -1.0) and decides("lr", clf, 0.5) and decides("lr", clf, 1.0)


class TestGaussianFit:
    def test_closed_form_parameters(self):
        samples = np.array([0.1, 0.2, 0.3, 0.7, 0.8, 0.9, 1.0])
        labels = np.array([0, 0, 0, 1, 1, 1, 1])
        means, variances, priors = fit_gnb(samples, labels)
        assert means[0] == pytest.approx(0.2, abs=1e-15)
        assert means[1] == pytest.approx(0.85, abs=1e-15)
        assert variances[0] == pytest.approx(np.var([0.1, 0.2, 0.3]), abs=1e-15)
        assert priors == pytest.approx((3 / 7, 4 / 7), abs=1e-15)

    def test_posterior_matches_manual(self):
        samples = np.array([0.1, 0.3, 0.6, 0.9])
        labels = np.array([0, 0, 1, 1])
        means, variances, priors = fit_gnb(samples, labels)
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            lp = gnb_log_posteriors(means, variances, priors, s)
            for cls in (0, 1):
                mu, var, pi = means[cls], variances[cls], priors[cls]
                manual = np.log(pi) - 0.5 * np.log(2 * np.pi * var) - (s - mu) ** 2 / (2 * var)
                assert lp[cls] == pytest.approx(manual, abs=1e-9)

    def test_variance_floor(self):
        clf = fit_gnb([0.5, 0.5, 0.9, 0.9], [0, 0, 1, 1])
        assert clf[1].tolist() == [GNB_VAR_FLOOR, GNB_VAR_FLOOR]
        assert decides("gnb", clf, 0.89)
        assert not decides("gnb", clf, 0.51)

    def test_tie_goes_to_nonextracted(self):
        clf = fit_gnb([0.4, 0.6], [0, 1])
        # exact midpoint: equal posteriors, the benign reading wins
        assert not decides("gnb", clf, 0.5)

    def test_requires_both_classes(self):
        with pytest.raises(InputError):
            fit_gnb([0.1, 0.2], [0, 0])


@pytest.mark.parametrize("fit", [fit_lr, fit_gnb])
@pytest.mark.parametrize("labels", [[0, 1, 2, 1], [0, 2, 2, 0], [0, 1, 0.5, 1], [-1, 1, 0, 1]],
                         ids=["two", "two-for-one", "half", "minus-one"])
def test_fits_take_labels_0_and_1_only(fit, labels):
    with pytest.raises(InputError, match=r"labels must each be 0 \(not extracted\) or 1"):
        fit([0.1, 0.2, 0.3, 0.9], labels)


@pytest.mark.parametrize("fit", [fit_lr, fit_gnb])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fits_take_finite_samples_only(fit, bad):
    with pytest.raises(InputError, match="samples must be finite"):
        fit([[bad, 0.2, 0.3, 0.9], [0.1, 0.2, 0.3, 0.9]], [0, 1, 0, 1])


def scalar_lr(s, y):
    """The one-row Newton fit, with Python-float state and a scalar branch per
    step: the reference that `fit_lr`'s rows must equal. Also returns the
    number of gradient evaluations the row took."""
    w, b = 0.0, 0.0
    for it in range(LR_MAX_ITER):
        p = 1.0 / (1.0 + np.exp(-(w * s + b)))
        gw = np.mean((p - y) * s) + LR_LAMBDA * w
        gb = np.mean(p - y)
        if np.hypot(gw, gb) <= LR_TOL:
            break
        r = p * (1 - p)
        hww = np.mean(r * s * s) + LR_LAMBDA
        hwb = np.mean(r * s)
        hbb = np.mean(r)
        det = hww * hbb - hwb * hwb
        if det <= 1e-300:
            w, b = w - gw, b - gb
            continue
        w -= (hbb * gw - hwb * gb) / det
        b -= (hww * gb - hwb * gw) / det
    return (float(w), float(b)), it


def scalar_gnb(s, y):
    """The one-row Gaussian fit, one class at a time: the reference for `fit_gnb`."""
    fits = [(float(v.mean()), float(max(v.var(), GNB_VAR_FLOOR)), len(v) / len(s))
            for v in (s[y == 0], s[y == 1])]
    return tuple(zip(*fits))


def random_table(rng, watermarks, models):
    """A (watermarks, models) confidence table and its labels with a random
    class split; half the rows separate the classes and half overlap."""
    extracted = int(rng.integers(1, models))
    labels = rng.permutation(np.r_[np.ones(extracted), np.zeros(models - extracted)])
    table = rng.uniform(0.0, 1.0, (watermarks, models))
    separable = rng.random(watermarks) < 0.5
    table[separable] = np.where(labels == 1, 0.6 + 0.4 * table[separable],
                                0.4 * table[separable])
    return table, labels


class TestArrayFitsMatchScalarFits:
    """Each row of an array fit equals the scalar fit of that row, bit for bit."""

    TABLES = [(1, 2), (7, 3), (16, 20), (32, 20), (40, 9), (5, 41)]

    @staticmethod
    def hexes(values):
        return [float(v).hex() for v in np.ravel(values)]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_logistic_rows(self, order):
        rng = np.random.default_rng(21)
        iterations = set()
        for shape in self.TABLES:
            table, labels = random_table(rng, *shape)
            w, b = fit_lr(np.asarray(table, order=order), labels)
            assert w.shape == b.shape == (shape[0],)
            for row, s in enumerate(table):
                (w_ref, b_ref), it = scalar_lr(s, labels)
                iterations.add(it)
                assert self.hexes([w[row], b[row]]) == self.hexes([w_ref, b_ref])
        assert len(iterations) > 2  # rows stopped at different steps

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_gaussian_rows(self, order):
        rng = np.random.default_rng(22)
        for shape in self.TABLES:
            table, labels = random_table(rng, *shape)
            fitted = fit_gnb(np.asarray(table, order=order), labels)
            assert [a.shape for a in fitted] == [(shape[0], 2)] * 3
            for row, s in enumerate(table):
                ref = scalar_gnb(s, labels.astype(int))
                assert [self.hexes(a[row]) for a in fitted] == [self.hexes(r) for r in ref]

    @pytest.mark.parametrize("fit", [fit_lr, fit_gnb])
    def test_one_row_is_one_classifier(self, fit):
        table, labels = random_table(np.random.default_rng(23), 1, 12)
        assert ([self.hexes(a) for a in fit(table[0], labels)]
                == [self.hexes(a) for a in fit(table, labels)])


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

    def test_records_its_keyset(self, populations, keyset):
        extracted, controls = populations
        verifier = build_verifier(extracted, controls, keyset)
        labels = keyset.labels.astype("<i8").tobytes()
        expected = hashlib.sha256(labels + keyset.watermarks.astype("<f8").tobytes()).hexdigest()
        assert verifier.keyset == keyset_digest(keyset) == expected[:12]

    def test_other_keyset_of_the_same_length(self, populations, keyset, trained_model):
        extracted, controls = populations
        verifier = build_verifier(extracted, controls, keyset)
        other = KeySet(keyset.watermarks[::-1], keyset.labels[::-1], {})
        with pytest.raises(WatermarkError) as info:
            verify(trained_model, verifier, other)
        assert verifier.keyset in str(info.value) and keyset_digest(other) in str(info.value)


def reference_decisions(kind, params, profile):
    """The per-watermark scalar rules the vectorized `decide` replaced, one
    Python float at a time; returns each watermark's decision and its logit
    (LR) or pair of log posteriors (GNB)."""
    out = []
    for i, s in enumerate(profile.tolist()):
        if kind == "lr":
            z = params["weight"][i].item() * s + params["bias"][i].item()
            out.append((bool(z >= 0), z))
        else:
            lp_ne, lp_e = (
                np.log(prior) - 0.5 * np.log(2 * np.pi * var) - (s - mean) ** 2 / (2 * var)
                for mean, var, prior in zip(*(params[name][i].tolist()
                                              for name in VERIFIER_FIELDS["gnb"]))
            )
            out.append((bool(lp_e > lp_ne), (lp_ne, lp_e)))
    return out


@given(st.integers(0, 2**32 - 1), st.sampled_from(["lr", "gnb"]), st.data())
@settings(max_examples=50, deadline=None)
def test_verify_invariant_to_watermark_order(seed, kind, data):
    """`verify` decides each watermark as the scalar reference rule does, bit
    for bit; permuting the watermarks together with their classifiers permutes
    the decisions and leaves the score unchanged."""
    rng = np.random.default_rng(seed)
    suspect = random_small_model(rng)
    n = int(rng.integers(1, 12))
    watermarks = rng.uniform(-1, 1, size=(n, suspect.spec.input_dim))
    labels = rng.integers(0, suspect.spec.output_classes, size=n)
    keyset = KeySet(watermarks, labels, {})
    if kind == "lr":
        params = {"weight": rng.normal(0, 20, n), "bias": rng.normal(0, 10, n)}
    else:
        prior = rng.uniform(0.05, 0.95, n)
        params = {"means": rng.uniform(0, 1, (n, 2)), "variances": rng.uniform(0.01, 0.1, (n, 2)),
                  "priors": np.stack([prior, 1 - prior], axis=1)}
    verdict = verify(suspect, VerificationModel(kind, params, keyset_digest(keyset)), keyset)

    profile = confidence_profile(suspect, keyset)
    reference = reference_decisions(kind, params, profile)
    assert verdict.decisions == tuple(d for d, _ in reference)
    if kind == "lr":
        logits = params["weight"] * profile + params["bias"]
        assert logits.tobytes() == np.array([z for _, z in reference]).tobytes()
    else:
        lp = gnb_log_posteriors(params["means"], params["variances"], params["priors"], profile)
        assert lp.tobytes() == np.array([pair for _, pair in reference]).tobytes()

    perm = np.array(data.draw(st.permutations(range(n))))
    permuted_keyset = KeySet(watermarks[perm], labels[perm], {})
    permuted = verify(suspect, VerificationModel(kind, {k: v[perm] for k, v in params.items()},
                                                 keyset_digest(permuted_keyset)),
                      permuted_keyset)
    assert permuted.score == verdict.score
    assert permuted.decisions == tuple(verdict.decisions[i] for i in perm)


class TestPersistence:
    def test_keyset_round_trip(self, keyset):
        back = parse_keyset(dump_keyset(keyset))
        assert np.array_equal(back.watermarks, keyset.watermarks)
        assert np.array_equal(back.labels, keyset.labels)
        assert back.provenance == keyset.provenance

    def test_keyset_provenance_records_keygen_inputs(self, blob_data, trained_model, keyset):
        train_set, _ = blob_data
        assert keyset.provenance == {"protected": model_digest(trained_model),
                                     "bim": {"iterations": 20, "epsilon": 0.3},
                                     "dataset": train_set.name}

    def test_keyset_with_older_provenance_fields_parses_and_verifies_alike(self, keyset,
                                                                         populations):
        # format-5 key-set files written before the provenance held only
        # keygen's inputs also hold the candidate source and BIM's step size
        extracted, controls = populations
        doc = json.loads(dump_keyset(keyset))
        assert doc["version"] == 5
        doc["provenance"]["candidate_source"] = "misclassifications"
        doc["provenance"]["bim"]["step_size"] = 0.015
        older = parse_keyset(json.dumps(doc))
        assert older.provenance == doc["provenance"]
        verifier = build_verifier(extracted, controls, keyset)
        for suspect in (*extracted, *controls):
            assert verify(suspect, verifier, older) == verify(suspect, verifier, keyset)

    def test_keyset_bad_inputs(self, keyset):
        with pytest.raises(FormatError):
            parse_keyset("not json {")
        with pytest.raises(FormatError):
            parse_keyset(dump_keyset(keyset).replace("seedmark-keyset", "seedmark-model"))
        doc = dump_keyset(keyset).replace(f'"version": {VERSION}', '"version": 99')
        with pytest.raises(FormatError, match="99"):
            parse_keyset(doc)

    @pytest.mark.parametrize("label", [1.7, "2", True], ids=["float", "string", "bool"])
    def test_keyset_labels_must_be_json_integers(self, keyset, label):
        doc = json.loads(dump_keyset(keyset))
        doc["labels"][0] = label
        with pytest.raises(FormatError, match="labels must be a non-empty list of JSON integers"):
            parse_keyset(json.dumps(doc))

    @pytest.mark.parametrize("label", [2**63, 10**30, -2**63 - 1],
                             ids=["2^63", "10^30", "below-int64"])
    def test_keyset_labels_must_fit_int64(self, keyset, label):
        doc = json.loads(dump_keyset(keyset))
        doc["labels"][0] = label
        with pytest.raises(FormatError, match="labels must be .* JSON integers within int64"):
            parse_keyset(json.dumps(doc))

    def test_bad_label_error_is_short_and_names_its_index(self, keyset):
        doc = json.loads(dump_keyset(keyset))
        doc["labels"] = [0] * 5000
        doc["labels"][4321] = "1"
        with pytest.raises(FormatError) as info:
            parse_keyset(json.dumps(doc))
        message = str(info.value)
        assert len(message) < 200
        assert message.startswith("key-set labels must be ")
        assert message.endswith("got '1' at index 4321")

    @pytest.mark.parametrize("provenance", [
        "xyz", [1, 2], {"protected": 5}, {"protected": "ABCDEF012345"},
        {"dataset": 7}, {"bim": "x"},
        {"bim": {"iterations": 1.5, "epsilon": 0.3}}, {"bim": {"iterations": 5, "epsilon": "0.3"}},
        {"bim": {"iterations": 5, "epsilon": float("nan")}},
    ], ids=["string", "list", "protected-number", "protected-uppercase", "dataset-number",
            "bim-string", "bim-float-iterations", "bim-string-epsilon", "bim-nan-epsilon"])
    def test_keyset_provenance_of_the_wrong_type_raises_format_error(self, keyset, provenance):
        doc = json.loads(dump_keyset(keyset))
        doc["provenance"] = provenance
        with pytest.raises(FormatError, match="key-set provenance"):
            parse_keyset(json.dumps(doc))

    def test_empty_keyset_raises_format_error(self, keyset):
        doc = json.loads(dump_keyset(keyset))
        doc["labels"], doc["watermarks"] = [], ""
        with pytest.raises(FormatError, match="labels must be a non-empty list of JSON integers"):
            parse_keyset(json.dumps(doc))

    @pytest.mark.parametrize("kind", ["lr", "gnb"])
    def test_verifier_round_trip(self, kind, populations, keyset):
        extracted, controls = populations
        verifier = build_verifier(extracted, controls, keyset, kind)
        back = parse_verifier(dump_verifier(verifier))
        assert (back.kind, back.keyset) == (kind, verifier.keyset)
        assert back.params.keys() == verifier.params.keys() == set(VERIFIER_FIELDS[kind])
        for name, values in verifier.params.items():
            assert back.params[name].shape == values.shape == (len(keyset),) + values.shape[1:]
            assert back.params[name].tobytes() == values.tobytes()

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
        doc = dump_verifier(verifier).replace(f'"version": {VERSION}', '"version": 2')
        with pytest.raises(FormatError, match="version 2"):
            parse_verifier(doc)

    @pytest.mark.parametrize("digest", [None, 7, "", "ABCDEF012345", "abcdef01234", "abcdef0123456",
                                        "abcdef01234g", "abcdef012345\n"])
    def test_verifier_keyset_must_be_a_digest(self, digest):
        doc = json.loads(_lr_text())
        doc["keyset"] = digest
        with pytest.raises(FormatError, match="keyset must be a 12-digit lowercase hex digest"):
            parse_verifier(json.dumps(doc))

    @pytest.mark.parametrize("kind", ["lr", "gnb"])
    def test_verifier_fields_must_have_one_length(self, kind):
        doc = json.loads(_lr_text() if kind == "lr" else _gnb_text())
        last = VERIFIER_FIELDS[kind][-1]
        doc[last] = doc[last][:len(doc[last]) // 2]  # one watermark of two
        with pytest.raises(FormatError, match="differ in length"):
            parse_verifier(json.dumps(doc))


def _keyset_text():
    watermarks = np.random.default_rng(3).uniform(-1, 1, size=(4, 3))
    return dump_keyset(KeySet(watermarks, np.array([0, 1, 1, 0]), {}))


def _lr_text():
    params = {"weight": np.array([2.0, 2.0]), "bias": np.array([-1.0, -1.0])}
    return dump_verifier(VerificationModel("lr", params, "0123456789ab"))


def _gnb_text():
    params = {"means": np.array([[0.25, 0.75]] * 2), "variances": np.array([[0.01, 0.02]] * 2),
              "priors": np.array([[0.5, 0.5]] * 2)}
    return dump_verifier(VerificationModel("gnb", params, "0123456789ab"))


# artifact kind: (text, parser)
VALUE_SITES = {
    "keyset": (_keyset_text, parse_keyset),
    "lr": (_lr_text, parse_verifier),
    "gnb": (_gnb_text, parse_verifier),
}
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("site, field, value", [
    ("keyset", "watermarks", NAN),
    ("keyset", "watermarks", INF),
    ("keyset", "watermarks", -INF),
    ("keyset", "watermarks", 1.5),
    ("keyset", "watermarks", -1e300),
    pytest.param("lr", "weight", INF, id="lr-w-inf"),
    pytest.param("lr", "weight", NAN, id="lr-w-nan"),
    pytest.param("lr", "bias", -INF, id="lr-b--inf"),
    pytest.param("lr", "bias", NAN, id="lr-b-nan"),
    ("gnb", "means", NAN),
    ("gnb", "means", INF),
    ("gnb", "means", -0.1),
    ("gnb", "means", 1e300),
    ("gnb", "variances", NAN),
    ("gnb", "variances", INF),
    ("gnb", "variances", -1.0),
    ("gnb", "variances", 0.0),
    ("gnb", "variances", 1e-12),
    ("gnb", "variances", 1.5),
    ("gnb", "priors", 0.0),
    ("gnb", "priors", -0.5),
    ("gnb", "priors", 1.5),
    ("gnb", "priors", NAN),
    ("gnb", "priors", INF),
])
def test_loader_rejects_values_no_fit_holds(site, field, value):
    make_text, parse = VALUE_SITES[site]
    parse(make_text())  # the artifact as dumped parses
    doc = json.loads(make_text())
    values = np.frombuffer(bytes.fromhex(doc[field]), "<f8").copy()
    values[-1] = value
    doc[field] = values.tobytes().hex()
    with pytest.raises(FormatError):
        parse(json.dumps(doc))
