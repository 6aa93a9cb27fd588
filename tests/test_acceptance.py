"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
`[acceptance] <label>: PASS/FAIL` line (bypassing capture) with the key
measured numbers, then asserts the criterion.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import binomtest

from seedmark.attacks import blur_prune, blur_quantize
from seedmark.bim import BimConfig, bim_batch
from seedmark.boundary import (
    find_disagreements,
    find_transferable,
    find_unique_disagreements,
    population_labels,
    run_strategy_analysis,
)
from seedmark.datasets import Dataset, GenSpec, generate, split
from seedmark.harness import EvaluationConfig, build_attacked_model, export_report, run_raw_evaluation
from seedmark.metrics import roc_auc
from seedmark.nnet import (
    TrainConfig,
    family_spec,
    forward,
    init_model,
    input_gradient,
    loss_and_param_grads,
    predict,
    train,
)
from seedmark.watermark import LR_LAMBDA, fit_gnb, fit_lr, generate_keyset, gnb_log_posteriors

from conftest import accuracy, random_small_model
from test_nnet import finite_difference_param_grads


@pytest.fixture
def check(capsys):
    def _check(label, ok, detail=""):
        with capsys.disabled():
            suffix = f" ({detail})" if detail else ""
            print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}{suffix}")
        assert ok, f"{label} failed: {detail}"

    return _check


def default_eval_config(**over):
    base = dict(master_seed=0, repetitions=5)
    base.update(over)
    return EvaluationConfig(**base)


# --- criterion 1: gradient correctness --------------------------------------


def test_gradients_match_finite_differences(check):
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        m = random_small_model(rng)
        d, k = m.spec.input_dim, m.spec.output_classes
        x = rng.uniform(-1, 1, size=(4, d))
        targets = rng.integers(0, k, size=4)
        _, analytic = loss_and_param_grads(m, x, targets)
        numeric = finite_difference_param_grads(m, x, targets)
        for (aw, ab), (nw, nb) in zip(analytic, numeric):
            scale = max(np.abs(nw).max(), np.abs(nb).max(), 1e-8)
            worst = max(worst, np.abs(aw - nw).max() / scale, np.abs(ab - nb).max() / scale)
        # input gradient on a single point
        xi, yi = x[0], int(targets[0])
        g = input_gradient(m, xi, yi)
        num = np.zeros_like(xi)
        h = 1e-4
        for i in range(d):
            xp, xm = xi.copy(), xi.copy()
            xp[i] += h
            xm[i] -= h
            lp, _ = loss_and_param_grads(m, xp[None], [yi])
            lm, _ = loss_and_param_grads(m, xm[None], [yi])
            num[i] = (lp - lm) / (2 * h)
        worst = max(worst, np.abs(g - num).max() / max(np.abs(num).max(), 1e-8))
    elapsed = time.monotonic() - start
    check(
        "01 analytic gradients match central finite differences on 20 random models",
        worst < 1e-4 and elapsed < 60,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# --- criterion 2: determinism -----------------------------------------------


def test_pipeline_stages_bit_identical_on_rerun(check, tmp_path):
    start = time.monotonic()
    data = generate(GenSpec(classes=3, dims=4, samples_per_class=60), seed=5)
    train_set, _ = split(data, 0.5, seed=6)
    spec = family_spec("A", train_set.dims, train_set.class_count)
    cfg = TrainConfig(seed=9, epochs=4)

    def build_model():
        return train(init_model(spec, 3), train_set.features, train_set.labels, cfg)

    m1, m2 = build_model(), build_model()
    models_ok = all(
        np.array_equal(w1, w2) and np.array_equal(b1, b2)
        for (w1, b1), (w2, b2) in zip(m1.weights, m2.weights)
    )

    ext = [build_attacked_model(EvaluationConfig(epochs=4), m1, "RET", train_set, 40 + i)
           for i in range(2)]
    ne = [train(init_model(spec, 60 + i), train_set.features, train_set.labels,
                TrainConfig(seed=60 + i, epochs=4)) for i in range(2)]
    ks1 = generate_keyset(m1, ext, ne, train_set, 6)
    ks2 = generate_keyset(m1, ext, ne, train_set, 6)
    keysets_ok = np.array_equal(ks1.watermarks, ks2.watermarks) and np.array_equal(
        ks1.labels, ks2.labels
    )

    eval_cfg = default_eval_config(
        repetitions=2,
        gen=GenSpec(classes=3, dims=4, samples_per_class=60),
        n_extracted_train=3, n_nonextracted_train=3,
        n_extracted_test=2, n_nonextracted_test=2,
        keyset_size=6, epochs=4,
    )
    paths = []
    for i in range(2):
        report = run_raw_evaluation(eval_cfg)
        path = tmp_path / f"report-{i}.csv"
        export_report(report, path)
        paths.append(path)
    reports_ok = paths[0].read_bytes() == paths[1].read_bytes()

    elapsed = time.monotonic() - start
    check(
        "02 models, key-sets, and reports bit-identical on seeded rerun",
        models_ok and keysets_ok and reports_ok and elapsed < 300,
        f"models={models_ok} keysets={keysets_ok} reports={reports_ok}, {elapsed:.1f}s",
    )


# --- criteria 3 & 4: population boundary structure --------------------------


@pytest.fixture(scope="module")
def boundary_population():
    data = generate(GenSpec(), seed=21)
    train_set, test_set = split(data, 0.5, seed=22)
    spec = family_spec("A", train_set.dims, train_set.class_count)
    protected = [
        train(init_model(spec, 300 + s), train_set.features, train_set.labels,
              TrainConfig(seed=300 + s))
        for s in range(10)
    ]
    extracted = [build_attacked_model(EvaluationConfig(), m, "RET", train_set, 800 + i)
                 for i, m in enumerate(protected)]
    return protected, extracted, test_set


def test_population_boundaries_are_seed_unique(check, boundary_population):
    protected, extracted, test_set = boundary_population
    report = run_strategy_analysis(protected, extracted, test_set, "none")
    labels = population_labels(protected, test_set.features)
    ext_labels = population_labels(extracted, test_set.features)
    relations_ok = True
    for mi in range(len(protected)):
        dis = set(find_disagreements(labels))
        uniq = find_unique_disagreements(labels, test_set.labels, mi)
        trans = find_transferable(uniq, labels[mi], ext_labels[mi], test_set.labels)
        relations_ok &= set(trans) <= set(uniq) <= dis
    shares_ok = (
        report.disagreement_share > 0
        and report.unique_share > 0
        and report.transferable_share > 0
    )
    check(
        "03 ten seed-varied models show nonzero disagreement/unique/transferable shares "
        "with containment holding exactly",
        shares_ok and relations_ok,
        f"disagreements={report.disagreement_share:.4f} unique={report.unique_share:.4f} "
        f"transferable={report.transferable_share:.4f} containment={relations_ok}",
    )


def test_targeted_perturbation_strengthens_disagreements(check, boundary_population):
    protected, _, test_set = boundary_population
    model = protected[0]
    labels = population_labels(protected, test_set.features)
    idx = find_disagreements(labels)
    targets = labels[0][idx]
    pre = forward(model, test_set.features[idx])[np.arange(len(idx)), targets].mean()
    adv = bim_batch(model, test_set.features[idx], targets, BimConfig(iterations=20))
    post = forward(model, adv)[np.arange(len(idx)), targets].mean()
    check(
        "04 targeted 20-step perturbation raises mean predicted-class confidence "
        "on the disagreement subset",
        post > pre,
        f"pre={pre:.4f} post={post:.4f}",
    )


# --- criterion 5: key-set selection oracle ----------------------------------


def test_keyset_selection_matches_exhaustive_recomputation(check):
    rng = np.random.default_rng(77)
    checked = 0
    all_ok = True
    while checked < 20:
        protected = random_small_model(rng, in_dim=4, classes=3)
        ext_pop = [random_small_model(rng, in_dim=4, classes=3) for _ in range(2)]
        ne_pop = [random_small_model(rng, in_dim=4, classes=3) for _ in range(2)]
        features = rng.uniform(-1, 1, size=(30, 4))
        labels = rng.integers(0, 3, size=30)
        data = Dataset(features, labels, 3, "oracle", 0)
        cfg = BimConfig(iterations=5)
        try:
            ks = generate_keyset(protected, ext_pop, ne_pop, data, 4, cfg)
        except Exception:
            continue  # too few surviving candidates for this draw

        preds = predict(protected, features)
        cand = [i for i in range(30) if preds[i] != labels[i]]
        assert len(cand) <= 50
        perturbed = bim_batch(protected, features[cand], preds[cand], cfg)
        post = predict(protected, perturbed)
        rows = []
        for j, i in enumerate(cand):
            if post[j] == labels[i]:
                continue
            ce = np.mean([forward(m, perturbed[j][None])[0, post[j]] for m in ext_pop])
            cn = np.mean([forward(m, perturbed[j][None])[0, post[j]] for m in ne_pop])
            rows.append((abs(ce - cn), i, perturbed[j], post[j]))
        rows.sort(key=lambda r: (-r[0], r[1]))
        expect = rows[:4]
        all_ok &= np.array_equal(ks.watermarks, np.stack([r[2] for r in expect]))
        all_ok &= np.array_equal(ks.labels, np.array([r[3] for r in expect]))
        checked += 1
    check(
        "05 key-set selection equals exhaustive top-n recomputation on 20 instances",
        all_ok,
        f"{checked} instances",
    )


# --- criterion 6: classifier oracles ----------------------------------------


def _reference_lr(samples, labels):
    s = np.asarray(samples, dtype=float)
    y = np.asarray(labels, dtype=float)

    def nll(theta):
        w, b = theta
        margin = -(2 * y - 1) * (w * s + b)
        return float(np.mean(np.logaddexp(0.0, margin)) + 0.5 * LR_LAMBDA * w * w)

    res = minimize(nll, x0=[0.0, 0.0], method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000})
    return res.x


def test_confidence_classifiers_match_reference_solutions(check):
    rng = np.random.default_rng(13)
    lr_err = 0.0
    for _ in range(3):  # separable instances
        samples = np.concatenate([rng.uniform(0.0, 0.3, 6), rng.uniform(0.7, 1.0, 6)])
        labels = np.concatenate([np.zeros(6), np.ones(6)])
        w_fit, b_fit = fit_lr(samples, labels)
        w, b = _reference_lr(samples, labels)
        lr_err = max(lr_err, abs(w_fit - w), abs(b_fit - b))
    for _ in range(3):  # overlapping instances
        samples = np.concatenate([rng.uniform(0.0, 0.6, 8), rng.uniform(0.4, 1.0, 8)])
        labels = np.concatenate([np.zeros(8), np.ones(8)])
        w_fit, b_fit = fit_lr(samples, labels)
        w, b = _reference_lr(samples, labels)
        lr_err = max(lr_err, abs(w_fit - w), abs(b_fit - b))

    gnb_err = 0.0
    samples = np.array([0.05, 0.1, 0.2, 0.25, 0.7, 0.75, 0.85, 0.95])
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    means, variances, priors = fit_gnb(samples, labels)
    for s in np.linspace(0, 1, 21):
        lp = gnb_log_posteriors(means, variances, priors, s)
        for cls in (0, 1):
            vals = samples[labels == cls]
            mu, var = vals.mean(), max(vals.var(), 1e-9)
            manual = np.log(0.5) - 0.5 * np.log(2 * np.pi * var) - (s - mu) ** 2 / (2 * var)
            gnb_err = max(gnb_err, abs(lp[cls] - manual))
    check(
        "06 logistic fit within 1e-4 of a reference optimizer; gaussian posteriors "
        "within 1e-9 of closed form",
        lr_err < 1e-4 and gnb_err < 1e-9,
        f"lr err {lr_err:.2e}, gnb err {gnb_err:.2e}",
    )


# --- criterion 7: ROC oracle ------------------------------------------------


def test_auc_equals_pairwise_counting(check):
    rng = np.random.default_rng(17)
    worst = 0.0
    consistent = True
    for trial in range(100):
        # quantize half the trials to force ties
        q = 6 if trial % 2 == 0 else 0
        pos = rng.random(rng.integers(1, 25))
        neg = rng.random(rng.integers(1, 25))
        if q:
            pos, neg = np.floor(pos * q) / q, np.floor(neg * q) / q
        curve = roc_auc(pos, neg)
        wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
        worst = max(worst, abs(curve.auc - wins / (len(pos) * len(neg))))
        zero_fpr = [tpr for fpr, tpr in curve.points if fpr == 0.0]
        full_tpr = [fpr for fpr, tpr in curve.points if tpr == 1.0]
        consistent &= curve.tpr_at_fpr0 == max(zero_fpr)
        consistent &= curve.fpr_at_tpr1 == min(full_tpr)
    check(
        "07 trapezoid AUC equals tie-aware pairwise counting on 100 score sets",
        worst < 1e-12 and consistent,
        f"max |diff| {worst:.1e}, constrained points consistent={consistent}",
    )


# --- criteria 8-11: end-to-end evaluations ----------------------------------


def test_end_to_end_retraining_detection(check):
    start = time.monotonic()
    report = run_raw_evaluation(default_eval_config())
    elapsed = time.monotonic() - start
    mean_pos = float(np.mean(report.pos_scores))
    mean_neg = float(np.mean(report.neg_scores))
    check(
        "08 retraining-extracted suspects detected end to end (5 repetitions)",
        report.roc.auc >= 0.85 and mean_pos > mean_neg and elapsed < 900,
        f"auc={report.roc.auc:.3f} mean scores {mean_pos:.3f} vs {mean_neg:.3f}, "
        f"{elapsed:.1f}s",
    )


def test_detection_generalizes_to_unseen_attack(check):
    report = run_raw_evaluation(
        default_eval_config(seen_attacks=("TRL", "DIS"), unseen_attacks=("RET",))
    )
    rep_aucs = [roc_auc(pos, neg).auc for pos, neg in report.repetition_scores]
    above = sum(a > 0.5 for a in rep_aucs)
    p_value = binomtest(above, len(rep_aucs), 0.5, alternative="greater").pvalue
    check(
        "09 verifier trained on transfer+distillation detects unseen retraining",
        report.roc.auc >= 0.75 and p_value < 0.05,
        f"auc={report.roc.auc:.3f}, per-repetition aucs "
        f"{[round(a, 2) for a in rep_aucs]}, sign-test p={p_value:.4f}",
    )


def test_blurring_countermeasures(check):
    rng = np.random.default_rng(31)
    # exact pruning count across random models and sparsities
    prune_ok = True
    for _ in range(5):
        m = random_small_model(rng)
        sparsity = float(rng.choice([0.25, 0.5, 0.75]))
        pruned = blur_prune(m, sparsity)
        flat = np.concatenate([w.ravel() for w, _ in pruned.weights])
        total = sum(w.size for w, _ in m.weights)
        prune_ok &= int(np.sum(flat == 0.0)) >= int(sparsity * total)
        nonzero_before = np.concatenate([w.ravel() for w, _ in m.weights])
        changed = np.sum((flat == 0.0) & (nonzero_before != 0.0))
        prune_ok &= changed == int(sparsity * total)

    # quantization error bounded by half a grid step per layer
    quant_ok = True
    for _ in range(5):
        m = random_small_model(rng)
        bits = int(rng.choice([3, 5, 8]))
        q = blur_quantize(m, bits)
        for (w, b), (wq, bq) in zip(m.weights, q.weights):
            lo = min(w.min(), b.min())
            hi = max(w.max(), b.max())
            step = (hi - lo) / (2**bits - 1)
            quant_ok &= np.abs(wq - w).max() <= step / 2 + 1e-12
            quant_ok &= np.abs(bq - b).max() <= step / 2 + 1e-12

    # blurred extracted models keep accuracy close to their parents
    data = generate(GenSpec(), seed=41)
    train_set, test_set = split(data, 0.5, seed=42)
    spec = family_spec("A", train_set.dims, train_set.class_count)
    victim = train(init_model(spec, 4), train_set.features, train_set.labels,
                   TrainConfig(seed=4))
    extracted = build_attacked_model(EvaluationConfig(), victim, "RET", train_set, 5)
    parent_acc = accuracy(extracted, test_set.features, test_set.labels)
    drop = max(
        abs(parent_acc - accuracy(blur_prune(extracted, 0.5), test_set.features, test_set.labels)),
        abs(parent_acc - accuracy(blur_quantize(extracted, 8), test_set.features, test_set.labels)),
    )
    acc_ok = drop <= 0.10

    report = run_raw_evaluation(
        default_eval_config(seen_attacks=("WQ(RET)",), unseen_attacks=("WP(RET)",))
    )
    auc_ok = report.roc.auc > 0.7
    check(
        "10 pruning/quantization behave exactly and blurred suspects stay detectable",
        prune_ok and quant_ok and acc_ok and auc_ok,
        f"prune={prune_ok} quantize={quant_ok} accuracy drop {drop:.3f} "
        f"blurred-eval auc={report.roc.auc:.3f}",
    )


def test_cross_architecture_extraction_detected(check):
    report = run_raw_evaluation(
        default_eval_config(seen_attacks=("TRL",), unseen_attacks=("CAR",))
    )
    check(
        "11 suspects extracted into a different architecture family detected",
        report.roc.auc >= 0.75,
        f"auc={report.roc.auc:.3f}",
    )
