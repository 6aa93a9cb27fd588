import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedmark.errors import InputError
from seedmark.metrics import roc_auc


def mann_whitney_auc(pos, neg):
    """Brute-force pairwise counting, ties worth 1/2."""
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_perfect_separation():
    curve = roc_auc([0.9, 0.8], [0.1, 0.2])
    assert curve.auc == 1.0
    assert curve.tpr_at_fpr0 == 1.0
    assert curve.fpr_at_tpr1 == 0.0


def test_three_of_four_pairs():
    curve = roc_auc([0.9, 0.3], [0.5, 0.1])
    assert curve.auc == pytest.approx(0.75, abs=1e-12)
    assert curve.tpr_at_fpr0 == 0.5
    assert curve.fpr_at_tpr1 == 0.5


def test_endpoints():
    curve = roc_auc([0.5], [0.5])
    assert curve.points[0] == (0.0, 0.0)
    assert curve.points[-1] == (1.0, 1.0)
    assert curve.auc == pytest.approx(0.5, abs=1e-12)


def test_empty_rejected():
    with pytest.raises(InputError):
        roc_auc([], [0.1])
    with pytest.raises(InputError):
        roc_auc([0.1], [])
    # a score table or a bare score is not a list of scores
    with pytest.raises(InputError, match="1-d"):
        roc_auc([[0.1, 0.2]], [0.3])
    with pytest.raises(InputError, match="1-d"):
        roc_auc(0.5, [0.3])
    with pytest.raises(InputError, match="1-d"):
        roc_auc([0.5], [[0.3]])


@pytest.mark.parametrize("pos, neg", [([np.nan], [0.1]), ([0.9], [np.inf]),
                                      ([0.9, -np.inf], [0.1])], ids=["nan", "inf", "minus-inf"])
def test_non_finite_scores_rejected(pos, neg):
    with pytest.raises(InputError, match="scores must be finite"):
        roc_auc(pos, neg)


def unique_threshold_roc(pos, neg):
    """`roc_auc`'s points and AUC, with its thresholds taken from np.unique."""
    points = [(0.0, 0.0)] + [(float(np.mean(neg >= t)), float(np.mean(pos >= t)))
                             for t in np.unique(np.concatenate([pos, neg]))[::-1]]
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    pts = np.array(points)
    return tuple(points), float(np.trapezoid(pts[:, 1], pts[:, 0]))


def test_matches_mann_whitney_brute_force():
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(50):
        # quantized scores force plenty of ties
        cases.append((rng.integers(0, 8, size=rng.integers(1, 20)) / 7,
                      rng.integers(0, 8, size=rng.integers(1, 20)) / 7))
    # 0.0 and -0.0 are one threshold, whichever of them a set or a sort keeps
    cases += [(np.array([0.0, -0.0, 0.5]), np.array([-0.0, 0.0, -0.5])),
              (np.array([-0.0]), np.array([0.0])),
              (np.array([0.0, 1.0]), np.array([-0.0, -0.0, -1.0]))]
    for pos, neg in cases:
        curve = roc_auc(pos, neg)
        assert abs(curve.auc - mann_whitney_auc(pos, neg)) < 1e-12
        assert repr((curve.points, curve.auc)) == repr(unique_threshold_roc(pos, neg))


def test_curve_monotone():
    rng = np.random.default_rng(1)
    curve = roc_auc(rng.random(30), rng.random(25))
    pts = np.array(curve.points)
    assert np.all(np.diff(pts[:, 0]) >= 0)
    assert np.all(np.diff(pts[:, 1]) >= 0)


def test_constrained_points_consistent():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pos = rng.random(10)
        neg = rng.random(10)
        curve = roc_auc(pos, neg)
        zero_fpr_tprs = [tpr for fpr, tpr in curve.points if fpr == 0.0]
        full_tpr_fprs = [fpr for fpr, tpr in curve.points if tpr == 1.0]
        assert curve.tpr_at_fpr0 == max(zero_fpr_tprs)
        assert curve.fpr_at_tpr1 == min(full_tpr_fprs)


@given(
    st.lists(st.integers(0, 10), min_size=1, max_size=15),
    st.lists(st.integers(0, 10), min_size=1, max_size=15),
)
@settings(max_examples=60, deadline=None)
def test_label_swap_sums_to_one(pos_raw, neg_raw):
    pos = np.array(pos_raw) / 10
    neg = np.array(neg_raw) / 10
    forward_auc = roc_auc(pos, neg).auc
    mirrored = roc_auc(neg, pos).auc
    assert 0.0 <= forward_auc <= 1.0
    assert forward_auc + mirrored == pytest.approx(1.0, abs=1e-12)


@given(
    st.lists(st.integers(0, 10), min_size=1, max_size=15),
    st.lists(st.integers(0, 10), min_size=1, max_size=15),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_score_order_does_not_matter(pos_raw, neg_raw, data):
    pos = np.array(pos_raw) / 10
    neg = np.array(neg_raw) / 10
    shuffled = roc_auc(data.draw(st.permutations(pos)), data.draw(st.permutations(neg)))
    curve = roc_auc(pos, neg)
    assert shuffled.points == curve.points
    assert shuffled.auc == curve.auc
    assert shuffled.tpr_at_fpr0 == curve.tpr_at_fpr0
    assert shuffled.fpr_at_tpr1 == curve.fpr_at_tpr1
