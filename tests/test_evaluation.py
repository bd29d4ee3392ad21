"""Metric tests against brute-force tallies and a pairwise AUC oracle."""

import numpy as np
import pytest

from evdetect.evaluation import Confusion, confusion, precision_recall_f1, roc_auc


def pairwise_auc_oracle(labels: np.ndarray, scores: np.ndarray) -> float:
    """Probability a random positive outscores a random negative (ties 0.5)."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (pos.size * neg.size)


class TestConfusion:
    def test_perfect_predictions(self):
        c = confusion([1, 0, 1, 0], [1, 0, 1, 0])
        assert (c.fp, c.fn) == (0, 0)
        assert (c.tp, c.tn) == (2, 2)

    def test_hand_count(self):
        c = confusion([1, 1, 0], [1, 0, 0])
        assert (c.tp, c.fn, c.tn, c.fp) == (1, 1, 1, 0)

    def test_all_zero_preds_recall_zero(self):
        c = confusion([1, 1, 1], [0, 0, 0])
        _, recall, _ = precision_recall_f1(c)
        assert recall == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            confusion([2, 0], [1, 0])


class TestPrecisionRecallF1:
    def test_hand_arithmetic(self):
        p, r, f1 = precision_recall_f1(Confusion(tp=8, fp=2, fn=0, tn=5))
        assert p == pytest.approx(0.8)
        assert r == pytest.approx(1.0)
        assert f1 == pytest.approx(0.8889, abs=1e-4)

    def test_degenerate_convention(self):
        assert precision_recall_f1(Confusion(0, 0, 0, 10)) == (0.0, 0.0, 0.0)

    def test_reported_reference_row(self):
        # published per-household row: precision 0.865, recall 0.883 -> F1 0.874
        f1 = 2 * 0.865 * 0.883 / (0.865 + 0.883)
        assert abs(f1 - 0.874) < 1e-3

    def test_f1_harmonic_mean_and_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = Confusion(*(int(v) for v in rng.integers(0, 50, size=4)))
            p, r, f1 = precision_recall_f1(c)
            if p > 0 and r > 0:
                assert f1 == pytest.approx(2 * p * r / (p + r))
            assert f1 <= max(p, r) + 1e-12


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_two_point_case(self):
        assert roc_auc([0, 1], [0.2, 0.8]) == 1.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=20_000)
        scores = rng.normal(size=20_000)
        assert roc_auc(labels, scores) == pytest.approx(0.5, abs=0.02)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([1, 1, 1], [0.1, 0.2, 0.3])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, size=500)
        labels[:5] = [0, 1, 0, 1, 0]  # both classes guaranteed
        scores = rng.normal(size=500)
        base = roc_auc(labels, scores)
        assert roc_auc(labels, np.exp(scores)) == pytest.approx(base, abs=1e-12)
        assert roc_auc(labels, 3.0 * scores + 7.0) == pytest.approx(base, abs=1e-12)

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(10, 200))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            scores = rng.integers(0, 6, size=n).astype(float)  # heavy ties
            assert roc_auc(labels, scores) == pytest.approx(pairwise_auc_oracle(labels, scores), abs=1e-12)


def test_confusion_matches_bruteforce_oracle():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 100))
        labels = rng.integers(0, 2, size=n)
        preds = rng.integers(0, 2, size=n)
        c = confusion(labels, preds)
        tally = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
        for y, p in zip(labels, preds):
            key = ("t" if y == p else "f") + ("p" if p == 1 else "n")
            tally[key] += 1
        assert (c.tp, c.fp, c.fn, c.tn) == (tally["tp"], tally["fp"], tally["fn"], tally["tn"])
        assert c.tp + c.fp + c.fn + c.tn == n
