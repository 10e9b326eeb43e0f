import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectnet.metrics import (ClassReport, ConfusionMatrix, accuracy, f1,
                               precision, recall, render_text,
                               report, round_half_up)

# Confusion counts recoverable from the published per-class misclassification
# numbers (rows true, columns predicted; label order det/mould/normal/stain).
PUBLISHED_COUNTS = (
    (157, 13, 0, 13),
    (4, 167, 0, 12),
    (0, 0, 183, 0),
    (31, 6, 1, 145),
)
PUBLISHED = ConfusionMatrix(PUBLISHED_COUNTS)


def expand_pairs(cm: ConfusionMatrix):
    """Flatten a count matrix back into (true, pred) pair lists."""
    true, pred = [], []
    for i, row in enumerate(cm.counts):
        for j, n in enumerate(row):
            true.extend([i] * n)
            pred.extend([j] * n)
    return true, pred


def pairlist_metrics(true, pred, k, n_classes=4):
    """Per-definition recomputation from raw pairs (the oracle)."""
    tp = sum(1 for t, p in zip(true, pred) if t == k and p == k)
    fp = sum(1 for t, p in zip(true, pred) if t != k and p == k)
    fn = sum(1 for t, p in zip(true, pred) if t == k and p != k)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f


class TestPublishedCounts:
    def test_mould_precision(self):
        assert abs(precision(PUBLISHED, 1) - 167 / 186) < 1e-12
        assert round_half_up(precision(PUBLISHED, 1)) == 0.90

    def test_deterioration_precision(self):
        assert abs(precision(PUBLISHED, 0) - 157 / 192) < 1e-12
        assert round_half_up(precision(PUBLISHED, 0)) == 0.82

    def test_mould_recall(self):
        assert round_half_up(recall(PUBLISHED, 1)) == 0.91

    def test_stain_recall(self):
        assert round_half_up(recall(PUBLISHED, 3)) == 0.79

    def test_normal_recall_is_one(self):
        assert recall(PUBLISHED, 2) == 1.0

    def test_deterioration_f1(self):
        assert round_half_up(f1(PUBLISHED, 0)) == 0.84

    def test_stain_f1_follows_derived_precision(self):
        # The printed stain precision (0.89) is inconsistent with the counts,
        # which force 145/170; the printed F1 0.82 matches the derived value.
        assert abs(precision(PUBLISHED, 3) - 145 / 170) < 1e-12
        assert round_half_up(f1(PUBLISHED, 3)) == 0.82

    def test_accuracy_derived_from_counts(self):
        # 652/732, not the printed 87.50%
        assert abs(accuracy(PUBLISHED) - 652 / 732) < 1e-12

    def test_support_all_183(self):
        rep = report(PUBLISHED)
        assert [r.support for r in rep.rows] == [183, 183, 183, 183]


class TestEdgeCases:
    def test_diagonal_matrix_perfect(self):
        cm = ConfusionMatrix(((5, 0, 0, 0), (0, 3, 0, 0), (0, 0, 7, 0), (0, 0, 0, 2)))
        for k in range(4):
            assert precision(cm, k) == 1.0
            assert recall(cm, k) == 1.0
        assert accuracy(cm) == 1.0

    def test_zero_diagonal_accuracy_zero(self):
        cm = ConfusionMatrix(((0, 5, 0, 0), (5, 0, 0, 0), (0, 0, 0, 5), (0, 0, 5, 0)))
        assert accuracy(cm) == 0.0

    def test_degenerate_column_flagged(self):
        cm = ConfusionMatrix(((3, 0, 0, 0), (2, 0, 0, 0), (1, 0, 4, 0), (0, 0, 0, 5)))
        assert precision(cm, 1) == 0.0
        rep = report(cm)
        assert rep.rows[1].degenerate_precision
        assert not rep.rows[0].degenerate_precision
        assert "*" in render_text(rep)

    def test_degenerate_row_flagged(self):
        cm = ConfusionMatrix(((3, 0, 0, 0), (0, 0, 0, 0), (0, 0, 4, 0), (0, 0, 0, 5)))
        assert recall(cm, 1) == 0.0
        assert report(cm).rows[1].degenerate_recall

    def test_f1_fixed_point(self):
        cm = ConfusionMatrix(((3, 1, 0, 0), (1, 3, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)))
        assert precision(cm, 0) == recall(cm, 0) == 0.75
        assert f1(cm, 0) == 0.75

    def test_empty_matrix_accuracy_raises(self):
        cm = ConfusionMatrix(tuple((0,) * 4 for _ in range(4)))
        with pytest.raises(ValueError):
            accuracy(cm)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(((1, -1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))


class TestInvariants:
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_pairlist_oracle_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 20, size=(4, 4))
        if counts.sum() == 0:
            counts[0, 0] = 1
        cm = ConfusionMatrix.from_rows(counts.tolist())
        true, pred = expand_pairs(cm)
        for k in range(4):
            p, r, f = pairlist_metrics(true, pred, k)
            assert abs(precision(cm, k) - p) < 1e-12
            assert abs(recall(cm, k) - r) < 1e-12
            assert abs(f1(cm, k) - f) < 1e-12

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rates_bounded_and_f1_between(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 30, size=(4, 4))
        counts[0, 0] += 1
        cm = ConfusionMatrix.from_rows(counts.tolist())
        for k in range(4):
            p, r, f = precision(cm, k), recall(cm, k), f1(cm, k)
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f <= 1.0
            if p > 0 and r > 0:
                assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12

    def test_accuracy_is_support_weighted_recall(self):
        cm = PUBLISHED
        total = cm.total()
        weighted = sum(recall(cm, k) * cm.row_sum(k) for k in range(4)) / total
        assert abs(accuracy(cm) - weighted) < 1e-12

    def test_permuting_classes_permutes_rows(self):
        perm = [2, 0, 3, 1]
        names = tuple(PUBLISHED.label_names[i] for i in perm)
        counts = tuple(tuple(PUBLISHED.counts[i][j] for j in perm) for i in perm)
        permuted = ConfusionMatrix(counts, names)
        base = report(PUBLISHED)
        rep = report(permuted)
        for new_k, old_k in enumerate(perm):
            assert rep.rows[new_k].name == base.rows[old_k].name
            assert rep.rows[new_k].precision == base.rows[old_k].precision
            assert rep.rows[new_k].recall == base.rows[old_k].recall
            assert rep.rows[new_k].f1 == base.rows[old_k].f1
        assert rep.accuracy == base.accuracy


class TestRendering:
    def test_text_report_contains_published_values(self):
        text = render_text(report(PUBLISHED))
        assert "deterioration       0.82    0.86      0.84      183" in text
        assert "mould       0.90    0.91      0.91      183" in text
        assert "normal       0.99    1.00      1.00      183" in text
        # stain precision from the counts is 0.85, documented divergence
        assert "stain       0.85    0.79      0.82      183" in text
        assert "accuracy" in text and "0.89" in text

    def test_render_is_pure(self):
        a = render_text(report(PUBLISHED))
        b = render_text(report(PUBLISHED))
        assert a == b

    def test_round_half_up(self):
        assert round_half_up(0.905) == 0.91
        assert round_half_up(0.885) == 0.89
        assert round_half_up(0.8907) == 0.89
        assert round_half_up(0.994565) == 0.99


def test_report_type_shape():
    rep = report(PUBLISHED)
    assert isinstance(rep, ClassReport)
    assert rep.total == 732
    assert len(rep.rows) == 4
