import numpy as np
import pytest

from cld.dataio import LabelSet
from cld.metrics import evaluate


class TestEvaluate:
    def test_perfect_predictions(self):
        labels = LabelSet(np.array([0, 1, 2, 0]), {"a": 0, "b": 1, "c": 2})
        report = evaluate(labels.class_ids, labels)
        assert report.accuracy == 1.0
        np.testing.assert_array_equal(np.diag(report.confusion), [2, 1, 1])
        assert report.confusion.sum() == report.n == 4

    def test_all_class_zero_on_balanced_binary(self):
        labels = LabelSet(np.repeat([0, 1], 10), {"a": 0, "b": 1})
        report = evaluate(np.zeros(20, dtype=int), labels)
        assert report.accuracy == 0.5
        np.testing.assert_array_equal(report.confusion[:, 0], [10, 10])
        np.testing.assert_array_equal(report.confusion[:, 1], [0, 0])

    def test_hand_counted_three_class_case(self):
        true = np.array([0, 1, 2, 2])
        pred = np.array([0, 2, 2, 1])
        report = evaluate(pred, true)
        assert report.accuracy == 0.5
        np.testing.assert_array_equal(
            report.confusion, [[1, 0, 0], [0, 0, 1], [0, 1, 1]]
        )

    def test_accuracy_is_trace_over_n(self):
        rng = np.random.default_rng(0)
        true = rng.integers(0, 4, 60)
        pred = rng.integers(0, 4, 60)
        report = evaluate(pred, true)
        assert report.accuracy == pytest.approx(np.trace(report.confusion) / report.n)
        np.testing.assert_array_equal(report.confusion.sum(axis=1),
                                      np.bincount(true, minlength=4))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        true = rng.integers(0, 3, 40)
        pred = rng.integers(0, 3, 40)
        perm = rng.permutation(40)
        a = evaluate(pred, true)
        b = evaluate(pred[perm], true[perm])
        assert a.accuracy == b.accuracy
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_per_accent_breakdown(self):
        true = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 1])
        accents = np.array([5, 5, 9, 9])
        report = evaluate(pred, true, accents=accents)
        assert report.per_accent == {5: 0.5, 9: 1.0}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(np.zeros(3, dtype=int), np.zeros(4, dtype=int))

    def test_accents_not_aligned_with_labels_rejected(self):
        with pytest.raises(ValueError, match="accent ids must align with labels"):
            evaluate(np.array([0, 1]), np.array([0, 1]), accents=np.array([5, 5, 9]))

    @pytest.mark.parametrize("preds, labels, message", [
        ([0.7, 1.2], [0, 1], "predictions must be integer class ids, got float64 values"),
        ([0, 1], [0.9, 1.9], "labels must be integer class ids, got float64 values"),
        ([True, False], [1, 0], "predictions must be integer class ids, got bool values"),
        ([0, 1], [0, -1], "labels must be non-negative class ids, got -1"),
    ], ids=["float-predictions", "float-labels", "bool-predictions", "negative-label"])
    def test_ids_that_are_not_class_indices_refused(self, preds, labels, message):
        # cast to int64 these would score as valid: floats truncate, bools
        # count as 0 and 1, and a label of -1 indexes the last confusion row
        with pytest.raises(ValueError, match=message):
            evaluate(preds, labels)
