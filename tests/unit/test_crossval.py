"""Unit tests for cross-validation."""

import numpy as np
import pytest

from repro.prediction.crossval import cross_val_f1, kfold_indices
from repro.prediction.svm import LinearSVM


class TestKFold:
    def test_folds_partition_everything(self):
        splits = kfold_indices(23, k=5, seed=0)
        all_test = np.sort(np.concatenate([t for _, t in splits]))
        assert np.array_equal(all_test, np.arange(23))

    def test_train_test_disjoint(self):
        for train, test in kfold_indices(20, k=4, seed=1):
            assert np.intersect1d(train, test).size == 0
            assert train.size + test.size == 20

    def test_stratification_balances_classes(self):
        y = np.concatenate([np.ones(10), -np.ones(40)])
        for _, test in kfold_indices(50, k=5, stratify=y, seed=2):
            n_pos = np.sum(y[test] == 1)
            assert n_pos == 2  # 10 positives over 5 folds

    def test_deterministic(self):
        a = kfold_indices(15, k=3, seed=5)
        b = kfold_indices(15, k=3, seed=5)
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(sa, sb)

    def test_k_validation(self):
        for n, k in [(10, 1), (1, 2), (0, 2), (5, 6)]:
            with pytest.raises(ValueError):
                kfold_indices(n, k=k)

    def test_stratify_length_validation(self):
        with pytest.raises(ValueError):
            kfold_indices(10, k=2, stratify=np.ones(5))


class TestCrossValF1:
    def test_separable_scores_high(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 2))
        y = np.where(X[:, 0] > 0, 1, -1)
        X[y == 1, 0] += 2.0
        score = cross_val_f1(
            lambda: LinearSVM(seed=0), X, y, k=5, seed=1
        )
        assert score > 0.9

    def test_random_labels_score_middling(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 3))
        y = rng.choice([-1, 1], size=100)
        score = cross_val_f1(lambda: LinearSVM(seed=0), X, y, k=5, seed=2)
        assert score < 0.75

    def test_score_in_unit_interval(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 2))
        y = rng.choice([-1, 1], size=40)
        s = cross_val_f1(lambda: LinearSVM(seed=0), X, y, k=4, seed=3)
        assert 0.0 <= s <= 1.0

    def test_standardization_helps_scaled_features(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(120, 2))
        y = np.where(X[:, 1] > 0, 1, -1)
        X[y == 1, 1] += 1.5
        X[:, 1] *= 1e-4  # informative feature has tiny scale
        X[:, 0] *= 1e4  # noise feature has huge scale
        with_std = cross_val_f1(
            lambda: LinearSVM(seed=0), X, y, k=4, seed=4, standardize=True
        )
        without = cross_val_f1(
            lambda: LinearSVM(seed=0), X, y, k=4, seed=4, standardize=False
        )
        assert with_std > without

    def test_many_labellings_match_one_at_a_time(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3))
        Y = np.stack([np.where(X[:, j] > 0.2, 1, -1) for j in range(3)])
        many = cross_val_f1(lambda: LinearSVM(seed=0), X, Y, k=[3, 4, 5], seed=6)
        ones = [
            cross_val_f1(lambda: LinearSVM(seed=0), X, y, k=k, seed=6)
            for y, k in zip(Y, [3, 4, 5])
        ]
        # fold draws come from one generator in the T-row call, so only
        # the first labelling sees the same folds as its standalone call
        assert many.shape == (3,)
        assert many[0] == ones[0]

    def test_non_finite_row_named(self):
        X = np.ones((20, 2))
        X[11, 0] = np.nan
        y = np.where(np.arange(20) % 2 == 0, 1, -1)
        with pytest.raises(ValueError, match="row 11"):
            cross_val_f1(lambda: LinearSVM(seed=0), X, y, k=2, seed=0)
