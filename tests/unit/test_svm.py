"""Unit tests for the Pegasos linear SVM."""

import numpy as np
import pytest

from repro.prediction.svm import LinearSVM, fit_many


def linearly_separable(n=200, seed=0, margin=2.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = np.where(X[:, 0] + X[:, 1] > 0, 1, -1)
    X[y == 1] += margin / 2
    X[y == -1] -= margin / 2
    return X, y.astype(np.float64)


class TestFit:
    def test_separable_data_high_accuracy(self):
        X, y = linearly_separable()
        svm = LinearSVM(lam=1e-3, n_epochs=20, seed=0).fit(X, y)
        acc = np.mean(svm.predict(X) == y)
        assert acc > 0.97

    def test_deterministic_given_seed(self):
        X, y = linearly_separable()
        a = LinearSVM(seed=1).fit(X, y)
        b = LinearSVM(seed=1).fit(X, y)
        assert np.array_equal(a.w, b.w) and a.b == b.b

    def test_decision_function_sign_matches_predict(self):
        X, y = linearly_separable(seed=2)
        svm = LinearSVM(seed=0).fit(X, y)
        df = svm.decision_function(X)
        assert np.array_equal(np.where(df >= 0, 1, -1), svm.predict(X))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LinearSVM().predict(np.zeros((1, 2)))

    def test_label_validation(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError):
            LinearSVM().fit(X, np.array([0, 1, 2]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearSVM().fit(np.zeros(3), np.array([1, -1, 1]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LinearSVM().fit(np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_named(self, bad):
        X, y = linearly_separable(n=20)
        X[7, 1] = bad
        with pytest.raises(ValueError, match="row 7"):
            LinearSVM(seed=0).fit(X, y)
        with pytest.raises(ValueError, match="row 7"):
            fit_many([LinearSVM(seed=0), LinearSVM(seed=1)], [X[:10], X], [y[:10], y],
                     [np.arange(10), np.arange(20)])

    def test_hyperparam_validation(self):
        with pytest.raises(ValueError):
            LinearSVM(lam=0.0)
        with pytest.raises(ValueError):
            LinearSVM(n_epochs=0)


class TestClassWeights:
    def test_balanced_improves_minority_recall(self):
        rng = np.random.default_rng(3)
        # 95/5 imbalance with overlap
        n_neg, n_pos = 380, 20
        Xn = rng.normal(loc=-0.5, size=(n_neg, 2))
        Xp = rng.normal(loc=+0.5, size=(n_pos, 2))
        X = np.vstack([Xn, Xp])
        y = np.concatenate([-np.ones(n_neg), np.ones(n_pos)])
        plain = LinearSVM(class_weight=None, seed=0).fit(X, y)
        balanced = LinearSVM(class_weight="balanced", seed=0).fit(X, y)

        def recall(model):
            pred = model.predict(X)
            return np.sum((pred == 1) & (y == 1)) / n_pos

        assert recall(balanced) >= recall(plain)

    def test_explicit_weights(self):
        X, y = linearly_separable()
        svm = LinearSVM(class_weight={-1: 1.0, 1: 2.0}, seed=0).fit(X, y)
        assert np.mean(svm.predict(X) == y) > 0.9

    def test_single_class_balanced_degrades_gracefully(self):
        X = np.ones((10, 2))
        y = np.ones(10)
        svm = LinearSVM(class_weight="balanced", seed=0).fit(X, y)
        assert np.all(svm.predict(X) == 1)

    def test_class_weight_missing_label(self):
        X, y = linearly_separable(n=10)
        with pytest.raises(ValueError, match="label -1"):
            LinearSVM(class_weight={1: 2.0}).fit(X, y)

    def test_bad_class_weight(self):
        X, y = linearly_separable(n=10)
        with pytest.raises(ValueError):
            LinearSVM(class_weight="bogus").fit(X, y)


class TestIntercept:
    def test_intercept_separates_shifted_classes(self):
        """Standardized features with unbalanced class positions: the
        boundary is off-origin, so an intercept is required.  (The
        pipeline always standardizes before fitting — the documented
        contract of this solver.)"""
        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 1))
        y = np.where(X[:, 0] > 0.6, 1, -1).astype(float)  # off-center cut
        X[y == 1] += 1.0  # margin
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        with_b = LinearSVM(fit_intercept=True, n_epochs=40, seed=0).fit(X, y)
        without = LinearSVM(fit_intercept=False, n_epochs=40, seed=0).fit(X, y)
        acc_b = np.mean(with_b.predict(X) == y)
        acc_n = np.mean(without.predict(X) == y)
        assert acc_b > 0.95
        assert acc_b >= acc_n

    def test_offset_data_beats_chance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 1)) + 10.0  # unstandardized offset data
        y = np.where(X[:, 0] > 10.0, 1, -1).astype(float)
        svm = LinearSVM(fit_intercept=True, n_epochs=40, seed=0).fit(X, y)
        assert np.mean(svm.predict(X) == y) > 0.6


class TestFitMany:
    def _two_fits(self):
        X, y = linearly_separable(n=10)
        models = [LinearSVM(seed=0), LinearSVM(seed=1)]
        return models, [X, X], [y, y], [m.epoch_order(10) for m in models]

    def test_mismatched_lam_rejected(self):
        models, Xs, ys, orders = self._two_fits()
        models[1].lam = 0.5
        with pytest.raises(ValueError, match="lam"):
            fit_many(models, Xs, ys, orders)

    def test_order_out_of_range_rejected(self):
        models, Xs, ys, orders = self._two_fits()
        orders[1] = orders[1] + 1
        with pytest.raises(ValueError, match="range"):
            fit_many(models, Xs, ys, orders)

    def test_length_mismatch_rejected(self):
        models, Xs, ys, orders = self._two_fits()
        with pytest.raises(ValueError, match="one entry per fit"):
            fit_many(models, Xs[:1], ys, orders)
