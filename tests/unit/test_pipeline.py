"""Unit tests for the virality-prediction pipeline."""

import numpy as np
import pytest

from repro.cascades.types import Cascade, CascadeSet
from repro.embedding.model import EmbeddingModel
from repro.prediction.crossval import kfold_indices
from repro.prediction.metrics import f1_score
from repro.prediction.pipeline import (
    ViralityPredictor,
    build_dataset,
    threshold_sweep,
)
from repro.prediction.svm import LinearSVM


@pytest.fixture
def model():
    return EmbeddingModel.random(20, 3, seed=0)


@pytest.fixture
def corpus():
    rng = np.random.default_rng(1)
    cs = CascadeSet(20)
    for i in range(30):
        size = int(rng.integers(2, 15))
        nodes = rng.permutation(20)[:size]
        times = np.sort(rng.uniform(0, 1, size=size))
        times[0] = 0.0
        cs.append(Cascade(nodes, times))
    return cs


class TestBuildDataset:
    def test_shapes(self, model, corpus):
        ds = build_dataset(model, corpus, window=1.0)
        assert ds.X.shape == (30, 3)
        assert ds.final_sizes.shape == (30,)
        assert len(ds) == 30

    def test_final_sizes_correct(self, model, corpus):
        ds = build_dataset(model, corpus, window=1.0)
        assert np.array_equal(ds.final_sizes, corpus.sizes())

    def test_labels_threshold(self, model, corpus):
        ds = build_dataset(model, corpus, window=1.0)
        y = ds.labels(8)
        assert np.array_equal(y == 1, ds.final_sizes >= 8)

    def test_early_fraction_controls_prefix(self, model, corpus):
        narrow = build_dataset(model, corpus, early_fraction=0.01, window=1.0)
        wide = build_dataset(model, corpus, early_fraction=0.99, window=1.0)
        # wider window -> more adopters -> normA no smaller anywhere
        assert np.all(wide.X[:, 1] >= narrow.X[:, 1] - 1e-12)

    def test_own_span_fallback(self, model, corpus):
        ds = build_dataset(model, corpus, window=None)
        assert ds.X.shape[0] == 30

    def test_early_fraction_validation(self, model, corpus):
        with pytest.raises(ValueError):
            build_dataset(model, corpus, early_fraction=1.5)


class TestViralityPredictor:
    def test_fit_predict_roundtrip(self, model, corpus):
        ds = build_dataset(model, corpus, window=1.0)
        thr = int(np.median(ds.final_sizes))
        pred = ViralityPredictor(threshold=thr, seed=0).fit(ds)
        labels = pred.predict(ds.X)
        assert set(np.unique(labels)) <= {-1, 1}

    def test_bytes_roundtrip(self, model, corpus):
        ds = build_dataset(model, corpus, window=1.0)
        pred = ViralityPredictor(threshold=int(np.median(ds.final_sizes)), seed=0).fit(ds)
        blob = pred.to_bytes()
        for data in (blob, memoryview(blob), np.frombuffer(blob, dtype=np.uint8)):
            back = ViralityPredictor.from_bytes(data)
            assert back.threshold == pred.threshold
            assert np.array_equal(back.decision_function(ds.X), pred.decision_function(ds.X))

    def test_single_class_threshold_rejected(self, model, corpus):
        ds = build_dataset(model, corpus, window=1.0)
        with pytest.raises(ValueError, match="single class"):
            ViralityPredictor(threshold=10_000).fit(ds)

    def test_unfitted_predict_raises(self, model, corpus):
        ds = build_dataset(model, corpus, window=1.0)
        with pytest.raises(RuntimeError):
            ViralityPredictor(threshold=5).predict(ds.X)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ViralityPredictor(threshold=0)

    def test_copy_keeps_seed(self, model, corpus):
        ds = build_dataset(model, corpus, window=1.0)
        pred = ViralityPredictor(threshold=int(np.median(ds.final_sizes)), seed=5)
        clone = pred.copy()
        assert clone._svm.seed == 5
        assert np.array_equal(clone.fit(ds).decision_function(ds.X),
                              pred.fit(ds).decision_function(ds.X))

    def test_non_finite_feature_row_named(self, model, corpus):
        ds = build_dataset(model, corpus, window=1.0)
        ds.X[3, 0] = np.inf
        with pytest.raises(ValueError, match="row 3"):
            ViralityPredictor(threshold=int(np.median(ds.final_sizes)), seed=0).fit(ds)


class TestThresholdSweep:
    def test_structure(self, model, corpus):
        sweep = threshold_sweep(
            model, corpus, thresholds=[4, 8, 12], window=1.0, seed=0
        )
        assert sweep.thresholds.tolist() == [4, 8, 12]
        assert sweep.f1.shape == (3,)
        assert np.all((sweep.f1 >= 0) & (sweep.f1 <= 1))
        assert np.all(np.diff(sweep.positive_fraction) <= 0)

    def test_f1_equals_sequential_oracle(self, model, corpus):
        """The lockstep sweep draws folds and sample orders from one
        generator in the order a threshold-by-threshold, fold-by-fold
        loop of single fits would, and lands on its exact F1."""
        thresholds = [3, 5, 8, 10_000, 11]
        sweep = threshold_sweep(model, corpus, thresholds=thresholds, window=1.0,
                                k_folds=4, n_epochs=5, seed=7)
        rng = np.random.default_rng(7)
        X = build_dataset(model, corpus, window=1.0).X
        sizes = np.array([c.size for c in corpus])
        oracle = np.zeros(len(thresholds))
        for i, thr in enumerate(thresholds):
            y = np.where(sizes >= thr, 1, -1)
            n_pos, n_neg = int(np.sum(y == 1)), int(np.sum(y == -1))
            if min(n_pos, n_neg) < 2:
                continue
            scores = []
            for train, test in kfold_indices(len(y), min(4, n_pos, n_neg), y, rng):
                mu, sd = X[train].mean(axis=0), X[train].std(axis=0)
                sd[sd == 0] = 1.0
                svm = LinearSVM(n_epochs=5, seed=rng).fit((X[train] - mu) / sd, y[train])
                scores.append(f1_score(y[test], svm.predict((X[test] - mu) / sd)))
            oracle[i] = np.mean(scores)
        assert oracle[3] == 0.0 and np.count_nonzero(oracle) >= 3
        assert np.array_equal(sweep.f1, oracle)

    def test_degenerate_thresholds_scored_zero(self, model, corpus):
        sweep = threshold_sweep(
            model, corpus, thresholds=[1, 10_000], window=1.0, seed=0
        )
        assert sweep.f1[1] == 0.0  # no positives at an absurd threshold

    def test_histogram_counts_total(self, model, corpus):
        sweep = threshold_sweep(
            model, corpus, thresholds=[5], window=1.0, seed=0, hist_bin_width=5
        )
        assert sweep.hist_counts.sum() == 30

    def test_f1_at_top_fraction(self, model, corpus):
        sweep = threshold_sweep(
            model, corpus, thresholds=[4, 8, 12], window=1.0, seed=0
        )
        v = sweep.f1_at_top_fraction(0.2)
        assert 0.0 <= v <= 1.0

    def test_rows(self, model, corpus):
        sweep = threshold_sweep(model, corpus, thresholds=[5], window=1.0, seed=0)
        rows = sweep.rows()
        assert len(rows) == 1 and len(rows[0]) == 3
