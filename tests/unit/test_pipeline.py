"""Unit tests for the virality-prediction pipeline."""

import numpy as np
import pytest

from repro.cascades.types import Cascade, CascadeSet
from repro.embedding.model import EmbeddingModel
from repro.prediction.pipeline import (
    ViralityPredictor,
    build_dataset,
    threshold_sweep,
)


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


class TestThresholdSweep:
    def test_structure(self, model, corpus):
        sweep = threshold_sweep(
            model, corpus, thresholds=[4, 8, 12], window=1.0, seed=0
        )
        assert sweep.thresholds.tolist() == [4, 8, 12]
        assert sweep.f1.shape == (3,)
        assert np.all((sweep.f1 >= 0) & (sweep.f1 <= 1))
        assert np.all(np.diff(sweep.positive_fraction) <= 0)

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
