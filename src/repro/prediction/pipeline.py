"""End-to-end virality prediction (Fig. 5 framework; Figs. 9 & 12 curves).

Protocol (§VI-A): the first *k* cascades train the embeddings; for each
held-out cascade the infections inside the first ``early_fraction`` of the
observation window (2/7 in the paper) form the early-adopter prefix, the
remaining infections are hidden.  Features of the prefix predict whether
the *final* size exceeds a threshold; F1 is estimated by 10-fold
stratified cross-validation, swept across thresholds.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.cascades.types import Cascade, CascadeSet
from repro.embedding.model import EmbeddingModel
from repro.prediction.crossval import cross_val_f1
from repro.prediction.features import PAPER_FEATURES, FeatureExtractor
from repro.prediction.svm import LinearSVM
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_finite_rows, check_fraction

__all__ = [
    "PredictionDataset",
    "build_dataset",
    "ViralityPredictor",
    "ThresholdSweepResult",
    "threshold_sweep",
]


@dataclass
class PredictionDataset:
    """Features + final sizes for a set of test cascades."""

    X: np.ndarray  # (n, d) early-adopter features
    final_sizes: np.ndarray  # (n,) ground-truth final sizes
    feature_names: tuple

    def labels(self, threshold: int) -> np.ndarray:
        """±1 labels: +1 iff the final size is >= *threshold*."""
        return np.where(self.final_sizes >= threshold, 1, -1).astype(np.int64)

    def __len__(self) -> int:
        return int(self.final_sizes.size)


def build_dataset(
    model: EmbeddingModel,
    cascades: CascadeSet,
    early_fraction: float = 2.0 / 7.0,
    window: Optional[float] = None,
    feature_set: Sequence[str] = PAPER_FEATURES,
) -> PredictionDataset:
    """Extract early-adopter features and final sizes from *cascades*.

    Parameters
    ----------
    early_fraction:
        Fraction of the observation window whose infections are revealed
        (paper: 2/7).
    window:
        Observation-window length; if ``None``, each cascade's own span is
        used (suitable when corpora were simulated with a known window,
        pass it explicitly for exact parity with the paper).
    """
    check_fraction(early_fraction, "early_fraction")
    extractor = FeatureExtractor(model, feature_set)
    prefixes: List[Cascade] = []
    sizes = np.empty(len(cascades), dtype=np.int64)
    for i, c in enumerate(cascades):
        sizes[i] = c.size
        if c.size == 0:
            prefixes.append(c)
            continue
        span = window if window is not None else (c.times[-1] - c.times[0])
        cutoff = c.times[0] + early_fraction * span
        prefixes.append(c.prefix_by_time(cutoff))
    X = extractor.transform(prefixes)
    return PredictionDataset(X=X, final_sizes=sizes, feature_names=extractor.feature_set)


class ViralityPredictor:
    """Threshold classifier over early-adopter features.

    A thin, sklearn-ish wrapper: standardizes features, fits the linear
    SVM, predicts ±1 virality labels.
    """

    def __init__(
        self,
        threshold: int,
        lam: float = 1e-3,
        n_epochs: int = 30,
        seed: SeedLike = None,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = int(threshold)
        self._svm = LinearSVM(lam=lam, n_epochs=n_epochs, seed=seed)
        self._mu: Optional[np.ndarray] = None
        self._sd: Optional[np.ndarray] = None

    def fit(self, dataset: PredictionDataset) -> "ViralityPredictor":
        y = dataset.labels(self.threshold)
        if np.unique(y).size < 2:
            raise ValueError(
                f"threshold {self.threshold} leaves a single class; "
                "choose a threshold inside the observed size range"
            )
        X = np.asarray(dataset.X, dtype=np.float64)
        check_finite_rows(X, "features")
        self._mu = X.mean(axis=0)
        self._sd = X.std(axis=0)
        self._sd[self._sd == 0] = 1.0
        self._svm.fit((X - self._mu) / self._sd, y)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed margins on raw (unstandardized) features.

        Positive means "predicted to exceed the size threshold"; the
        magnitude is the standardized-SVM margin, which the serving
        layer reports as the virality *score*.
        """
        if self._mu is None:
            raise RuntimeError("predictor is not fitted")
        X = np.asarray(X, dtype=np.float64)
        return self._svm.decision_function((X - self._mu) / self._sd)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._mu is None:
            raise RuntimeError("predictor is not fitted")
        X = np.asarray(X, dtype=np.float64)
        return self._svm.predict((X - self._mu) / self._sd)

    # ------------------------------------------------------------------ #
    # Persistence (what `repro serve --predictor` consumes)
    # ------------------------------------------------------------------ #

    def copy(self) -> "ViralityPredictor":
        """Independent copy (fitted state included) — snapshot safety."""
        clone = ViralityPredictor(
            threshold=self.threshold,
            lam=self._svm.lam,
            n_epochs=self._svm.n_epochs,
            seed=self._svm.seed,
        )
        if self._svm.w is not None:
            clone._svm.w = self._svm.w.copy()
            clone._svm.b = self._svm.b
        if self._mu is not None and self._sd is not None:
            clone._mu = self._mu.copy()
            clone._sd = self._sd.copy()
        return clone

    def save(self, path) -> None:
        """Serialize the fitted predictor to an ``.npz`` archive."""
        if self._mu is None or self._sd is None or self._svm.w is None:
            raise RuntimeError("cannot save an unfitted predictor")
        np.savez_compressed(
            path,
            w=self._svm.w,
            b=np.float64(self._svm.b),
            mu=self._mu,
            sd=self._sd,
            threshold=np.int64(self.threshold),
            lam=np.float64(self._svm.lam),
        )

    @classmethod
    def load(cls, path) -> "ViralityPredictor":
        """Load a predictor written by :meth:`save`."""
        with np.load(path) as data:
            required = ("w", "b", "mu", "sd", "threshold")
            if any(key not in data for key in required):
                raise ValueError(
                    f"{path}: not a predictor archive (need {', '.join(required)})"
                )
            pred = cls(
                threshold=int(data["threshold"]),
                lam=float(data["lam"]) if "lam" in data else 1e-3,
            )
            pred._svm.w = data["w"].copy()
            pred._svm.b = float(data["b"])
            pred._mu = data["mu"].copy()
            pred._sd = data["sd"].copy()
        return pred

    def to_bytes(self) -> bytes:
        """The :meth:`save` archive as bytes."""
        sink = io.BytesIO()
        self.save(sink)
        return sink.getvalue()

    @classmethod
    def from_bytes(cls, blob) -> "ViralityPredictor":
        """Load a predictor from :meth:`to_bytes` output (any bytes-like)."""
        return cls.load(io.BytesIO(blob))


@dataclass
class ThresholdSweepResult:
    """The Fig. 9 / Fig. 12 series: F1 per size threshold + histogram."""

    thresholds: np.ndarray
    f1: np.ndarray
    positive_fraction: np.ndarray  # class balance at each threshold
    hist_edges: np.ndarray
    hist_counts: np.ndarray

    def f1_at_top_fraction(self, fraction: float = 0.2) -> float:
        """F1 at the threshold closest to labelling the top-*fraction*
        largest cascades positive (the paper's "top 20 % ≈ 80 %" claim)."""
        check_fraction(fraction, "fraction")
        i = int(np.argmin(np.abs(self.positive_fraction - fraction)))
        return float(self.f1[i])

    def rows(self) -> List[tuple]:
        """(threshold, F1, positive fraction) rows for the bench harness."""
        return [
            (int(t), float(f), float(p))
            for t, f, p in zip(self.thresholds, self.f1, self.positive_fraction)
        ]


def threshold_sweep(
    model: EmbeddingModel,
    cascades: CascadeSet,
    thresholds: Sequence[int],
    early_fraction: float = 2.0 / 7.0,
    window: Optional[float] = None,
    feature_set: Sequence[str] = PAPER_FEATURES,
    k_folds: int = 10,
    lam: float = 1e-3,
    n_epochs: int = 30,
    hist_bin_width: int = 50,
    seed: SeedLike = None,
) -> ThresholdSweepResult:
    """Cross-validated F1 at each size threshold (regenerates Fig. 9/12).

    Thresholds that leave fewer than 2 samples in either class are scored
    0; the others use ``min(k_folds, n_pos, n_neg)`` folds.  Every
    threshold's folds are fitted together in one lockstep pass (see
    :func:`~repro.prediction.svm.fit_many`).
    """
    from repro.cascades.stats import size_histogram

    rng = as_generator(seed)
    dataset = build_dataset(
        model, cascades, early_fraction=early_fraction, window=window,
        feature_set=feature_set,
    )
    f1s = np.zeros(len(thresholds))
    pos_frac = np.zeros(len(thresholds))
    scored, labellings, folds = [], [], []
    for i, thr in enumerate(thresholds):
        y = dataset.labels(int(thr))
        n_pos = int(np.sum(y == 1))
        n_neg = int(np.sum(y == -1))
        pos_frac[i] = n_pos / max(len(y), 1)
        if min(n_pos, n_neg) >= 2:
            scored.append(i)
            labellings.append(y)
            folds.append(min(k_folds, n_pos, n_neg))
    if scored:
        # one call for every threshold: its fits run in one lockstep pass
        f1s[scored] = cross_val_f1(
            lambda: LinearSVM(lam=lam, n_epochs=n_epochs, seed=rng),
            dataset.X,
            np.stack(labellings),
            k=folds,
            seed=rng,
        )
    edges, counts = size_histogram(cascades, bin_width=hist_bin_width)
    return ThresholdSweepResult(
        thresholds=np.asarray(thresholds, dtype=np.int64),
        f1=f1s,
        positive_fraction=pos_frac,
        hist_edges=edges,
        hist_counts=counts,
    )
