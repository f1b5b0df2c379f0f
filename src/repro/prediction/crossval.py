"""K-fold cross-validation (the paper evaluates F1 with 10 folds)."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.prediction.metrics import f1_score
from repro.prediction.svm import LinearSVM, fit_many
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_finite_rows

__all__ = ["kfold_indices", "cross_val_f1"]


def kfold_indices(
    n: int,
    k: int = 10,
    stratify: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Return *k* ``(train_idx, test_idx)`` splits of ``range(n)``.

    With *stratify* (a ±1 label array), each class is distributed evenly
    across folds — important here because high size thresholds make
    positives rare and an unstratified fold can end up positive-free.
    """
    if not (2 <= k <= n):
        raise ValueError(f"k must be in [2, n], got k={k}, n={n}")
    rng = as_generator(seed)
    fold_of = np.empty(n, dtype=np.int64)
    if stratify is None:
        perm = rng.permutation(n)
        fold_of[perm] = np.arange(n) % k
    else:
        stratify = np.asarray(stratify)
        if stratify.shape != (n,):
            raise ValueError("stratify must have length n")
        for cls in np.unique(stratify):
            idx = np.flatnonzero(stratify == cls)
            perm = idx[rng.permutation(idx.size)]
            fold_of[perm] = np.arange(idx.size) % k
    splits = []
    for f in range(k):
        test = np.flatnonzero(fold_of == f)
        train = np.flatnonzero(fold_of != f)
        splits.append((train, test))
    return splits


def cross_val_f1(
    make_model: Callable[[], LinearSVM],
    X: np.ndarray,
    y: np.ndarray,
    k: Union[int, Sequence[int]] = 10,
    seed: SeedLike = None,
    standardize: bool = True,
) -> Union[float, np.ndarray]:
    """Mean F1 over *k* stratified folds, for one labelling or several.

    *y* is one ±1 labelling ``(n,)``, which returns a float, or ``T``
    labellings ``(T, n)`` of the same rows, which return a ``(T,)``
    array; *k* is one fold count or one per labelling.  Labelling by
    labelling, the folds are drawn from *seed*, then each fold's model
    (a fresh :class:`LinearSVM` from ``make_model()``) draws its sample
    order from its own seed.  All fits then run in one :func:`fit_many`
    pass.  Features are standardized with the *training* fold's
    mean/std (no test leakage).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    labellings = y[None, :] if y.ndim == 1 else y
    ks = [k] * len(labellings) if isinstance(k, (int, np.integer)) else list(k)
    if X.ndim != 2 or labellings.ndim != 2 or labellings.shape[1] != X.shape[0]:
        raise ValueError("X must be (n, d) and y must be (n,) or (T, n)")
    if len(ks) != len(labellings):
        raise ValueError("k must be one fold count or one per labelling")
    check_finite_rows(X, "X")
    rng = as_generator(seed)
    models, Xs, ys, orders, tests = [], [], [], [], []
    scores: List[List[float]] = [[] for _ in labellings]
    for row, (labels, k_row) in enumerate(zip(labellings, ks)):
        for train, test in kfold_indices(len(labels), k=k_row, stratify=labels, seed=rng):
            Xtr, Xte = X[train], X[test]
            if standardize:
                mu = Xtr.mean(axis=0)
                sd = Xtr.std(axis=0)
                sd[sd == 0] = 1.0
                Xtr = (Xtr - mu) / sd
                Xte = (Xte - mu) / sd
            # 0.0 scores a degenerate fold (nothing to learn); a fit overwrites it
            scores[row].append(0.0)
            if np.unique(labels[train]).size < 2:
                continue
            model = make_model()
            models.append(model)
            Xs.append(Xtr)
            ys.append(labels[train])
            orders.append(model.epoch_order(train.size))
            tests.append((row, len(scores[row]) - 1, Xte, labels[test]))
    fit_many(models, Xs, ys, orders)
    for model, (row, fold, Xte, yte) in zip(models, tests):
        scores[row][fold] = f1_score(yte, model.predict(Xte))
    f1 = np.array([np.mean(s) for s in scores])
    return float(f1[0]) if y.ndim == 1 else f1
