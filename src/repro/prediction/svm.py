"""Linear soft-margin SVM trained with the Pegasos primal solver.

The paper deliberately uses "a simple classifier ... with linear kernel" so
the features carry the predictive weight; we implement it from scratch.
Pegasos (Shalev-Shwartz et al., 2007) minimizes

.. math::

    \\frac{\\lambda}{2} \\lVert w \\rVert^2
    + \\frac{1}{n} \\sum_i c_{y_i} \\max(0, 1 - y_i (w \\cdot x_i + b))

by stochastic sub-gradient steps with learning rate ``1/(λ t)``.  Class
weights ``c_y`` counteract the label imbalance the paper notes at high
size thresholds ("a high threshold makes the prediction problem
challenging because the samples in two classes are unbalanced").

Many independent fits — the (threshold, fold) grid of a cross-validated
sweep — go through :func:`fit_many`, which steps them in lockstep: one
``(D, F)`` weight matrix, one vectorized Pegasos step per ``t`` for all F
fits.  Each column is bit-identical to the same fit run alone, because
both paths sum the margin and the projection norm with :func:`_left_sum`.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_finite_rows

__all__ = ["LinearSVM", "fit_many"]

#: one fit's solver input: intercept-augmented features (n, D), labels
#: y (n,) and per-sample steps c_y·y (n,)
_Problem = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: lockstep steps whose gather indices are built at once
_CHUNK = 512


class LinearSVM:
    """Binary linear SVM; labels are {-1, +1}.

    Parameters
    ----------
    lam:
        L2 regularization strength λ.
    n_epochs:
        Passes over the data.
    class_weight:
        ``None`` (all ones) or ``"balanced"`` (inverse class frequency) or
        an explicit ``{-1: w, +1: w}`` dict.
    fit_intercept:
        Learn an unregularized bias term.
    seed:
        RNG for the sampling order.
    """

    def __init__(
        self,
        lam: float = 1e-3,
        n_epochs: int = 30,
        class_weight: Optional[object] = "balanced",
        fit_intercept: bool = True,
        seed: SeedLike = None,
    ) -> None:
        if lam <= 0:
            raise ValueError("lam must be positive")
        if n_epochs < 1:
            raise ValueError("n_epochs must be >= 1")
        self.lam = float(lam)
        self.n_epochs = int(n_epochs)
        self.class_weight = class_weight
        self.fit_intercept = bool(fit_intercept)
        self.seed = seed
        self.w: Optional[np.ndarray] = None
        self.b: float = 0.0

    # ------------------------------------------------------------------ #

    def _resolve_weights(self, y: np.ndarray) -> Dict[int, float]:
        if self.class_weight is None:
            return {-1: 1.0, 1: 1.0}
        if self.class_weight == "balanced":
            n = y.size
            n_pos = int(np.sum(y == 1))
            n_neg = n - n_pos
            if n_pos == 0 or n_neg == 0:
                return {-1: 1.0, 1: 1.0}
            return {-1: n / (2.0 * n_neg), 1: n / (2.0 * n_pos)}
        if isinstance(self.class_weight, dict):
            missing = [c for c in (-1, 1) if c not in self.class_weight]
            if missing:
                raise ValueError(f"class_weight has no weight for label {missing[0]}")
            return {-1: float(self.class_weight[-1]), 1: float(self.class_weight[1])}
        raise ValueError(f"bad class_weight {self.class_weight!r}")

    def _problem(self, X: np.ndarray, y: np.ndarray) -> _Problem:
        """Validate ``(X, y)`` and build this fit's solver input."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be (n, d) and y must be (n,)")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        n = X.shape[0]
        if n == 0:
            raise ValueError("cannot fit on an empty dataset")
        check_finite_rows(X, "X")
        cw = self._resolve_weights(y)
        sample_w = np.where(y > 0, cw[1], cw[-1])
        # Fold the intercept into a (lightly regularized) constant column —
        # an unregularized bias under Pegasos' 1/(λt) schedule blows up on
        # the first steps, where η is enormous.
        if self.fit_intercept:
            X = np.hstack([X, np.ones((n, 1))])
        return X, y, sample_w * y

    def epoch_order(self, n: int) -> np.ndarray:
        """The sample order of a fit on *n* rows: ``n_epochs`` permutations
        of ``range(n)`` drawn from this model's seed, concatenated."""
        rng = as_generator(self.seed)
        return np.concatenate([rng.permutation(n) for _ in range(self.n_epochs)])

    def _set_weights(self, w: np.ndarray) -> None:
        if self.fit_intercept:
            self.w = w[:-1].copy()
            self.b = float(w[-1])
        else:
            self.w = w.copy()
            self.b = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVM":
        """Train on (n, d) features and ±1 labels; returns self."""
        problem = self._problem(X, y)
        order = self.epoch_order(problem[1].size)
        self._set_weights(_pegasos_one(problem, order, self.lam))
        return self

    # ------------------------------------------------------------------ #

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed margins ``X @ w + b``.

        Computed with einsum rather than BLAS gemv: einsum's reduction
        order per row is independent of the batch's row count, so a
        cascade's margin is bit-identical whether it is scored alone or
        inside any batch — the serving tier's single-vs-batched parity
        rests on this.
        """
        if self.w is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        return np.einsum("ik,k->i", X, self.w) + self.b

    def predict(self, X: np.ndarray) -> np.ndarray:
        """±1 labels (0 margin counts as +1)."""
        return np.where(self.decision_function(X) >= 0.0, 1, -1).astype(np.int64)


def fit_many(
    models: Sequence[LinearSVM],
    Xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    orders: Sequence[np.ndarray],
) -> None:
    """Fit ``models[f]`` on ``(Xs[f], ys[f])``, visiting samples in ``orders[f]``.

    Every model's weights come out bit-identical to a fit of that model
    alone on the same order.  One fit runs the scalar loop; more run in
    lockstep (:func:`_pegasos_lockstep`), which needs one ``lam`` and one
    solver width (features plus the intercept column) across *models*.
    The fits may differ in rows, class weights and order length.
    """
    if not (len(models) == len(Xs) == len(ys) == len(orders)):
        raise ValueError("models, Xs, ys and orders must have one entry per fit")
    if not models:
        return
    problems = [m._problem(X, y) for m, X, y in zip(models, Xs, ys)]
    lam = models[0].lam
    if any(m.lam != lam for m in models):
        raise ValueError("fits stepped in lockstep must share lam")
    if len({p[0].shape[1] for p in problems}) != 1:
        raise ValueError("fits stepped in lockstep must share the solver width")
    orders = [np.asarray(o) for o in orders]
    for (_, y, _), order in zip(problems, orders):
        if (order.ndim != 1 or order.size == 0 or order.dtype.kind not in "iu"
                or order.min() < 0 or order.max() >= y.size):
            raise ValueError(f"an order must be a non-empty index array into range({y.size})")
    if len(models) == 1:
        rows = [_pegasos_one(problems[0], orders[0], lam)]
    else:
        rows = list(_pegasos_lockstep(problems, orders, lam))
    for model, w in zip(models, rows):
        model._set_weights(w)


# ---------------------------------------------------------------------- #
# The solver.  One step at time t, for sample i with step c = c_y·y_i:
#
#     η = 1/(λt);  margin = y_i·(x_i·w);  w ← (1 − ηλ)·w
#     w ← w + (η·c)·x_i            if margin < 1
#     w ← w·(r / ‖w‖)              if ‖w‖ > r = 1/√λ
#
# The last line is Pegasos' optional projection onto the feasible ball; it
# keeps the early huge-η steps from overshooting.  Both the dot product
# and the norm are _left_sum over the feature axis.
# ---------------------------------------------------------------------- #


def _left_sum(terms):
    """``terms[0] + terms[1] + ...``, added strictly left to right.

    The one reduction order of every Pegasos dot product and norm.  A
    single fit passes a list of float products; the lockstep solver
    passes a ``(D, F)`` product, summing each fit's column.  ``x @ w``
    and ``np.linalg.norm`` choose their summation order by shape, so a
    fit stepped alone and stepped in a batch would round differently.
    """
    acc = terms[0]
    for j in range(1, len(terms)):
        acc = acc + terms[j]
    return acc


def _pegasos_one(problem: _Problem, order: np.ndarray, lam: float) -> np.ndarray:
    """One fit, stepped in Python floats; returns the weight row (D,)."""
    X, y, step = problem
    rows, ys, steps = X.tolist(), y.tolist(), step.tolist()
    radius = 1.0 / math.sqrt(lam)
    w = [0.0] * X.shape[1]
    for t, i in enumerate(order.tolist(), start=1):
        eta = 1.0 / (lam * t)
        x = rows[i]
        margin = ys[i] * _left_sum([a * b for a, b in zip(x, w)])
        shrink = 1.0 - eta * lam
        w = [v * shrink for v in w]
        if margin < 1.0:
            c = eta * steps[i]
            w = [v + c * a for v, a in zip(w, x)]
        norm = math.sqrt(_left_sum([v * v for v in w]))
        if norm > radius:
            scale = radius / norm
            w = [v * scale for v in w]
    return np.array(w)


def _pegasos_lockstep(
    problems: Sequence[_Problem], orders: Sequence[np.ndarray], lam: float
) -> np.ndarray:
    """All fits stepped together; returns the ``(F, D)`` weight rows.

    Fits are ranked longest order first, so the fits still running at
    step t are the leading ``n_live[t]`` columns and a finished fit is
    simply left out of the slice.  Each step gathers its F samples from
    a padded ``(D + 2, F·N)`` table (features, y, c_y·y), by table
    indices built ``_CHUNK`` steps at a time — never an ``F × T × D``
    pre-gather, nor a second ``F × T`` copy of the orders.  A hinge-free
    column adds ``±0·x`` and an unprojected column is scaled by
    ``r / r = 1``; neither changes a weight (at most the sign of a zero
    one, which no later step or prediction can see), so every column
    takes its single fit's arithmetic.
    """
    F = len(problems)
    D = problems[0][0].shape[1]
    N = max(p[1].size for p in problems)
    lengths = np.array([o.size for o in orders])
    rank = np.argsort(-lengths, kind="stable")
    table = np.zeros((D + 2, F, N))
    for col, f in enumerate(rank):
        X, y, step = problems[f]
        table[:D, col, : y.size] = X.T
        table[D, col, : y.size] = y
        table[D + 1, col, : y.size] = step
    table = table.reshape(D + 2, F * N)
    T = int(lengths[rank[0]])
    # n_live[t - 1]: fits whose order has at least t steps
    n_live = np.searchsorted(-lengths[rank], -np.arange(1, T + 1), "right")
    radius = 1.0 / math.sqrt(lam)
    W = np.zeros((D, F))
    for start in range(0, T, _CHUNK):
        # row t - start - 1: the table index of each fit's step-t sample
        index = np.zeros((min(_CHUNK, T - start), F), dtype=np.intp)
        for col, f in enumerate(rank[: n_live[start]]):
            part = orders[f][start : start + _CHUNK]
            index[: part.size, col] = part + col * N
        for t, row in enumerate(index, start=start + 1):
            live = n_live[t - 1]
            Wl = W[:, :live]
            g = table.take(row[:live], axis=1)
            x = g[:D]
            eta = 1.0 / (lam * t)
            hinge = g[D] * _left_sum(x * Wl) < 1.0
            Wl *= 1.0 - eta * lam
            Wl += (eta * g[D + 1] * hinge) * x
            Wl *= radius / np.maximum(np.sqrt(_left_sum(Wl * Wl)), radius)
    out = np.empty((F, D))
    out[rank] = W.T
    return out
