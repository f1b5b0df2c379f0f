"""Threshold-sweep benchmark: lockstep Pegasos vs a loop of single fits.

Times the cross-validated F1 sweep behind Figs. 9/12 — 10 stratified
folds at each of the five size thresholds the ``train-sbm`` workload
sweeps (the 0.5–0.9 quantiles of 350 held-out SBM cascades, features
from the generative embeddings) — two ways over the same folds:

* **loop**: per threshold, ``kfold_indices`` then one
  :meth:`LinearSVM.fit` per fold, all on one shared generator — the
  sweep as it ran before the lockstep solver;
* **lockstep**: the shipped path, one :func:`cross_val_f1` call whose
  fits all step together in one :func:`fit_many` pass.

Both draw identical folds and sample orders, so the F1 arrays must be
identical before any time is reported.  Timing is the minimum over
alternating back-to-back repetitions (the minimum is the statistic that
converges to the cost of the work on a jittery shared machine).

Gate: the lockstep sweep is ≥ 4× faster than the loop.  Results go to
``BENCH_sweep.json`` at the repo root plus the usual
``benchmarks/results`` text dump.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from _common import save_result

from repro import make_sbm_experiment
from repro.prediction import build_dataset, cross_val_f1, f1_score, kfold_indices
from repro.prediction.svm import LinearSVM

pytestmark = pytest.mark.slow  # tens of seconds of repeated sweeps

ROOT = Path(__file__).parent.parent
QUANTILES = (0.5, 0.6, 0.7, 0.8, 0.9)
K_FOLDS = 10
SEED = 109
REPEATS = 3
MIN_SPEEDUP = 4.0


def _sweep_inputs():
    exp = make_sbm_experiment(
        n_nodes=800, community_size=40, n_train=0, n_test=350,
        hub_communities=False, seed=1234,
    )
    data = build_dataset(exp.truth, exp.test, window=exp.window)
    thresholds = sorted({int(np.quantile(data.final_sizes, q)) for q in QUANTILES})
    labellings = [data.labels(t) for t in thresholds]
    folds = [min(K_FOLDS, int(np.sum(y == 1)), int(np.sum(y == -1))) for y in labellings]
    return data.X, np.stack(labellings), folds


def _standardize(X, train, test):
    mu, sd = X[train].mean(axis=0), X[train].std(axis=0)
    sd[sd == 0] = 1.0
    return (X[train] - mu) / sd, (X[test] - mu) / sd


def _loop(X, Y, folds):
    rng = np.random.default_rng(SEED)
    f1 = np.empty(len(Y))
    for i, (y, k) in enumerate(zip(Y, folds)):
        scores = []
        for train, test in kfold_indices(len(y), k=k, stratify=y, seed=rng):
            Xtr, Xte = _standardize(X, train, test)
            svm = LinearSVM(seed=rng).fit(Xtr, y[train])
            scores.append(f1_score(y[test], svm.predict(Xte)))
        f1[i] = np.mean(scores)
    return f1


def _lockstep(X, Y, folds):
    rng = np.random.default_rng(SEED)
    return cross_val_f1(lambda: LinearSVM(seed=rng), X, Y, k=folds, seed=rng)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def test_lockstep_sweep_speedup():
    X, Y, folds = _sweep_inputs()
    loop_s, lock_s = [], []
    for _ in range(REPEATS):
        dt, f1_loop = _timed(_loop, X, Y, folds)
        loop_s.append(dt)
        dt, f1_lock = _timed(_lockstep, X, Y, folds)
        lock_s.append(dt)
        assert np.array_equal(f1_loop, f1_lock)
    n_fits = sum(folds)
    steps = 30 * len(X)  # an upper bound on one fit's order length
    report = {
        "thresholds": len(Y),
        "fits": n_fits,
        "rows": int(len(X)),
        "features": int(X.shape[1]),
        "repeats": REPEATS,
        "statistic": "min over alternating repetitions",
        "loop_seconds": min(loop_s),
        "lockstep_seconds": min(lock_s),
        "speedup_ratio": min(loop_s) / min(lock_s),
        "f1": f1_lock.tolist(),
    }
    (ROOT / "BENCH_sweep.json").write_text(json.dumps(report, indent=2) + "\n")
    save_result(
        "bench_sweep",
        "\n".join([
            f"threshold sweep: {len(Y)} thresholds, {n_fits} fits, "
            f"{len(X)} rows x {X.shape[1]} features (≤ {steps} steps per fit)",
            f"loop of single fits: {min(loop_s):.3f} s",
            f"lockstep fit_many:   {min(lock_s):.3f} s",
            f"speedup: {report['speedup_ratio']:.2f}x (gate ≥ {MIN_SPEEDUP}x)",
            f"F1: {np.round(f1_lock, 4).tolist()} (identical on both paths)",
        ]),
    )
    assert report["speedup_ratio"] >= MIN_SPEEDUP
