"""Workload ``train-sbm``: the batch train path on an SBM corpus.

One round is what a user of the train path runs: community-parallel
inference (co-occurrence graph, SLPA, merge tree, hierarchical fit) on a
2-worker :class:`MultiprocessBackend`, the cross-validated threshold
sweep, then a virality prediction for every cascade of the corpus from
its early adopters.  A serial fit of the same seed is the reference.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from common import (
    CheckFailed,
    Outcome,
    check_no_leaks,
    children_of,
    keep_best,
    latency_metrics,
    planned_rounds,
    median,
    peak_rss_mb,
    shm_segments,
)
from inputs import TRAIN_SBM, input_dir, prepare
from tracing import Tracer

#: merge-tree levels reported one by one; deeper levels fold into the last
N_LEVEL_METRICS = 6
SETUP_REPEATS = 5
EARLY_FRACTION = 2.0 / 7.0
#: prediction passes over the corpus per round (repetitions per operation)
PREDICT_PASSES = 5
#: budgeted wall time of one round (about 11 s on the 2-core machine the
#: benchmark was tuned on); 50 s runs make four rounds
NOMINAL_ROUND_S = 12.5

PER_LAYER = (
    ["cooccurrence.build_s", "community.slpa_s", "community.leaves",
     "parallel.prepare_s"]
    + [f"parallel.level_s.L{i}" for i in range(N_LEVEL_METRICS)]
    + ["parallel.wait_s", "parallel.imbalance", "parallel.idle_share",
       "parallel.retries", "embedding.compile_s", "embedding.kernel_s",
       "embedding.iters", "embedding.work_units", "prediction.features_s",
       "prediction.cv_s", "prediction.svm_fits", "prediction.f1_top20"]
)


def _early_prefix(cascade: Any) -> Any:
    """The early-adopter prefix ``build_dataset`` uses (own-span window)."""
    if cascade.size == 0:
        return cascade
    span = cascade.times[-1] - cascade.times[0]
    return cascade.prefix_by_time(cascade.times[0] + EARLY_FRACTION * span)


def _job(train, test, thresholds, backend, seed, tracer, lat=None):
    """One train-then-predict round; returns (model, f1, scores, tree,
    phase walls)."""
    from repro.parallel.hierarchical import infer_embeddings
    from repro.prediction.features import extract_features
    from repro.prediction.pipeline import (
        ViralityPredictor,
        build_dataset,
        threshold_sweep,
    )

    span = tracer.span
    clock = time.perf_counter
    t0 = clock()
    with span("bench:infer"):
        model, _, tree = infer_embeddings(
            train, n_topics=TRAIN_SBM["n_topics"], backend=backend, seed=seed
        )
    t1 = clock()
    with span("bench:sweep"):
        sweep = threshold_sweep(model, test, thresholds=thresholds, seed=seed)
    f1 = sweep.f1_at_top_fraction(TRAIN_SBM["top_fraction"])
    t2 = clock()

    # per-cascade prediction: fit at the top-20 % threshold of the
    # held-out cascades, then predict every cascade of the corpus on its
    # own, as a caller of the model would (1050 operations keep p95 off
    # the handful of largest prefixes one seed happens to draw)
    with span("bench:predict"):
        dataset = build_dataset(model, test)
        threshold = int(np.quantile(dataset.final_sizes, 0.8))
        predictor = ViralityPredictor(threshold=threshold, seed=seed)
        predictor.fit(dataset)
        cascades = list(train) + list(test)
        rows = np.vstack([build_dataset(model, train).X, dataset.X])
        scores = np.empty(len(cascades))
        same_rows = True
        for _ in range(PREDICT_PASSES):
            for i, cascade in enumerate(cascades):
                t_op = clock()
                with span("prediction:predict_one"):
                    x = extract_features(model, _early_prefix(cascade))
                    scores[i] = predictor.decision_function(x[None, :])[0]
                if lat is not None:
                    keep_best(lat, i, (clock() - t_op) * 1e3)
                same_rows &= bool(np.array_equal(x, rows[i]))
    t3 = clock()
    if not same_rows:
        raise CheckFailed("per-cascade features differ from the batch rows")
    return model, f1, scores, tree, (t1 - t0, t2 - t1, t3 - t2)


def compute_reference(workload: str, seed: int) -> Dict[str, Any]:
    """Serial fit of the same seed: the outputs the run must reproduce."""
    from repro.parallel.backends import SerialBackend

    train, test, thresholds, _ = _load(input_dir(workload, seed))
    with SerialBackend() as backend:
        model, f1, scores, _, _ = _job(
            train, test, thresholds, backend, seed, Tracer(False)
        )
    return {"A": model.A, "B": model.B, "f1": np.float64(f1), "scores": scores}


def _load(d: Path) -> Tuple[Any, Any, List[int], int]:
    from repro.cascades.io import load_cascades_jsonl

    corpus = load_cascades_jsonl(d / "corpus.jsonl")
    train, test = corpus.split(TRAIN_SBM["n_train"])
    sizes = test.sizes()
    thresholds = sorted(
        {int(np.quantile(sizes, q)) for q in TRAIN_SBM["quantiles"]}
    )
    return train, test, thresholds, int(sum(c.size for c in corpus))


def _trace_backend(tracer: Tracer, backend, acc: Dict[str, Any]) -> None:
    """Span the backend's public ``prepare``/``run_level`` and fold the
    returned :class:`BlockResult` bookkeeping into *acc*."""
    tracer.wrap(backend, "prepare", "parallel:prepare")
    run_level = backend.run_level
    n_workers = backend.n_workers

    def traced_run_level(tasks):
        level = acc["levels"]
        acc["levels"] += 1
        with tracer.span("parallel:level", level=level):
            t0 = time.perf_counter()
            results = run_level(tasks)
            wall = time.perf_counter() - t0
            walls = [r.wall_seconds for r in results] or [0.0]
            slowest = max(walls)
            # the worker-measured slowest block is the level's critical
            # path; it is drawn from the level start (its true offset
            # inside the level is not observable from here)
            tracer.add_span("embedding:critical_block", t0, t0 + slowest,
                            blocks=len(results))
        key = min(level, N_LEVEL_METRICS - 1)
        acc["level_s"][key] += wall
        acc["wait_s"] += max(0.0, wall - slowest)
        acc["block_s"] += sum(walls)
        acc["slot_s"] += wall * n_workers
        acc["imbalance"].append(slowest / (sum(walls) / len(walls) or 1.0))
        for r in results:
            acc["compile_s"] += r.compile_seconds
            acc["kernel_s"] += r.kernel_seconds
            acc["iters"] += r.n_iters
            acc["work_units"] += r.work_units
        return results

    tracer.patch(backend, "run_level", traced_run_level)


def _new_acc() -> Dict[str, Any]:
    return {
        "levels": 0, "level_s": [0.0] * N_LEVEL_METRICS, "wait_s": 0.0,
        "block_s": 0.0, "slot_s": 0.0, "imbalance": [],
        "compile_s": 0.0, "kernel_s": 0.0, "iters": 0, "work_units": 0,
    }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.parallel import hierarchical
    from repro.parallel.backends import MultiprocessBackend
    from repro.prediction import pipeline
    from repro.prediction.svm import LinearSVM

    out = Outcome("train-sbm")
    shm_before = shm_segments()
    with np.load(prepare("train-sbm", seed)) as ref:
        ref_A, ref_B, ref_scores = ref["A"], ref["B"], ref["scores"]
        ref_f1 = float(ref["f1"])
    train, test, thresholds, n_events = _load(input_dir("train-sbm", seed))

    # set-up: the 2-worker pool start, repeated; the median is reported
    setups = []
    pids: List[int] = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        backend = MultiprocessBackend(n_workers=TRAIN_SBM["workers"])
        setups.append(time.perf_counter() - t0)
        pids += children_of(os.getpid())
        backend.close()

    tracer = Tracer(trace)
    acc = _new_acc()
    walls: Dict[bool, List[float]] = {False: [], True: []}
    phases: List[Tuple[float, float, float]] = []
    lat: Dict[int, float] = {}
    retries = 0
    worker_rss = 0.0
    # a traced run alternates untraced and traced rounds, so the tracing
    # overhead is measured inside the run (traced minus untraced)
    for r in range(planned_rounds(seconds, NOMINAL_ROUND_S)):
        traced = trace and r % 2 == 1
        with MultiprocessBackend(n_workers=TRAIN_SBM["workers"]) as backend:
            workers = children_of(os.getpid())
            pids += workers
            quiet = Tracer(False)
            if traced:
                _trace_backend(tracer, backend, acc)
                tracer.wrap(hierarchical, "build_cooccurrence_graph",
                            "cooccurrence:build")
                tracer.wrap(hierarchical, "slpa", "community:slpa")
                tracer.wrap(pipeline, "build_dataset", "prediction:features")
                tracer.wrap(pipeline, "cross_val_f1", "prediction:cv")
                tracer.wrap(LinearSVM, "fit", "prediction:svm_fit")
            try:
                t0 = time.perf_counter()
                with (tracer if traced else quiet).span("bench:round"):
                    model, f1, scores, tree, phase = _job(
                        train, test, thresholds, backend, seed,
                        tracer if traced else quiet,
                        lat if traced == trace else None,
                    )
                walls[traced].append(time.perf_counter() - t0)
            finally:
                tracer.restore()
            if traced == trace:
                phases.append(phase)
            retries += sum(p.n_retries for p in backend.level_profiles)
            worker_rss = max(worker_rss, peak_rss_mb(workers))
        out.check("A_equals_serial", np.array_equal(model.A, ref_A))
        out.check("B_equals_serial", np.array_equal(model.B, ref_B))
        out.check("f1_equals_serial", f1 == ref_f1)
        out.check("scores_equal_serial", np.array_equal(scores, ref_scores))
        out.attempted += PREDICT_PASSES * len(scores)  # the predictions
    check_no_leaks(out, shm_before, pids)

    out.put("setup_s", median(setups))
    # each phase's best round, for the reason given in
    # common.latency_metrics
    best = sum(min(p[k] for p in phases) for k in range(3))
    out.put("capacity_eps", n_events / best)
    latency_metrics(out, lat)
    out.put("peak_rss_mb", peak_rss_mb([os.getpid()]) + worker_rss)
    out.notes.update(
        rounds=len(walls[trace]),
        capacity_rounds=[round(n_events / w) for w in walls[trace]],
        events=n_events,
        f1_top20=f1,
        train_s=median([p[0] for p in phases]),
        sweep_s=median([p[1] for p in phases]),
        predict_s=median([p[2] for p in phases]),
        merge_tree=tree.widths(),
    )
    if trace:
        _per_layer(out, tracer, acc, tree, retries, f1, walls)
        out.tracer, out.root = tracer, "bench:round"
    return out


def _per_layer(out, tracer, acc, tree, retries, f1, walls) -> None:
    """Per traced round: every figure is divided by the traced rounds."""
    n = len(walls[True])
    out.put("cooccurrence.build_s", tracer.total("cooccurrence:build") / n, "s")
    out.put("community.slpa_s", tracer.total("community:slpa") / n, "s")
    out.put("community.leaves", tree.widths()[0], "count")
    out.put("parallel.prepare_s", tracer.total("parallel:prepare") / n, "s")
    for i in range(N_LEVEL_METRICS):
        out.put(f"parallel.level_s.L{i}", acc["level_s"][i] / n, "s")
    out.put("parallel.wait_s", acc["wait_s"] / n, "s")
    out.put("parallel.imbalance", median(acc["imbalance"]), "ratio")
    out.put("parallel.idle_share", 1.0 - acc["block_s"] / acc["slot_s"], "ratio")
    out.put("parallel.retries", retries, "count")
    out.put("embedding.compile_s", acc["compile_s"] / n, "s")
    out.put("embedding.kernel_s", acc["kernel_s"] / n, "s")
    out.put("embedding.iters", acc["iters"] / n, "count")
    out.put("embedding.work_units", acc["work_units"] / n, "count")
    out.put("prediction.features_s", tracer.total("prediction:features") / n, "s")
    out.put("prediction.cv_s", tracer.total("prediction:cv") / n, "s")
    out.put("prediction.svm_fits",
            len(tracer.durations("prediction:svm_fit")) / n, "count")
    out.put("prediction.f1_top20", f1, "F1")
    out.put("trace.overhead_share",
            median(walls[True]) / median(walls[False]) - 1.0, "ratio")
