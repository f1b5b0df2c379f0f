"""Seeded, cached benchmark inputs and reference outputs.

Each (workload, seed) gets one directory under ``.cache/`` holding the
generated files, a ``params.json`` with the generator parameters and the
reason the workload exists, and the reference outputs the run checks
against (keyed by a digest of ``src/``).  Both are made once, in a child
process, outside timing; the program under test only sees the files.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import shutil
from pathlib import Path
from typing import Any, Dict

import numpy as np

from common import BENCH_DIR, CACHE_DIR, ROOT

TRAIN_SBM: Dict[str, Any] = {
    "generator": "repro.datasets.sbm_corpus.make_sbm_experiment",
    "n_nodes": 800,
    "n_train": 700,
    "n_test": 350,
    "n_topics": 10,
    "hub_communities": False,
    "quantiles": [0.5, 0.6, 0.7, 0.8, 0.9],
    "top_fraction": 0.2,
    "workers": 2,
    "why": "all work in the train layers (co-occurrence, SLPA, merge "
    "tree, hierarchical fit, features, SVM sweep), none in serving",
}

TCP_SHARDED: Dict[str, Any] = {
    "generator": "repro.datasets.gdelt.SyntheticGDELT + "
    "repro.ingest.batches_from_cascades",
    "world_seed": 0,
    "n_news": 800,
    "n_sites": 800,
    "span_s": 60.0,
    "start_fraction": 0.75,
    "chunk": 256,
    "n_topics": 10,
    "rate_eps": 5_000,
    "score_every": 1,
    "shards": 2,
    "fsync": "interval",
    "max_batch": 256,
    "why": "read-heavy replay over one TCP connection to `repro serve "
    "--shards 2` with journals: JSON wire, asyncio server, router pipes "
    "and journal carry the cost; the fold's share is small",
}

PARAMS = {
    "train-sbm": TRAIN_SBM,
    "tcp-sharded": TCP_SHARDED,
}


def input_dir(workload: str, seed: int) -> Path:
    """The input directory of (workload, seed), keyed by its parameters."""
    params = dict(PARAMS[workload], seed=seed)
    digest = hashlib.sha256(
        json.dumps(params, sort_keys=True).encode()
    ).hexdigest()[:12]
    return CACHE_DIR / f"{workload}-seed{seed}-{digest}"


def reference_path(workload: str, seed: int) -> Path:
    """Where the reference outputs for the current program and benchmark
    sources live."""
    h = hashlib.sha256()
    sources = [*(ROOT / "src").rglob("*.py"), *BENCH_DIR.glob("*.py")]
    for path in sorted(sources):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return input_dir(workload, seed) / f"reference-{h.hexdigest()[:16]}.npz"


def prepare(workload: str, seed: int) -> Path:
    """Generate the inputs and the reference outputs (each once), in a
    child process, so that neither counts in the measured process's time
    or peak memory.  Returns the reference outputs' path."""
    ref = reference_path(workload, seed)
    if not ref.exists():
        child = mp.get_context("spawn").Process(
            target=_prepare, args=(workload, seed, ref)
        )
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(
                f"preparing {workload} seed {seed} failed ({child.exitcode})"
            )
    return ref


def _prepare(workload: str, seed: int, ref: Path) -> None:
    _generate(workload, seed)
    if workload == "train-sbm":
        from train_sbm import compute_reference
    else:
        from serve import compute_reference
    arrays = compute_reference(workload, seed)
    tmp = ref.with_name(ref.name + ".tmp.npz")
    np.savez(tmp, **arrays)
    os.replace(tmp, ref)


def _generate(workload: str, seed: int) -> None:
    params = dict(PARAMS[workload], seed=seed)
    final = input_dir(workload, seed)
    if (final / "params.json").exists():
        return
    tmp = final.with_name(final.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        if workload == "train-sbm":
            _make_train_sbm(tmp, params)
        else:
            _make_recording(tmp, params)
        (tmp / "params.json").write_text(json.dumps(params, indent=2) + "\n")
        shutil.rmtree(final, ignore_errors=True)
        tmp.rename(final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _make_train_sbm(out: Path, p: Dict[str, Any]) -> None:
    from repro.cascades.io import save_cascades_jsonl
    from repro.datasets.sbm_corpus import make_sbm_experiment

    exp = make_sbm_experiment(
        n_nodes=p["n_nodes"],
        n_topics=p["n_topics"],
        n_train=p["n_train"],
        n_test=p["n_test"],
        hub_communities=p["hub_communities"],
        seed=p["seed"],
    )
    save_cascades_jsonl(exp.cascades, out / "corpus.jsonl")


def _make_recording(out: Path, p: Dict[str, Any]) -> None:
    """A synthetic GDELT stream recording plus the model it is served with.

    The site world (topology, regions, popularity) is fixed by
    ``world_seed``; the seed draws the news events, their placement on
    the stream timeline and the model.  A world drawn per seed would
    swing the number of concurrently live cascades per burst — the
    serving cost driver — by almost 2x between seeds (60 to 105 per
    256-event burst), while news drawn from one world keep it within a
    few percent.  The embeddings are seeded random planes; the predictor
    is fitted on the early-adopter features of the recorded cascades at
    their top-20 % size threshold, so scores are real SVM margins.
    """
    from repro.datasets.gdelt import GDELTConfig, SyntheticGDELT
    from repro.embedding.model import EmbeddingModel
    from repro.ingest import StreamWriter, batches_from_cascades
    from repro.prediction.pipeline import ViralityPredictor, build_dataset

    seed = p["seed"]
    world = SyntheticGDELT(
        GDELTConfig(n_sites=p["n_sites"]), seed=p["world_seed"]
    )
    cascades = world.sample_events(p["n_news"], min_size=3, seed=seed)
    batches = batches_from_cascades(
        list(cascades),
        span_s=p["span_s"],
        start_fraction=p["start_fraction"],
        chunk=p["chunk"],
        seed=seed,
    )
    with StreamWriter(out / "recording.evs") as writer:
        for batch in batches:
            writer.write_batch(batch)

    rng = np.random.default_rng(seed)
    shape = (p["n_sites"], p["n_topics"])
    model = EmbeddingModel(rng.uniform(0, 1, shape), rng.uniform(0, 1, shape))
    model.save(out / "model.npz")
    dataset = build_dataset(model, cascades)
    threshold = int(np.quantile(dataset.final_sizes, 0.8))
    ViralityPredictor(threshold=threshold, seed=seed).fit(dataset).save(
        out / "predictor.npz"
    )
