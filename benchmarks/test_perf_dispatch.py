"""Dispatch-overhead benchmark for the zero-copy arena.

Measures what the parallel engine pays *around* the numerics at each
merge-tree level — payload serialization volume and time, parent-side
build work, and wall-clock.  The corpus lives in a shared-memory
:class:`~repro.parallel.arena.CorpusArena`, each level's split in a
:class:`~repro.parallel.arena.LevelSelection`, and a task ships as a
tuple of index ranges.

The run uses 4 workers on the synthetic SBM corpus (the paper's §VI-A
instance) and must land bit-identical to :class:`SerialBackend` — a
cheap dispatch would be meaningless if it changed the numerics.  The
level-by-level numbers go to ``BENCH_parallel.json`` at the repo root
(plus the usual ``benchmarks/results`` text dump).

Dispatch overhead is accounted as *payload pickle time + parent-side
build time*: the serialization cost is measured explicitly by one extra
dumps() pass over the exact payload tuples (``profile_dispatch=True``).
Worker compute is reported for context, not gated — with fewer cores
than workers, timesharing makes wall-minus-compute meaningless.
Compute is further split into compile (sub-corpus build from the
arena), kernel (the fit loop), and gather (model row gather/scatter
around the fit).

Gates are absolute regression bounds:

* total payload bytes ≤ 2× the committed total (27,651 B);
* total dispatch overhead ≤ 0.0305 s.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from _common import save_result

from repro import MergeTree, make_sbm_experiment
from repro.embedding.model import EmbeddingModel
from repro.embedding.optimizer import OptimizerConfig
from repro.parallel.backends import MultiprocessBackend, SerialBackend
from repro.parallel.hierarchical import HierarchicalInference

pytestmark = pytest.mark.slow  # spawns 4-worker pools; keep out of tier-1

ROOT = Path(__file__).parent.parent
N_WORKERS = 4

#: 2x the committed arena payload total at CI scale (27,651 B)
MAX_PAYLOAD_BYTES = 55_302
#: total pickle + build seconds across levels
MAX_DISPATCH_OVERHEAD_S = 0.0305


def _world(scale):
    exp = make_sbm_experiment(
        n_nodes=scale.speedup_nodes,
        community_size=40,
        n_train=max(scale.speedup_cascade_counts),
        n_test=0,
        rate_scale=0.85,
        hub_communities=False,
        seed=1234,
    )
    tree = MergeTree(exp.planted_partition, stop_at=4)
    cfg = OptimizerConfig(max_iters=60)
    return exp, tree, cfg


def _fit(exp, tree, cfg, backend):
    model = EmbeddingModel.random(exp.train.n_nodes, 10, seed=77)
    HierarchicalInference(tree, cfg, backend).fit(model, exp.train)
    return model


def _overhead(profile):
    """Per-level dispatch overhead: pickle+IPC payload cost + build work."""
    return (profile.payload_pickle_seconds or 0.0) + profile.build_seconds


def test_dispatch_overhead(scale):
    exp, tree, cfg = _world(scale)

    m_serial = _fit(exp, tree, cfg, SerialBackend())
    with MultiprocessBackend(
        n_workers=N_WORKERS, profile_dispatch=True
    ) as backend:
        model = _fit(exp, tree, cfg, backend)
        profiles = list(backend.level_profiles)

    # Parallelism must change nothing: bit-identical final embeddings.
    assert np.array_equal(m_serial.A, model.A), "arena diverged from serial"
    assert np.array_equal(m_serial.B, model.B), "arena diverged from serial"

    levels = []
    for lvl, p in enumerate(profiles):
        assert p.mode == "arena"
        levels.append(
            {
                "level": lvl,
                "n_tasks": p.n_tasks,
                "payload_bytes": p.payload_bytes,
                "payload_pickle_seconds": p.payload_pickle_seconds,
                "build_seconds": p.build_seconds,
                "dispatch_overhead_seconds": _overhead(p),
                "wall_seconds": p.wall_seconds,
                "compute_seconds": p.compute_seconds,
                "compile_seconds": p.compile_seconds or 0.0,
                "kernel_seconds": p.kernel_seconds or 0.0,
                "gather_seconds": p.gather_seconds or 0.0,
            }
        )
    tot = {
        key: sum(l[key] for l in levels)
        for key in (
            "payload_bytes",
            "payload_pickle_seconds",
            "dispatch_overhead_seconds",
            "wall_seconds",
            "compute_seconds",
            "compile_seconds",
            "kernel_seconds",
            "gather_seconds",
        )
    }

    report = {
        "scale": scale.name,
        "n_workers": N_WORKERS,
        "n_nodes": scale.speedup_nodes,
        "n_cascades": max(scale.speedup_cascade_counts),
        "bit_identical_to_serial": True,
        "levels": levels,
        "totals": tot,
        "gates": {
            "max_payload_bytes": MAX_PAYLOAD_BYTES,
            "max_dispatch_overhead_seconds": MAX_DISPATCH_OVERHEAD_S,
        },
    }
    (ROOT / "BENCH_parallel.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"dispatch benchmark ({scale.name} scale, {N_WORKERS} workers, "
        f"{scale.speedup_nodes} nodes, {max(scale.speedup_cascade_counts)} cascades)",
        f"{'lvl':>3} {'tasks':>5} {'payload B':>10} {'overhead s':>10}",
    ]
    for l in levels:
        lines.append(
            f"{l['level']:>3} {l['n_tasks']:>5} {l['payload_bytes']:>10} "
            f"{l['dispatch_overhead_seconds']:>10.4f}"
        )
    lines.append(
        f"totals: payload {tot['payload_bytes']} B (gate {MAX_PAYLOAD_BYTES}), "
        f"dispatch overhead {tot['dispatch_overhead_seconds']:.4f} s "
        f"(gate {MAX_DISPATCH_OVERHEAD_S})"
    )
    lines.append(
        f"compute {tot['compute_seconds']:.2f}s = "
        f"compile {tot['compile_seconds']:.2f}s + "
        f"kernel {tot['kernel_seconds']:.2f}s + "
        f"gather {tot['gather_seconds']:.2f}s"
    )
    save_result("bench_parallel_dispatch", "\n".join(lines))

    assert tot["payload_bytes"] <= MAX_PAYLOAD_BYTES, (
        f"payload {tot['payload_bytes']} B exceeds {MAX_PAYLOAD_BYTES} B"
    )
    assert tot["dispatch_overhead_seconds"] <= MAX_DISPATCH_OVERHEAD_S, (
        f"dispatch overhead {tot['dispatch_overhead_seconds']:.4f} s "
        f"exceeds {MAX_DISPATCH_OVERHEAD_S} s"
    )
