"""Execution backends for per-community block optimization.

A **block task** is the unit of parallel work in Algorithm 1: one
community's local corpus plus its rows of ``A``/``B``; running it means
block projected-gradient ascent until early stopping.  Backends differ only
in *where* tasks run:

* :class:`SerialBackend` — in the calling process, one after another.  The
  numerical reference; also records per-task wall-clock used to calibrate
  the cost model.
* :class:`MultiprocessBackend` — real OS processes.  ``A`` and ``B`` live
  in POSIX shared memory; each worker attaches, gathers its community's
  rows, optimizes locally, and scatters the rows back.  Communities are
  disjoint, so writes touch disjoint row blocks — the write-write
  conflict freedom of §IV-B — and no locks are needed.

The multiprocess backend ships work one way.  :meth:`Backend.prepare`
publishes the corpus to a :class:`~repro.parallel.arena.CorpusArena` and
each level's split goes to a :class:`~repro.parallel.arena.LevelSelection`,
both in shared memory; a task ships as a tuple of index ranges, and
workers compile (and cache) their sub-corpus directly from the shared
buffers.  Tasks are dispatched longest-predicted-first (LPT order from
:class:`~repro.parallel.costmodel.DispatchCostEstimator`), so the level's
straggler starts as early as possible instead of wherever ``Pool.map``'s
chunking happened to place it.

Dispatch is *supervised* (see :mod:`repro.parallel.supervision`): each
attempt carries a deadline derived from the cost estimator, pool-process
liveness is polled, and a crashed/hung/raising attempt is retried on a
respawned pool with exponential backoff (parent-owned shared segments
survive; fresh workers simply re-attach and re-warm their compile
caches).  The last permitted attempt runs serially in the parent.  Every
retry re-seeds the task's embedding rows first, so faults never leak
partial state.

Pool and serial execution produce bit-identical results for the same
task inputs because the block optimizer is deterministic given its
initial rows.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cascades.types import Cascade, CascadeSet
from repro.devtools import sanitize
from repro.embedding.compiled import CompiledCorpus, GradientWorkspace
from repro.embedding.model import EmbeddingModel
from repro.embedding.optimizer import OptimizerConfig, ProjectedGradientAscent
from repro.parallel._shm import create_segment
from repro.parallel.arena import ArenaMeta, CorpusArena, LevelSelection, SelectionMeta
from repro.parallel.supervision import (
    FaultLogEntry,
    SupervisedDispatcher,
    SupervisionConfig,
    inject_fault,
)
from repro.utils.timing import Stopwatch

__all__ = [
    "BlockTask",
    "BlockResult",
    "DispatchStats",
    "run_block_task",
    "Backend",
    "SerialBackend",
    "MultiprocessBackend",
]


@dataclass
class BlockTask:
    """One community's work at one merge-tree level.

    Attributes
    ----------
    community_id:
        Dense community id at this level.
    nodes:
        Global node ids of the community (sorted ascending).
    cascade_nodes, cascade_times:
        The community's sub-cascades in **local** ids — the materialized
        representation :class:`SerialBackend` runs.  ``None`` for
        arena-backed tasks, whose corpus is addressed by index ranges
        instead.
    A_rows, B_rows:
        Initial (len(nodes), K) embedding rows (level *i* output seeds
        level *i+1*, Alg. 2).
    config:
        Optimizer hyper-parameters.
    level:
        Merge-tree level this task belongs to (cache/bookkeeping key).
    arena_positions:
        For arena-backed tasks: flat positions into the corpus arena of
        this community's sub-cascade infections (grouped by sub-cascade,
        time order preserved).
    arena_sub_offsets:
        For arena-backed tasks: ``(s+1,)`` sub-cascade boundaries within
        ``arena_positions`` (first entry 0).
    """

    community_id: int
    nodes: np.ndarray
    cascade_nodes: Optional[List[np.ndarray]]
    cascade_times: Optional[List[np.ndarray]]
    A_rows: np.ndarray
    B_rows: np.ndarray
    config: OptimizerConfig
    level: int = 0
    arena_positions: Optional[np.ndarray] = None
    arena_sub_offsets: Optional[np.ndarray] = None

    @property
    def is_arena_backed(self) -> bool:
        return self.arena_positions is not None

    @property
    def n_infections(self) -> int:
        """Total infections across the task's sub-cascades (workload proxy)."""
        if self.arena_positions is not None:
            return int(self.arena_positions.size)
        return int(sum(len(n) for n in self.cascade_nodes))


@dataclass
class BlockResult:
    """Updated rows plus bookkeeping from one block optimization."""

    community_id: int
    nodes: np.ndarray
    A_rows: np.ndarray
    B_rows: np.ndarray
    n_iters: int
    final_loglik: float
    wall_seconds: float
    #: iterations × infections — the unit-cost workload the cost model uses
    work_units: int = 0
    #: compute-time split: sub-corpus compile/fetch, optimizer iterations,
    #: and shared-memory row gather/scatter (each a slice of wall_seconds)
    compile_seconds: float = 0.0
    kernel_seconds: float = 0.0
    gather_seconds: float = 0.0


@dataclass
class DispatchStats:
    """Per-level dispatch accounting recorded by :class:`MultiprocessBackend`.

    ``overhead_seconds`` is the level's wall-clock minus the compute time
    the workers measured for themselves — i.e. everything the parallel
    harness *added*: payload pickling, IPC, shared-memory (re)writes,
    scheduling, result collection, and (when faults occurred) retries,
    backoff, and pool respawns.  ``compute_seconds`` counts each task's
    *successful* attempt exactly once, so the accounting stays consistent
    under retries — wasted attempts show up as overhead, where they
    belong.

    ``fault_log`` records every detected fault (timeout / crash /
    exception) with the fallback rung chosen for the retry; see
    :class:`~repro.parallel.supervision.FaultLogEntry`.
    """

    mode: str  # "arena" | "empty"
    n_tasks: int
    wall_seconds: float
    compute_seconds: float
    build_seconds: float
    payload_bytes: Optional[int] = None
    payload_pickle_seconds: Optional[float] = None
    fault_log: List[FaultLogEntry] = field(default_factory=list)
    n_retries: int = 0
    n_respawns: int = 0
    #: worker-measured split of ``compute_seconds``: sub-corpus compile
    #: (zero on a warm cache), gradient-kernel iterations, and embedding
    #: row gather/scatter against shared memory.  ``None`` for "empty"
    #: levels, which dispatch no work.
    kernel_seconds: Optional[float] = None
    compile_seconds: Optional[float] = None
    gather_seconds: Optional[float] = None

    @property
    def overhead_seconds(self) -> float:
        return max(0.0, self.wall_seconds - self.compute_seconds)


def run_block_task(
    task: BlockTask, workspace: Optional[GradientWorkspace] = None
) -> BlockResult:
    """Execute one block task (module-level so it pickles for the pool).

    *workspace* lets long-lived callers (SerialBackend, the serial
    degradation rung) reuse kernel buffers across tasks; results are
    bit-identical either way.
    """
    if task.cascade_nodes is None or task.cascade_times is None:
        raise ValueError(
            "arena-backed BlockTask has no materialized cascades; "
            "run it through MultiprocessBackend's arena dispatch"
        )
    sw = Stopwatch()
    with sw:
        t0 = time.perf_counter()
        m = task.nodes.size
        local = CascadeSet(m)
        for nodes, times in zip(task.cascade_nodes, task.cascade_times):
            local.append(Cascade(nodes, times))
        corpus = CompiledCorpus.from_cascades(local)
        t1 = time.perf_counter()
        model = EmbeddingModel(task.A_rows.copy(), task.B_rows.copy())
        t2 = time.perf_counter()
        opt = ProjectedGradientAscent(task.config)
        fit = opt.fit(model, corpus, workspace=workspace)
        t3 = time.perf_counter()
    n_inf = task.n_infections
    return BlockResult(
        community_id=task.community_id,
        nodes=task.nodes,
        A_rows=model.A,
        B_rows=model.B,
        n_iters=fit.n_iters,
        final_loglik=fit.final_loglik,
        wall_seconds=sw.elapsed,
        work_units=max(1, fit.n_iters) * n_inf,
        compile_seconds=t1 - t0,
        kernel_seconds=t3 - t2,
        gather_seconds=t2 - t1,
    )


class Backend:
    """Interface: run a level's block tasks, return their results."""

    def prepare(self, cascades: CascadeSet) -> Optional[CorpusArena]:
        """Offer the full corpus before the first level runs.

        Backends that can serve zero-copy dispatch publish the corpus to
        shared memory and return the :class:`CorpusArena`; the driver then
        builds index-based (arena-backed) tasks.  The default declines, so
        the driver materializes sub-cascades as before.
        """
        return None

    def run_level(self, tasks: Sequence[BlockTask]) -> List[BlockResult]:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (idempotent)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SerialBackend(Backend):
    """Run tasks sequentially in-process (deterministic reference)."""

    # Lazy class-level default: subclasses that skip __init__ still work.
    _workspace: Optional[GradientWorkspace] = None

    def run_level(self, tasks: Sequence[BlockTask]) -> List[BlockResult]:
        if self._workspace is None:
            self._workspace = GradientWorkspace()
        return [run_block_task(t, workspace=self._workspace) for t in tasks]


# --------------------------------------------------------------------- #
# Worker-side state (per worker process, populated lazily)
# --------------------------------------------------------------------- #

#: shm name -> attached SharedMemory, kept open across tasks/levels.
_ATTACHMENTS: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()
_ATTACHMENTS_MAX = 16

#: selection digest -> {community_id: (CompiledCorpus, raw_infections)}.
#: Keyed by *content*, so optimizer restarts over an unchanged level reuse
#: the compiled structure even across run_level calls.
_COMPILE_CACHE: "OrderedDict[str, Dict[int, Tuple[CompiledCorpus, int]]]" = OrderedDict()
_COMPILE_CACHE_MAX_LEVELS = 4

#: per-process gradient workspace, reused across every task/level this
#: worker runs (lives alongside the compile cache; grow-only buffers, so
#: one instance serves corpora of any shape without reallocation churn).
_WORKSPACE: Optional[GradientWorkspace] = None


def _worker_workspace() -> GradientWorkspace:
    global _WORKSPACE
    if _WORKSPACE is None:
        _WORKSPACE = GradientWorkspace()
    return _WORKSPACE


def _attach_cached(name: str) -> shared_memory.SharedMemory:
    shm = _ATTACHMENTS.get(name)
    if shm is None:
        from repro.parallel._shm import attach_untracked

        shm = attach_untracked(name)
        _ATTACHMENTS[name] = shm
    else:
        _ATTACHMENTS.move_to_end(name)
    return shm


def _prune_worker_caches(in_use: Tuple[str, ...]) -> None:
    """Drop attachments/compile entries beyond the caps (oldest first)."""
    while len(_ATTACHMENTS) > _ATTACHMENTS_MAX:
        for name in _ATTACHMENTS:
            if name not in in_use:
                _ATTACHMENTS.pop(name).close()
                break
        else:  # pragma: no cover - everything in use; nothing to prune
            break
    while len(_COMPILE_CACHE) > _COMPILE_CACHE_MAX_LEVELS:
        _COMPILE_CACHE.popitem(last=False)


def _compiled_for_task(
    arena_meta: ArenaMeta,
    sel_meta: SelectionMeta,
    community_id: int,
    sub_lo: int,
    sub_hi: int,
    mem_lo: int,
    mem_hi: int,
) -> Tuple[CompiledCorpus, int]:
    """Fetch (or build and cache) a task's compiled sub-corpus.

    The cache key is (selection digest, community id): the digest pins the
    level's exact split content, so a hit is guaranteed structurally
    identical and survives optimizer restarts within the level.
    """
    per_level = _COMPILE_CACHE.get(sel_meta.digest)
    if per_level is not None:
        _COMPILE_CACHE.move_to_end(sel_meta.digest)
        hit = per_level.get(community_id)
        if hit is not None:
            return hit
    else:
        per_level = _COMPILE_CACHE[sel_meta.digest] = {}
    arena_shm = _attach_cached(arena_meta.name)
    sel_shm = _attach_cached(sel_meta.name)
    times_v, nodes_v, _ = CorpusArena.view(arena_shm.buf, arena_meta)
    pos_v, sub_v, mem_v = LevelSelection.view(sel_shm.buf, sel_meta)
    pos_lo, pos_hi = int(sub_v[sub_lo]), int(sub_v[sub_hi])
    sel = pos_v[pos_lo:pos_hi]
    g_nodes = nodes_v[sel]  # fancy index -> fresh array (safe to cache)
    times = times_v[sel]
    members = mem_v[mem_lo:mem_hi]
    local_nodes = np.searchsorted(members, g_nodes).astype(np.int64)
    rel_offsets = sub_v[sub_lo : sub_hi + 1] - pos_lo
    # The driver's sub-cascade splitter drops size-<2 groups before they
    # reach the arena, so the compaction scan is a guaranteed no-op.
    corpus = CompiledCorpus.from_arena(
        local_nodes, times, rel_offsets, assume_compact=True
    )
    entry = (corpus, int(pos_hi - pos_lo))
    per_level[community_id] = entry
    return entry


def _mp_worker(args: Tuple) -> Tuple:
    """Worker entry: run one block task, scatter its rows, return stats.

    The payload carries only index ranges into shared buffers.  Returns
    ``(task_idx, community_id, n_iters, final_loglik, wall_seconds,
    work_units, (compile_s, kernel_s, gather_s))`` — rows travel back
    through shared memory.

    The trailing payload element is a test-only fault spec (normally
    ``None``); it fires *before* any shared state is touched, so injected
    faults exercise the supervision loop deterministically.
    """
    (
        task_idx,
        shm_a_name,
        shm_b_name,
        shape,
        arena_meta,
        sel_meta,
        community_id,
        sub_lo,
        sub_hi,
        mem_lo,
        mem_hi,
        config,
        fault,
    ) = args
    inject_fault(fault)
    sw = Stopwatch()
    with sw:
        shm_a = _attach_cached(shm_a_name)
        shm_b = _attach_cached(shm_b_name)
        _prune_worker_caches(
            (shm_a_name, shm_b_name, arena_meta.name, sel_meta.name)
        )
        A = np.ndarray(shape, dtype=np.float64, buffer=shm_a.buf)
        B = np.ndarray(shape, dtype=np.float64, buffer=shm_b.buf)
        t0 = time.perf_counter()
        corpus, n_inf = _compiled_for_task(
            arena_meta, sel_meta, community_id, sub_lo, sub_hi, mem_lo, mem_hi
        )
        t1 = time.perf_counter()
        sel_shm = _attach_cached(sel_meta.name)
        _, _, mem_v = LevelSelection.view(sel_shm.buf, sel_meta)
        members = mem_v[mem_lo:mem_hi]
        model = EmbeddingModel(A[members], B[members])  # fancy gather = copy
        t2 = time.perf_counter()
        opt = ProjectedGradientAscent(config)
        fit = opt.fit(model, corpus, workspace=_worker_workspace())
        t3 = time.perf_counter()
        # Scatter: disjoint rows per community — conflict-free by design.
        A[members] = model.A
        B[members] = model.B
        t4 = time.perf_counter()
    return (
        task_idx,
        community_id,
        fit.n_iters,
        fit.final_loglik,
        sw.elapsed,
        max(1, fit.n_iters) * n_inf,
        (t1 - t0, t3 - t2, (t2 - t1) + (t4 - t3)),
    )


# --------------------------------------------------------------------- #
# Parent-side resource management
# --------------------------------------------------------------------- #


class _EmbeddingSegments:
    """Persistent shared A/B segments, grown (never shrunk) on demand."""

    _SLACK = 1.25

    def __init__(self) -> None:
        self._shm_a: Optional[shared_memory.SharedMemory] = None
        self._shm_b: Optional[shared_memory.SharedMemory] = None
        self._capacity = 0

    def ensure(
        self, shape: Tuple[int, int]
    ) -> Tuple[np.ndarray, np.ndarray, str, str]:
        """Return ``(A, B, name_a, name_b)`` views of at least *shape*."""
        nbytes = int(np.prod(shape)) * 8
        if self._shm_a is None or nbytes > self._capacity:
            self.close()
            self._capacity = max(int(nbytes * self._SLACK), 1)
            self._shm_a = create_segment(self._capacity)
            self._shm_b = create_segment(self._capacity)
        A = np.ndarray(shape, dtype=np.float64, buffer=self._shm_a.buf)
        B = np.ndarray(shape, dtype=np.float64, buffer=self._shm_b.buf)
        return A, B, self._shm_a.name, self._shm_b.name

    def close(self) -> None:
        for attr in ("_shm_a", "_shm_b"):
            shm = getattr(self, attr)
            setattr(self, attr, None)
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
        self._capacity = 0


class _Resources:
    """Everything a backend owns that must be reaped exactly once.

    Held via :func:`weakref.finalize` so abandoning a backend without
    ``close()`` (or an ``__init__`` failure after pool creation) still
    reaps the worker pool and unlinks the shared segments.

    ``pool`` always points at the backend's *current* pool generation:
    fault-triggered respawns terminate the old generation themselves and
    then re-point this handle, so ``release`` stays idempotent across
    generations — whichever generation is live when the backend closes
    (or is GC'd) is the one reaped, and segments are unlinked exactly
    once no matter how many respawns happened.
    """

    def __init__(self, pool: Optional[mp.pool.Pool]) -> None:
        self.pool = pool
        self.segments: List = []  # objects exposing .close()
        self.released = False

    def release(self, graceful: bool = False) -> None:
        if self.released:
            return
        self.released = True
        if self.pool is not None:
            if graceful:
                self.pool.close()
            else:
                self.pool.terminate()
            self.pool.join()
            self.pool = None
        for seg in self.segments:
            seg.close()
        self.segments = []


def _finalize_resources(resources: _Resources) -> None:
    resources.release(graceful=False)


@dataclass
class _LevelContext:
    """Per-``run_level`` state the supervised dispatch loop works against.

    Holds everything needed to (re)build any task's payload, run it
    serially, or reseed its embedding rows without re-deriving level state.
    """

    tasks: List[BlockTask]
    shape: Tuple[int, int]
    name_a: str
    name_b: str
    A: np.ndarray  # parent view of the shared A block
    B: np.ndarray
    arena_meta: ArenaMeta
    sel_meta: SelectionMeta
    #: per-task (sub_lo, sub_hi, mem_lo, mem_hi) index ranges
    ranges: List[Tuple[int, int, int, int]]


class MultiprocessBackend(Backend):
    """Run tasks on a pool of OS processes with shared-memory embeddings.

    Parameters
    ----------
    n_workers:
        Pool size (the paper's "cores"); defaults to ``os.cpu_count()``.
    context:
        ``multiprocessing`` start method; ``fork`` is the fast default on
        Linux.
    profile_dispatch:
        Record per-level payload size and pickle time in
        :attr:`level_profiles` (costs one extra serialization per payload;
        meant for the dispatch benchmark, not production runs).
    max_retries:
        Pool attempts per block task before the last attempt, which
        always runs serially in the parent, so one pathological
        community degrades instead of failing the run.
        Shorthand for the corresponding :class:`SupervisionConfig` field.
    task_timeout:
        Explicit per-task deadline in seconds; ``None`` derives one from
        the dispatch cost estimator once it has observed a level (see
        :class:`SupervisionConfig`).
    supervision:
        Full supervision configuration; overrides ``max_retries`` /
        ``task_timeout`` when given.
    _fault_plan:
        Test-only: a :class:`~repro.parallel.supervision._FaultPlan` (or
        sequence of them) shipped to workers inside payloads to trigger
        deterministic crash/hang/raise faults.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        context: str = "fork",
        profile_dispatch: bool = False,
        max_retries: int = 3,
        task_timeout: Optional[float] = None,
        supervision: Optional[SupervisionConfig] = None,
        _fault_plan=None,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers if n_workers is not None else mp.cpu_count()
        self._ctx = mp.get_context(context)
        pool = self._ctx.Pool(self.n_workers)
        try:
            self._resources = _Resources(pool)
            self._finalizer = weakref.finalize(
                self, _finalize_resources, self._resources
            )
            self._pool = pool
            self._worker_pids = frozenset(p.pid for p in pool._pool)
            self._closed = False
            self.profile_dispatch = bool(profile_dispatch)
            self.supervision = supervision or SupervisionConfig(
                max_retries=max_retries, task_timeout=task_timeout
            )
            if _fault_plan is None:
                self._fault_plans = ()
            elif isinstance(_fault_plan, (list, tuple)):
                self._fault_plans = tuple(_fault_plan)
            else:
                self._fault_plans = (_fault_plan,)
            #: pool generations spawned after faults (0 = never respawned)
            self.respawn_count = 0
            self._level_ctx: Optional[_LevelContext] = None
            #: kernel buffers for the serial degradation rung (parent-side)
            self._serial_workspace = GradientWorkspace()
            self._segments = _EmbeddingSegments()
            self._resources.segments.append(self._segments)
            self._arena: Optional[CorpusArena] = None
            self._selection: Optional[LevelSelection] = None
            from repro.parallel.costmodel import DispatchCostEstimator

            self.estimator = DispatchCostEstimator()
            #: per-run_level dispatch accounting (most recent last)
            self.level_profiles: List[DispatchStats] = []
        except BaseException:
            # __init__ died after the pool existed: reap it here, since no
            # usable object (hence no finalizer-owned handle) escapes.
            pool.terminate()
            pool.join()
            raise

    # ------------------------------------------------------------------ #

    def prepare(self, cascades: CascadeSet) -> CorpusArena:
        """Publish *cascades* to a shared-memory arena for :meth:`run_level`."""
        if self._closed:
            raise RuntimeError("backend already closed")
        if self._arena is not None:
            self._arena.close()
            self._resources.segments.remove(self._arena)
        self._arena = CorpusArena(cascades)
        self._resources.segments.append(self._arena)
        if self._selection is None:
            self._selection = LevelSelection()
            self._resources.segments.append(self._selection)
        return self._arena

    # ------------------------------------------------------------------ #

    def run_level(self, tasks: Sequence[BlockTask]) -> List[BlockResult]:
        if self._closed:
            raise RuntimeError("backend already closed")
        tasks = list(tasks)
        if not tasks:
            return []
        t_start = time.perf_counter()
        nonempty = [t for t in tasks if t.nodes.size]
        if not nonempty:
            # Nothing references any embedding row: there is no shared
            # state to build and nothing for a worker to optimize.
            stats = DispatchStats("empty", len(tasks), 0.0, 0.0, 0.0)
            self.level_profiles.append(stats)
            return [self._empty_result(t) for t in tasks]
        if self._arena is None or not all(t.is_arena_backed for t in tasks):
            raise ValueError(
                "MultiprocessBackend runs arena-backed tasks only: call "
                "prepare() with the corpus and build tasks from its arena"
            )

        # All tasks at a level share the embedding shape; size the shared
        # blocks by the largest referenced row.
        K = tasks[0].A_rows.shape[1]
        n_total = 1 + max(int(t.nodes.max()) for t in nonempty)
        shape = (n_total, K)
        A, B, name_a, name_b = self._segments.ensure(shape)
        for t in nonempty:
            A[t.nodes] = t.A_rows
            B[t.nodes] = t.B_rows

        sel_meta, ranges = self._publish_selection(tasks)
        ctx = _LevelContext(
            tasks=tasks,
            shape=shape,
            name_a=name_a,
            name_b=name_b,
            A=A,
            B=B,
            arena_meta=self._arena.meta,
            sel_meta=sel_meta,
            ranges=ranges,
        )
        if sanitize.enabled():
            self._sanitize_level(ctx)
        build_seconds = time.perf_counter() - t_start

        payload_bytes = pickle_seconds = None
        if self.profile_dispatch:
            t0 = time.perf_counter()
            payload_bytes = 0
            for idx in range(len(tasks)):
                payload = self._payload_for(ctx, idx, None)
                payload_bytes += len(
                    pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
                )
            pickle_seconds = time.perf_counter() - t0

        # LPT dispatch: predicted-longest first, so the level's straggler
        # is in flight before the cheap tasks queue up behind it.  The
        # supervised loop keeps ≤ n_workers outstanding, applies
        # deadlines, and retries faults (pool, then serial).
        order = self.estimator.order([t.n_infections for t in tasks])
        self._level_ctx = ctx
        try:
            outcome = SupervisedDispatcher(
                self, self.supervision, self.n_workers
            ).run(order)
        finally:
            self._level_ctx = None

        results = []
        for idx, t in enumerate(tasks):
            _idx, cid, n_iters, ll, secs, work, split = outcome.records[idx]
            compile_s, kernel_s, gather_s = split
            results.append(
                BlockResult(
                    community_id=cid,
                    nodes=t.nodes,
                    A_rows=A[t.nodes].copy(),
                    B_rows=B[t.nodes].copy(),
                    n_iters=n_iters,
                    final_loglik=ll,
                    wall_seconds=secs,
                    work_units=work,
                    compile_seconds=compile_s,
                    kernel_seconds=kernel_s,
                    gather_seconds=gather_s,
                )
            )
        self.estimator.observe_level(
            [r.work_units for r in results],
            [t.n_infections for t in tasks],
            [r.wall_seconds for r in results],
        )
        self.level_profiles.append(
            DispatchStats(
                mode="arena",
                n_tasks=len(tasks),
                wall_seconds=time.perf_counter() - t_start,
                compute_seconds=float(sum(r.wall_seconds for r in results)),
                build_seconds=build_seconds,
                payload_bytes=payload_bytes,
                payload_pickle_seconds=pickle_seconds,
                fault_log=outcome.fault_log,
                n_retries=outcome.n_retries,
                n_respawns=outcome.n_respawns,
                kernel_seconds=float(sum(r.kernel_seconds for r in results)),
                compile_seconds=float(sum(r.compile_seconds for r in results)),
                gather_seconds=float(sum(r.gather_seconds for r in results)),
            )
        )
        return results

    # ------------------------------------------------------------------ #

    def _sanitize_level(self, ctx: _LevelContext) -> None:
        """``REPRO_SANITIZE`` pre-dispatch check of the level's writes.

        Workers scatter ``A[members_slice] = ...``; those slices must be
        pairwise disjoint and match each task's assignment.  The members
        block is validated *read back from the published shared segment*
        — the exact array workers will address — so a stale digest-reuse
        or a corrupt selection write is caught before any worker runs.
        """
        _, _, mem_v = self._selection.resident_views()
        try:
            sanitize.verify_selection(
                ctx.tasks[0].level,
                [t.community_id for t in ctx.tasks],
                [np.asarray(t.nodes, dtype=np.int64) for t in ctx.tasks],
                mem_v,
                [(mem_lo, mem_hi) for (_, _, mem_lo, mem_hi) in ctx.ranges],
            )
        finally:
            del mem_v

    # ------------------------------------------------------------------ #
    # Payload construction
    # ------------------------------------------------------------------ #

    def _publish_selection(
        self, tasks: List[BlockTask]
    ) -> Tuple[SelectionMeta, List[Tuple[int, int, int, int]]]:
        """Publish the level's selection block; return per-task ranges."""
        positions = np.concatenate(
            [t.arena_positions for t in tasks]
            or [np.empty(0, dtype=np.int64)]
        )
        members = np.concatenate(
            [np.asarray(t.nodes, dtype=np.int64) for t in tasks]
            or [np.empty(0, dtype=np.int64)]
        )
        # Stitch per-task relative sub-offsets into one global array.
        n_groups = sum(t.arena_sub_offsets.size - 1 for t in tasks)
        sub_offsets = np.zeros(n_groups + 1, dtype=np.int64)
        ranges = []  # (sub_lo, sub_hi, mem_lo, mem_hi) per task
        g = 0
        pos_base = 0
        mem_base = 0
        for t in tasks:
            s = t.arena_sub_offsets.size - 1
            sub_offsets[g + 1 : g + s + 1] = t.arena_sub_offsets[1:] + pos_base
            ranges.append((g, g + s, mem_base, mem_base + int(t.nodes.size)))
            g += s
            pos_base += int(t.arena_positions.size)
            mem_base += int(t.nodes.size)
        return self._selection.update(positions, sub_offsets, members), ranges

    @staticmethod
    def _payload_for(
        ctx: _LevelContext, idx: int, fault: Optional[Tuple]
    ) -> Tuple:
        """Build task *idx*'s :func:`_mp_worker` payload."""
        t = ctx.tasks[idx]
        sub_lo, sub_hi, mem_lo, mem_hi = ctx.ranges[idx]
        return (
            idx,
            ctx.name_a,
            ctx.name_b,
            ctx.shape,
            ctx.arena_meta,
            ctx.sel_meta,
            t.community_id,
            sub_lo,
            sub_hi,
            mem_lo,
            mem_hi,
            t.config,
            fault,
        )

    def _materialized_lists(
        self, t: BlockTask
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """The task's sub-cascades as local-id array lists.

        Materialized from the parent's own arena views — the same gather
        + ``searchsorted`` remap workers perform, so the serial retry
        sees a bit-identical corpus.
        """
        pos = t.arena_positions
        offs = t.arena_sub_offsets
        g_nodes = self._arena.nodes[pos]
        times = self._arena.times[pos]
        local = np.searchsorted(
            np.asarray(t.nodes, dtype=np.int64), g_nodes
        ).astype(np.int64)
        cascade_nodes = [
            local[offs[j] : offs[j + 1]] for j in range(offs.size - 1)
        ]
        cascade_times = [
            times[offs[j] : offs[j + 1]] for j in range(offs.size - 1)
        ]
        return cascade_nodes, cascade_times

    # ------------------------------------------------------------------ #
    # SupervisedDispatcher host protocol
    # ------------------------------------------------------------------ #

    def submit_attempt(self, idx: int, attempt: int) -> "mp.pool.AsyncResult":
        """Dispatch one attempt of task *idx* to the current pool."""
        fault = self._fault_spec(idx, attempt)
        payload = self._payload_for(self._level_ctx, idx, fault)
        return self._pool.apply_async(_mp_worker, (payload,))

    def run_serial_fallback(self, idx: int) -> Tuple:
        """Final attempt: run the task in-process, scatter rows."""
        ctx = self._level_ctx
        t = ctx.tasks[idx]
        cascade_nodes, cascade_times = self._materialized_lists(t)
        res = run_block_task(
            BlockTask(
                community_id=t.community_id,
                nodes=t.nodes,
                cascade_nodes=cascade_nodes,
                cascade_times=cascade_times,
                A_rows=t.A_rows,
                B_rows=t.B_rows,
                config=t.config,
                level=t.level,
            ),
            workspace=self._serial_workspace,
        )
        ctx.A[t.nodes] = res.A_rows
        ctx.B[t.nodes] = res.B_rows
        return (
            idx,
            t.community_id,
            res.n_iters,
            res.final_loglik,
            res.wall_seconds,
            res.work_units,
            (res.compile_seconds, res.kernel_seconds, res.gather_seconds),
        )

    def reseed_tasks(self, indices: Sequence[int]) -> None:
        """Restore tasks' seed rows before a retry (faults may have
        partially scattered)."""
        ctx = self._level_ctx
        for idx in indices:
            t = ctx.tasks[idx]
            if t.nodes.size:
                ctx.A[t.nodes] = t.A_rows
                ctx.B[t.nodes] = t.B_rows

    def respawn_pool(self) -> None:
        """Hard-kill the current (damaged or hung) generation; start fresh.

        Parent-owned shared segments are untouched — new workers simply
        re-attach and re-warm their compile caches.
        """
        self._pool.terminate()
        self._pool.join()
        self._pool = self._ctx.Pool(self.n_workers)
        self._resources.pool = self._pool
        self._worker_pids = frozenset(p.pid for p in self._pool._pool)
        self.respawn_count += 1

    def pool_damaged(self) -> bool:
        """True when any process of the current generation died (the pool's
        own repopulation also changes the pid set, so a death is detected
        even if the pool already replaced the corpse)."""
        procs = getattr(self._pool, "_pool", None) or []
        if any(p.exitcode is not None for p in procs):
            return True
        return frozenset(p.pid for p in procs) != self._worker_pids

    def task_deadline(self, idx: int) -> Optional[float]:
        cfg = self.supervision
        if cfg.task_timeout is not None:
            return cfg.task_timeout
        t = self._level_ctx.tasks[idx]
        return self.estimator.deadline(
            t.n_infections, factor=cfg.timeout_factor, floor=cfg.timeout_floor
        )

    def task_community(self, idx: int) -> int:
        return self._level_ctx.tasks[idx].community_id

    def _fault_spec(self, idx: int, attempt: int) -> Optional[Tuple]:
        for plan in self._fault_plans:
            spec = plan.spec_for(idx, attempt)
            if spec is not None:
                return spec
        return None

    @staticmethod
    def _empty_result(t: BlockTask) -> BlockResult:
        return BlockResult(
            community_id=t.community_id,
            nodes=t.nodes,
            A_rows=t.A_rows.copy(),
            B_rows=t.B_rows.copy(),
            n_iters=0,
            final_loglik=0.0,
            wall_seconds=0.0,
            work_units=0,
        )

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            # Detach the GC finalizer (it would terminate()); release
            # gracefully instead, then unlink every shared segment.
            self._finalizer.detach()
            self._resources.release(graceful=True)
            self._arena = None
            self._selection = None
