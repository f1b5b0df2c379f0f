"""Sharded multi-process serving: hash-routed workers, shared snapshots.

One :class:`ScoringService` is GIL-bound: ingest folding, feature
gathering, and the SVM matvec all run on one core.  This module shards
the *state* — each cascade lives in exactly one worker process, picked
by a stable hash of its id — and keeps the single-process semantics at
the front door:

* :class:`ShardedScoringService` is the router.  It duck-types the
  synchronous :class:`ScoringService` surface the asyncio server and
  in-process callers consume (ingest/submit/flush/publish/stats/
  health/drain), so ``repro serve --shards N`` is a flag, not a fork of
  the serving tier.
* Each worker (:func:`_shard_main`) runs a full single-process
  :class:`ScoringService` — tracker store, registry, optional
  write-ahead journal — and speaks a tuple protocol over a duplex pipe:
  columnar ingest bursts in (the existing ``ingest_columns`` wire
  shape), columnar :class:`~repro.serving.batching.ScoreColumns` out.
* Model hot-swap is **one publish, not N copies**: the router
  serializes the new snapshot into a single shared-memory segment
  (:func:`~repro.serving.registry.encode_shared_snapshot`, built on
  ``parallel/_shm.create_segment`` and the arena's aligned-field
  layout) and broadcasts only the segment *name* + fingerprint; shards
  attach read-only views (:meth:`ModelRegistry.publish_shared`).  Swap
  cost is therefore flat in shard count.
* Durability shards with the state: worker *i* journals to
  ``<journal_dir>/shard-NN/`` (:func:`~repro.serving.durability.
  shard_journal_dir`); recovery replays every shard concurrently and
  coalesces the reports.
* A dead shard (crash, SIGKILL) is detected at the next pipe
  round-trip, restarted by the router's watchdog — recovering from its
  journal when one is armed — reconciled to the current model, and the
  failed call is retried once.  The retry is safe by construction:
  ingest is duplicate-filtered and re-ranking a just-applied burst is
  LRU-idempotent; scoring is a pure read.

Determinism: routing uses ``crc32`` (process-stable, unlike salted
``hash``), events keep their arrival order within a shard (stable
sort), and per-row SVM margins are independent of batch composition —
so a sharded service is bit-identical to a single-process one fed the
same stream (the property suite pins this down, including through a
shard crash + journal recovery).

Deadlock freedom of the fan-out (send to every involved shard, then
collect replies): each worker is strictly request→reply with at most
one outstanding request, so every worker the router is sending to is
either parked in ``recv`` or about to be; the router's sends always
complete, and the replies drain behind them.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import time
import zlib
from dataclasses import dataclass
from multiprocessing import shared_memory
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.devtools.sanitize import LockLike, guarded_rlock
from repro.embedding.model import EmbeddingModel
from repro.prediction.features import PAPER_FEATURES
from repro.prediction.pipeline import ViralityPredictor
from repro.serving.batching import (
    BatchPolicy,
    LatencyBreakdown,
    PendingQueue,
    ScoreColumns,
    ScoreRequest,
    ScoreResult,
)
from repro.serving.durability import (
    RecoveryReport,
    coalesce_reports,
    shard_journal_dir,
)
from repro.serving.health import HealthMonitor, aggregate_health
from repro.serving.registry import (
    ModelRegistry,
    ModelSnapshot,
    SharedSnapshotMeta,
    SnapshotLoadError,
    encode_shared_snapshot,
)
from repro.serving.service import ScoringService, ServiceStats
from repro.serving.tracker import StoreConfig

__all__ = [
    "ShardDeadError",
    "ShardPlan",
    "ShardStartupError",
    "ShardedScoringService",
    "build_sharded_service",
    "recover_sharded_service",
    "shard_of",
]

#: worker poll granularity (drives journal ticks and TTL sweeps)
_POLL_S = 0.05
#: worker-side TTL sweep cadence, mirroring the server's sweeper
_SWEEP_S = 1.0
#: exceptions that mean "the peer end of this pipe is gone"
_PIPE_DEAD = (EOFError, BrokenPipeError, ConnectionResetError, OSError)


class ShardStartupError(RuntimeError):
    """A shard worker failed to start (or to recover its journal).

    The message is operator-facing: the CLI prints it and exits instead
    of dumping the worker's traceback.
    """


class ShardDeadError(RuntimeError):
    """A shard's pipe died mid-call (worker crashed or was killed)."""

    def __init__(self, shard_id: int, cause: BaseException) -> None:
        super().__init__(
            f"shard {shard_id} died mid-call ({type(cause).__name__}: {cause})"
        )
        self.shard_id = shard_id


def shard_of(cascade_id: str, n_shards: int) -> int:
    """Stable shard index of a cascade id.

    ``crc32`` rather than ``hash()``: the builtin is salted per process
    (PYTHONHASHSEED), and the shard map must agree across router
    restarts, recovery, and tests comparing against a reference
    service.
    """
    return zlib.crc32(cascade_id.encode("utf-8")) % n_shards


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ShardPlan:
    """Everything a worker needs to build its service — plain data.

    Deliberately picklable-trivial (strings, numbers, a tuple): the
    REP104 fork-capture analyzer polices that nothing shipped through
    ``Process(args=...)`` carries locks, open files, or live
    shared-memory handles.  Model state never rides the plan — it
    arrives via a ``publish`` broadcast (segment *name*) or out of the
    shard's own journal under ``recover=True``.
    """

    shard_id: int
    feature_set: Tuple[str, ...]
    capacity: int
    ttl: Optional[float]
    journal_dir: Optional[str]
    fsync: str
    fsync_interval: float
    recover: bool
    compact: bool = True


def _build_shard_service(plan: ShardPlan) -> Tuple[ScoringService, Optional[RecoveryReport]]:
    """Construct (or journal-recover) one worker's scoring service."""
    store_config = StoreConfig(capacity=plan.capacity, ttl=plan.ttl)
    if plan.recover:
        if plan.journal_dir is None:
            raise ValueError("recover=True requires a journal directory")
        from repro.serving.durability import JournalConfig, recover_service

        service, report = recover_service(
            JournalConfig(
                directory=plan.journal_dir,
                fsync=plan.fsync,
                fsync_interval=plan.fsync_interval,
            ),
            feature_set=plan.feature_set,
            store_config=store_config,
            compact=plan.compact,
        )
        return service, report  # type: ignore[return-value]
    registry = ModelRegistry()
    service = ScoringService(
        registry, feature_set=plan.feature_set, store_config=store_config
    )
    if plan.journal_dir is not None:
        from repro.serving.durability import EventJournal, JournalConfig

        service.attach_journal(
            EventJournal(
                JournalConfig(
                    directory=plan.journal_dir,
                    fsync=plan.fsync,
                    fsync_interval=plan.fsync_interval,
                )
            )
        )
    return service, None


def _handle_op(service: ScoringService, msg: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Dispatch one router request inside the worker."""
    op = msg[0]
    if op == "ingest":
        _, cids, nodes, times = msg
        return ("ok", service.ingest_columns(cids, nodes, times))
    if op == "score":
        _, cids, want_features = msg
        return ("ok", service.score_columns(cids, include_features=want_features))
    if op == "publish":
        snap = service.registry.publish_shared(msg[1])
        service._adopt_published(snap)
        # a freshly-built worker starts with no model; the first
        # broadcast is what makes it servable (idempotent once serving)
        service.begin_serving()
        return ("ok", snap.version, snap.fingerprint)
    if op == "stats":
        return ("ok", service.stats())
    if op == "health":
        return ("ok", service.health_snapshot())
    if op == "sweep":
        return ("ok", service.sweep())
    if op == "compact":
        return ("ok", service.compact())
    if op == "state_fingerprint":
        return ("ok", service.state_fingerprint())
    if op == "fingerprint":
        try:
            snap = service.registry.current()
        except LookupError:
            return ("ok", 0, None)
        return ("ok", snap.version, snap.fingerprint)
    if op == "export_model":
        snap = service.registry.current()
        return (
            "ok",
            np.ascontiguousarray(snap.model.A),
            np.ascontiguousarray(snap.model.B),
            snap.predictor.to_bytes() if snap.predictor is not None else b"",
            snap.source,
            snap.fingerprint,
            snap.version,
        )
    if op == "drain":
        return ("ok", service.drain())
    if op in ("ping", "exit"):
        return ("ok",)
    raise ValueError(f"unknown shard op: {op!r}")


def _serve_loop(conn: Connection, service: ScoringService) -> None:
    """Worker main loop: strict request→reply, self-ticking between ops.

    Poll timeouts double as the maintenance heartbeat a single-process
    server gets from its background tasks: interval-fsync journal ticks
    and (with a TTL armed) periodic sweeps.
    """
    ttl_armed = service.ttl_enabled()
    last_sweep = time.monotonic()
    while True:
        try:
            if not conn.poll(_POLL_S):
                service.journal_tick()
                now = time.monotonic()
                if ttl_armed and now - last_sweep >= _SWEEP_S:
                    service.sweep()
                    last_sweep = now
                continue
            msg = conn.recv()
        except _PIPE_DEAD:
            return  # router is gone; nothing to reply to
        try:
            reply = _handle_op(service, msg)
        except Exception as exc:  # protocol boundary: errors cross as data
            reply = ("err", type(exc).__name__, str(exc))
        try:
            conn.send(reply)
        except _PIPE_DEAD:
            return
        if msg and msg[0] == "exit":
            return


def _shard_main(router_conn: Connection, conn: Connection, plan: ShardPlan) -> None:
    """Process entry point of one shard worker.

    Handshake first: ``("ready", shard_id, recovery_report, fingerprint,
    version)`` on success, ``("fatal", message)`` when construction or
    journal recovery fails — the router turns the latter into a clean
    :class:`ShardStartupError` instead of letting a child traceback be
    the only evidence.
    """
    router_conn.close()  # the child's inherited copy of the router end
    try:
        service, report = _build_shard_service(plan)
    except Exception as exc:
        try:
            conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    try:
        snap = service.registry.current()
        fingerprint: Optional[str] = snap.fingerprint
        version = snap.version
    except LookupError:
        fingerprint, version = None, 0
    try:
        conn.send(("ready", plan.shard_id, report, fingerprint, version))
        _serve_loop(conn, service)
    finally:
        service.seal_journal()
        service.registry.release_shared()
        conn.close()


# --------------------------------------------------------------------- #
# Router side
# --------------------------------------------------------------------- #


@dataclass
class _ShardHandle:
    """Router-side view of one live worker (owned by the router lock)."""

    shard_id: int
    process: Any  # multiprocessing.Process (fork context)
    conn: Connection
    report: Optional[RecoveryReport]
    fingerprint: Optional[str]
    version: int


class ShardedScoringService:
    """Hash-routing front end over N single-process shard workers.

    Duck-types the :class:`ScoringService` surface the asyncio server,
    in-process callers, and the CLI consume.  Thread-safe the same
    way: one re-entrant router lock serializes every entry point —
    parallelism comes from the fan-out *inside* a call (all involved
    workers compute their pieces concurrently), not from concurrent
    router calls.

    Capacity and TTL are per shard: each worker owns an independent
    LRU/TTL-bounded store over its hash range, so a sharded service
    tracks up to ``n_shards * capacity`` cascades.

    Construction spawns the workers and performs the ready handshake;
    a worker that fails to come up raises :class:`ShardStartupError`
    (with every already-started sibling torn down).  Publish a model
    before traffic via :meth:`publish` / :meth:`publish_path` — both
    broadcast one shared segment, never per-shard copies.
    """

    #: tells the asyncio server to run this service's (pipe-blocking)
    #: synchronous calls in the default executor, off the event loop
    wants_executor_offload = True

    def __init__(
        self,
        n_shards: int,
        feature_set: Sequence[str] = PAPER_FEATURES,
        capacity: int = 100_000,
        ttl: Optional[float] = None,
        policy: Optional[BatchPolicy] = None,
        shard_backlog: Optional[int] = None,
        journal_dir: Optional[Union[str, Path]] = None,
        fsync: str = "interval",
        fsync_interval: float = 0.05,
        recover: bool = False,
        clock: Callable[[], float] = time.monotonic,
        startup_timeout: float = 120.0,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        base_policy = policy if policy is not None else BatchPolicy()
        backlog = shard_backlog if shard_backlog is not None else base_policy.max_pending
        # per-shard queues reuse the batching policy with the backlog
        # bound; BatchPolicy.__post_init__ enforces backlog >= max_batch
        shard_policy = BatchPolicy(
            max_batch=base_policy.max_batch,
            max_delay=base_policy.max_delay,
            max_pending=backlog,
            overflow=base_policy.overflow,
        )
        self.n_shards = n_shards
        self.policy = shard_policy
        self.shard_backlog = backlog
        self.registry = ModelRegistry()  # router-local authoritative copy
        self._clock = clock
        self._feature_set = tuple(feature_set)
        self._capacity = capacity
        self._ttl = ttl
        self._journal_base = str(journal_dir) if journal_dir is not None else None
        self._fsync = fsync
        self._fsync_interval = fsync_interval
        self._startup_timeout = startup_timeout
        # Reentrant for the same reason as ScoringService: drain() and
        # score() flush while already holding it.  Order-tracked under
        # REPRO_SANITIZE=1.
        self._lock: LockLike = guarded_rlock("ShardedScoringService._lock")
        self._handles: List[_ShardHandle] = []  # guarded-by: _lock
        self._queues: List[PendingQueue] = [  # guarded-by: _lock
            PendingQueue(shard_policy) for _ in range(n_shards)
        ]
        self._next_request_id = 0  # guarded-by: _lock
        self.stats_counters = ServiceStats()  # guarded-by: _lock
        self.health = HealthMonitor(clock=clock)  # guarded-by: _lock
        self.shard_restarts = 0  # guarded-by: _lock
        self._segment: Optional[shared_memory.SharedMemory] = None  # guarded-by: _lock
        self._meta: Optional[SharedSnapshotMeta] = None  # guarded-by: _lock
        self._model_version = 0  # guarded-by: _lock (shard consensus)
        self._shard_cache: Dict[str, int] = {}  # guarded-by: _lock
        self._shard_cache_cap = max(4 * capacity * n_shards, 1 << 16)
        self.recovery_report: Optional[RecoveryReport] = None
        with self._lock:
            try:
                for shard_id in range(n_shards):
                    self._handles.append(self._spawn(shard_id, recover=recover))
            except BaseException:
                self._kill_workers()
                raise
        if recover:
            self._reconcile_recovered()

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #

    def _spawn(self, shard_id: int, recover: bool) -> _ShardHandle:
        """Fork one worker and wait for its ready/fatal handshake."""
        plan = ShardPlan(
            shard_id=shard_id,
            feature_set=self._feature_set,
            capacity=self._capacity,
            ttl=self._ttl,
            journal_dir=(
                str(shard_journal_dir(self._journal_base, shard_id))
                if self._journal_base is not None
                else None
            ),
            fsync=self._fsync,
            fsync_interval=self._fsync_interval,
            recover=recover,
        )
        ctx = mp.get_context("fork")
        router_conn, worker_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_shard_main,
            args=(router_conn, worker_conn, plan),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        worker_conn.close()  # the router's copy of the worker end
        try:
            if not router_conn.poll(self._startup_timeout):
                raise ShardStartupError(
                    f"shard {shard_id} did not come up within "
                    f"{self._startup_timeout:.0f}s"
                )
            hello = router_conn.recv()
        except ShardStartupError:
            process.terminate()
            process.join(timeout=5)
            router_conn.close()
            raise
        except _PIPE_DEAD as exc:
            process.join(timeout=5)
            router_conn.close()
            raise ShardStartupError(
                f"shard {shard_id} died during startup "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        if hello[0] == "fatal":
            process.join(timeout=5)
            router_conn.close()
            raise ShardStartupError(f"shard {shard_id} failed to start: {hello[1]}")
        _, _, report, fingerprint, version = hello
        return _ShardHandle(
            shard_id=shard_id,
            process=process,
            conn=router_conn,
            report=report,
            fingerprint=fingerprint,
            version=version,
        )

    def _kill_workers(self) -> None:
        """Hard teardown of every live worker; called under ``_lock``
        (or from ``__init__`` before the service escapes)."""
        for handle in self._handles:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            if handle.process.is_alive():
                handle.process.terminate()
        for handle in self._handles:
            handle.process.join(timeout=5)
        self._handles = []
        self._release_segment()

    def _release_segment(self) -> None:
        seg = self._segment
        self._segment = None
        self._meta = None
        if seg is None:
            return
        try:
            seg.close()
            seg.unlink()
        except (BufferError, FileNotFoundError, OSError):  # pragma: no cover
            pass

    def _restart_shard(self, shard_id: int, cause: Exception) -> None:
        """Watchdog: replace a dead worker; journal recovery when armed.

        Called under ``_lock`` from the call path that detected the
        death.  After the restart the shard is reconciled to the
        current model: with a journal it usually recovered the right
        snapshot on its own (fingerprints match, nothing to do); a
        shard that lost the tail of the swap stream — or runs without a
        journal — gets the current shared segment re-broadcast.
        """
        old = self._handles[shard_id]
        self.shard_restarts += 1
        self.health.record_fault(
            "shard_dead", f"shard {shard_id} died: {cause}; restarting"
        )
        try:
            old.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if old.process.is_alive():
            old.process.terminate()
        old.process.join(timeout=5)
        try:
            handle = self._spawn(shard_id, recover=self._journal_base is not None)
        except ShardStartupError as exc:
            self.health.degrade(
                f"shard{shard_id}",
                f"restart failed ({exc}); its hash range is down",
            )
            raise
        self._handles[shard_id] = handle
        meta = self._meta
        if meta is not None and handle.fingerprint != meta.fingerprint:
            reply = self._roundtrip(handle, ("publish", meta))
            handle.fingerprint = reply[2]
            handle.version = reply[1]
        self.health.clear(f"shard{shard_id}")
        self.health.record_fault(
            "shard_restarted",
            f"shard {shard_id} restarted"
            + (" with journal recovery" if self._journal_base is not None else ""),
        )

    def _reconcile_recovered(self) -> None:
        """Adopt the recovered model at the router; re-align stragglers.

        The authoritative copy is the shard with the highest replayed
        version (a crash mid-broadcast can leave shards one swap
        apart).  The router republishes it locally (deep copy), encodes
        the shared segment future restarts re-attach, and — only when
        fingerprints actually disagree — broadcasts once so every shard
        lands on the same model again.
        """
        with self._lock:
            self.recovery_report = coalesce_reports(
                [h.report for h in self._handles if h.report is not None]
            )
            ref = max(self._handles, key=lambda h: h.version)
            if ref.fingerprint is None:
                raise ShardStartupError(
                    "recovery produced no model on any shard; cannot serve"
                )
            reply = self._roundtrip(ref, ("export_model",))
            _, A, B, blob, source, fingerprint, version = reply
            predictor = ViralityPredictor.from_bytes(blob) if blob else None
            snapshot = self.registry.publish(
                EmbeddingModel(A, B), predictor=predictor, source=source
            )
            seg, meta = encode_shared_snapshot(snapshot)
            self._segment, self._meta = seg, meta
            self._model_version = version
            self.health.publish_succeeded()
            if any(h.fingerprint != fingerprint for h in self._handles):
                self._broadcast_meta(meta)

    # ------------------------------------------------------------------ #
    # Pipe plumbing (all under ``_lock``)
    # ------------------------------------------------------------------ #

    def _roundtrip(self, handle: _ShardHandle, msg: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """One request→reply on a shard pipe; raises on dead pipe/err."""
        try:
            handle.conn.send(msg)
            reply = handle.conn.recv()
        except _PIPE_DEAD as exc:
            raise ShardDeadError(handle.shard_id, exc) from exc
        if reply[0] == "err":
            raise self._remote_error(handle.shard_id, reply)
        return reply

    @staticmethod
    def _remote_error(shard_id: int, reply: Tuple[Any, ...]) -> Exception:
        _, kind, detail = reply
        known: Dict[str, type] = {
            "LookupError": LookupError,
            "KeyError": KeyError,
            "ValueError": ValueError,
            "TypeError": TypeError,
            "SnapshotLoadError": SnapshotLoadError,
        }
        exc_type = known.get(kind)
        if exc_type is not None:
            return exc_type(f"shard {shard_id}: {detail}")
        return RuntimeError(f"shard {shard_id}: {kind}: {detail}")

    def _call(self, shard_id: int, msg: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """Round-trip with the watchdog retry: restart a dead shard and
        replay the call once (idempotent by protocol design)."""
        try:
            return self._roundtrip(self._handles[shard_id], msg)
        except ShardDeadError as exc:
            self._restart_shard(shard_id, exc)
            return self._roundtrip(self._handles[shard_id], msg)

    def _fanout(
        self, calls: Sequence[Tuple[int, Tuple[Any, ...]]]
    ) -> List[Tuple[Any, ...]]:
        """Send every piece, then collect every reply, in shard order.

        The overlap is the point: worker *i* computes its piece while
        the router is still serializing piece *i+1* onto the next pipe.
        A shard that died is restarted and its piece replayed through
        the normal :meth:`_call` path.
        """
        sent: List[bool] = []
        for shard_id, msg in calls:
            try:
                self._handles[shard_id].conn.send(msg)
                sent.append(True)
            except _PIPE_DEAD:
                sent.append(False)
        replies: List[Tuple[Any, ...]] = []
        for (shard_id, msg), ok in zip(calls, sent):
            reply: Optional[Tuple[Any, ...]] = None
            if ok:
                try:
                    reply = self._handles[shard_id].conn.recv()
                except _PIPE_DEAD:
                    reply = None
            if reply is None:
                self._restart_shard(
                    shard_id, ShardDeadError(shard_id, EOFError("pipe closed"))
                )
                reply = self._roundtrip(self._handles[shard_id], msg)
            if reply[0] == "err":
                raise self._remote_error(shard_id, reply)
            replies.append(reply)
        return replies

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def _shard_index(self, cascade_id: str) -> int:
        """Cached stable hash; cascade ids repeat heavily in a stream."""
        cache = self._shard_cache
        idx = cache.get(cascade_id)
        if idx is None:
            if len(cache) >= self._shard_cache_cap:
                cache.clear()
            idx = shard_of(cascade_id, self.n_shards)
            cache[cascade_id] = idx
        return idx

    def _group_columns(
        self,
        cascade_ids: Sequence[str],
        nodes: np.ndarray,
        times: np.ndarray,
    ) -> List[Tuple[int, List[str], np.ndarray, np.ndarray]]:
        """Split one columnar burst into per-shard pieces, order-stable."""
        n = len(cascade_ids)
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if self.n_shards == 1:
            return [(0, list(cascade_ids), nodes, times)]
        lookup = self._shard_index
        shard_idx = np.fromiter(
            (lookup(c) for c in cascade_ids), dtype=np.int64, count=n
        )
        lo = int(shard_idx[0])
        if bool((shard_idx == lo).all()):
            return [(lo, list(cascade_ids), nodes, times)]
        # stable sort keeps each shard's events in arrival order — the
        # within-shard order is what bit-identity to a single-process
        # replay of the substream rests on
        order = np.argsort(shard_idx, kind="stable")
        grouped = shard_idx[order]
        boundaries = np.flatnonzero(np.diff(grouped)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))
        nodes_s = nodes[order]
        times_s = times[order]
        pieces: List[Tuple[int, List[str], np.ndarray, np.ndarray]] = []
        for a, b in zip(starts, ends):
            sel = order[a:b]
            pieces.append(
                (
                    int(grouped[a]),
                    [cascade_ids[j] for j in sel],
                    nodes_s[a:b],
                    times_s[a:b],
                )
            )
        return pieces

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def ingest(self, cascade_id: str, node: int, t: float) -> bool:
        """Single-event ingest; rides the columnar path like the base."""
        with self._lock:
            applied = self.ingest_columns(
                (cascade_id,),
                np.asarray([node], dtype=np.int64),
                np.asarray([t], dtype=np.float64),
            )
            return bool(applied)

    def ingest_many(self, events: Sequence[Tuple[str, int, float]]) -> int:
        if not events:
            return 0
        cid_seq, node_seq, time_seq = zip(*events)
        return self.ingest_columns(
            list(cid_seq),
            np.asarray(node_seq, dtype=np.int64),
            np.asarray(time_seq, dtype=np.float64),
        )

    def ingest_columns(
        self,
        cascade_ids: Sequence[str],
        nodes: np.ndarray,
        times: np.ndarray,
    ) -> int:
        """Split the burst by shard, fan out, sum the applied counts.

        Duplicate filtering happens in the owning shard exactly as in
        one process (a cascade's events all land on one shard), so the
        total equals the single-process count.
        """
        with self._lock:
            if not len(cascade_ids):
                return 0
            pieces = self._group_columns(cascade_ids, nodes, times)
            replies = self._fanout(
                [(idx, ("ingest", cids, pn, pt)) for idx, cids, pn, pt in pieces]
            )
            applied = sum(int(reply[1]) for reply in replies)
            self.stats_counters.ingested += applied
            return applied

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #

    def submit(
        self,
        cascade_id: str,
        include_features: bool = False,
        on_done: Optional[Callable[[ScoreResult], None]] = None,
    ) -> ScoreRequest:
        """Queue a score request on its shard's pending queue.

        Backpressure is per shard (``--shard-backlog``): one hot hash
        range rejects or sheds without touching its siblings' queues.
        """
        with self._lock:
            self._next_request_id += 1
            request = ScoreRequest(
                cascade_id=cascade_id,
                request_id=self._next_request_id,
                enqueued_at=self._clock(),
                include_features=include_features,
                on_done=on_done,
            )
            self._queues[self._shard_index(cascade_id)].submit(request)
            return request

    def submit_many(
        self, cascade_ids: Sequence[str], include_features: bool = False
    ) -> List[ScoreRequest]:
        with self._lock:
            now = self._clock()
            rid = self._next_request_id
            requests: List[ScoreRequest] = []
            for i, cid in enumerate(cascade_ids, start=1):
                request = ScoreRequest(
                    cascade_id=cid,
                    request_id=rid + i,
                    enqueued_at=now,
                    include_features=include_features,
                )
                self._queues[self._shard_index(cid)].submit(request)
                requests.append(request)
            self._next_request_id = rid + len(cascade_ids)
            return requests

    def pending(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._queues)

    def due(self, now: Optional[float] = None) -> bool:
        with self._lock:
            at = now if now is not None else self._clock()
            return any(q.due(at) for q in self._queues)

    def flush(self) -> List[ScoreResult]:
        """Drain every shard's due queue, fan the pieces out, merge.

        Each request's :class:`LatencyBreakdown` survives the hop:
        ``queued_s`` is measured on the router clock (submit → fan-out
        start), ``compute_s``/``batch_size`` come back from the shard
        that scored its piece.
        """
        with self._lock:
            start = self._clock()
            drained: List[Tuple[int, List[ScoreRequest]]] = []
            for shard_id, queue in enumerate(self._queues):
                if not len(queue):
                    continue
                batch = queue.drain(self.policy.max_batch)
                if batch:
                    drained.append((shard_id, batch))
            if not drained:
                return []
            calls = []
            for shard_id, batch in drained:
                want = any(r.include_features for r in batch)
                calls.append(
                    (shard_id, ("score", [r.cascade_id for r in batch], want))
                )
            replies = self._fanout(calls)
            results: List[ScoreResult] = []
            n_unknown = 0
            for (shard_id, batch), reply in zip(drained, replies):
                cols: ScoreColumns = reply[1]
                batch_size = len(batch)
                for i, request in enumerate(batch):
                    latency = LatencyBreakdown(
                        queued_s=max(start - request.enqueued_at, 0.0),
                        compute_s=cols.compute_s,
                        batch_size=batch_size,
                    )
                    if not cols.ok[i]:
                        n_unknown += 1
                        result = ScoreResult(
                            cascade_id=request.cascade_id,
                            request_id=request.request_id,
                            status="unknown_cascade",
                            model_version=cols.model_version,
                            latency=latency,
                        )
                    else:
                        features: Optional[np.ndarray] = None
                        if request.include_features and cols.features is not None:
                            features = cols.features[i].copy()
                            features.setflags(write=False)
                        result = ScoreResult(
                            cascade_id=request.cascade_id,
                            request_id=request.request_id,
                            status="ok",
                            score=(
                                float(cols.scores[i])
                                if cols.scores is not None
                                else None
                            ),
                            label=(
                                int(cols.labels[i])
                                if cols.labels is not None
                                else None
                            ),
                            n_early=int(cols.n_early[i]),
                            model_version=cols.model_version,
                            features=features,
                            latency=latency,
                        )
                    results.append(result)
                    request.finish(result)
            self.stats_counters.unknown += n_unknown
            self.stats_counters.scored += len(results) - n_unknown
            self.stats_counters.batches += len(drained)
            return results

    def score(self, cascade_id: str, include_features: bool = False) -> ScoreResult:
        with self._lock:
            request = self.submit(cascade_id, include_features=include_features)
            while request.result is None:
                self.flush()
            return request.result

    def score_columns(
        self, cascade_ids: Sequence[str], include_features: bool = False
    ) -> ScoreColumns:
        """Bulk columnar scoring through the shards, merged in order.

        The queue-free twin of :meth:`flush` — the wire shape both ends
        of the benchmark ride, so the 1-shard and 4-shard router paths
        differ only in fan-out width.
        """
        with self._lock:
            start = self._clock()
            n = len(cascade_ids)
            if n == 0:
                return ScoreColumns(
                    ok=np.zeros(0, dtype=bool),
                    scores=None,
                    labels=None,
                    n_early=np.zeros(0, dtype=np.int64),
                    model_version=self._model_version,
                    compute_s=0.0,
                )
            if self.n_shards == 1:
                piece_sels: List[np.ndarray] = [np.arange(n)]
                piece_cids = [list(cascade_ids)]
            else:
                lookup = self._shard_index
                shard_idx = np.fromiter(
                    (lookup(c) for c in cascade_ids), dtype=np.int64, count=n
                )
                order = np.argsort(shard_idx, kind="stable")
                grouped = shard_idx[order]
                boundaries = np.flatnonzero(np.diff(grouped)) + 1
                starts = np.concatenate(([0], boundaries))
                ends = np.concatenate((boundaries, [n]))
                piece_sels = [order[a:b] for a, b in zip(starts, ends)]
                piece_cids = [
                    [cascade_ids[j] for j in sel] for sel in piece_sels
                ]
            calls = []
            for sel, cids in zip(piece_sels, piece_cids):
                calls.append(
                    (self._shard_index(cids[0]), ("score", cids, include_features))
                )
            replies = self._fanout(calls)
            ok = np.zeros(n, dtype=bool)
            n_early = np.zeros(n, dtype=np.int64)
            scores: Optional[np.ndarray] = None
            labels: Optional[np.ndarray] = None
            features: Optional[np.ndarray] = None
            version = 0
            n_ok = 0
            for sel, reply in zip(piece_sels, replies):
                cols: ScoreColumns = reply[1]
                ok[sel] = cols.ok
                n_early[sel] = cols.n_early
                version = max(version, cols.model_version)
                n_ok += int(np.count_nonzero(cols.ok))
                if cols.scores is not None:
                    if scores is None:
                        scores = np.full(n, np.nan)
                        labels = np.zeros(n, dtype=np.int64)
                    scores[sel] = cols.scores
                    assert labels is not None
                    labels[sel] = cols.labels
                if include_features and cols.features is not None:
                    if features is None:
                        features = np.zeros(
                            (n, cols.features.shape[1]), dtype=np.float64
                        )
                    features[sel] = cols.features
            self.stats_counters.unknown += n - n_ok
            self.stats_counters.scored += n_ok
            self.stats_counters.batches += len(replies)
            return ScoreColumns(
                ok=ok,
                scores=scores,
                labels=labels,
                n_early=n_early,
                model_version=version,
                compute_s=self._clock() - start,
                features=features,
            )

    # ------------------------------------------------------------------ #
    # Publishing — one segment, N attaches
    # ------------------------------------------------------------------ #

    def _broadcast_meta(self, meta: SharedSnapshotMeta) -> None:
        """Push a segment name to every shard; called under ``_lock``."""
        replies = self._fanout(
            [(i, ("publish", meta)) for i in range(self.n_shards)]
        )
        for handle, reply in zip(self._handles, replies):
            handle.version = reply[1]
            handle.fingerprint = reply[2]
        self._model_version = max(h.version for h in self._handles)

    def _publish_segment(self, snapshot: ModelSnapshot) -> None:
        """Encode once, broadcast the name, retire the old segment.

        The superseded segment is closed + unlinked only after every
        shard acked the new one — a shard restarting mid-swap can
        always re-attach whichever segment is current.
        """
        seg, meta = encode_shared_snapshot(snapshot)
        previous = self._segment
        self._segment, self._meta = seg, meta
        self._broadcast_meta(meta)
        if previous is not None:
            try:
                previous.close()
                previous.unlink()
            except (BufferError, FileNotFoundError, OSError):  # pragma: no cover
                pass

    def _adopt_published(self, snapshot: ModelSnapshot) -> None:
        """Broadcast an externally-published snapshot to every shard.

        The router twin of :meth:`ScoringService._adopt_published`: the
        registry swap already happened (at the router); this folds its
        consequences — the shared-segment broadcast and the health
        bookkeeping — into the guarded state.  The factories' initial
        publish rides this.
        """
        with self._lock:
            self._publish_segment(snapshot)
            self.health.publish_succeeded()

    def publish(
        self,
        model: EmbeddingModel,
        predictor: Optional[ViralityPredictor] = None,
        source: str = "inline",
    ) -> ModelSnapshot:
        """Publish an in-memory model to every shard as one segment.

        The router's registry keeps the authoritative deep copy (and
        computes the fingerprint once); shards attach read-only views.
        Per-shard journals record the swap, so recovery replays it.
        """
        with self._lock:
            snapshot = self.registry.publish(model, predictor=predictor, source=source)
            self._publish_segment(snapshot)
            self.health.publish_succeeded()
            return snapshot

    def swap_path(self, path: Union[str, Path]) -> ModelSnapshot:
        """Hot-swap from a filesystem artifact (the ``swap`` op).

        Mirrors :meth:`ScoringService.swap_path`: the artifact load runs
        outside the router lock, the current predictor is carried
        forward, and a corrupt artifact pins the last-good model on
        every shard (nothing is broadcast unless the load succeeded).
        """
        try:
            predictor = self.registry.current().predictor
        except LookupError:
            predictor = None
        try:
            snapshot = self.registry.publish_path(path, predictor=predictor)
        except SnapshotLoadError as exc:
            with self._lock:
                self.health.publish_failed(str(exc))
            raise
        self._adopt_published(snapshot)
        return snapshot

    # ------------------------------------------------------------------ #
    # Maintenance / shutdown
    # ------------------------------------------------------------------ #

    def sweep(self) -> int:
        """TTL-sweep every shard now (workers also self-sweep)."""
        with self._lock:
            replies = self._fanout([(i, ("sweep",)) for i in range(self.n_shards)])
            return sum(int(reply[1]) for reply in replies)

    def compact(self) -> bool:
        with self._lock:
            replies = self._fanout([(i, ("compact",)) for i in range(self.n_shards)])
            return all(bool(reply[1]) for reply in replies)

    def state_fingerprint(self) -> str:
        """Combined content hash of every shard's tracked state.

        Hashes the per-shard store fingerprints in shard order, so two
        sharded tiers (same shard count) fingerprint equal iff every
        shard's state matches bit-for-bit — the replay≡direct-ingest
        gate evaluated across the whole tier (DESIGN.md §17).
        """
        with self._lock:
            replies = self._fanout(
                [(i, ("state_fingerprint",)) for i in range(self.n_shards)]
            )
            h = hashlib.blake2b(digest_size=16)
            for reply in replies:
                h.update(str(reply[1]).encode("utf-8"))
            return h.hexdigest()

    def journal_tick(self) -> None:
        """No-op: shard workers self-tick their journals between ops."""

    def seal_journal(self) -> None:
        """No-op at the router: shards seal their journals on drain."""

    def ttl_enabled(self) -> bool:
        return self._ttl is not None

    def drain(self) -> int:
        """Graceful shutdown: flush pending, drain + stop every worker."""
        with self._lock:
            self.health.begin_draining()
            drained = 0
            while any(len(q) for q in self._queues):
                drained += len(self.flush())
            for shard_id in range(len(self._handles)):
                try:
                    self._roundtrip(self._handles[shard_id], ("drain",))
                except (ShardDeadError, RuntimeError):  # pragma: no cover
                    pass
            self._shutdown_workers()
            self.health.stopped()
            return drained

    def abort_pending(self) -> int:
        with self._lock:
            n = sum(q.fail_all("aborted") for q in self._queues)
            self.stats_counters.aborted += n
            return n

    def close(self) -> None:
        """Hard stop: abort waiters, kill workers, release the segment."""
        with self._lock:
            self.abort_pending()
            for handle in self._handles:
                try:
                    handle.conn.send(("exit",))
                except _PIPE_DEAD:  # pragma: no cover - already dead
                    pass
            self._kill_workers()

    def _shutdown_workers(self) -> None:
        """Polite exit handshake, then reap; called under ``_lock``."""
        for handle in self._handles:
            try:
                handle.conn.send(("exit",))
                handle.conn.recv()
            except _PIPE_DEAD:  # pragma: no cover - worker already gone
                pass
        self._kill_workers()

    # ------------------------------------------------------------------ #
    # Lifecycle / health / stats
    # ------------------------------------------------------------------ #

    def begin_recovery(self) -> None:
        with self._lock:
            self.health.begin_recovery()

    def begin_serving(self) -> None:
        with self._lock:
            self.health.begin_serving()

    def begin_draining(self) -> None:
        with self._lock:
            self.health.begin_draining()

    def record_fault(self, kind: str, detail: str) -> None:
        with self._lock:
            self.health.record_fault(kind, detail)

    def degrade(self, reason: str, detail: str) -> None:
        with self._lock:
            self.health.degrade(reason, detail)

    def health_snapshot(self) -> Dict[str, object]:
        """Aggregated health: router lifecycle + every shard's snapshot.

        A dead shard that also fails to restart is reported as
        ``state="dead"`` inside the aggregate instead of failing the
        probe — health must stay answerable while things are on fire.
        """
        with self._lock:
            if not self._handles:  # drained or closed: workers are gone
                return aggregate_health(self.health.snapshot(), [])
            shard_snaps: List[Dict[str, object]] = []
            for shard_id in range(self.n_shards):
                try:
                    shard_snaps.append(self._call(shard_id, ("health",))[1])
                except (ShardDeadError, ShardStartupError, RuntimeError) as exc:
                    shard_snaps.append(
                        {
                            "state": "dead",
                            "ready": False,
                            "healthy": False,
                            "degraded_reasons": {"dead": str(exc)},
                            "faults_total": 0,
                        }
                    )
            return aggregate_health(self.health.snapshot(), shard_snaps)

    def stats(self) -> Dict[str, object]:
        """Router counters + per-shard stats + cross-shard aggregates."""
        with self._lock:
            replies = self._fanout([(i, ("stats",)) for i in range(self.n_shards)])
            shard_stats = [reply[1] for reply in replies]

            def total(key: str) -> int:
                return sum(int(s.get(key, 0)) for s in shard_stats)

            out: Dict[str, object] = {
                "model_version": self._model_version,
                "state": self.health.state(),
                "n_shards": self.n_shards,
                "shard_restarts": self.shard_restarts,
                "tracked_cascades": total("tracked_cascades"),
                "pending": sum(len(q) for q in self._queues),
                "ingested": self.stats_counters.ingested,
                "scored": self.stats_counters.scored,
                "batches": self.stats_counters.batches,
                "unknown": self.stats_counters.unknown,
                "duplicates": total("duplicates"),
                "evictions": total("evictions"),
                "expirations": total("expirations"),
                "rebuilds": total("rebuilds"),
                "shed": sum(q.shed for q in self._queues),
                "rejected": sum(q.rejected for q in self._queues),
                "aborted": self.stats_counters.aborted,
                "journal_faults": total("journal_faults"),
                "load_failures": self.registry.load_failure_count(),
                "shards": shard_stats,
            }
            return out


# --------------------------------------------------------------------- #
# Factories (the CLI's two assembly paths)
# --------------------------------------------------------------------- #


def build_sharded_service(
    model_path: str,
    n_shards: int,
    predictor_path: Optional[str] = None,
    feature_set: Sequence[str] = PAPER_FEATURES,
    max_batch: int = 64,
    max_delay: float = 0.005,
    max_pending: int = 1024,
    overflow: str = "reject",
    shard_backlog: Optional[int] = None,
    capacity: int = 100_000,
    ttl: Optional[float] = None,
    journal_dir: Optional[Union[str, Path]] = None,
    fsync: str = "interval",
    fsync_interval: float = 0.05,
) -> ShardedScoringService:
    """Assemble a ready-to-serve sharded service from artifacts.

    The sharded twin of :func:`~repro.serving.server.build_service`:
    spawn the workers, load the artifacts once at the router, publish
    them to every shard as one shared segment.  Raises
    :class:`ShardStartupError` when a worker cannot come up and
    :class:`~repro.serving.registry.SnapshotLoadError` on a bad
    artifact (with the workers torn down again).
    """
    predictor = (
        ViralityPredictor.load(predictor_path) if predictor_path is not None else None
    )
    service = ShardedScoringService(
        n_shards=n_shards,
        feature_set=feature_set,
        capacity=capacity,
        ttl=ttl,
        policy=BatchPolicy(
            max_batch=max_batch,
            max_delay=max_delay,
            max_pending=max_pending,
            overflow=overflow,
        ),
        shard_backlog=shard_backlog,
        journal_dir=journal_dir,
        fsync=fsync,
        fsync_interval=fsync_interval,
    )
    try:
        snapshot = service.registry.publish_path(model_path, predictor=predictor)
        service._adopt_published(snapshot)
    except BaseException:
        service.close()
        raise
    service.begin_serving()
    return service


def recover_sharded_service(
    journal_dir: Union[str, Path],
    n_shards: int,
    feature_set: Sequence[str] = PAPER_FEATURES,
    max_batch: int = 64,
    max_delay: float = 0.005,
    max_pending: int = 1024,
    overflow: str = "reject",
    shard_backlog: Optional[int] = None,
    capacity: int = 100_000,
    ttl: Optional[float] = None,
    fsync: str = "interval",
    fsync_interval: float = 0.05,
) -> Tuple[ShardedScoringService, RecoveryReport]:
    """Rebuild a sharded service from its per-shard journals.

    Every worker replays its own ``shard-NN/`` directory concurrently
    at spawn; the router coalesces the reports, adopts the
    highest-version shard's model as authoritative, and re-broadcasts
    only if a crash mid-swap left shards on different fingerprints.
    """
    service = ShardedScoringService(
        n_shards=n_shards,
        feature_set=feature_set,
        capacity=capacity,
        ttl=ttl,
        policy=BatchPolicy(
            max_batch=max_batch,
            max_delay=max_delay,
            max_pending=max_pending,
            overflow=overflow,
        ),
        shard_backlog=shard_backlog,
        journal_dir=journal_dir,
        fsync=fsync,
        fsync_interval=fsync_interval,
        recover=True,
    )
    service.begin_recovery()
    service.begin_serving()
    report = service.recovery_report
    assert report is not None
    return service, report
