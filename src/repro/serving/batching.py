"""Micro-batching primitives: policy, pending queue, request/result types.

The scoring hot path amortizes fixed per-call costs (snapshot lookup,
feature gathering, the SVM matvec) by coalescing concurrent score
requests into one vectorized evaluation.  This module holds the pieces
that are independent of *how* scores are computed:

* :class:`BatchPolicy` — when to flush (size or age trigger) and what to
  do when the queue is full (explicit backpressure);
* :class:`PendingQueue` — the bounded FIFO of in-flight requests;
* :class:`ScoreRequest` / :class:`ScoreResult` / :class:`LatencyBreakdown`
  — the request lifecycle with per-request latency accounting.

Everything here uses the monotonic clock supplied by the owning
service; nothing reads wall-clock time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

import numpy as np

__all__ = [
    "BatchPolicy",
    "LatencyBreakdown",
    "PendingQueue",
    "QueueFullError",
    "ScoreColumns",
    "ScoreRequest",
    "ScoreResult",
]

_OVERFLOW_MODES = ("reject", "shed_oldest")


class QueueFullError(RuntimeError):
    """Raised on submit when the queue is full and the policy rejects."""


@dataclass(frozen=True)
class BatchPolicy:
    """When to flush a batch and how to apply backpressure.

    Attributes
    ----------
    max_batch:
        Flush as soon as this many requests are pending.
    max_delay:
        Flush any request that has waited this long (seconds of the
        service's monotonic clock), even if the batch is not full.
    max_pending:
        Bound on queued requests.  Beyond it, ``overflow`` decides.
    overflow:
        ``"reject"`` raises :class:`QueueFullError` at the submitter;
        ``"shed_oldest"`` completes the oldest queued request with a
        ``"shed"`` status to make room (bounded staleness).
    """

    max_batch: int = 64
    max_delay: float = 0.005
    max_pending: int = 1024
    overflow: str = "reject"

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        if self.max_pending < self.max_batch:
            raise ValueError("max_pending must be >= max_batch")
        if self.overflow not in _OVERFLOW_MODES:
            raise ValueError(
                f"overflow must be one of {_OVERFLOW_MODES}, got {self.overflow!r}"
            )


@dataclass(slots=True)
class LatencyBreakdown:
    """Where one request's latency went.

    ``queued_s`` is submit → batch start; ``compute_s`` is the batch's
    feature-gather + SVM evaluation, shared by every request in it.
    """

    queued_s: float
    compute_s: float
    batch_size: int

    @property
    def total_s(self) -> float:
        return self.queued_s + self.compute_s


@dataclass(slots=True)
class ScoreRequest:
    """One in-flight score request.

    ``on_done`` (if set) fires exactly once, with the finished
    :class:`ScoreResult` — this is how the asyncio front end gets its
    completion signal without polling.
    """

    cascade_id: str
    request_id: int
    enqueued_at: float
    include_features: bool = False
    on_done: Optional[Callable[["ScoreResult"], None]] = None
    result: Optional["ScoreResult"] = field(default=None, repr=False)

    def finish(self, result: "ScoreResult") -> None:
        self.result = result
        if self.on_done is not None:
            self.on_done(result)


@dataclass(slots=True)
class ScoreResult:
    """Outcome of one score request.

    ``status`` is one of:

    * ``"ok"`` — scored; ``score`` is the standardized SVM margin,
      ``label`` the ±1 virality prediction (both ``None`` when the
      active snapshot carries no fitted predictor);
    * ``"unknown_cascade"`` — the cascade is not tracked (never seen,
      evicted, or expired);
    * ``"shed"`` — dropped unscored by ``overflow="shed_oldest"``;
    * ``"rejected"`` — refused at submit by ``overflow="reject"``;
    * ``"aborted"`` — the service shut down before this request's batch
      flushed (hard stop; a graceful drain flushes instead of aborting).
    """

    cascade_id: str
    request_id: int
    status: str
    score: Optional[float] = None
    label: Optional[int] = None
    n_early: int = 0
    model_version: int = 0
    features: Optional[np.ndarray] = None
    latency: Optional[LatencyBreakdown] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(slots=True)
class ScoreColumns:
    """Columnar outcome of one bulk scoring call, aligned per request.

    The struct-of-arrays twin of a list of :class:`ScoreResult`: row *i*
    of every column answers request *i*.  This is the wire shape the
    sharded router exchanges with its workers (one pickle of a few
    arrays instead of one dataclass per request) and the shape
    :meth:`ScoringService.score_columns` returns.

    ``ok[i]`` is ``False`` for an untracked cascade; ``scores``/
    ``labels`` are ``None`` when the active snapshot carries no fitted
    predictor, and hold ``NaN``/``0`` at rows where ``ok`` is ``False``.
    ``features`` (only when requested) is a dense ``(n, F)`` matrix with
    zero rows at unknown cascades.
    """

    ok: np.ndarray  # bool, per request
    scores: Optional[np.ndarray]  # float64 per request, or None
    labels: Optional[np.ndarray]  # int64 per request, or None
    n_early: np.ndarray  # int64 per request
    model_version: int
    compute_s: float
    features: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.ok.shape[0])

    def to_wire(self) -> Dict[str, Any]:
        """Strict-JSON view: the server's ``score_columns`` reply body.

        Columns become lists; a ``NaN`` score (an unknown cascade) goes
        out as ``null``.  ``features`` travels flat with its width, so a
        zero-row matrix keeps its shape.  Floats survive the round trip
        bit-exactly: ``json`` writes the shortest ``repr`` and reads it
        back with ``float``.
        """
        scores = None
        if self.scores is not None:
            scores = [None if s != s else s for s in self.scores.tolist()]
        features = width = None
        if self.features is not None:
            features = self.features.ravel().tolist()
            width = int(self.features.shape[1])
        return {
            "ok": self.ok.tolist(),
            "scores": scores,
            "labels": None if self.labels is None else self.labels.tolist(),
            "n_early": self.n_early.tolist(),
            "model_version": self.model_version,
            "compute_s": self.compute_s,
            "features": features,
            "n_features": width,
        }

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "ScoreColumns":
        """Inverse of :meth:`to_wire` (``null`` scores read back as NaN)."""
        ok = np.array(wire["ok"], dtype=bool)
        features = None
        if wire["features"] is not None:
            features = np.array(wire["features"], dtype=np.float64).reshape(
                len(ok), int(wire["n_features"])
            )
        scores, labels = wire["scores"], wire["labels"]
        return cls(
            ok=ok,
            scores=None if scores is None else np.array(scores, dtype=np.float64),
            labels=None if labels is None else np.array(labels, dtype=np.int64),
            n_early=np.array(wire["n_early"], dtype=np.int64),
            model_version=int(wire["model_version"]),
            compute_s=float(wire["compute_s"]),
            features=features,
        )


class PendingQueue:
    """Bounded FIFO of :class:`ScoreRequest` with explicit backpressure.

    Not thread-safe on its own — the owning service serializes access.
    """

    def __init__(self, policy: BatchPolicy) -> None:
        self.policy = policy
        self._pending: Deque[ScoreRequest] = deque()
        self.submitted = 0
        self.shed = 0
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._pending)

    def oldest_enqueued_at(self) -> Optional[float]:
        """Enqueue time of the head request (None when empty)."""
        return self._pending[0].enqueued_at if self._pending else None

    def due(self, now: float) -> bool:
        """True when a flush is warranted: batch full or head too old."""
        if len(self._pending) >= self.policy.max_batch:
            return True
        head = self.oldest_enqueued_at()
        return head is not None and (now - head) >= self.policy.max_delay

    def submit(self, request: ScoreRequest) -> None:
        """Enqueue, applying the overflow policy when full.

        Raises
        ------
        QueueFullError
            Under ``overflow="reject"`` when the queue is at capacity.
        """
        if len(self._pending) >= self.policy.max_pending:
            if self.policy.overflow == "reject":
                self.rejected += 1
                raise QueueFullError(
                    f"pending queue full ({self.policy.max_pending} requests)"
                )
            victim = self._pending.popleft()
            self.shed += 1
            victim.finish(
                ScoreResult(
                    cascade_id=victim.cascade_id,
                    request_id=victim.request_id,
                    status="shed",
                )
            )
        self._pending.append(request)
        self.submitted += 1

    def submit_many(self, requests: List[ScoreRequest]) -> None:
        """Enqueue a burst; overflow policy applied per request.

        When the whole burst fits, this is a single ``deque.extend`` —
        the burst-arrival hot path the service's ``submit_many`` rides.
        """
        if len(self._pending) + len(requests) <= self.policy.max_pending:
            self._pending.extend(requests)
            self.submitted += len(requests)
            return
        for request in requests:
            self.submit(request)

    def drain(self, max_batch: int) -> List[ScoreRequest]:
        """Pop up to *max_batch* requests, FIFO order."""
        n = min(max_batch, len(self._pending))
        return [self._pending.popleft() for _ in range(n)]

    def drain_into(self, max_batch: int, out: List[ScoreRequest]) -> int:
        """Pop up to *max_batch* requests into *out* (appended, FIFO).

        The allocation-free twin of :meth:`drain` — the flush hot path
        reuses one workspace-owned list instead of building a fresh one
        per flush.  Returns how many requests were appended.
        """
        n = min(max_batch, len(self._pending))
        pop = self._pending.popleft
        for _ in range(n):
            out.append(pop())
        return n

    def fail_all(self, status: str) -> int:
        """Complete every queued request with *status*, emptying the queue.

        Shutdown path: a hard stop must not leave waiters hanging on
        requests that will never flush.  Returns how many were failed.
        """
        n = len(self._pending)
        while self._pending:
            victim = self._pending.popleft()
            victim.finish(
                ScoreResult(
                    cascade_id=victim.cascade_id,
                    request_id=victim.request_id,
                    status=status,
                )
            )
        return n
