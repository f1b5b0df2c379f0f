"""Synchronous TCP client for the scoring service.

In-process callers use the (thread-safe)
:class:`~repro.serving.service.ScoringService` directly.
:class:`TCPScoringClient` speaks the wire protocol of
:mod:`repro.serving.server` over a socket with
the hardening a replay run needs: lazy connect, reconnect with bounded
exponential backoff when the server drops mid-exchange (requests are
re-sent — at-least-once delivery; the store's duplicate filter makes
ingest re-sends idempotent), a clean :class:`ServerUnreachableError`
once the budget is spent, and server-side "queue full" rejects mapped
onto :class:`~repro.serving.batching.QueueFullError` so the replay
engine's retry ladder treats local and remote backpressure the same.
"""

from __future__ import annotations

import json
import socket
import time
from typing import IO, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.batching import QueueFullError, ScoreColumns

__all__ = [
    "RemoteError",
    "ServerUnreachableError",
    "TCPScoringClient",
]


class ServerUnreachableError(ConnectionError):
    """The scoring server could not be reached within the retry budget."""


class RemoteError(RuntimeError):
    """The server answered ``{"ok": false}`` with a non-backpressure error."""


#: substring the server uses for batcher overflow rejects
_QUEUE_FULL_MARKER = "queue full"


class TCPScoringClient:
    """Synchronous newline-JSON client for a remote :class:`ScoringServer`.

    Parameters
    ----------
    host, port:
        Server address (``repro serve --port N``).
    connect_timeout:
        Seconds per connection attempt.
    op_timeout:
        Socket timeout for one request/response exchange.
    max_reconnects:
        Connection attempts per operation before
        :class:`ServerUnreachableError`; each failed attempt backs off
        ``reconnect_backoff * 2**k`` seconds, capped at
        ``reconnect_backoff_cap``.  A server restart inside that budget
        is invisible to the caller beyond the added latency.

    Notes
    -----
    Delivery is at-least-once: if the connection drops after a request
    went out but before the reply came back, the whole exchange is
    re-sent on the new connection.  Ingest ops are idempotent through
    the store's duplicate filter; ``applied`` counts may under-report
    across a retry (the events landed, the ack was lost).

    The client is intentionally not thread-safe — one socket, one
    outstanding exchange.  The replay engine drives it from a single
    consumer (``wants_executor_offload`` keeps the blocking I/O off the
    event loop).
    """

    #: socket I/O must leave the replay engine's event loop
    wants_executor_offload = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7569,
        *,
        connect_timeout: float = 5.0,
        op_timeout: float = 60.0,
        max_reconnects: int = 8,
        reconnect_backoff: float = 0.05,
        reconnect_backoff_cap: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_reconnects < 0:
            raise ValueError("max_reconnects must be >= 0")
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.op_timeout = op_timeout
        self.max_reconnects = max_reconnects
        self.reconnect_backoff = reconnect_backoff
        self.reconnect_backoff_cap = reconnect_backoff_cap
        self._sleep = sleep
        self._sock: Optional[socket.socket] = None
        self._rfile: Optional[IO[bytes]] = None
        self._next_id = 0
        self.reconnects = 0

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #

    def connect(self) -> None:
        """Eagerly establish the connection (otherwise it is lazy)."""
        if self._sock is None:
            self._connect_once()

    def _connect_once(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.settimeout(self.op_timeout)
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def _teardown(self) -> None:
        for closer in (self._rfile, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._rfile = None
        self._sock = None

    def close(self) -> None:
        """Close the connection (the client reconnects lazily if reused)."""
        self._teardown()

    def __enter__(self) -> "TCPScoringClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Wire exchange
    # ------------------------------------------------------------------ #

    def _roundtrip(self, requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Send a pipelined batch of requests; return responses in order.

        Every request is tagged with a fresh ``id`` and responses are
        matched by it, so out-of-order replies (score responses resolve
        behind the micro-batcher) pair up correctly.  Any connection
        failure tears the socket down, backs off, reconnects, and
        re-sends the whole batch; past ``max_reconnects`` attempts the
        caller gets :class:`ServerUnreachableError`.
        """
        ids = []
        for req in requests:
            req["id"] = self._next_id
            ids.append(self._next_id)
            self._next_id += 1
        wire = b"".join(
            json.dumps(req).encode("utf-8") + b"\n" for req in requests
        )
        last_exc: Optional[Exception] = None
        for attempt in range(self.max_reconnects + 1):
            if attempt > 0:
                self.reconnects += 1
                self._sleep(
                    min(
                        self.reconnect_backoff * 2 ** (attempt - 1),
                        self.reconnect_backoff_cap,
                    )
                )
            try:
                if self._sock is None:
                    self._connect_once()
                assert self._sock is not None and self._rfile is not None
                self._sock.sendall(wire)
                by_id: Dict[int, Dict[str, Any]] = {}
                want = set(ids)
                while want:
                    line = self._rfile.readline()
                    if not line:
                        raise ConnectionResetError(
                            "server closed the connection mid-exchange"
                        )
                    response = json.loads(line)
                    rid = response.get("id")
                    if rid is None and not response.get("ok", False):
                        # a reply the server could not tie to a request
                        # (oversized/garbled line): fail loudly rather
                        # than wait forever for ids that will never come
                        raise RemoteError(
                            str(response.get("error", "unknown server error"))
                        )
                    if rid in want:
                        by_id[rid] = response
                        want.discard(rid)
                return [by_id[i] for i in ids]
            except (OSError, EOFError, json.JSONDecodeError) as exc:
                self._teardown()
                last_exc = exc
        raise ServerUnreachableError(
            f"scoring server at {self.host}:{self.port} unreachable after "
            f"{self.max_reconnects + 1} attempts "
            f"({type(last_exc).__name__}: {last_exc})"
        ) from last_exc

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._check(self._roundtrip([payload])[0])

    @staticmethod
    def _check(response: Dict[str, Any]) -> Dict[str, Any]:
        if response.get("ok"):
            return response
        error = str(response.get("error", "unknown server error"))
        if _QUEUE_FULL_MARKER in error:
            raise QueueFullError(error)
        raise RemoteError(error)

    # ------------------------------------------------------------------ #
    # Operations (mirror :class:`~repro.serving.service.ScoringService`)
    # ------------------------------------------------------------------ #

    def ping(self) -> bool:
        """Liveness probe."""
        return bool(self._request({"op": "ping"}).get("pong", False))

    def ingest(self, cascade_id: str, node: int, t: float) -> bool:
        """Report one adoption event; ``False`` for duplicate adopters."""
        response = self._request(
            {"op": "event", "cascade": cascade_id, "node": int(node), "t": float(t)}
        )
        return bool(response["applied"])

    def ingest_many(self, events: Sequence[Tuple[str, int, float]]) -> int:
        """Report a burst of ``(cascade_id, node, t)`` events."""
        burst = [[c, int(n), float(t)] for c, n, t in events]
        response = self._request({"op": "events", "events": burst})
        return int(response["applied"])

    def ingest_columns(
        self,
        cascade_ids: Sequence[str],
        nodes: np.ndarray,
        times: np.ndarray,
    ) -> int:
        """Columnar burst; serialized as one ``events`` op on the wire."""
        burst = [
            [str(c), int(n), float(t)]
            for c, n, t in zip(cascade_ids, nodes, times)
        ]
        response = self._request({"op": "events", "events": burst})
        return int(response["applied"])

    def score(self, cascade_id: str, include_features: bool = False) -> Dict[str, Any]:
        """Score one cascade; returns the server's JSON response."""
        payload: Dict[str, Any] = {"op": "score", "cascade": cascade_id}
        if include_features:
            payload["features"] = True
        return self._request(payload)

    def score_many(
        self, cascade_ids: Sequence[str], include_features: bool = False
    ) -> List[Dict[str, Any]]:
        """Pipeline score requests; responses are matched by id.

        The server resolves them behind the micro-batcher in whatever
        order batches flush — the id matching restores request order.
        """
        requests: List[Dict[str, Any]] = []
        for cid in cascade_ids:
            payload: Dict[str, Any] = {"op": "score", "cascade": cid}
            if include_features:
                payload["features"] = True
            requests.append(payload)
        if not requests:
            return []
        return [self._check(r) for r in self._roundtrip(requests)]

    def score_columns(
        self, cascade_ids: Sequence[str], include_features: bool = False
    ) -> ScoreColumns:
        """Score a batch in one ``score_columns`` request.

        One line out, one line back, one service call on the server —
        no micro-batcher in between.  Every column is bit-identical to
        the server's in-process :meth:`ScoringService.score_columns`.
        """
        response = self._request(
            {
                "op": "score_columns",
                "cascades": [str(c) for c in cascade_ids],
                "features": bool(include_features),
            }
        )
        return ScoreColumns.from_wire(response["columns"])

    def flush(self) -> int:
        """Force a micro-batch flush; returns how many requests flushed."""
        return int(self._request({"op": "flush"})["flushed"])

    def swap(self, path: str) -> Dict[str, Any]:
        """Hot-swap the model from a filesystem artifact."""
        return self._request({"op": "swap", "path": path})

    def stats(self) -> Dict[str, Any]:
        return dict(self._request({"op": "stats"})["stats"])

    def health(self) -> Dict[str, Any]:
        return self._request({"op": "health"})
