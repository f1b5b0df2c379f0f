"""Unit tests for the reconnecting TCP scoring client.

The client's contract: same operation surface as the in-process
:class:`ScoringService`, at-least-once delivery across a server restart
(invisible inside the reconnect budget), a clean
:class:`ServerUnreachableError` past it, and remote "queue full"
rejects mapped onto :class:`QueueFullError` so replay backpressure
handling is transport-agnostic.
"""

import asyncio
import io
import json
import threading

import numpy as np
import pytest

from repro.embedding.model import EmbeddingModel
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving.batching import BatchPolicy, QueueFullError, ScoreColumns
from repro.serving.client import (
    RemoteError,
    ServerUnreachableError,
    TCPScoringClient,
)
from repro.serving.registry import ModelRegistry
from repro.serving.server import ScoringServer, serve_stdio
from repro.serving.service import ScoringService
from repro.serving.sharding import ShardedScoringService

N = 30


def make_model(seed):
    rng = np.random.default_rng(seed)
    return EmbeddingModel(rng.uniform(0, 1, (N, 3)), rng.uniform(0, 1, (N, 3)))


def make_predictor(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 3))
    sizes = np.where(X[:, 0] > 0, 30, 3).astype(np.int64)
    ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple("xyz"))
    return ViralityPredictor(threshold=10, seed=seed).fit(ds)


def make_service(seed=0, max_delay=0.002, predictor=True):
    reg = ModelRegistry()
    fitted = make_predictor(seed) if predictor else None
    reg.publish(make_model(seed), predictor=fitted)
    service = ScoringService(
        reg, policy=BatchPolicy(max_batch=8, max_delay=max_delay)
    )
    service.begin_serving()
    return service


class ServerHarness:
    """A :class:`ScoringServer` on a daemon thread with its own loop.

    The sync client under test needs a live asyncio server it can talk
    to from the test thread; ``stop()`` joins the thread so restarts on
    the same port are deterministic.
    """

    def __init__(self, service, port=0):
        self.service = service
        self.port = port
        self._ready = threading.Event()
        self._loop = None
        self._stop_event = None
        self._thread = None
        self._error = None

    def start(self):
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(10.0):
            raise RuntimeError("server thread did not start")
        if self._error is not None:
            raise self._error
        return self

    def _run(self):
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            server = ScoringServer(self.service, port=self.port)
            try:
                await server.start()
            except Exception as exc:  # pragma: no cover - startup failure
                self._error = exc
                self._ready.set()
                return
            self.port = server.port
            self._ready.set()
            await self._stop_event.wait()
            await server.stop()

        asyncio.run(main())

    def stop(self):
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(10.0)


@pytest.fixture()
def harness():
    h = ServerHarness(make_service()).start()
    yield h
    h.stop()


class TestRoundTrips:
    def test_ping_ingest_score_stats(self, harness):
        with TCPScoringClient("127.0.0.1", harness.port) as client:
            assert client.ping()
            assert client.ingest("c", 3, 0.0) is True
            assert client.ingest("c", 3, 0.5) is False  # duplicate adopter
            assert client.ingest_many([("d", 1, 0.6), ("d", 1, 0.7)]) == 1
            applied = client.ingest_columns(
                ["e", "e"], np.array([2, 4]), np.array([0.8, 0.9])
            )
            assert applied == 2
            response = client.score("c")
            assert response["status"] == "ok" and "score" in response
            stats = client.stats()
            assert stats["tracked_cascades"] == 3
            health = client.health()
            assert health["ready"] is True
            assert client.flush() >= 0

    def test_score_many_matches_in_process_results(self, harness):
        events = [("a", 1, 0.0), ("b", 2, 0.1), ("a", 3, 0.2), ("b", 4, 0.3)]
        reference = make_service()
        reference.ingest_many(events)
        with TCPScoringClient("127.0.0.1", harness.port) as client:
            client.ingest_many(events)
            responses = client.score_many(["a", "b"], include_features=True)
        want = reference.score_columns(["a", "b"], include_features=True)
        assert [r["cascade"] for r in responses] == ["a", "b"]
        got_scores = np.array([r["score"] for r in responses])
        assert np.allclose(got_scores, want.scores)
        got_features = np.array([r["features"] for r in responses])
        assert np.allclose(got_features, want.features)

    def test_pipelined_ids_restore_request_order(self, harness):
        # the micro-batcher resolves out of order; id matching must
        # re-associate each response with its cascade
        cids = [f"c{i}" for i in range(10)]
        with TCPScoringClient("127.0.0.1", harness.port) as client:
            for i, cid in enumerate(cids):
                client.ingest(cid, i % N, 0.01 * i)
            responses = client.score_many(cids)
        assert [r["cascade"] for r in responses] == cids


EVENTS = [("a", 1, 0.0), ("b", 2, 0.1), ("a", 3, 0.2), ("b", 4, 0.3), ("c", 5, 0.4)]
#: known cascades, an unknown one, and a repeat
PROBE = ["a", "ghost", "c", "b", "a"]


def assert_columns_identical(got, want):
    """Every column bit-equal (NaN scores at unknown rows included)."""
    assert isinstance(got, ScoreColumns)
    assert np.array_equal(got.ok, want.ok)
    assert np.array_equal(got.n_early, want.n_early)
    assert got.model_version == want.model_version
    for field in ("scores", "labels", "features"):
        g, w = getattr(got, field), getattr(want, field)
        if w is None:
            assert g is None, field
        else:
            assert g is not None and g.shape == w.shape, field
            assert np.array_equal(g, w, equal_nan=True), field


def in_process(events, probe, features, **kw):
    reference = make_service(**kw)
    reference.ingest_many(events)
    return reference.score_columns(probe, include_features=features)


class TestScoreColumnsWire:
    """``score_columns`` over the wire equals in-process ``score_columns``."""

    @pytest.mark.parametrize("features", [False, True])
    def test_known_and_unknown_cascades(self, harness, features):
        with TCPScoringClient("127.0.0.1", harness.port) as client:
            client.ingest_many(EVENTS)
            got = client.score_columns(PROBE, include_features=features)
        want = in_process(EVENTS, PROBE, features)
        assert want.scores is not None and np.isnan(want.scores[1])
        assert_columns_identical(got, want)

    @pytest.mark.parametrize("features", [False, True])
    def test_snapshot_without_predictor(self, features):
        h = ServerHarness(make_service(predictor=False)).start()
        try:
            with TCPScoringClient("127.0.0.1", h.port) as client:
                client.ingest_many(EVENTS)
                got = client.score_columns(PROBE, include_features=features)
        finally:
            h.stop()
        want = in_process(EVENTS, PROBE, features, predictor=False)
        assert want.scores is None and want.labels is None
        assert_columns_identical(got, want)

    @pytest.mark.parametrize("features", [False, True])
    def test_empty_request(self, harness, features):
        with TCPScoringClient("127.0.0.1", harness.port) as client:
            got = client.score_columns([], include_features=features)
        want = in_process([], [], features)
        assert len(got) == 0
        assert_columns_identical(got, want)

    def test_two_shard_server(self):
        sharded = ShardedScoringService(
            n_shards=2, policy=BatchPolicy(max_batch=8, max_delay=0.002)
        )
        try:
            sharded.publish(make_model(0), predictor=make_predictor(0))
            h = ServerHarness(sharded).start()
            try:
                with TCPScoringClient("127.0.0.1", h.port) as client:
                    client.ingest_many(EVENTS)
                    got = client.score_columns(PROBE, include_features=True)
                want = sharded.score_columns(PROBE, include_features=True)
            finally:
                h.stop()
        finally:
            sharded.close()
        assert_columns_identical(got, want)
        # and the sharded tier agrees with one in-process service
        assert_columns_identical(got, in_process(EVENTS, PROBE, True))

    def test_stdio_front_end(self):
        service = make_service()
        lines = [{"op": "events", "events": [list(e) for e in EVENTS]}]
        lines += [
            {"op": "score_columns", "cascades": PROBE, "features": True, "id": 1}
        ]
        fin = io.StringIO("".join(json.dumps(o) + "\n" for o in lines))
        fout = io.StringIO()
        asyncio.run(serve_stdio(service, stdin=fin, stdout=fout))
        replies = [json.loads(x) for x in fout.getvalue().splitlines()]
        reply = next(r for r in replies if r.get("id") == 1)
        got = ScoreColumns.from_wire(reply["columns"])
        assert_columns_identical(got, in_process(EVENTS, PROBE, True))

    def test_wire_is_strict_json(self, harness):
        with TCPScoringClient("127.0.0.1", harness.port) as client:
            client.ingest_many(EVENTS)
            response = client._request(
                {"op": "score_columns", "cascades": PROBE, "features": True}
            )
        # an unknown cascade's NaN score travels as null, never as NaN
        assert response["columns"]["scores"][1] is None
        json.dumps(response, allow_nan=False)

    @pytest.mark.parametrize(
        "request_",
        [
            {"op": "score_columns", "cascades": "abc"},
            {"op": "score_columns", "cascades": ["a", 3]},
            {"op": "score_columns"},
        ],
        ids=["non-list", "non-string-id", "missing-key"],
    )
    def test_malformed_request_keeps_connection(self, harness, request_):
        with TCPScoringClient("127.0.0.1", harness.port) as client:
            client.ingest_many(EVENTS)
            with pytest.raises(RemoteError):
                client._request(dict(request_))
            # the same connection still answers
            assert client.ping()
            assert client.score_columns(["a"]).ok.tolist() == [True]
            assert client.reconnects == 0


class TestFailureModes:
    def test_unreachable_raises_cleanly(self):
        client = TCPScoringClient(
            "127.0.0.1",
            1,  # reserved port: connection refused
            max_reconnects=2,
            reconnect_backoff=1e-3,
        )
        with pytest.raises(ServerUnreachableError, match="after 3 attempts"):
            client.ping()

    def test_queue_full_reject_maps_to_queue_full_error(self):
        with pytest.raises(QueueFullError):
            TCPScoringClient._check(
                {"ok": False, "error": "pending queue full (8 requests)", "id": 1}
            )

    def test_other_remote_errors_surface_as_remote_error(self):
        with pytest.raises(RemoteError, match="unknown cascade"):
            TCPScoringClient._check(
                {"ok": False, "error": "unknown cascade", "id": 2}
            )

    def test_reconnects_across_a_server_restart(self):
        service = make_service()
        first = ServerHarness(service).start()
        client = TCPScoringClient(
            "127.0.0.1",
            first.port,
            max_reconnects=20,
            reconnect_backoff=0.02,
        )
        try:
            assert client.ingest("c", 3, 0.0) is True
            first.stop()
            second = ServerHarness(service, port=first.port).start()
            try:
                # at-least-once across the restart: the dropped exchange
                # is re-sent on the fresh connection
                assert client.ingest("c", 7, 0.1) is True
                assert client.stats()["tracked_cascades"] == 1
                assert client.reconnects > 0
            finally:
                client.close()
                second.stop()
        finally:
            client.close()
            first.stop()
