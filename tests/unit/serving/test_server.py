"""End-to-end tests for the newline-JSON asyncio front end."""

import asyncio
import io
import json

import numpy as np
import pytest

from repro.embedding.model import EmbeddingModel
from repro.serving.batching import BatchPolicy
from repro.serving.durability import JournalConfig, recover_service
from repro.serving.registry import ModelRegistry
from repro.serving.server import (
    ScoringServer,
    _LineAssembler,
    build_service,
    serve_stdio,
)
from repro.serving.service import ScoringService


def make_model(seed, n=30, k=3):
    rng = np.random.default_rng(seed)
    return EmbeddingModel(rng.uniform(0, 1, (n, k)), rng.uniform(0, 1, (n, k)))


def make_service(max_batch=4, max_delay=0.002):
    reg = ModelRegistry()
    reg.publish(make_model(0))
    return ScoringService(
        reg, policy=BatchPolicy(max_batch=max_batch, max_delay=max_delay)
    )


async def run_session(service, requests):
    """Start a server, send *requests*, return one response per request."""
    server = ScoringServer(service)
    await server.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        for obj in requests:
            writer.write(json.dumps(obj).encode() + b"\n")
        await writer.drain()
        responses = []
        for _ in requests:
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            responses.append(json.loads(line))
        writer.close()
        await writer.wait_closed()
        return responses
    finally:
        await server.stop()


class TestTCPServer:
    def test_ping_and_event(self):
        service = make_service()
        responses = asyncio.run(
            run_session(
                service,
                [
                    {"op": "ping", "id": 1},
                    {"op": "event", "cascade": "c", "node": 3, "t": 0.0},
                    {"op": "event", "cascade": "c", "node": 3, "t": 0.5},
                ],
            )
        )
        assert responses[0] == {"ok": True, "pong": True, "id": 1}
        assert responses[1]["applied"] is True
        assert responses[2]["applied"] is False  # duplicate adopter

    def test_events_burst_op(self):
        service = make_service()
        responses = asyncio.run(
            run_session(
                service,
                [
                    {
                        "op": "events",
                        "events": [["a", 3, 0.0], ["b", 7, 0.1], ["a", 3, 0.2]],
                        "id": 1,
                    },
                    {"op": "stats", "id": 2},
                ],
            )
        )
        by_id = {r["id"]: r for r in responses}
        assert by_id[1] == {"ok": True, "applied": 2, "count": 3, "id": 1}
        assert by_id[2]["stats"]["ingested"] == 2
        assert by_id[2]["stats"]["tracked_cascades"] == 2

    def test_events_burst_invalid_is_atomic(self):
        """A bad event anywhere in the burst rejects the whole burst."""
        service = make_service()
        responses = asyncio.run(
            run_session(
                service,
                [
                    {
                        "op": "events",
                        "events": [["a", 3, 0.0], ["b", 999, 0.1]],
                        "id": 1,
                    },
                    {"op": "stats", "id": 2},
                ],
            )
        )
        by_id = {r["id"]: r for r in responses}
        assert by_id[1]["ok"] is False and "error" in by_id[1]
        assert by_id[2]["stats"]["tracked_cascades"] == 0

    def test_pipelined_scores_coalesce_into_one_batch(self):
        service = make_service(max_batch=4, max_delay=0.5)
        requests = [{"op": "event", "cascade": "c", "node": 3, "t": 0.0}]
        requests += [{"op": "score", "cascade": "c", "id": i} for i in range(4)]
        responses = asyncio.run(run_session(service, requests))
        scores = [r for r in responses if "status" in r]
        assert len(scores) == 4
        # a full batch flushes on the wake signal, not the 500ms timer,
        # and all four land in the same evaluation
        assert all(r["latency_ms"]["batch_size"] == 4 for r in scores)
        assert sorted(r["id"] for r in scores) == [0, 1, 2, 3]

    def test_partial_batch_flushes_on_delay(self):
        service = make_service(max_batch=64, max_delay=0.005)
        responses = asyncio.run(
            run_session(
                service,
                [
                    {"op": "event", "cascade": "c", "node": 3, "t": 0.0},
                    {"op": "score", "cascade": "c", "id": 7},
                ],
            )
        )
        score = next(r for r in responses if "status" in r)
        assert score["status"] == "ok" and score["id"] == 7
        assert score["latency_ms"]["batch_size"] == 1

    def test_unknown_cascade_and_bad_requests(self):
        service = make_service()
        responses = asyncio.run(
            run_session(
                service,
                [
                    {"op": "score", "cascade": "ghost", "id": 1},
                    {"op": "warp", "id": 2},
                    {"op": "event", "cascade": "c"},  # missing node/t
                ],
            )
        )
        by_id = {r.get("id"): r for r in responses}
        assert by_id[1]["status"] == "unknown_cascade"
        assert by_id[2]["ok"] is False and "unknown op" in by_id[2]["error"]
        bad = next(r for r in responses if r.get("id") is None)
        assert bad["ok"] is False

    def test_malformed_json_reported(self):
        async def scenario():
            service = make_service()
            server = ScoringServer(service)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                resp = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                writer.close()
                await writer.wait_closed()
                return resp
            finally:
                await server.stop()

        resp = asyncio.run(scenario())
        assert resp["ok"] is False and "bad json" in resp["error"]

    def test_swap_and_stats_ops(self, tmp_path):
        model2 = make_model(1)
        p = tmp_path / "next.npz"
        model2.save(p)
        service = make_service()
        responses = asyncio.run(
            run_session(
                service,
                [
                    {"op": "event", "cascade": "c", "node": 3, "t": 0.0},
                    {"op": "swap", "path": str(p), "id": 1},
                    {"op": "score", "cascade": "c", "id": 2},
                    {"op": "stats", "id": 3},
                ],
            )
        )
        by_id = {r.get("id"): r for r in responses}
        assert by_id[1]["ok"] is True and by_id[1]["model_version"] == 2
        assert by_id[2]["model_version"] == 2  # scored under the new model
        assert by_id[3]["stats"]["model_version"] == 2

    def test_score_with_features(self):
        service = make_service()
        responses = asyncio.run(
            run_session(
                service,
                [
                    {"op": "event", "cascade": "c", "node": 3, "t": 0.0},
                    {"op": "score", "cascade": "c", "features": True, "id": 1},
                ],
            )
        )
        score = next(r for r in responses if r.get("id") == 1)
        assert len(score["features"]) == 3  # the paper feature set


class TestLineAssembler:
    def test_reassembles_split_lines(self):
        asm = _LineAssembler(64)
        assert asm.feed(b'{"a": 1') == []
        assert asm.feed(b'}\n{"b"') == [(True, b'{"a": 1}')]
        assert asm.feed(b": 2}\n") == [(True, b'{"b": 2}')]

    def test_multiple_lines_per_chunk(self):
        asm = _LineAssembler(64)
        assert asm.feed(b"x\ny\nz\n") == [(True, b"x"), (True, b"y"), (True, b"z")]

    def test_oversized_reported_once_at_bound_crossing(self):
        asm = _LineAssembler(8)
        assert asm.feed(b"A" * 20) == [(False, b"")]  # bound crossed mid-line
        assert asm.feed(b"B" * 20) == []  # same line: discarded silently
        # pipelined bytes behind the newline survive
        assert asm.feed(b"C\nok\n") == [(True, b"ok")]

    def test_oversized_with_newline_in_same_chunk(self):
        asm = _LineAssembler(8)
        assert asm.feed(b"A" * 20 + b"\nok\n") == [(False, b""), (True, b"ok")]

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            _LineAssembler(1)


class TestRobustness:
    def test_oversized_line_keeps_connection_alive(self):
        async def scenario():
            service = make_service()
            server = ScoringServer(service, max_line_bytes=256)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                big = json.dumps({"op": "ping", "pad": "x" * 1024}).encode()
                follow = json.dumps({"op": "ping", "id": 1}).encode()
                writer.write(big + b"\n" + follow + b"\n")
                await writer.drain()
                first = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                second = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                writer.close()
                await writer.wait_closed()
                return first, second, server.oversized
            finally:
                await server.stop()

        error, pong, oversized = asyncio.run(scenario())
        assert error["ok"] is False and "exceeds 256 bytes" in error["error"]
        assert pong == {"ok": True, "pong": True, "id": 1}
        assert oversized == 1

    def test_read_timeout_closes_idle_connection(self):
        async def scenario():
            service = make_service()
            server = ScoringServer(service, read_timeout=0.05)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # active traffic is served...
                writer.write(json.dumps({"op": "ping"}).encode() + b"\n")
                await writer.drain()
                pong = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                # ...then the idle connection is closed by the server
                eof = await asyncio.wait_for(reader.readline(), 5.0)
                writer.close()
                await writer.wait_closed()
                return pong, eof, server.timeouts
            finally:
                await server.stop()

        pong, eof, timeouts = asyncio.run(scenario())
        assert pong["ok"] is True
        assert eof == b""
        assert timeouts == 1

    def test_watchdog_restarts_crashed_flusher(self):
        async def scenario():
            service = make_service(max_delay=0.002)
            deaths = {"left": 2}
            orig = service.journal_tick

            def flaky():
                if deaths["left"]:
                    deaths["left"] -= 1
                    raise RuntimeError("injected flusher death")
                orig()

            service.journal_tick = flaky
            server = ScoringServer(service, restart_backoff=0.005)
            await server.start()
            try:
                await asyncio.sleep(0.15)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    json.dumps({"op": "event", "cascade": "c", "node": 3, "t": 0.0})
                    .encode() + b"\n"
                )
                writer.write(json.dumps({"op": "score", "cascade": "c"}).encode() + b"\n")
                await writer.drain()
                responses = [
                    json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                    for _ in range(2)
                ]
                writer.close()
                await writer.wait_closed()
                return server.task_restarts, service.health, responses
            finally:
                await server.stop()

        restarts, health, responses = asyncio.run(scenario())
        # both injected deaths were fault-logged and restarted...
        assert restarts["flusher"] == 2
        assert sum(f.kind == "task_restart" for f in health.faults()) == 2
        # ...and the recovered flusher still flushes scores
        assert "task:flusher" not in health.reasons()
        score = next(r for r in responses if "status" in r)
        assert score["status"] == "ok"

    def test_watchdog_budget_exhausted_degrades(self):
        async def scenario():
            service = make_service(max_delay=0.002)

            def always_dead():
                raise RuntimeError("dead disk")

            service.journal_tick = always_dead
            server = ScoringServer(
                service, max_task_restarts=2, restart_backoff=0.001
            )
            await server.start()
            try:
                for _ in range(100):
                    if "task:flusher" in service.health.reasons():
                        break
                    await asyncio.sleep(0.01)
                # the rest of the server still answers
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(json.dumps({"op": "health"}).encode() + b"\n")
                await writer.drain()
                health = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                writer.close()
                await writer.wait_closed()
                return service.health, health
            finally:
                await server.stop()

        monitor, health_resp = asyncio.run(scenario())
        assert "task:flusher" in monitor.reasons()
        assert monitor.state() == "degraded"
        assert any(f.kind == "task_dead" for f in monitor.faults())
        assert health_resp["state"] == "degraded"
        assert health_resp["ready"] is True and health_resp["healthy"] is False

    def test_health_op(self):
        service = make_service()
        responses = asyncio.run(run_session(service, [{"op": "health", "id": 1}]))
        health = responses[0]
        assert health["ok"] is True
        assert health["state"] == "serving"
        assert health["ready"] is True and health["healthy"] is True
        assert health["degraded_reasons"] == {}

    def test_drain_flushes_and_seals(self, tmp_path):
        from repro.serving.durability import EventJournal

        async def scenario():
            # flusher timer far out: only drain can complete the score
            service = make_service(max_batch=64, max_delay=5.0)
            service.attach_journal(
                EventJournal(JournalConfig(directory=tmp_path / "wal"))
            )
            server = ScoringServer(service)
            await server.start()
            service.ingest("c", 3, 0.0)
            done = []
            service.submit("c", on_done=done.append)
            await server.drain()
            return service, done

        service, done = asyncio.run(scenario())
        assert service.health.phase == "stopped"
        assert service.journal.closed
        assert done and done[0].status == "ok"

    def test_drain_finishes_when_it_races_a_flusher_wake(self):
        """SIGTERM landing just as the flusher wakes must still drain.

        A flusher parked in ``asyncio.wait_for`` dropped a cancel that
        arrived as its wait completed (bpo-42130, Python <= 3.11), and
        the drain then awaited it forever.
        """

        async def scenario():
            service = make_service(max_batch=4, max_delay=5.0)
            server = ScoringServer(service)
            await server.start()
            await asyncio.sleep(0.05)
            server._wake.set()
            drain = asyncio.ensure_future(server.drain())
            done, _ = await asyncio.wait({drain}, timeout=5.0)
            return service, drain in done

        service, drained = asyncio.run(scenario())
        assert drained, "drain did not finish within 5 s"
        assert service.health.phase == "stopped"

    def test_idle_server_does_not_spin(self):
        """Idle, the flusher wakes only for its journal heartbeat."""

        async def scenario():
            service = make_service(max_delay=0.0)
            calls = {}
            for name in ("due", "journal_tick", "flush"):

                def counted(*args, _fn=getattr(service, name), _name=name, **kw):
                    calls[_name] = calls.get(_name, 0) + 1
                    return _fn(*args, **kw)

                setattr(service, name, counted)
            server = ScoringServer(service)
            await server.start()
            try:
                await asyncio.sleep(0.5)
                return dict(calls)
            finally:
                await server.stop()

        calls = asyncio.run(scenario())
        # a 50 ms heartbeat makes ~10 ticks in 0.5 s; a polling flusher
        # at max_delay=0 made thousands of due/journal_tick calls
        assert sum(calls.values()) <= 20, calls
        assert calls.get("due", 0) == 0 and calls.get("flush", 0) == 0

    def test_stop_aborts_pending_requests(self):
        async def scenario():
            service = make_service(max_batch=64, max_delay=5.0)
            server = ScoringServer(service)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(json.dumps({"op": "score", "cascade": "c", "id": 1}).encode() + b"\n")
            await writer.drain()
            while not service.pending():
                await asyncio.sleep(0.001)
            await server.stop()
            line = await asyncio.wait_for(reader.readline(), 5.0)
            writer.close()
            await writer.wait_closed()
            return json.loads(line), service.stats()

        response, stats = asyncio.run(scenario())
        assert response["status"] == "aborted" and response["ok"] is False
        assert stats["aborted"] == 1


class TestStdioServer:
    def test_stdio_roundtrip(self):
        service = make_service()
        lines = [
            {"op": "event", "cascade": "c", "node": 3, "t": 0.0},
            {"op": "score", "cascade": "c", "id": 1},
            {"op": "stats", "id": 2},
        ]
        fin = io.StringIO("".join(json.dumps(o) + "\n" for o in lines))
        fout = io.StringIO()
        asyncio.run(serve_stdio(service, stdin=fin, stdout=fout))
        responses = [json.loads(x) for x in fout.getvalue().splitlines()]
        assert len(responses) == 3
        by_id = {r.get("id"): r for r in responses}
        assert by_id[1]["status"] == "ok"
        # stats may have run before the deferred score flushed; the
        # ingest, though, is synchronous and must already be counted
        assert by_id[2]["stats"]["ingested"] == 1
        # EOF on stdin is the stdio analog of SIGTERM: graceful drain
        assert service.health.phase == "stopped"

    def test_stdio_eof_drains_empty_stream(self):
        service = make_service()
        fout = io.StringIO()
        asyncio.run(serve_stdio(service, stdin=io.StringIO(""), stdout=fout))
        assert fout.getvalue() == ""
        assert service.health.phase == "stopped"


class TestBuildService:
    def test_from_artifacts(self, tmp_path):
        model = make_model(0)
        mp = tmp_path / "model.npz"
        model.save(mp)
        service = build_service(
            str(mp), max_batch=16, max_delay=0.01, capacity=100, ttl=60.0
        )
        assert service.policy.max_batch == 16
        assert service.store.config.ttl == pytest.approx(60.0)
        assert service.registry.current().predictor is None

    def test_with_predictor(self, tmp_path):
        from repro.prediction.pipeline import PredictionDataset, ViralityPredictor

        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        sizes = np.where(X[:, 0] > 0, 30, 3).astype(np.int64)
        ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple("xyz"))
        pred = ViralityPredictor(threshold=10, seed=0).fit(ds)
        mp, pp = tmp_path / "model.npz", tmp_path / "svm.npz"
        make_model(0).save(mp)
        pred.save(pp)
        service = build_service(str(mp), predictor_path=str(pp))
        service.ingest("c", 3, 0.0)
        result = service.score("c")
        assert result.ok and result.score is not None

    def test_with_journal_is_recoverable(self, tmp_path):
        """A journaled build is recoverable from its first event on —
        the initial publish itself is a journaled swap record."""
        mp = tmp_path / "model.npz"
        make_model(0).save(mp)
        service = build_service(
            str(mp), journal_dir=str(tmp_path / "wal"), fsync="off"
        )
        assert service.health.phase == "serving"
        service.ingest("c", 3, 0.0)
        reference = service.score("c", include_features=True)
        service.drain()
        recovered, report = recover_service(
            JournalConfig(directory=tmp_path / "wal")
        )
        assert report.swaps_replayed == 1
        assert report.events_replayed == 1
        got = recovered.score("c", include_features=True)
        assert got.status == "ok"
        assert np.array_equal(got.features, reference.features)
