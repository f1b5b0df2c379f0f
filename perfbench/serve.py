"""Workload ``tcp-sharded``: the serve path end to end.

The system is ``repro serve --shards 2 --journal-dir <tmp>`` in a
subprocess, driven over one :class:`TCPScoringClient` connection.  A
round is two replays of the workload's recording through
:class:`repro.ingest.ReplayEngine`, each into a freshly started server:

* a closed-loop pass, flat out (``speed=None``), whose wall time gives
  the capacity in events per second;
* an open-loop pass paced at a fixed mean event rate with ``burst_s=0``.
  Every burst is timed from its *due time* — the replay start plus its
  offset in the recording divided by the speed — until its events are
  folded and, on a scoring burst, its cascades scored.  Due times do not
  move when the system falls behind, so a stall shows in every burst
  behind it.

The system's final state after each pass is checked against a direct
in-process ``ingest_columns`` of the same recording: every cascade's
score and features must be bit-equal.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import (
    OUT_DIR,
    ROOT,
    Outcome,
    check_no_leaks,
    children_of,
    keep_best,
    latency_metrics,
    planned_rounds,
    median,
    peak_rss_mb,
    percentile,
    shm_segments,
)
from inputs import PARAMS, input_dir, prepare
from tracing import Tracer

clock = time.perf_counter
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 10.0
#: budgeted wall time of one round (about 17 s on the 2-core machine the
#: benchmark was tuned on); 50 s runs make three rounds
NOMINAL_ROUND_S = 17.0

WORKLOAD = "tcp-sharded"

PER_LAYER = [
    "ingest.decode_eps", "ingest.gen_late_p95_ms", "ingest.stalls",
    "ingest.retries", "ingest.dropped_events", "serving.ingest_busy_s",
    "serving.fold_s", "serving.ingest_calls", "serving.cascades_per_call",
    "serving.events_per_cascade", "serving.queue_wait_p95_ms",
    "serving.score_busy_s", "serving.flush_batches", "serving.batch_mean",
    "serving.tracked_cascades", "client.ingest_rtt_p50_ms",
    "client.score_rtt_p50_ms", "client.wire_bytes_per_event",
    "sharding.skew", "durability.bytes_written", "durability.fsyncs",
    "durability.records", "depth.inproc_s", "depth.sharded_s",
    "depth.tcp_s", "depth.tcp_sharded_s", "trace.overhead_share",
]


# --------------------------------------------------------------------- #
# Replay instrumentation (all from outside the program)
# --------------------------------------------------------------------- #


class AnchorClock:
    """The replay engine's clock; its first reading anchors due times.

    The engine first reads its clock when the first burst arrives, just
    before its token bucket starts, so that reading is the replay start.
    """

    def __init__(self) -> None:
        self.anchor: Optional[float] = None

    def __call__(self) -> float:
        now = clock()
        if self.anchor is None:
            self.anchor = now
        return now


class TimedSource:
    """A recording source that notes when the replay producer asks for
    each next burst.  The producer asks right after it released the
    previous one, so request *i + 1* is the release time of burst *i*."""

    def __init__(self, path: Path) -> None:
        from repro.ingest import RecordedSource

        self.inner = RecordedSource(path)
        self.requests: List[float] = []

    async def __aiter__(self):
        it = self.inner.__aiter__()
        while True:
            self.requests.append(clock())
            try:
                item = await it.__anext__()
            except StopAsyncIteration:
                return
            yield item


class Probe:
    """Stands in for the replay target: forwards every call and records
    when it started and ended, per burst."""

    def __init__(self, target: Any, tracer: Tracer, layer: str) -> None:
        self.target = target
        self.tracer = tracer
        self.layer = layer
        self.wants_executor_offload = bool(
            getattr(target, "wants_executor_offload", False)
        )
        self.ingests: List[Tuple[float, float]] = []
        self.scores: Dict[int, Tuple[float, float]] = {}
        #: the replay span; executor-thread calls are adopted under it
        self.parent: Optional[int] = None
        # mirror the target's scoring entry point, as the engine probes it
        if hasattr(target, "score_columns"):
            self.score_columns = self._scorer(target.score_columns)
        else:
            self.score_many = self._scorer(target.score_many)

    def release(self) -> None:
        """Drop the target once the pass is over (timings stay)."""
        self.target = None
        self.__dict__.pop("score_columns", None)
        self.__dict__.pop("score_many", None)

    def ingest_columns(self, cids: Sequence[str], nodes: Any, times: Any) -> Any:
        burst = len(self.ingests)
        t0 = clock()
        with self.tracer.span(f"{self.layer}:ingest", burst=burst,
                              parent=self.parent):
            applied = self.target.ingest_columns(cids, nodes, times)
        self.ingests.append((t0, clock()))
        return applied

    def _scorer(self, fn: Any) -> Any:
        def score(cids: Sequence[str], *args: Any) -> Any:
            burst = len(self.ingests) - 1
            t0 = clock()
            with self.tracer.span(f"{self.layer}:score", burst=burst,
                                  parent=self.parent):
                result = fn(cids, *args)
            self.scores[burst] = (t0, clock())
            return result

        return score


class Pass:
    """One replay of the recording; what it measured."""

    def __init__(self, probe: Probe, source: TimedSource, report: Any,
                 wall: float, anchor: Optional[float]) -> None:
        self.probe = probe
        self.source = source
        self.report = report
        self.wall = wall
        self.anchor = anchor


def replay_pass(rec: Path, target: Any, speed: Optional[float],
                score_every: int, tracer: Tracer, layer: str) -> Pass:
    from repro.ingest import ReplayConfig, ReplayEngine

    probe = Probe(target, tracer, layer)
    source = TimedSource(rec)
    anchor = AnchorClock()
    engine = ReplayEngine(
        probe,
        ReplayConfig(speed=speed, burst_s=0.0, score_every=score_every),
        clock=anchor,
    )
    t0 = clock()
    try:
        with tracer.span("ingest:replay", speed=speed or 0) as sid:
            probe.parent = sid
            report = asyncio.run(engine.run(source))
        wall = clock() - t0
    finally:
        probe.release()
    return Pass(probe, source, report, wall, anchor.anchor)


def due_latencies_ms(p: Pass, due_offsets: Sequence[float]) -> List[float]:
    """Per-burst latency from its due time until its work ended: its
    score call on a scoring burst, else its ingest."""
    return [
        (p.probe.scores.get(i, span)[1] - (p.anchor + offset)) * 1e3
        for i, (span, offset) in enumerate(zip(p.probe.ingests, due_offsets))
    ]


# --------------------------------------------------------------------- #
# Inputs and the reference
# --------------------------------------------------------------------- #


class Recording:
    """A workload's recording, model files and pacing, read from the
    input directory."""

    def __init__(self, workload: str, seed: int) -> None:
        from repro.ingest import iter_batches

        self.params = PARAMS[workload]
        d = input_dir(workload, seed)
        self.path = d / "recording.evs"
        self.model = d / "model.npz"
        self.predictor = d / "predictor.npz"
        self.batches = list(iter_batches(self.path))
        self.n_events = sum(len(b) for b in self.batches)
        t_first = self.batches[0].t_first
        span = self.batches[-1].t_last - t_first
        self.speed = self.params["rate_eps"] * span / self.n_events
        self.due_offsets = [(b.t_last - t_first) / self.speed for b in self.batches]
        self.cids = sorted({c for b in self.batches for c in b.cascade_ids})
        per_burst = [len(set(b.cascade_ids)) for b in self.batches]
        self.cascades_per_burst = float(np.mean(per_burst))
        self.events_per_cascade = self.n_events / float(sum(per_burst))

    def build(self, journal_dir: Optional[Path] = None) -> Any:
        from repro.serving.server import build_service

        return build_service(
            str(self.model),
            predictor_path=str(self.predictor),
            max_batch=self.params["max_batch"],
            max_delay=0.0,
            journal_dir=str(journal_dir) if journal_dir else None,
        )


    def wire_bytes_per_event(self) -> float:
        """Bytes of the newline-JSON requests a TCP replay sends, per
        event, re-serialized here the way the client serializes them
        (ingest bursts plus the score requests of every scoring burst)."""
        total = 0
        every = self.params["score_every"]
        for i, b in enumerate(self.batches):
            burst = [[str(c), int(n), float(t)]
                     for c, n, t in zip(b.cascade_ids, b.nodes, b.times)]
            total += len(json.dumps({"op": "events", "events": burst,
                                     "id": i}).encode()) + 1
            if (i + 1) % every == 0:
                for c in dict.fromkeys(b.cascade_ids):
                    total += len(json.dumps({"op": "score", "cascade": c,
                                             "id": i}).encode()) + 1
        return total / self.n_events


def compute_reference(workload: str, seed: int) -> Dict[str, np.ndarray]:
    """Scores and features after a direct in-process columnar ingest."""
    rec = Recording(workload, seed)
    ref = rec.build()
    for b in rec.batches:
        ref.ingest_columns(list(b.cascade_ids), b.nodes, b.times)
    cols = ref.score_columns(rec.cids, include_features=True)
    return {"scores": cols.scores, "features": cols.features}


def check_state(out: Outcome, what: str, scores: np.ndarray,
                features: np.ndarray, ref: Tuple[np.ndarray, np.ndarray]) -> None:
    out.check(f"{what}_scores_equal_direct", np.array_equal(scores, ref[0]))
    out.check(f"{what}_features_equal_direct", np.array_equal(features, ref[1]))


def check_inprocess(out: Outcome, what: str, svc: Any, rec: Recording,
                    ref: Tuple[np.ndarray, np.ndarray]) -> None:
    cols = svc.score_columns(rec.cids, include_features=True)
    check_state(out, what, cols.scores, cols.features, ref)


def check_remote(out: Outcome, what: str, client: Any, rec: Recording,
                 ref: Tuple[np.ndarray, np.ndarray]) -> None:
    rows = client.score_many(rec.cids, include_features=True)
    scores = np.array([r.get("score", np.nan) for r in rows], dtype=np.float64)
    features = np.array([r.get("features", []) for r in rows], dtype=np.float64)
    check_state(out, what, scores, features, ref)


def count_pass(out: Outcome, p: Pass, rec: Recording) -> None:
    """Attempted/failed accounting: every burst and score call is an
    operation; a shed burst, a burst that never landed or a retried-out
    call is a failure."""
    r = p.report
    n_bursts = len(rec.batches)
    out.attempted += n_bursts + len(p.probe.scores)
    out.failed += r.dropped_bursts + max(0, n_bursts - len(p.probe.ingests))


# --------------------------------------------------------------------- #
# The TCP system: `repro serve --shards N --journal-dir <tmp>`
# --------------------------------------------------------------------- #


class Server:
    """A `repro serve` subprocess, ready once it answers a ``ping``."""

    def __init__(self, rec: Recording, shards: int) -> None:
        from repro.serving.client import TCPScoringClient

        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.journal = Path(tempfile.mkdtemp(prefix="journal-", dir=OUT_DIR))
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--model", str(rec.model), "--predictor", str(rec.predictor),
            "--host", "127.0.0.1", "--port", "0",
            "--shards", str(shards),
            "--journal-dir", str(self.journal),
            "--fsync", rec.params.get("fsync", "interval"),
            "--max-batch", str(rec.params["max_batch"]), "--max-delay", "0",
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        t0 = clock()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.log: List[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            port = self._wait_port()
            self.client = TCPScoringClient("127.0.0.1", port)
            if not self.client.ping():
                raise RuntimeError("server did not answer ping")
        except BaseException:
            self.stop()
            raise
        self.setup_s = clock() - t0
        self.pids = [self.proc.pid] + children_of(self.proc.pid)
        #: SIGTERM did not end the server in time and it was killed
        self.killed = False

    def _drain(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.lines.put(line)
        self.lines.put(None)

    def _wait_port(self) -> int:
        deadline = clock() + SERVER_START_TIMEOUT_S
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - clock()))
            except queue.Empty:
                raise RuntimeError("server did not start in time") from None
            if line is None:
                raise RuntimeError("server exited: " + "".join(self.log[-5:]))
            self.log.append(line)
            if line.startswith("listening on "):
                return int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pids)

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait, then remove the journal."""
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.killed = True
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        if self.proc.stderr is not None:
            self.proc.stderr.close()
        shutil.rmtree(self.journal, ignore_errors=True)


# --------------------------------------------------------------------- #
# The workload
# --------------------------------------------------------------------- #


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.ingest import recorder

    out = Outcome(WORKLOAD)
    shm_before = shm_segments()
    t0 = clock()
    ref_path = prepare(WORKLOAD, seed)
    out.notes["prepare_s"] = clock() - t0
    rec = Recording(WORKLOAD, seed)
    with np.load(ref_path) as arrays:
        ref = arrays["scores"], arrays["features"]
    every = rec.params["score_every"]
    tracer = Tracer(trace)
    pids: List[int] = []
    dirs: List[Path] = []
    setups: List[float] = []
    rss: List[float] = []
    stops: List[float] = []
    kills: List[bool] = []

    def start() -> Server:
        server = Server(rec, rec.params["shards"])
        pids.extend(server.pids)
        dirs.append(server.journal)
        setups.append(server.setup_s)
        return server

    def stop(server: Server) -> None:
        rss.append(server.peak_rss_mb())
        t0 = clock()
        server.stop()
        stops.append(clock() - t0)
        kills.append(server.killed)

    capacity: Dict[bool, List[float]] = {False: [], True: []}
    lat: Dict[int, float] = {}
    traced_passes: List[Tuple[Pass, Pass, Dict[str, Any]]] = []
    for r in range(planned_rounds(seconds, NOMINAL_ROUND_S)):
        traced = trace and r % 2 == 1
        t = tracer if traced else Tracer(False)
        if traced:
            _wrap_decode(tracer, recorder)
        try:
            with t.span("bench:round"):
                server = start()
                try:
                    with t.span("bench:flat"):
                        flat = replay_pass(rec.path, server.client, None,
                                           every, t, "client")
                    check_remote(out, "flat", server.client, rec, ref)
                    stats = server.client.stats()
                finally:
                    stop(server)
                server = start()
                try:
                    paced = replay_pass(rec.path, server.client, rec.speed,
                                        every, t, "client")
                    check_remote(out, "paced", server.client, rec, ref)
                finally:
                    stop(server)
        finally:
            tracer.restore()
        count_pass(out, flat, rec)
        count_pass(out, paced, rec)
        capacity[traced].append(rec.n_events / flat.wall)
        if traced == trace:
            for i, ms in enumerate(due_latencies_ms(paced, rec.due_offsets)):
                keep_best(lat, i, ms)
        if traced:
            traced_passes.append((flat, paced, stats))

    if trace:
        _depth_ledger(out, rec, ref, tracer, pids, dirs, traced_passes[-1][0])
    check_no_leaks(out, shm_before, pids, dirs)

    out.put("setup_s", median(setups))
    # the best flat-out pass, for the reason given in common.latency_metrics
    out.put("capacity_eps", max(capacity[trace]))
    latency_metrics(out, lat)
    out.put("peak_rss_mb", max(rss))
    out.notes.update(
        rounds=len(capacity[trace]),
        pass_eps=[round(c) for c in capacity[trace]],
        server_stop_s=[round(x, 3) for x in stops],
        server_kills=sum(kills),
        events=rec.n_events,
        bursts=len(rec.batches),
        rate_eps=rec.params["rate_eps"],
        speed=rec.speed,
    )
    if trace:
        _serve_layers(out, rec, tracer, traced_passes, capacity)
        out.tracer, out.root = tracer, "bench:flat"
    return out


def _wrap_decode(tracer: Tracer, recorder: Any) -> None:
    """Span each frame decode of ``iter_batches`` (runs in the executor)."""
    original = recorder.iter_batches

    def iter_batches(path):
        it = original(path)
        while True:
            with tracer.span("ingest:decode"):
                batch = next(it, None)
            if batch is None:
                return
            tracer.count("ingest.decoded_events", len(batch))
            yield batch

    tracer.patch(recorder, "iter_batches", iter_batches)


def _serve_layers(out: Outcome, rec: Recording, tracer: Tracer,
                  passes: List[Tuple[Pass, Pass, Dict[str, Any]]],
                  capacity: Dict[bool, List[float]]) -> None:
    """Per-layer figures of the last traced round (the serving busy
    times come from the depth ledger's in-process pass)."""
    flat, paced, stats = passes[-1]
    decode_s = sum(tracer.durations("ingest:decode"))
    decoded = tracer.counters.get("ingest.decoded_events", 0)
    out.put("ingest.decode_eps", decoded / decode_s, "ev/s")
    late, wait = [], []
    req = paced.source.requests
    for i, offset in enumerate(rec.due_offsets):
        due = paced.anchor + offset
        released = req[i + 1]
        late.append(max(0.0, released - due) * 1e3)
        wait.append(max(0.0, paced.probe.ingests[i][0] - max(due, released)) * 1e3)
    out.put("ingest.gen_late_p95_ms", percentile(late, 95.0), "ms")
    for name in ("stalls", "retries", "dropped_events"):
        out.put(f"ingest.{name}",
                getattr(flat.report, name) + getattr(paced.report, name),
                "count")
    out.put("serving.ingest_calls", len(flat.probe.ingests), "count")
    out.put("serving.cascades_per_call", rec.cascades_per_burst, "count")
    out.put("serving.events_per_cascade", rec.events_per_cascade, "count")
    out.put("serving.queue_wait_p95_ms", percentile(wait, 95.0), "ms")
    out.put("serving.flush_batches", stats["batches"], "count")
    out.put("serving.batch_mean", stats["scored"] / max(1, stats["batches"]),
            "count")
    out.put("serving.tracked_cascades", stats["tracked_cascades"], "count")
    out.put("trace.overhead_share",
            median(capacity[False]) / median(capacity[True]) - 1.0, "ratio")

    ingest = [(b - a) * 1e3 for a, b in paced.probe.ingests]
    score = [(b - a) * 1e3 for a, b in paced.probe.scores.values()]
    out.put("client.ingest_rtt_p50_ms", percentile(ingest, 50.0), "ms")
    out.put("client.score_rtt_p50_ms", percentile(score, 50.0), "ms")
    out.put("client.wire_bytes_per_event", rec.wire_bytes_per_event(), "B")
    shards = stats["shards"]
    per_shard = [float(s["ingested"]) for s in shards]
    out.put("sharding.skew", max(per_shard) / (sum(per_shard) / len(per_shard)),
            "ratio")
    journals = [s["journal"] for s in shards]
    out.put("durability.bytes_written",
            sum(j["bytes_written"] for j in journals), "B")
    out.put("durability.fsyncs", sum(j["fsyncs"] for j in journals), "count")
    out.put("durability.records", sum(j["records"] for j in journals), "count")


def _depth_ledger(out: Outcome, rec: Recording, ref: Any, tracer: Tracer,
                  pids: List[int], dirs: List[Path], tcp_sharded: Pass) -> None:
    """The same recording, flat out, at four depths of the serve path.

    wire = tcp - inproc and router = sharded - inproc; every depth
    journals with the same fsync policy, so the differences isolate the
    JSON wire and the shard router.  The in-process pass is traced down
    to the feature store's fold: it gives the serving layer's busy times.
    """
    from repro.serving.sharding import build_sharded_service

    every = rec.params["score_every"]
    quiet = Tracer(False)

    journal = Path(tempfile.mkdtemp(prefix="journal-", dir=OUT_DIR))
    dirs.append(journal)
    svc = rec.build(journal)
    tracer.wrap(svc.store, "ingest_columns", "serving.tracker:fold")
    try:
        inproc = replay_pass(rec.path, svc, None, every, tracer, "serving")
        check_inprocess(out, "depth_inproc", svc, rec, ref)
    finally:
        tracer.restore()
        svc.seal_journal()
        shutil.rmtree(journal, ignore_errors=True)
    out.put("serving.ingest_busy_s",
            sum(b - a for a, b in inproc.probe.ingests), "s")
    out.put("serving.score_busy_s",
            sum(b - a for a, b in inproc.probe.scores.values()), "s")
    out.put("serving.fold_s", tracer.total("serving.tracker:fold"), "s")

    journal = Path(tempfile.mkdtemp(prefix="journal-", dir=OUT_DIR))
    dirs.append(journal)
    sharded_svc = build_sharded_service(
        str(rec.model), n_shards=rec.params["shards"],
        predictor_path=str(rec.predictor), max_batch=rec.params["max_batch"],
        max_delay=0.0, journal_dir=str(journal), fsync=rec.params["fsync"],
    )
    pids.extend(children_of(os.getpid()))
    try:
        sharded = replay_pass(rec.path, sharded_svc, None, every, quiet,
                              "serving")
        check_inprocess(out, "depth_sharded", sharded_svc, rec, ref)
    finally:
        sharded_svc.close()
        shutil.rmtree(journal, ignore_errors=True)

    server = Server(rec, 1)
    pids.extend(server.pids)
    dirs.append(server.journal)
    try:
        tcp = replay_pass(rec.path, server.client, None, every, quiet, "client")
        check_remote(out, "depth_tcp", server.client, rec, ref)
    finally:
        server.stop()

    for name, p in (("inproc", inproc), ("sharded", sharded), ("tcp", tcp),
                    ("tcp_sharded", tcp_sharded)):
        out.put(f"depth.{name}_s", p.wall, "s")
    out.notes["depth"] = {
        "wire_s": tcp.wall - inproc.wall,
        "router_s": sharded.wall - inproc.wall,
    }
