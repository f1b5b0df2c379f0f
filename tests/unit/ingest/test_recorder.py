"""Unit tests for the crc-framed recording format."""

import struct
import zlib

import numpy as np
import pytest

from repro.ingest.recorder import (
    RecordingCorruptError,
    RecordingError,
    StreamWriter,
    iter_batches,
    record_source,
    stream_info,
)
from repro.ingest.sources import EventBatch


def make_batches(n=4, events_per=5):
    rng = np.random.default_rng(0)
    out = []
    t = 0.0
    for i in range(n):
        times = np.sort(t + rng.uniform(0, 1, events_per))
        out.append(
            EventBatch(
                [f"c{j % 3}" for j in range(events_per)],
                rng.integers(0, 50, events_per),
                times,
            )
        )
        t = float(times[-1])
    return out


def write_all(path, batches):
    with StreamWriter(path) as w:
        for b in batches:
            w.write_batch(b)
    return w


class TestRoundTrip:
    def test_batches_come_back_bit_identical(self, tmp_path):
        batches = make_batches()
        path = tmp_path / "s.evs"
        w = write_all(path, batches)
        assert w.n_records == len(batches)
        assert w.n_events == sum(len(b) for b in batches)
        got = list(iter_batches(path))
        assert got == batches
        for g, b in zip(got, batches):
            assert g.nodes.dtype == np.int64 and g.times.dtype == np.float64

    def test_write_columns_convenience(self, tmp_path):
        path = tmp_path / "s.evs"
        with StreamWriter(path) as w:
            w.write_columns(["a", "b"], [1, 2], [0.1, 0.2])
        (got,) = iter_batches(path)
        assert got == EventBatch(["a", "b"], [1, 2], [0.1, 0.2])

    def test_empty_batches_are_skipped(self, tmp_path):
        path = tmp_path / "s.evs"
        with StreamWriter(path) as w:
            w.write_batch(EventBatch([], [], []))
            w.write_columns(["a"], [1], [0.5])
        assert w.n_records == 1

    def test_stream_info_summarises(self, tmp_path):
        batches = make_batches()
        path = tmp_path / "s.evs"
        write_all(path, batches)
        info = stream_info(path)
        assert info.n_records == len(batches)
        assert info.n_events == sum(len(b) for b in batches)
        assert info.n_cascades == 3
        assert info.t_first == batches[0].t_first
        assert info.t_last == batches[-1].t_last
        assert info.duration_s == pytest.approx(info.t_last - info.t_first)
        assert info.to_dict()["n_events"] == info.n_events

    def test_empty_recording(self, tmp_path):
        path = tmp_path / "s.evs"
        write_all(path, [])
        assert list(iter_batches(path)) == []
        info = stream_info(path)
        assert info.n_events == 0 and info.duration_s == 0.0

    def test_record_source_drains_async_source(self, tmp_path):
        batches = make_batches()

        class ListSource:
            async def __aiter__(self):
                for b in batches:
                    yield b

        seen = []
        path = tmp_path / "s.evs"
        info = record_source(
            ListSource(), path, progress=lambda r, e: seen.append((r, e))
        )
        assert info.n_records == len(batches)
        assert seen[-1] == (info.n_records, info.n_events)
        assert list(iter_batches(path)) == batches


class TestStreamContract:
    def test_rejects_out_of_order_batches(self, tmp_path):
        path = tmp_path / "s.evs"
        with StreamWriter(path) as w:
            w.write_columns(["a"], [1], [5.0])
            with pytest.raises(RecordingError, match="out-of-order"):
                w.write_columns(["b"], [2], [1.0])

    def test_closed_writer_refuses_writes(self, tmp_path):
        w = StreamWriter(tmp_path / "s.evs")
        w.close()
        with pytest.raises(RecordingError, match="closed"):
            w.write_columns(["a"], [1], [0.0])


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.evs"
        path.write_bytes(b"NOPE" + b"\x00" * 4)
        with pytest.raises(RecordingCorruptError, match="bad magic"):
            list(iter_batches(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "s.evs"
        path.write_bytes(struct.pack("<4sHH", b"REVS", 99, 0))
        with pytest.raises(RecordingCorruptError, match="version"):
            list(iter_batches(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "s.evs"
        path.write_bytes(b"REV")
        with pytest.raises(RecordingCorruptError, match="truncated header"):
            list(iter_batches(path))

    def test_flipped_payload_byte_fails_crc(self, tmp_path):
        path = tmp_path / "s.evs"
        write_all(path, make_batches(2))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(RecordingCorruptError, match="crc mismatch"):
            list(iter_batches(path))

    def test_truncated_tail_is_an_error_not_a_repair(self, tmp_path):
        # unlike the serving journal, a recording is an offline corpus:
        # a torn tail means the artifact is bad, not that a crash needs
        # absorbing — fail loudly
        path = tmp_path / "s.evs"
        write_all(path, make_batches(2))
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(RecordingCorruptError, match="truncated payload"):
            list(iter_batches(path))

    def test_truncated_frame_header(self, tmp_path):
        path = tmp_path / "s.evs"
        write_all(path, make_batches(1))
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x01\x02")
        with pytest.raises(RecordingCorruptError, match="truncated frame"):
            list(iter_batches(path))


def crc_valid_frame(payload):
    """A frame whose crc matches *payload*, whatever the payload holds."""
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def events_payload(cid_blob, nodes, times):
    """An events payload with a hand-built id blob (may be malformed)."""
    nodes = np.asarray(nodes, dtype=np.int64)
    times = np.asarray(times, dtype=np.float64)
    head = struct.pack("<BII", 1, len(nodes), len(cid_blob))
    return head + cid_blob + nodes.tobytes() + times.tobytes()


class TestMalformedPayload:
    """A crc-valid frame can still hold a malformed payload; the reader
    must type it as corruption rather than leak a decoder exception."""

    @pytest.mark.parametrize(
        "payload",
        [
            events_payload(b"\xff\xfe\xfd", [1], [0.5]),  # not UTF-8
            events_payload(b'["a"', [1], [0.5]),  # not JSON
            events_payload(b'["a", "b"]', [1, 2], [2.0, 1.0]),  # times unordered
            events_payload(b'["a"]', [1], [float("nan")]),  # time not finite
        ],
        ids=["utf8", "json", "unordered", "nan"],
    )
    def test_malformed_frame_raises_corrupt(self, tmp_path, payload):
        path = tmp_path / "s.evs"
        write_all(path, make_batches(2))
        with path.open("ab") as fh:
            fh.write(crc_valid_frame(payload))
        with pytest.raises(RecordingCorruptError):
            list(iter_batches(path))
