"""Unit tests for the shared record codec (``repro.serving.frames``)."""

import io
import struct
import zlib

import numpy as np
import pytest

from repro.serving.frames import (
    CorruptFrameError,
    decode_events,
    encode_events,
    frame,
    header,
    read_frames,
)

MAGIC = b"TEST"


def events_payload(cid_blob, n, body=None):
    """An events payload with a hand-built id blob (may be malformed)."""
    body = bytes(16 * n) if body is None else body
    return struct.pack("<BII", 1, n, len(cid_blob)) + cid_blob + body


def stream(*payloads, magic=MAGIC, version=1):
    return io.BytesIO(header(magic, version) + b"".join(frame(p) for p in payloads))


def read_all(fh, decode=bytes):
    return list(read_frames(fh, MAGIC, 1, decode))


class TestEventsCodec:
    def test_roundtrip(self):
        nodes = np.array([3, -1, 7], dtype=np.int64)
        times = np.array([0.0, 0.5, 2.25])
        cids, got_nodes, got_times = decode_events(
            encode_events(["a", "é", "a"], nodes, times)
        )
        assert cids == ["a", "é", "a"]
        assert np.array_equal(got_nodes, nodes) and got_nodes.dtype == np.int64
        assert np.array_equal(got_times, times) and got_times.dtype == np.float64

    def test_columns_are_coerced_to_wire_dtypes(self):
        payload = encode_events(["x"], [5], [1])
        assert payload == encode_events(
            ["x"], np.array([5], dtype=np.int64), np.array([1.0])
        )

    def test_empty_burst(self):
        cids, nodes, times = decode_events(encode_events([], [], []))
        assert cids == [] and nodes.size == 0 and times.size == 0

    @pytest.mark.parametrize(
        "payload, reason",
        [
            (b"\x01\x00", "shorter than its header"),
            (struct.pack("<BII", 9, 0, 2) + b"[]", "unknown record type 9"),
            (events_payload(b'["a"]', 1, bytes(15)), "expected"),
            (events_payload(b'["a"]', 1, bytes(17)), "expected"),
            (events_payload(b"\xff\xfe", 1), "undecodable cascade-id"),
            (events_payload(b'["a"', 1), "undecodable cascade-id"),
            (events_payload(b'{"a": 1}', 1), "does not match n_events"),
            (events_payload(b'["a", "b"]', 1), "does not match n_events"),
        ],
        ids=["short", "rtype", "short-body", "long-body", "utf8", "json",
             "not-a-list", "count"],
    )
    def test_malformed_payload_is_typed(self, payload, reason):
        with pytest.raises(CorruptFrameError, match=reason) as info:
            decode_events(payload)
        assert info.value.offset is None  # a payload has no file position


class TestReadFrames:
    def test_yields_payloads_in_order(self):
        assert read_all(stream(b"one", b"two", b"three")) == [b"one", b"two", b"three"]

    def test_header_only_is_empty(self):
        assert read_all(stream()) == []

    @pytest.mark.parametrize(
        "blob, reason, offset",
        [
            (b"TES", "truncated header", 0),
            (header(b"NOPE", 1), "bad magic", None),
            (header(MAGIC, 2), "unsupported version 2", None),
        ],
    )
    def test_header_damage(self, blob, reason, offset):
        with pytest.raises(CorruptFrameError, match=reason) as info:
            read_all(io.BytesIO(blob))
        assert info.value.offset == offset

    def test_frame_damage_reports_offset_of_the_damaged_frame(self):
        good = stream(b"one", b"two").getvalue()
        second = 8 + 8 + 3  # header + first frame
        cases = {
            "truncated frame header": good[: second + 5],
            "truncated payload": good[:-1],
            "crc mismatch": good[:-1] + bytes([good[-1] ^ 0xFF]),
            "empty frame": good[:second] + struct.pack("<II", 0, 0),
        }
        for reason, blob in cases.items():
            items = []
            with pytest.raises(CorruptFrameError, match=reason) as info:
                for item in read_frames(io.BytesIO(blob), MAGIC, 1, bytes):
                    items.append(item)
            assert info.value.reason == reason
            assert info.value.offset == second
            assert items == [b"one"]  # everything before the damage is intact

    def test_decode_rejection_is_damage_at_that_frame(self):
        def decode(payload):
            if payload == b"bad":
                raise CorruptFrameError("rejected")
            return payload

        fh = stream(b"ok", b"bad", b"later")
        with pytest.raises(CorruptFrameError, match="rejected at byte 18") as info:
            list(read_frames(fh, MAGIC, 1, decode))
        assert info.value.offset == 8 + 8 + 2

    def test_oversized_length_is_not_read(self):
        blob = header(MAGIC, 1) + struct.pack("<II", 0xFFFFFFFF, 0) + b"tail"
        with pytest.raises(CorruptFrameError, match="truncated payload"):
            read_all(io.BytesIO(blob))

    def test_frame_layout(self):
        payload = b"payload"
        assert frame(payload) == struct.pack("<II", 7, zlib.crc32(payload)) + payload
        assert header(MAGIC, 1) == b"TEST\x01\x00\x00\x00"
