"""Byte-level fuzzing of the one frame reader behind recordings and journals.

Recordings (``iter_batches``) and journal segments (``scan_journal``)
decode through the same :func:`repro.serving.frames.read_frames`.  Three
input families drive both callers:

- arbitrary bytes;
- valid files with byte flips or truncations;
- frames whose crc is valid but whose payload is random.

Whatever the bytes, a recording yields a prefix of its true batches and
then either ends or raises :class:`RecordingCorruptError`; a journal scan
returns a prefix of its true records (marking any torn tail at a frame
boundary of the final segment) or raises :class:`JournalCorruptError`.
No other exception may escape.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding.model import EmbeddingModel
from repro.ingest.recorder import RecordingCorruptError, StreamWriter, iter_batches
from repro.ingest.sources import EventBatch
from repro.serving.durability import (
    EventJournal,
    EventsRecord,
    JournalConfig,
    JournalCorruptError,
    scan_journal,
)
from repro.serving.frames import frame
from repro.serving.registry import ModelRegistry

HEADER_SIZE = 8


def _batches():
    rng = np.random.default_rng(11)
    out, t = [], 0.0
    for size in (3, 1, 4):
        times = t + np.cumsum(rng.uniform(0.0, 1.0, size))
        cids = [f"c{i % 2}é" for i in range(size)]
        out.append(EventBatch(cids, rng.integers(-5, 50, size), times))
        t = float(times[-1])
    return out


BATCHES = _batches()


def _build_files():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        with StreamWriter(root / "s.evs") as writer:
            for batch in BATCHES:
                writer.write_batch(batch)
        journal = EventJournal(JournalConfig(directory=root / "wal", fsync="off"))
        snapshot = ModelRegistry().publish(
            EmbeddingModel(np.ones((6, 2)), np.full((6, 2), 0.5)), source="fuzz"
        )
        journal.append_swap(snapshot)
        for batch in BATCHES:
            journal.append_events(batch.cascade_ids, batch.nodes, batch.times)
        journal.seal()
        return (root / "s.evs").read_bytes(), (root / "wal" / "wal-00000001.log").read_bytes()


RECORDING, SEGMENT = _build_files()


def frame_starts(blob):
    """Offset of every frame in a valid file, plus the file size."""
    starts, off = [], HEADER_SIZE
    while off < len(blob):
        starts.append(off)
        (length,) = struct.unpack_from("<I", blob, off)
        off += 8 + length
    return starts + [len(blob)]


def payloads(blob):
    return [blob[a + 8 : b] for a, b in zip(frame_starts(blob), frame_starts(blob)[1:])]


def record_key(record):
    if isinstance(record, EventsRecord):
        return ("events", record.cascade_ids, record.nodes.tobytes(), record.times.tobytes())
    return ("swap", record.source, record.fingerprint)


def read_recording(blob):
    """``(batches yielded, error or None)`` for a recording holding *blob*."""
    got = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.evs"
        path.write_bytes(blob)
        try:
            for batch in iter_batches(path):
                got.append(batch)
        except RecordingCorruptError as exc:
            return got, exc
    return got, None


def scan_segments(blobs):
    """Scan a journal directory whose segments hold *blobs*, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        for seq, blob in enumerate(blobs, start=1):
            (Path(tmp) / f"wal-{seq:08d}.log").write_bytes(blob)
        return scan_journal(tmp)


TRUE_RECORDS = [record_key(r) for r in scan_segments([SEGMENT]).records]


def flip(blob, flips):
    out = bytearray(blob)
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out)


flips_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**16), st.integers(min_value=1, max_value=255)),
    min_size=1,
    max_size=4,
)


@st.composite
def crc_valid_payloads(draw):
    """Random payloads, often shaped like an events or swap record."""
    kind = draw(st.sampled_from(["raw", "events", "swap"]))
    if kind == "raw":
        return draw(st.binary(min_size=1, max_size=64))
    if kind == "swap":
        return b"\x02" + draw(st.binary(max_size=64))
    n = draw(st.integers(min_value=0, max_value=3))
    cid_blob = draw(
        st.one_of(
            st.binary(max_size=16),
            st.lists(st.text(max_size=3), min_size=n, max_size=n).map(
                lambda ids: repr(ids).replace("'", '"').encode("utf-8")
            ),
        )
    )
    body = draw(st.one_of(st.binary(min_size=16 * n, max_size=16 * n), st.binary(max_size=48)))
    return struct.pack("<BII", 1, n, len(cid_blob)) + cid_blob + body


class TestRecordingFuzz:
    @given(st.binary(max_size=256))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes(self, blob):
        read_recording(blob)  # any exception but RecordingCorruptError fails

    @given(flips_strategy)
    @settings(max_examples=150, deadline=None)
    def test_byte_flips(self, flips):
        got, err = read_recording(flip(RECORDING, flips))
        assert got == BATCHES[: len(got)]
        if err is None:  # only the reserved header word is unchecked
            assert got == BATCHES

    @given(st.integers(min_value=0, max_value=len(RECORDING) - 1))
    @settings(max_examples=100, deadline=None)
    def test_truncations(self, cut):
        got, err = read_recording(RECORDING[:cut])
        assert got == BATCHES[: len(got)]
        starts = frame_starts(RECORDING)
        if err is None:  # a cut on a frame boundary is indistinguishable from a shorter file
            assert cut == starts[len(got)]

    @given(st.integers(min_value=0, max_value=len(BATCHES)), crc_valid_payloads())
    @settings(max_examples=150, deadline=None)
    def test_crc_valid_random_payload(self, k, payload):
        frames = [frame(p) for p in payloads(RECORDING)]
        blob = RECORDING[:HEADER_SIZE] + b"".join(frames[:k] + [frame(payload)] + frames[k:])
        got, err = read_recording(blob)
        if err is not None:
            assert got == BATCHES[:k]
            assert f"at byte {frame_starts(blob)[k]}" in str(err)
        else:  # the random payload happened to be a well-formed batch
            assert got[:k] + got[k + 1 :] == BATCHES


class TestJournalFuzz:
    @given(st.binary(max_size=256), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes(self, blob, final):
        segments = [blob] if final else [blob, SEGMENT]
        try:
            scan_segments(segments)
        except JournalCorruptError:
            pass

    @given(flips_strategy)
    @settings(max_examples=100, deadline=None)
    def test_byte_flips_in_final_segment(self, flips):
        assert_torn_prefix(flip(SEGMENT, flips))

    @given(st.integers(min_value=0, max_value=len(SEGMENT) - 1))
    @settings(max_examples=100, deadline=None)
    def test_truncations_in_final_segment(self, cut):
        assert_torn_prefix(SEGMENT[:cut], truncated=True)

    @given(st.one_of(flips_strategy, st.integers(min_value=0, max_value=len(SEGMENT) - 1)))
    @settings(max_examples=100, deadline=None)
    def test_damage_in_non_final_segment(self, damage):
        if isinstance(damage, int):
            bad = SEGMENT[:damage]
        else:
            bad = flip(SEGMENT, damage)
        try:
            scan = scan_segments([bad, SEGMENT])
        except JournalCorruptError as exc:
            assert "non-final" in str(exc) or "bad magic" in str(exc) or "version" in str(exc)
            return
        assert scan.torn is None
        keys = [record_key(r) for r in scan.records]
        n_first = len(keys) - len(TRUE_RECORDS)
        assert keys[:n_first] == TRUE_RECORDS[:n_first]
        assert keys[n_first:] == TRUE_RECORDS

    @given(st.integers(min_value=0, max_value=4), crc_valid_payloads(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_crc_valid_random_payload(self, k, payload, final):
        frames = [frame(p) for p in payloads(SEGMENT)]
        blob = SEGMENT[:HEADER_SIZE] + b"".join(frames[:k] + [frame(payload)] + frames[k:])
        try:
            scan = scan_segments([blob] if final else [blob, SEGMENT])
        except JournalCorruptError as exc:
            assert not final and "non-final" in str(exc)
            return
        keys = [record_key(r) for r in scan.records]
        if scan.torn is not None:  # the random payload was rejected: torn from it on
            assert final and keys == TRUE_RECORDS[:k]
            assert scan.torn[1] == frame_starts(blob)[k]
        else:  # the random payload happened to be a well-formed record
            assert keys[:k] + keys[k + 1 : len(TRUE_RECORDS) + 1] == TRUE_RECORDS


def assert_torn_prefix(blob, truncated=False):
    """Scan *blob* as the final segment: a clean prefix, torn at a boundary."""
    try:
        scan = scan_segments([blob])
    except JournalCorruptError as exc:
        # only a foreign header is refused outright in the final segment
        assert "bad magic" in str(exc) or "version" in str(exc)
        return
    keys = [record_key(r) for r in scan.records]
    assert keys == TRUE_RECORDS[: len(keys)]
    starts = frame_starts(SEGMENT)
    if scan.torn is not None:
        offset = scan.torn[1]
        assert offset == (0 if len(blob) < HEADER_SIZE else starts[len(keys)])
    elif truncated:
        assert len(blob) == starts[len(keys)]
    else:
        assert keys == TRUE_RECORDS

