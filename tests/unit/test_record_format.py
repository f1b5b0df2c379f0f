"""Pin the on-disk bytes of recordings (``REVS``) and journal segments (``RWAL``).

Both formats are persisted artifacts: a recording made by one build must
replay under the next, and a journal written before an upgrade must
recover after it.  The hex literals below are the exact files the
writers produce for a fixed input, so any change to the header, the
frame, or the events payload layout fails here first.
"""

import numpy as np

from repro.ingest.recorder import StreamWriter, iter_batches
from repro.ingest.sources import EventBatch
from repro.serving.durability import (
    EventJournal,
    EventsRecord,
    JournalConfig,
    scan_journal,
)

# header <4sHH> + two frames <u32 len><u32 crc32> of <BII> + JSON ids +
# int64 nodes + float64 times; the second id pins JSON's ASCII escaping
_EVENTS_FRAMES = (
    "0100000033000000a6c915dc01020000000a0000005b2261222c202262225d"
    "01000000000000000200000000000000000000000000e03f000000000000f03f"
    "240000000c8a614401010000000b0000005b22635c7530306539225d"
    "fdffffffffffffff0000000000000240"
)
RECORDING_HEX = "52455653" + _EVENTS_FRAMES  # b"REVS"
JOURNAL_HEX = "5257414c" + _EVENTS_FRAMES  # b"RWAL"

BATCHES = [
    EventBatch(["a", "b"], [1, 2], [0.5, 1.0]),
    EventBatch(["cé"], [-3], [2.25]),
]


def test_recording_bytes_are_pinned(tmp_path):
    path = tmp_path / "s.evs"
    with StreamWriter(path) as writer:
        for batch in BATCHES:
            writer.write_batch(batch)
    assert path.read_bytes().hex() == RECORDING_HEX


def test_pinned_recording_reads_back(tmp_path):
    path = tmp_path / "s.evs"
    path.write_bytes(bytes.fromhex(RECORDING_HEX))
    assert list(iter_batches(path)) == BATCHES


def test_journal_segment_bytes_are_pinned(tmp_path):
    journal = EventJournal(JournalConfig(directory=tmp_path, fsync="off"))
    for batch in BATCHES:
        journal.append_events(batch.cascade_ids, batch.nodes, batch.times)
    journal.seal()
    assert (tmp_path / "wal-00000001.log").read_bytes().hex() == JOURNAL_HEX


def test_pinned_journal_segment_scans_back(tmp_path):
    (tmp_path / "wal-00000001.log").write_bytes(bytes.fromhex(JOURNAL_HEX))
    scan = scan_journal(tmp_path)
    assert scan.torn is None
    assert len(scan.records) == len(BATCHES)
    for record, batch in zip(scan.records, BATCHES):
        assert isinstance(record, EventsRecord)
        assert record.cascade_ids == batch.cascade_ids
        assert np.array_equal(record.nodes, batch.nodes)
        assert np.array_equal(record.times, batch.times)
