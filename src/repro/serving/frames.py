"""The one on-disk record codec behind recordings and the serving journal.

``repro record`` recordings (magic ``REVS``) and write-ahead journal
segments (magic ``RWAL``) share one layout (DESIGN.md §14.1):

- an 8-byte header ``<4sHH>``: magic, format version, a reserved word;
- then frames of ``<u32 length><u32 crc32(payload)><payload>``;
- an events payload is ``<u8 rtype=1><u32 n_events><u32 id_blob_len>``
  + the JSON-encoded cascade-id list + the int64 node column + the
  float64 time column (the ``ingest_columns`` wire shape).

This module owns the bytes; what a damaged file *means* is each
caller's decision.  :func:`read_frames` stops at the first damaged
frame and raises :class:`CorruptFrameError` carrying the byte offset
and the reason: the journal truncates a damaged tail of its final
segment there, a recording refuses the whole file.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from typing import BinaryIO, Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

__all__ = [
    "CorruptFrameError",
    "decode_events",
    "encode_events",
    "frame",
    "header",
    "read_frames",
]

_HEADER = struct.Struct("<4sHH")  # magic, version, reserved
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_EVENTS_HEAD = struct.Struct("<BII")  # rtype, n_events, id-blob length
#: payload record type of an events record (the journal adds type 2)
_RT_EVENTS = 1

T = TypeVar("T")


class CorruptFrameError(ValueError):
    """Bytes that violate the framed format.

    ``offset`` is where the damage starts — the byte a torn-tail repair
    would truncate to.  It is ``None`` when the header names another
    format or version: that file is foreign, not torn.
    """

    def __init__(self, reason: str, offset: Optional[int] = None) -> None:
        super().__init__(reason if offset is None else f"{reason} at byte {offset}")
        self.reason = reason
        self.offset = offset


def header(magic: bytes, version: int) -> bytes:
    """The 8-byte file header."""
    return _HEADER.pack(magic, version, 0)


def frame(payload: bytes) -> bytes:
    """*payload* behind its ``<length><crc32>`` frame header."""
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def encode_events(cascade_ids: Sequence[str], nodes: np.ndarray, times: np.ndarray) -> bytes:
    """One events payload in the columnar wire shape."""
    cid_blob = json.dumps(list(cascade_ids)).encode("utf-8")
    node_arr = np.ascontiguousarray(nodes, dtype=np.int64)
    time_arr = np.ascontiguousarray(times, dtype=np.float64)
    head = _EVENTS_HEAD.pack(_RT_EVENTS, node_arr.shape[0], len(cid_blob))
    return b"".join((head, cid_blob, node_arr.tobytes(), time_arr.tobytes()))


def decode_events(payload: bytes) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """``(cascade_ids, nodes, times)`` of an events payload.

    The columns are read-only views into *payload*.  Raises
    :class:`CorruptFrameError` on any structural mismatch.
    """
    if len(payload) < _EVENTS_HEAD.size:
        raise CorruptFrameError("events payload shorter than its header")
    rtype, n, cid_len = _EVENTS_HEAD.unpack_from(payload)
    if rtype != _RT_EVENTS:
        raise CorruptFrameError(f"unknown record type {rtype}")
    off = _EVENTS_HEAD.size
    expected = off + cid_len + 16 * n
    if len(payload) != expected:
        raise CorruptFrameError(f"events payload is {len(payload)} bytes, expected {expected}")
    try:
        cids = json.loads(payload[off : off + cid_len].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise CorruptFrameError(f"undecodable cascade-id column: {exc}") from exc
    if not isinstance(cids, list) or len(cids) != n:
        raise CorruptFrameError("cascade-id column does not match n_events")
    off += cid_len
    nodes = np.frombuffer(payload, dtype=np.int64, count=n, offset=off)
    times = np.frombuffer(payload, dtype=np.float64, count=n, offset=off + 8 * n)
    return cids, nodes, times


def read_frames(
    fh: BinaryIO, magic: bytes, version: int, decode: Callable[[bytes], T]
) -> Iterator[T]:
    """Yield ``decode(payload)`` for every frame of *fh*, in order.

    Holds one frame in memory at a time and reads the file as it stood
    when the scan started.  Raises :class:`CorruptFrameError` at the
    first damaged spot — a short or foreign header, a truncated frame,
    an empty frame, a crc mismatch, or a payload *decode* rejects with
    :class:`CorruptFrameError` — with ``offset`` at the start of that
    frame.  Everything yielded before it is intact.
    """
    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    head = fh.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise CorruptFrameError("truncated header", 0)
    got_magic, got_version, _ = _HEADER.unpack(head)
    if got_magic != magic:
        raise CorruptFrameError(f"bad magic {got_magic!r}")
    if got_version != version:
        raise CorruptFrameError(f"unsupported version {got_version}")
    off = _HEADER.size
    while off < size:
        if size - off < _FRAME.size:
            raise CorruptFrameError("truncated frame header", off)
        length, crc = _FRAME.unpack(fh.read(_FRAME.size))
        end = off + _FRAME.size + length
        if length == 0:
            raise CorruptFrameError("empty frame", off)
        if end > size:
            raise CorruptFrameError("truncated payload", off)
        payload = fh.read(length)
        if zlib.crc32(payload) != crc:
            raise CorruptFrameError("crc mismatch", off)
        try:
            item = decode(payload)
        except CorruptFrameError as exc:
            raise CorruptFrameError(exc.reason, off) from exc
        yield item
        off = end
