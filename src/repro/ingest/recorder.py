"""Recorded event streams: ``repro record`` files that ``repro replay`` plays.

``repro record`` captures any :class:`~repro.ingest.sources.EventSource`
into a single file that ``repro replay`` can re-play at Nx real-time.
The file is magic ``REVS`` in the record codec the serving journal
shares (:mod:`repro.serving.frames`, DESIGN.md §14.1), one events
record per batch.  Unlike the journal, a recording never repairs: any
damage raises :class:`RecordingCorruptError`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path
from types import TracebackType
from typing import (
    TYPE_CHECKING,
    Any,
    BinaryIO,
    Callable,
    Dict,
    Iterator,
    Optional,
    Sequence,
    Type,
)

from repro.ingest.sources import EventBatch
from repro.serving.frames import (
    CorruptFrameError,
    decode_events,
    encode_events,
    frame,
    header,
    read_frames,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ingest.sources import EventSource

__all__ = [
    "RecordingError",
    "RecordingCorruptError",
    "StreamInfo",
    "StreamWriter",
    "iter_batches",
    "stream_info",
    "record_stream",
    "record_source",
]

_MAGIC = b"REVS"
_VERSION = 1


class RecordingError(RuntimeError):
    """Base error for recording I/O."""


class RecordingCorruptError(RecordingError):
    """The recording violates the framed format (crc, magic, truncation)."""


def _to_batch(payload: bytes) -> EventBatch:
    cids, nodes, times = decode_events(payload)
    try:
        return EventBatch(cids, nodes, times)
    except ValueError as exc:  # unordered or non-finite times
        raise CorruptFrameError(f"invalid batch: {exc}") from exc


@dataclass(frozen=True)
class StreamInfo:
    """Summary of a recording (``repro replay`` prints it before running)."""

    path: str
    n_records: int
    n_events: int
    n_cascades: int
    t_first: float
    t_last: float

    @property
    def duration_s(self) -> float:
        """Recorded stream span in seconds (0 for empty streams)."""
        return max(0.0, self.t_last - self.t_first)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "n_records": self.n_records,
            "n_events": self.n_events,
            "n_cascades": self.n_cascades,
            "t_first": self.t_first,
            "t_last": self.t_last,
            "duration_s": self.duration_s,
        }


class StreamWriter:
    """Append event batches to a recording file.

    Enforces the stream contract on the way in: batches must be
    time-ordered not just internally (:class:`EventBatch` checks that)
    but across batches — the first event of a batch may not precede the
    last event of the previous one.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: Optional[BinaryIO] = self.path.open("wb")
        self._fh.write(header(_MAGIC, _VERSION))
        self.n_records = 0
        self.n_events = 0
        self._t_last: Optional[float] = None

    def write_batch(self, batch: EventBatch) -> None:
        if self._fh is None:
            raise RecordingError("writer is closed")
        if len(batch) == 0:
            return
        if self._t_last is not None and batch.t_first < self._t_last:
            raise RecordingError(
                f"out-of-order batch: starts at {batch.t_first:.6f} but the "
                f"stream is already at {self._t_last:.6f}"
            )
        self._fh.write(frame(encode_events(batch.cascade_ids, batch.nodes, batch.times)))
        self.n_records += 1
        self.n_events += len(batch)
        self._t_last = batch.t_last

    def write_columns(
        self,
        cascade_ids: Sequence[str],
        nodes: Sequence[int],
        times: Sequence[float],
    ) -> None:
        """Convenience: frame raw event columns as one batch."""
        self.write_batch(EventBatch(cascade_ids, nodes, times))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


def iter_batches(path: str | Path) -> Iterator[EventBatch]:
    """Yield recorded batches in order; any damage raises :class:`RecordingCorruptError`."""
    path = Path(path)
    with path.open("rb") as fh:
        try:
            yield from read_frames(fh, _MAGIC, _VERSION, _to_batch)
        except CorruptFrameError as exc:
            raise RecordingCorruptError(f"{path}: {exc}") from exc


def stream_info(path: str | Path) -> StreamInfo:
    """Scan a recording and summarise it (verifies every frame)."""
    path = Path(path)
    n_records = 0
    n_events = 0
    cascades = set()
    t_first: Optional[float] = None
    t_last = 0.0
    for batch in iter_batches(path):
        if t_first is None:
            t_first = batch.t_first
        t_last = batch.t_last
        n_records += 1
        n_events += len(batch)
        cascades.update(batch.cascade_ids)
    return StreamInfo(
        path=str(path),
        n_records=n_records,
        n_events=n_events,
        n_cascades=len(cascades),
        t_first=t_first if t_first is not None else 0.0,
        t_last=t_last,
    )


async def record_stream(
    source: "EventSource",
    path: str | Path,
    progress: Optional[Callable[[int, int], None]] = None,
) -> StreamInfo:
    """Drain *source* into a recording at *path*.

    *progress*, if given, is called after each batch with the cumulative
    ``(n_records, n_events)``.  Returns the summary of what was written.
    """
    path = Path(path)
    loop = asyncio.get_running_loop()
    cascades = set()
    t_first: Optional[float] = None
    t_last = 0.0
    writer = StreamWriter(path)
    try:
        async for batch in source:
            if len(batch) == 0:
                continue
            await loop.run_in_executor(None, writer.write_batch, batch)
            if t_first is None:
                t_first = batch.t_first
            t_last = batch.t_last
            cascades.update(batch.cascade_ids)
            if progress is not None:
                progress(writer.n_records, writer.n_events)
        n_records, n_events = writer.n_records, writer.n_events
    finally:
        await loop.run_in_executor(None, writer.close)
    return StreamInfo(
        path=str(path),
        n_records=n_records,
        n_events=n_events,
        n_cascades=len(cascades),
        t_first=t_first if t_first is not None else 0.0,
        t_last=t_last,
    )


def record_source(
    source: "EventSource",
    path: str | Path,
    progress: Optional[Callable[[int, int], None]] = None,
) -> StreamInfo:
    """Synchronous wrapper around :func:`record_stream`."""
    return asyncio.run(record_stream(source, path, progress))
