"""Spans and counters recorded from outside the program.

A traced run wraps the public functions at each layer boundary with
:meth:`Tracer.wrap` (restored by :meth:`Tracer.restore`), so no file of
the program changes.  Spans (name, start, end, parent, burst id) stay in
memory; at the end the run writes them as Chrome trace-event JSON and
derives a per-layer self-time table from them.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    burst: Optional[int]
    tid: int
    args: Optional[Dict[str, Any]] = None

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._next = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #

    def _parents(self) -> List[int]:
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = self._stack.ids = []
        return stack

    @contextmanager
    def span(
        self, name: str, burst: Optional[int] = None,
        parent: Optional[int] = None, **args: Any
    ) -> Iterator[Optional[int]]:
        """Record a span; yields its id.  *parent* adopts the span under
        a span of another thread (a call the event loop handed to an
        executor), otherwise the parent is this thread's open span."""
        if not self.enabled:
            yield None
            return
        stack = self._parents()
        with self._lock:
            sid = self._next
            self._next += 1
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, burst,
                     threading.get_ident(), args or None)
            )

    def add_span(
        self, name: str, start: float, end: float, **args: Any
    ) -> None:
        """Record a span measured elsewhere, as a child of the open span."""
        if not self.enabled:
            return
        stack = self._parents()
        with self._lock:
            sid = self._next
            self._next += 1
        self.spans.append(
            Span(sid, name, start, end, stack[-1] if stack else None, None,
                 threading.get_ident(), args or None)
        )

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------------ #

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to *replacement* until restore()."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, span_name: str) -> None:
        """Replace ``owner.attr`` with a spanned wrapper until restore()."""
        if not self.enabled:
            return
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*a: Any, **kw: Any) -> Any:
            with tracer.span(span_name):
                return original(*a, **kw)

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if getattr(original, "__self__", None) is owner:
                delattr(owner, attr)  # drop the instance-level override
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self, root: str) -> Dict[str, float]:
        """Per-layer self time inside the *root* spans: each span's
        duration minus the part of its interval its children cover.
        Spans of any thread count when they lie in a root span."""
        roots = [(r.start, r.end) for r in self.spans if r.name == root]
        inside = [
            s for s in self.spans
            if any(lo <= s.start and s.end <= hi for lo, hi in roots)
        ]
        children: Dict[int, List[Span]] = {}
        for s in inside:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: Dict[str, float] = {}
        for s in inside:
            kids = sorted(children.get(s.sid, ()), key=lambda k: k.start)
            covered = 0.0
            cur_start = cur_end = None
            for k in kids:
                lo, hi = max(k.start, s.start), min(k.end, s.end)
                if hi <= lo:
                    continue
                if cur_end is None or lo > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = lo, hi
                else:
                    cur_end = max(cur_end, hi)
            if cur_end is not None:
                covered += cur_end - cur_start
            out[s.layer] = out.get(s.layer, 0.0) + (s.end - s.start - covered)
        return out

    def ledger(self, root: str) -> List[Tuple[str, float, float]]:
        """(layer, self seconds, share of the *root* spans' wall time)."""
        wall = self.total(root) or 1e-12
        rows = sorted(self.self_times(root).items(), key=lambda kv: -kv[1])
        return [(layer, sec, sec / wall) for layer, sec in rows]

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON (open in Perfetto or chrome://tracing)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        tids: Dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            args: Dict[str, Any] = {"span": s.sid, "parent": s.parent}
            if s.burst is not None:
                args["burst"] = s.burst
            if s.args:
                args.update(s.args)
            events.append({
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": tids.setdefault(s.tid, len(tids)),
                "args": args,
            })
        path.write_text(json.dumps({"traceEvents": events}))

