"""Shared plumbing of the benchmark: result record, statistics, memory,
hygiene checks and the environment stamp.

Nothing here imports the program under test; the workload modules do.
"""

from __future__ import annotations

import ctypes
import gc
import math
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CACHE_DIR = BENCH_DIR / ".cache"
OUT_DIR = BENCH_DIR / "out"

#: one place for every metric's unit, so the printout and the JSON agree
UNITS: Dict[str, str] = {
    "setup_s": "s",
    "capacity_eps": "ev/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


class CheckFailed(AssertionError):
    """An output of the program differs from its reference."""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    metrics: Dict[str, float] = field(default_factory=dict)
    units: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    #: the traced run's span recorder and the name of its root spans
    tracer: Any = None
    root: str = ""

    def put(self, name: str, value: float, unit: Optional[str] = None) -> None:
        self.metrics[name] = float(value)
        self.units[name] = unit if unit is not None else UNITS[name]

    def check(self, name: str, ok: bool) -> None:
        """Record an output check; a failed check is a failed operation."""
        self.checks[name] = bool(ok) and self.checks.get(name, True)
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


#: rounds per run, at least: best-of needs two to choose from, and a
#: traced run one untraced and one traced round
MIN_ROUNDS = 2


def planned_rounds(seconds: float, nominal_round_s: float) -> int:
    """Rounds a run makes: as many nominal rounds as fit in *seconds*,
    and at least MIN_ROUNDS.

    The count is fixed up front rather than read off the clock, so a
    run in a slow phase of the machine makes as many repetitions as one
    in a fast phase and the best-of figures compare like with like.
    """
    return max(MIN_ROUNDS, round(seconds / nominal_round_s))


def keep_best(best: Dict[int, float], op: int, value: float) -> None:
    """Fold one repetition of operation *op* into its best (lowest) time."""
    if value < best.get(op, math.inf):
        best[op] = value


def latency_metrics(out: Outcome, best_ms: Dict[int, float]) -> None:
    """Put ``latency_p50_ms`` and ``latency_p95_ms`` over operations,
    each operation timed by the best of its repetitions in the run.

    This machine's co-tenants slow everything in phases of a few
    seconds; an operation's best repetition is its time outside those
    phases, so the percentiles describe the program, not the neighbours.
    p95 needs at least 200 operations to leave ten beyond it; workloads
    are sized so that it does, and the run fails loudly if one does not.
    """
    samples_ms = list(best_ms.values())
    n = len(samples_ms)
    if n < 200:  # p95 must leave ten operations beyond it
        raise CheckFailed(f"only {n} latency operations; p95 needs 200")
    out.put("latency_p50_ms", percentile(samples_ms, 50.0))
    out.put("latency_p95_ms", percentile(samples_ms, 95.0))
    out.notes["latency_operations"] = n


# --------------------------------------------------------------------- #
# Processes and memory
# --------------------------------------------------------------------- #


def _status_field(pid: int, key: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])  # kB
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    return None


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident set (``VmHWM``) of *pids*, in MB.

    Pages shared between a parent and its forked children count once
    per process, so this is an upper bound on the system's footprint.
    """
    total_kb = 0
    for pid in pids:
        kb = _status_field(pid, "VmHWM")
        if kb is not None:
            total_kb += kb
    return total_kb / 1024.0


def children_of(pid: int, trackers: bool = False) -> List[int]:
    """Live direct children of *pid* (from ``/proc``).

    The ``multiprocessing`` resource tracker is left out unless
    *trackers*: the standard library starts it on first shared-memory
    use and it lives until its parent interpreter ends, so only
    :func:`reap_all` at the end of a run can wait for it.
    """
    kids: List[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        # the command name may hold spaces; fields restart after ')'
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid and (
            trackers or b"resource_tracker" not in cmdline
        ):
            kids.append(int(entry))
    return kids


#: Linux prctl option that makes orphaned descendants children of the caller
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt every orphaned descendant, so :func:`reap_all` can wait for it.

    A `repro serve` subprocess leaves its own resource tracker behind for
    a moment when it exits; without this the tracker would be re-parented
    to init and outlive the run.  Returns False where prctl is missing.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def reap_all(timeout: float = 20.0) -> List[int]:
    """Stop this process's resource tracker and wait until no child is
    left, so the run ends with every process it started.

    Children still alive after *timeout* seconds are killed and waited
    for; their pids are returned (a hygiene failure of the run).
    """
    gc.collect()  # finalizers that unlink segments still need the tracker
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        # closing the tracker's pipe ends it; _stop() also waits for it
        stop = getattr(tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    killed: List[int] = []
    killing = False
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed  # no child left
        if pid:
            continue
        if time.monotonic() > deadline:
            if killing:  # killed and still not gone: stop waiting
                return killed
            killing = True
            for kid in children_of(os.getpid(), trackers=True):
                os.kill(kid, signal.SIGKILL)
                killed.append(kid)
            deadline = time.monotonic() + 5.0
        time.sleep(0.02)


def is_alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def shm_segments() -> set:
    """Names in ``/dev/shm`` (empty when the directory does not exist)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def check_no_leaks(
    out: Outcome, shm_before: set, pids: Iterable[int] = (), dirs: Iterable[Path] = ()
) -> None:
    """Hygiene: no process, shared-memory segment or directory left over."""
    deadline = time.monotonic() + 5.0
    pids = list(pids)
    while any(is_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    leaked_pids = [p for p in pids if is_alive(p)]
    leaked_shm = sorted(shm_segments() - shm_before)
    leaked_dirs = [str(d) for d in dirs if Path(d).exists()]
    out.check("no_leaked_process", not leaked_pids)
    out.check("no_leaked_shm", not leaked_shm)
    out.check("no_leaked_dir", not leaked_dirs)
    if leaked_pids or leaked_shm or leaked_dirs:
        out.notes["leaks"] = {
            "pids": leaked_pids, "shm": leaked_shm, "dirs": leaked_dirs
        }


# --------------------------------------------------------------------- #
# Environment stamp
# --------------------------------------------------------------------- #


def environment(numpy_version: str) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "executable": Path(sys.executable).name,
    }


def loadavg() -> List[float]:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []
