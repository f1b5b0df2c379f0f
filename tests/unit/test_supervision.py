"""Unit tests for the supervised dispatch loop (fake host, no processes).

A fake host lets every supervision path — retry ladder, fault accounting,
timeouts, crashes — run deterministically in-process.  The
real-pool behaviour (actual kills, hangs, respawns) is exercised by
``tests/integration/test_fault_tolerance.py``.
"""

import pytest

from repro.parallel.supervision import (
    DispatchOutcome,
    FaultLogEntry,
    InjectedFault,
    SupervisedDispatcher,
    SupervisionConfig,
    _FaultPlan,
    inject_fault,
)


# --------------------------------------------------------------------- #
# Config / fault-plan plumbing
# --------------------------------------------------------------------- #


class TestSupervisionConfig:
    def test_defaults_valid(self):
        cfg = SupervisionConfig()
        assert cfg.max_retries == 3 and cfg.task_timeout is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"task_timeout": 0.0},
            {"task_timeout": -1.0},
            {"timeout_factor": 0.0},
            {"timeout_floor": -1.0},
            {"backoff_seconds": -0.1},
            {"poll_interval": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionConfig(**kwargs)


class TestFaultPlan:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            _FaultPlan(task_idx=0, action="explode")

    def test_spec_matches_task_and_attempt(self):
        plan = _FaultPlan(task_idx=2, action="raise", attempts=(0, 1))
        assert plan.spec_for(2, 0) == ("raise", 3600.0)
        assert plan.spec_for(2, 1) is not None
        assert plan.spec_for(2, 2) is None
        assert plan.spec_for(1, 0) is None

    def test_inject_none_is_noop(self):
        inject_fault(None)  # must not raise

    def test_inject_raise(self):
        with pytest.raises(InjectedFault):
            inject_fault(("raise", 0.0))


# --------------------------------------------------------------------- #
# Fake host
# --------------------------------------------------------------------- #


class FakeResult:
    """Duck-typed AsyncResult: immediately ready unless told otherwise."""

    def __init__(self, fn, ready=True):
        self._fn = fn
        self._ready = ready

    def ready(self):
        return self._ready

    def get(self):
        return self._fn()

    def wait(self, timeout):
        pass


def _record(idx):
    return (idx, 100 + idx, 1, -1.0, 0.001, 5)


class FakeHost:
    """Host protocol stub: configurable failures, no real processes."""

    def __init__(self, fail=None, deadlines=None, never_ready=()):
        self.fail = fail or {}  # idx -> attempts that raise in the "worker"
        self.deadlines = deadlines or {}
        self.never_ready = set(never_ready)  # (idx, attempt) that hang
        self.damaged = False
        self.reseeds = []
        self.respawns = 0
        self.serial_runs = []
        self.submissions = []  # (idx, attempt)

    def submit_attempt(self, idx, attempt):
        self.submissions.append((idx, attempt))

        def fn():
            if attempt in self.fail.get(idx, ()):
                raise RuntimeError(f"boom {idx}@{attempt}")
            return _record(idx)

        return FakeResult(fn, ready=(idx, attempt) not in self.never_ready)

    def run_serial_fallback(self, idx):
        self.serial_runs.append(idx)
        return _record(idx)

    def reseed_tasks(self, indices):
        self.reseeds.append(tuple(indices))

    def respawn_pool(self):
        self.respawns += 1
        self.damaged = False

    def pool_damaged(self):
        return self.damaged

    def task_deadline(self, idx):
        return self.deadlines.get(idx)

    def task_community(self, idx):
        return 100 + idx


def _dispatch(host, n_tasks, **cfg_kwargs):
    cfg_kwargs.setdefault("backoff_seconds", 0.0)
    cfg_kwargs.setdefault("poll_interval", 0.001)
    cfg = SupervisionConfig(**cfg_kwargs)
    return SupervisedDispatcher(host, cfg, n_workers=2).run(range(n_tasks))


# --------------------------------------------------------------------- #
# Dispatch behaviour
# --------------------------------------------------------------------- #


class TestCleanDispatch:
    def test_all_tasks_recorded_once(self):
        host = FakeHost()
        out = _dispatch(host, 5)
        assert sorted(out.records) == [0, 1, 2, 3, 4]
        assert out.fault_log == [] and out.n_retries == 0 and out.n_respawns == 0
        # one pool submission per task, all at attempt 0
        assert sorted(host.submissions) == [(i, 0) for i in range(5)]

    def test_empty_order(self):
        out = _dispatch(FakeHost(), 0)
        assert out.records == {} and isinstance(out, DispatchOutcome)


class TestRetryLadder:
    def test_rung_escalation(self):
        d = SupervisedDispatcher(FakeHost(), SupervisionConfig(max_retries=3), 2)
        assert [d._rung_for(a) for a in range(4)] == ["arena"] * 3 + ["serial"]

    def test_short_ladder_final_attempt_serial(self):
        d = SupervisedDispatcher(FakeHost(), SupervisionConfig(max_retries=1), 2)
        assert d._rung_for(0) == "arena"
        assert d._rung_for(1) == "serial"

    def test_zero_retries_runs_straight_to_last_rung(self):
        host = FakeHost()
        out = _dispatch(host, 3, max_retries=0)
        assert sorted(out.records) == [0, 1, 2]
        assert host.submissions == []
        assert sorted(host.serial_runs) == [0, 1, 2]

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_max_retries_gives_k_pool_attempts_then_serial(self, k):
        # every pool attempt of task 0 fails: exactly k of them, then serial
        host = FakeHost(fail={0: tuple(range(k))})
        out = _dispatch(host, 1, max_retries=k)
        assert host.submissions == [(0, a) for a in range(k)]
        assert host.serial_runs == [0]
        assert out.records[0] == _record(0)
        assert out.n_retries == k
        assert [e.fallback for e in out.fault_log] == (
            ["arena"] * (k - 1) + ["serial"] if k else []
        )

    def test_exception_walks_the_ladder(self):
        # task 1 raises at attempts 0 and 1 -> both pool attempts fail;
        # the final serial attempt wins
        host = FakeHost(fail={1: (0, 1)})
        out = _dispatch(host, 3, max_retries=2)
        assert sorted(out.records) == [0, 1, 2]
        assert out.n_retries == 2
        assert [(e.attempt, e.cause, e.fallback) for e in out.fault_log] == [
            (0, "exception", "arena"),
            (1, "exception", "serial"),
        ]
        assert host.serial_runs == [1]
        # seed rows restored before every retry
        assert host.reseeds == [(1,), (1,)]

    def test_faulty_task_counted_once(self):
        host = FakeHost(fail={0: (0,)})
        out = _dispatch(host, 4, max_retries=2)
        assert len(out.records) == 4
        assert all(out.records[i][0] == i for i in range(4))


class TestTimeouts:
    def test_hung_task_times_out_and_degrades(self):
        # attempt 0 never completes; deadline expires, respawn, retry
        host = FakeHost(deadlines={0: 0.01}, never_ready={(0, 0)})
        out = _dispatch(host, 1, max_retries=1)
        assert out.records[0] == _record(0)
        assert out.n_respawns == 1 and out.n_retries == 1
        (entry,) = out.fault_log
        assert entry.cause == "timeout" and entry.fallback == "serial"
        assert entry.elapsed_seconds >= 0.01
        assert host.serial_runs == [0]

    def test_innocent_survivor_keeps_attempt_number(self):
        # task 0 hangs past its deadline; task 1 is in flight in the same
        # generation with no deadline -> requeued at the SAME attempt with
        # no fault entry of its own
        host = FakeHost(deadlines={0: 0.01}, never_ready={(0, 0), (1, 0)})

        # second submission of task 1 completes
        orig_submit = host.submit_attempt

        def submit(idx, attempt):
            if idx == 1 and len([s for s in host.submissions if s[0] == 1]) >= 1:
                host.submissions.append((idx, attempt))
                return FakeResult(lambda: _record(1), ready=True)
            return orig_submit(idx, attempt)

        host.submit_attempt = submit
        out = _dispatch(host, 2, max_retries=3)
        assert sorted(out.records) == [0, 1]
        task1_faults = [e for e in out.fault_log if e.task_idx == 1]
        assert task1_faults == []
        task1_subs = [s for s in host.submissions if s[0] == 1]
        assert [a for _, a in task1_subs] == [0, 0]  # attempt not burned


class TestCrashes:
    def test_dead_generation_burns_an_attempt(self):
        host = FakeHost(never_ready={(0, 0)})
        host.damaged = True  # a worker is already dead when dispatch starts
        out = _dispatch(host, 1, max_retries=3)
        assert out.records[0] == _record(0)
        assert out.n_respawns == 1
        (entry,) = out.fault_log
        assert entry.cause == "crash" and entry.attempt == 0
        assert host.respawns == 1


class TestAccounting:
    """DispatchOutcome invariants under retries (satellite coverage)."""

    def test_retries_equal_fault_entries_with_fallback(self):
        host = FakeHost(fail={0: (0,), 2: (0, 1)})
        out = _dispatch(host, 3, max_retries=3)
        retried = [e for e in out.fault_log if e.fallback is not None]
        assert out.n_retries == len(retried) == 3
        assert len(out.records) == 3  # every task exactly once

    def test_attempts_recorded_in_order_per_task(self):
        host = FakeHost(fail={1: (0, 1)})
        out = _dispatch(host, 2, max_retries=3)
        attempts = [e.attempt for e in out.fault_log if e.task_idx == 1]
        assert attempts == [0, 1]

    def test_community_ids_attributed(self):
        host = FakeHost(fail={1: (0,)})
        out = _dispatch(host, 2, max_retries=1)
        (entry,) = out.fault_log
        assert isinstance(entry, FaultLogEntry)
        assert entry.community_id == 101
