"""Unit tests for execution backends (serial and multiprocess)."""

import multiprocessing as mp

import numpy as np
import pytest

from repro.cascades.types import Cascade, CascadeSet
from repro.community.mergetree import MergeTree
from repro.community.partition import Partition
from repro.embedding.model import EmbeddingModel
from repro.embedding.optimizer import OptimizerConfig
from repro.parallel.backends import (
    BlockTask,
    MultiprocessBackend,
    SerialBackend,
    run_block_task,
)
from repro.parallel.hierarchical import HierarchicalInference


def make_tasks(seed=0, n_comm=2):
    """Two disjoint communities with their own small corpora."""
    rng = np.random.default_rng(seed)
    tasks = []
    cfg = OptimizerConfig(max_iters=15)
    for cid in range(n_comm):
        nodes = np.arange(cid * 3, cid * 3 + 3)
        cascade_nodes = [np.array([0, 1, 2]), np.array([1, 2])]
        cascade_times = [np.array([0.0, 0.3, 0.8]), np.array([0.0, 0.5])]
        tasks.append(
            BlockTask(
                community_id=cid,
                nodes=nodes,
                cascade_nodes=cascade_nodes,
                cascade_times=cascade_times,
                A_rows=rng.uniform(0.1, 1.0, size=(3, 2)),
                B_rows=rng.uniform(0.1, 1.0, size=(3, 2)),
                config=cfg,
            )
        )
    return tasks


def arena_tasks(backend, seed=0, n_comm=2):
    """:func:`make_tasks`' level as arena-backed tasks on *backend*.

    Publishes the same corpus and seed rows through ``backend.prepare``
    and splits them with the hierarchical driver, so results compare
    bit-for-bit with ``SerialBackend().run_level(make_tasks(seed))``.
    """
    tasks = make_tasks(seed, n_comm)
    n = 3 * n_comm
    cs = CascadeSet(n)
    model = EmbeddingModel(np.zeros((n, 2)), np.zeros((n, 2)))
    for t in tasks:
        for nodes, times in zip(t.cascade_nodes, t.cascade_times):
            cs.append(Cascade(t.nodes[nodes], times))
        model.A[t.nodes] = t.A_rows
        model.B[t.nodes] = t.B_rows
    part = Partition(np.repeat(np.arange(n_comm), 3))
    driver = HierarchicalInference(MergeTree(part, stop_at=1), tasks[0].config)
    return driver._arena_tasks(0, part, model, backend.prepare(cs))


class TestRunBlockTask:
    def test_improves_loglik(self):
        task = make_tasks()[0]
        res = run_block_task(task)
        assert res.n_iters >= 1
        assert res.community_id == 0
        assert res.A_rows.shape == task.A_rows.shape

    def test_does_not_mutate_input_rows(self):
        task = make_tasks()[0]
        before = task.A_rows.copy()
        run_block_task(task)
        assert np.array_equal(task.A_rows, before)

    def test_work_units(self):
        task = make_tasks()[0]
        res = run_block_task(task)
        assert res.work_units == res.n_iters * task.n_infections

    def test_n_infections(self):
        assert make_tasks()[0].n_infections == 5

    def test_wall_seconds_positive(self):
        res = run_block_task(make_tasks()[0])
        assert res.wall_seconds > 0


class TestSerialBackend:
    def test_runs_all_tasks(self):
        results = SerialBackend().run_level(make_tasks())
        assert [r.community_id for r in results] == [0, 1]

    def test_deterministic(self):
        r1 = SerialBackend().run_level(make_tasks())
        r2 = SerialBackend().run_level(make_tasks())
        for a, b in zip(r1, r2):
            assert np.array_equal(a.A_rows, b.A_rows)
            assert np.array_equal(a.B_rows, b.B_rows)

    def test_empty_level(self):
        assert SerialBackend().run_level([]) == []


class TestMultiprocessBackend:
    def test_matches_serial_exactly(self):
        serial = SerialBackend().run_level(make_tasks())
        with MultiprocessBackend(n_workers=2) as backend:
            parallel = backend.run_level(arena_tasks(backend))
        for s, p in zip(serial, parallel):
            assert np.array_equal(s.A_rows, p.A_rows)
            assert np.array_equal(s.B_rows, p.B_rows)
            assert s.n_iters == p.n_iters
            assert s.final_loglik == p.final_loglik

    def test_empty_level(self):
        with MultiprocessBackend(n_workers=1) as backend:
            assert backend.run_level([]) == []

    def test_reuse_across_levels(self):
        with MultiprocessBackend(n_workers=2) as backend:
            r1 = backend.run_level(arena_tasks(backend, seed=1))
            r2 = backend.run_level(arena_tasks(backend, seed=2))
        assert len(r1) == len(r2) == 2

    @pytest.mark.parametrize("prepared", [False, True])
    def test_rejects_materialized_tasks(self, prepared):
        with MultiprocessBackend(n_workers=1) as backend:
            if prepared:
                arena_tasks(backend)
            with pytest.raises(ValueError, match=r"prepare\(\)"):
                backend.run_level(make_tasks())

    def test_closed_backend_rejects(self):
        backend = MultiprocessBackend(n_workers=1)
        backend.close()
        with pytest.raises(RuntimeError):
            backend.run_level(make_tasks())

    def test_close_idempotent(self):
        backend = MultiprocessBackend(n_workers=1)
        backend.close()
        backend.close()

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            MultiprocessBackend(n_workers=0)


def test_run_block_task_rejects_arena_only_task():
    t = make_tasks()[0]
    t.cascade_nodes = None
    t.cascade_times = None
    t.arena_positions = np.empty(0, dtype=np.int64)
    t.arena_sub_offsets = np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError, match="arena-backed"):
        run_block_task(t)


class TestEmptyNodeLevels:
    """A level whose tasks all have empty node sets must not crash."""

    def _empty_task(self, cid, arena_backed=False):
        empty = np.empty(0, dtype=np.int64)
        return BlockTask(
            community_id=cid,
            nodes=empty,
            cascade_nodes=None if arena_backed else [],
            cascade_times=None if arena_backed else [],
            A_rows=np.empty((0, 2)),
            B_rows=np.empty((0, 2)),
            config=OptimizerConfig(max_iters=5),
            arena_positions=empty if arena_backed else None,
            arena_sub_offsets=np.zeros(1, dtype=np.int64) if arena_backed else None,
        )

    def test_all_empty_returns_empty_rows(self):
        with MultiprocessBackend(n_workers=1) as backend:
            results = backend.run_level([self._empty_task(0), self._empty_task(1)])
        assert [r.community_id for r in results] == [0, 1]
        for r in results:
            assert r.nodes.size == 0
            assert r.A_rows.shape == (0, 2)
            assert r.n_iters == 0
            assert r.work_units == 0

    def test_mixed_empty_and_real(self):
        with MultiprocessBackend(n_workers=2) as backend:
            tasks = arena_tasks(backend)
            tasks.append(self._empty_task(9, arena_backed=True))
            results = backend.run_level(tasks)
        assert [r.community_id for r in results] == [0, 1, 9]
        assert results[2].A_rows.shape == (0, 2)


class TestLeakSafety:
    def test_unclosed_backend_is_reaped_by_gc(self):
        import gc

        backend = MultiprocessBackend(n_workers=1)
        resources = backend._resources
        pool = backend._pool
        del backend
        gc.collect()
        assert resources.released
        # a terminated pool rejects further work
        with pytest.raises(ValueError):
            pool.apply(int, ("1",))

    def test_init_failure_reaps_pool(self, monkeypatch):
        from repro.parallel import costmodel

        def boom(*a, **k):
            raise RuntimeError("injected")

        monkeypatch.setattr(costmodel, "DispatchCostEstimator", boom)
        created = []
        real_ctx = mp.get_context("fork")

        class Ctx:
            def Pool(self, n):
                pool = real_ctx.Pool(n)
                created.append(pool)
                return pool

        monkeypatch.setattr(mp, "get_context", lambda method: Ctx())
        with pytest.raises(RuntimeError, match="injected"):
            MultiprocessBackend(n_workers=1)
        assert len(created) == 1
        with pytest.raises(ValueError):
            created[0].apply(int, ("1",))

    def test_close_releases_resources(self):
        backend = MultiprocessBackend(n_workers=1)
        backend.run_level(arena_tasks(backend))
        backend.close()
        assert backend._resources.released


class TestDispatchOrderingAndProfiles:
    def test_lpt_order_does_not_change_results(self):
        serial = SerialBackend().run_level(make_tasks(n_comm=4))
        with MultiprocessBackend(n_workers=2) as backend:
            parallel = backend.run_level(arena_tasks(backend, n_comm=4))
        for s, p in zip(serial, parallel):
            assert np.array_equal(s.A_rows, p.A_rows)
            assert np.array_equal(s.B_rows, p.B_rows)
            assert s.n_iters == p.n_iters

    def test_estimator_calibrates_across_levels(self):
        with MultiprocessBackend(n_workers=2) as backend:
            assert backend.estimator.n_observed_levels == 0
            backend.run_level(arena_tasks(backend, seed=1))
            assert backend.estimator.n_observed_levels == 1
            assert backend.estimator.seconds_per_work_unit is not None
            backend.run_level(arena_tasks(backend, seed=2))
            assert backend.estimator.n_observed_levels == 2

    def test_level_profiles_recorded(self):
        with MultiprocessBackend(n_workers=2, profile_dispatch=True) as backend:
            backend.run_level(arena_tasks(backend))
        (stats,) = backend.level_profiles
        assert stats.mode == "arena"
        assert stats.n_tasks == 2
        assert stats.payload_bytes > 0
        assert stats.payload_pickle_seconds > 0
        # workers time themselves concurrently, so compute may exceed the
        # parent's wall; both are simply nonnegative measurements
        assert stats.wall_seconds > 0
        assert stats.compute_seconds > 0
        assert stats.overhead_seconds >= 0


class TestArenaDispatch:
    def _world(self):
        from repro.cascades.types import Cascade, CascadeSet

        cs = CascadeSet(6)
        cs.append(Cascade([0, 1, 2], [0.0, 0.3, 0.9]))
        cs.append(Cascade([3, 4], [0.0, 0.7]))
        cs.append(Cascade([1, 0, 5], [0.0, 0.2, 1.1]))
        cs.append(Cascade([2, 1], [0.0, 0.4]))
        return cs

    def test_prepare_after_close_raises(self):
        backend = MultiprocessBackend(n_workers=1)
        backend.close()
        with pytest.raises(RuntimeError):
            backend.prepare(self._world())
