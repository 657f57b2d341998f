"""Tests for the memoized execution service (machine/service.py)."""

import numpy as np
import pytest

from repro.ir import FuncOp, add, empty, matmul, relu, tensor
from repro.machine import (
    CachingExecutor,
    ExecutionCache,
    Executor,
    laptop_spec,
    nest_fingerprint,
    pooled_executor,
    reset_pool,
)
from repro.transforms import (
    Interchange,
    ScheduledFunction,
    TiledFusion,
    TiledParallelization,
    Tiling,
    Vectorization,
)
from repro.transforms.lowering import lower_baseline


def _matmul_func(m=64, n=48, k=32):
    a, b, c = tensor([m, k]), tensor([k, n]), tensor([m, n])
    func = FuncOp("mm", [a, b, c])
    op = func.append(matmul(a, b, c))
    func.returns = [op.result()]
    return func, op


def _chain_func():
    x, y = tensor([64, 64]), tensor([64, 64])
    func = FuncOp("chain", [x, y])
    first = func.append(add(x, y, empty([64, 64])))
    second = func.append(relu(first.result(), empty([64, 64])))
    func.returns = [second.result()]
    return func, first, second


#: One schedule per corner of the transform space, applied to the last op.
TRANSFORM_SPACE = [
    [],
    [Tiling((8, 8, 0))],
    [Tiling((8, 0, 4)), Interchange((1, 0, 2))],
    [TiledParallelization((4, 4, 0))],
    [Vectorization()],
    [Tiling((16, 8, 0)), Vectorization()],
    [TiledParallelization((8, 0, 0)), Tiling((0, 8, 8)),
     Interchange((2, 0, 1)), Vectorization()],
]


class TestFingerprint:
    def test_identical_structures_share_fingerprint(self):
        """Two separately built identical functions hash the same."""
        func_a, op_a = _matmul_func()
        func_b, op_b = _matmul_func()
        assert op_a is not op_b
        assert nest_fingerprint(lower_baseline(op_a)) == nest_fingerprint(
            lower_baseline(op_b)
        )

    def test_different_shapes_differ(self):
        _, op_a = _matmul_func(64, 48, 32)
        _, op_b = _matmul_func(64, 48, 16)
        assert nest_fingerprint(lower_baseline(op_a)) != nest_fingerprint(
            lower_baseline(op_b)
        )

    def test_every_transform_changes_fingerprint(self):
        baseline_prints = set()
        for transforms in TRANSFORM_SPACE:
            func, op = _matmul_func()
            scheduled = ScheduledFunction(func)
            for transform in transforms:
                scheduled.apply(op, transform)
            (nest,) = scheduled.lower()
            baseline_prints.add(nest_fingerprint(nest))
        assert len(baseline_prints) == len(TRANSFORM_SPACE)

    def test_fused_tree_in_fingerprint(self):
        func, first, second = _chain_func()
        plain = ScheduledFunction(func)
        fused = ScheduledFunction(func)
        fused.apply(second, TiledFusion((8, 8)))
        plain_nest = plain.lower()
        fused_nest = fused.lower()
        assert len(fused_nest) == 1 and len(plain_nest) == 2
        assert nest_fingerprint(fused_nest[0]) != nest_fingerprint(
            plain_nest[-1]
        )


class TestCacheCorrectness:
    def test_cached_equals_uncached_across_transform_space(self):
        """Cached and uncached timings must be bit-identical."""
        plain = Executor()
        caching = CachingExecutor()
        for transforms in TRANSFORM_SPACE:
            func, op = _matmul_func()
            scheduled = ScheduledFunction(func)
            for transform in transforms:
                scheduled.apply(op, transform)
            expected = plain.run_scheduled(scheduled)
            miss = caching.run_scheduled(scheduled)
            hit = caching.run_scheduled(scheduled)
            assert miss.seconds == expected.seconds
            assert hit.seconds == expected.seconds
            assert hit.breakdown.compute == expected.breakdown.compute
            assert hit.breakdown.memory == expected.breakdown.memory
            assert hit.breakdown.overhead == expected.breakdown.overhead

    def test_cached_equals_uncached_with_fusion(self):
        func, first, second = _chain_func()
        scheduled = ScheduledFunction(func)
        scheduled.apply(second, TiledFusion((8, 8)))
        expected = Executor().run_scheduled(scheduled)
        caching = CachingExecutor()
        assert caching.run_scheduled(scheduled).seconds == expected.seconds
        assert caching.run_scheduled(scheduled).seconds == expected.seconds
        assert caching.stats.hits == 1

    def test_baseline_cached_equals_uncached(self):
        func, _ = _matmul_func()
        expected = Executor().run_baseline(func)
        caching = CachingExecutor()
        assert caching.run_baseline(func).seconds == expected.seconds
        assert caching.run_baseline(func).seconds == expected.seconds

    def test_structural_sharing_across_functions(self):
        """Identical ops in different functions hit the same entry."""
        caching = CachingExecutor()
        func_a, _ = _matmul_func()
        func_b, _ = _matmul_func()
        caching.run_baseline(func_a)
        caching.run_baseline(func_b)
        # One cost-model evaluation total; the second function is a
        # whole-schedule hit (its structural fingerprint matches).
        assert caching.stats.evaluations == 1
        assert caching.stats.hits == 1


class TestCacheMechanics:
    def test_hit_miss_counters(self):
        caching = CachingExecutor()
        func, _ = _matmul_func()
        # Cold: one schedule-level miss falling through to one
        # nest-level miss — both counted (the nest miss is the only
        # actual cost-model evaluation).
        caching.run_baseline(func)
        assert caching.stats.misses == 2 and caching.stats.hits == 0
        assert caching.stats.schedule_misses == 1
        caching.run_baseline(func)
        assert caching.stats.misses == 2 and caching.stats.hits == 1
        assert caching.stats.requests == 3
        assert caching.stats.hit_rate == pytest.approx(1 / 3)
        assert caching.stats.evaluations == 1
        snapshot = caching.stats.snapshot()
        assert snapshot["requests"] == 3
        assert snapshot["evaluations"] == 1

    def test_lru_bound_and_evictions(self):
        cache = ExecutionCache(maxsize=2)
        caching = CachingExecutor(cache=cache)
        funcs = [_matmul_func(16, 16, k)[0] for k in (8, 16, 32)]
        for func in funcs:
            caching.run_baseline(func)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # Oldest entry (k=8) was evicted: re-running it evaluates again.
        caching.run_baseline(funcs[0])
        assert cache.stats.evaluations == 4

    def test_lru_recency_order(self):
        cache = ExecutionCache(maxsize=2)
        caching = CachingExecutor(cache=cache)
        func_a = _matmul_func(16, 16, 8)[0]
        func_b = _matmul_func(16, 16, 16)[0]
        caching.run_baseline(func_a)
        caching.run_baseline(func_b)
        caching.run_baseline(func_a)          # refresh A
        caching.run_baseline(_matmul_func(16, 16, 32)[0])  # evicts B
        caching.run_baseline(func_a)
        assert cache.stats.hits == 2          # A twice; B was evicted

    def test_invalid_maxsize_raises(self):
        with pytest.raises(ValueError):
            ExecutionCache(maxsize=0)

    def test_shared_cache_between_executors(self):
        cache = ExecutionCache()
        first = CachingExecutor(cache=cache)
        second = CachingExecutor(cache=cache)
        func, _ = _matmul_func()
        first.run_baseline(func)
        second.run_baseline(func)
        assert cache.stats.hits == 1

    def test_default_executor_unchanged(self):
        """A re-spelled schedule (split vs joint tiling of one matmul)
        misses the schedule level and hits the nest level: one lowering
        plus fingerprint, and one evaluation in total."""
        func_a, op_a = _matmul_func()
        split = ScheduledFunction(func_a)
        split.apply(op_a, Tiling((8, 0, 0)))
        split.apply(op_a, Tiling((0, 8, 0)))
        func_b, op_b = _matmul_func()
        joint = ScheduledFunction(func_b)
        joint.apply(op_b, Tiling((8, 8, 0)))
        caching = CachingExecutor()
        expected = Executor().run_scheduled(split).seconds
        assert caching.run_scheduled(split).seconds == expected
        assert caching.run_scheduled(joint).seconds == expected
        assert caching.stats.schedule_hits == 0
        assert caching.stats.hits == 1      # nest-fingerprint level
        assert caching.stats.evaluations == 1

    def test_absorb_counts_evictions(self):
        """Absorbed entries that overflow a level evict and count it."""
        source = CachingExecutor(cache=ExecutionCache())
        for k in (8, 16, 32):
            source.run_baseline(_matmul_func(16, 16, k)[0])
        entries = source.cache.drain_updates()  # first drain: everything
        assert len(entries) == 6  # one nest + one schedule entry each
        target = ExecutionCache(maxsize=2)
        assert target.absorb_updates(entries) == 6
        assert len(target) == 2 and target.schedule_entries == 2
        assert target.stats.evictions == 1
        assert target.stats.schedule_evictions == 1
        assert target.stats.requests == 0

    def test_load_counts_evictions(self, tmp_path):
        source = CachingExecutor(cache=ExecutionCache())
        for k in (8, 16, 32):
            source.run_baseline(_matmul_func(16, 16, k)[0])
        path = tmp_path / "cache.json"
        assert source.cache.save(path) == 6
        target = ExecutionCache(maxsize=2)
        assert target.load(path) == 6
        assert target.stats.evictions + target.stats.schedule_evictions == 2

    def test_entries_lists_nest_then_schedule_in_lru_order(self):
        cache = ExecutionCache()
        caching = CachingExecutor(cache=cache)
        func_a = _matmul_func(16, 16, 8)[0]
        func_b = _matmul_func(16, 16, 16)[0]
        caching.run_baseline(func_a)
        caching.run_baseline(func_b)
        caching.run_baseline(func_a)  # schedule hit: A becomes most recent
        a = Executor().run_baseline(func_a).seconds
        b = Executor().run_baseline(func_b).seconds
        assert a != b
        assert [(level, value.total) for level, _, value in cache.entries()] == [
            ("nest", a), ("nest", b), ("schedule", b), ("schedule", a)
        ]


class TestPooledService:
    def test_pool_shared_per_spec(self):
        reset_pool()
        try:
            assert pooled_executor() is pooled_executor()
            assert pooled_executor(laptop_spec()) is pooled_executor(
                laptop_spec()
            )
            assert pooled_executor() is not pooled_executor(laptop_spec())
        finally:
            reset_pool()

    def test_methods_share_pooled_cache(self):
        from repro.baselines import MlirBaseline
        from repro.baselines.base import OptimizationMethod

        reset_pool()
        try:
            one = MlirBaseline()
            two = MlirBaseline()
            assert one.executor is two.executor
            assert isinstance(one.executor, CachingExecutor)
        finally:
            reset_pool()
