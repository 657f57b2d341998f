"""The schedule-keyed step fast path (PR 3).

Three layers are covered:

* the schedule-level execution cache — warm ``run_*`` calls must skip
  lowering and nest fingerprinting entirely while staying bit-identical;
* incremental observation — cached and uncached ``_observe`` pipelines
  must produce bit-identical observations;
* pooled-executor thread/fork safety.
"""

import threading

import numpy as np

import repro.machine.service as service
import repro.transforms.lowering as lowering
import repro.transforms.pipeline as pipeline
from repro.env import EnvAction, MlirRlEnv, small_config
from repro.env.features import feature_size, op_features, zero_features
from repro.env.masking import compute_mask
from repro.ir import FuncOp, add, empty, matmul, relu, tensor
from repro.machine import (
    CachingExecutor,
    ExecutionCache,
    Executor,
    func_fingerprint,
    pooled_executor,
    reset_pool,
)
from repro.transforms import (
    Interchange,
    ScheduledFunction,
    TiledFusion,
    TiledParallelization,
    Tiling,
    TransformKind,
    Vectorization,
)

CONFIG = small_config(max_episode_steps=64)


def _matmul_func(m=32, n=24, k=16):
    a, b, c = tensor([m, k]), tensor([k, n]), tensor([m, n])
    func = FuncOp("mm", [a, b, c])
    op = func.append(matmul(a, b, c))
    func.returns = [op.result()]
    return func, op


def _chain_func():
    x, y = tensor([32, 32]), tensor([32, 32])
    func = FuncOp("chain", [x, y])
    first = func.append(add(x, y, empty([32, 32])))
    second = func.append(relu(first.result(), empty([32, 32])))
    func.returns = [second.result()]
    return func, first, second


def _three_op_chain():
    x, y = tensor([32, 32]), tensor([32, 32])
    func = FuncOp("chain3", [x, y])
    first = func.append(add(x, y, empty([32, 32])))
    second = func.append(relu(first.result(), empty([32, 32])))
    third = func.append(add(second.result(), y, empty([32, 32])))
    func.returns = [third.result()]
    return func, (first, second, third)


SCHEDULES = [
    [],
    [Tiling((8, 8, 0))],
    [Tiling((8, 0, 4)), Interchange((1, 0, 2))],
    [TiledParallelization((4, 4, 0)), Vectorization()],
]


class _Counters:
    """Monkeypatched call counters for the lowering/fingerprint layer.

    ``lower_scheduled_op`` is counted where ``lowering`` binds it, so it
    sees every nest lowered by any path: ``lower_function``, the
    baseline lowering and a fused producer each lower through it.
    """

    def __init__(self, monkeypatch):
        self.lower_function = 0
        self.lower_baseline = 0
        self.lower_scheduled_op = 0
        self.nest_fingerprint = 0
        real_lf = pipeline.lower_function
        real_lb = service.lower_baseline
        real_lso = lowering.lower_scheduled_op
        real_fp = service.nest_fingerprint

        def lf(*args, **kwargs):
            self.lower_function += 1
            return real_lf(*args, **kwargs)

        def lb(*args, **kwargs):
            self.lower_baseline += 1
            return real_lb(*args, **kwargs)

        def lso(*args, **kwargs):
            self.lower_scheduled_op += 1
            return real_lso(*args, **kwargs)

        def fp(*args, **kwargs):
            self.nest_fingerprint += 1
            return real_fp(*args, **kwargs)

        monkeypatch.setattr(pipeline, "lower_function", lf)
        monkeypatch.setattr(service, "lower_baseline", lb)
        monkeypatch.setattr(lowering, "lower_scheduled_op", lso)
        monkeypatch.setattr(service, "nest_fingerprint", fp)

    @property
    def total(self):
        return (
            self.lower_function
            + self.lower_baseline
            + self.lower_scheduled_op
            + self.nest_fingerprint
        )


class TestScheduleKeyedCache:
    def test_warm_run_scheduled_skips_lowering(self, monkeypatch):
        func, op = _matmul_func()
        scheduled = ScheduledFunction(func)
        scheduled.apply(op, Tiling((8, 8, 0)))
        executor = CachingExecutor()
        expected = executor.run_scheduled(scheduled).seconds
        counters = _Counters(monkeypatch)
        assert executor.run_scheduled(scheduled).seconds == expected
        assert counters.total == 0

    def test_warm_run_baseline_skips_lowering(self, monkeypatch):
        func, _ = _matmul_func()
        executor = CachingExecutor()
        expected = executor.run_baseline(func).seconds
        counters = _Counters(monkeypatch)
        assert executor.run_baseline(func).seconds == expected
        assert counters.total == 0

    def test_schedule_key_is_structural(self):
        """A separately built identical function+schedule is a hit."""
        executor = CachingExecutor()
        for transforms in SCHEDULES:
            first_func, first_op = _matmul_func()
            second_func, second_op = _matmul_func()
            first = ScheduledFunction(first_func)
            second = ScheduledFunction(second_func)
            for transform in transforms:
                first.apply(first_op, transform)
                second.apply(second_op, transform)
            executor.run_scheduled(first)
            before = executor.stats.schedule_hits
            executor.run_scheduled(second)
            assert executor.stats.schedule_hits == before + 1

    def test_schedule_cached_timings_bit_identical(self):
        plain = Executor()
        for transforms in SCHEDULES:
            func, op = _matmul_func()
            scheduled = ScheduledFunction(func)
            for transform in transforms:
                scheduled.apply(op, transform)
            expected = plain.run_scheduled(scheduled)
            caching = CachingExecutor()
            miss = caching.run_scheduled(scheduled)
            hit = caching.run_scheduled(scheduled)
            assert miss.seconds == expected.seconds
            assert hit.seconds == expected.seconds
            assert hit.breakdown == expected.breakdown

    def test_schedule_level_can_be_disabled(self):
        cache = ExecutionCache(schedule_maxsize=0)
        executor = CachingExecutor(cache=cache)
        func, _ = _matmul_func()
        executor.run_baseline(func)
        executor.run_baseline(func)
        assert cache.schedule_entries == 0
        assert cache.stats.schedule_hits == 0
        # Nest-level memoization still works.
        assert executor.stats.hits == 1

    def test_applying_transform_changes_schedule_key(self):
        func, op = _matmul_func()
        scheduled = ScheduledFunction(func)
        executor = CachingExecutor()
        before = executor.run_scheduled(scheduled).seconds
        scheduled.apply(op, Tiling((8, 8, 0)))
        after = executor.run_scheduled(scheduled).seconds
        assert before != after

    def test_fingerprint_invalidated_by_appended_op(self):
        func, _ = _matmul_func()
        first = func_fingerprint(func)
        x = tensor([8, 8])
        func.append(add(x, x, empty([8, 8])))
        assert func_fingerprint(func) != first

    def test_drain_and_absorb_updates(self):
        source = ExecutionCache()
        target = ExecutionCache()
        executor = CachingExecutor(cache=source)
        func, _ = _matmul_func()
        expected = executor.run_baseline(func).seconds
        updates = source.drain_updates()
        assert updates  # one nest entry + one schedule entry
        assert {level for level, _, _ in updates} == {"nest", "schedule"}
        assert target.absorb_updates(updates) == len(updates)
        # A fresh executor over the target cache replays without lowering.
        other = CachingExecutor(cache=target)
        fresh_func, _ = _matmul_func()
        assert other.run_baseline(fresh_func).seconds == expected
        assert target.stats.misses == 0
        # After the first (full-export) drain, journaling takes over and
        # an unchanged cache drains empty.
        assert source.drain_updates() == []
        target.drain_updates()  # first drain: full export
        assert target.drain_updates() == []

    def test_journal_only_grows_for_sync_consumers(self):
        """The default path (no drain consumer) must not journal at all."""
        cache = ExecutionCache()
        executor = CachingExecutor(cache=cache)
        for k in (4, 8, 16):
            executor.run_baseline(_matmul_func(16, 16, k)[0])
        assert cache._updates == []  # nobody drained: nothing retained
        cache.drain_updates()  # a sync consumer appears
        executor.run_baseline(_matmul_func(16, 16, 32)[0])
        assert len(cache._updates) == 2  # one nest + one schedule key


class TestNestMemo:
    """A schedule-level miss lowers only the ops whose schedule changed."""

    def test_miss_lowers_only_the_changed_op(self, monkeypatch):
        func, ops = _three_op_chain()
        scheduled = ScheduledFunction(func)
        executor = CachingExecutor()
        executor.run_scheduled(scheduled)
        scheduled.apply(ops[-1], Tiling((8, 8)))
        counters = _Counters(monkeypatch)
        result = executor.run_scheduled(scheduled)
        assert counters.lower_scheduled_op == 1
        assert counters.nest_fingerprint == 1
        assert result.breakdown == Executor().run_scheduled(scheduled).breakdown

    def test_tiled_fusion_relowers_the_consumer(self, monkeypatch):
        func, _, second = _chain_func()
        scheduled = ScheduledFunction(func)
        executor = CachingExecutor()
        executor.run_scheduled(scheduled)
        scheduled.apply(second, TiledFusion((8, 8)))
        requests = executor.stats.requests
        counters = _Counters(monkeypatch)
        result = executor.run_scheduled(scheduled)
        # The consumer, and the producer inside the consumer's nest; the
        # producer's own top-level nest is gone.
        assert counters.lower_scheduled_op == 2
        assert counters.nest_fingerprint == 1
        assert executor.stats.requests == requests + 1 + 1
        assert result.breakdown == Executor().run_scheduled(scheduled).breakdown

    def test_evicted_fingerprint_is_lowered_again(self, monkeypatch):
        func, first, second = _chain_func()
        scheduled = ScheduledFunction(func)
        executor = CachingExecutor(cache=ExecutionCache(maxsize=1))
        executor.run_scheduled(scheduled)  # the relu nest evicts the add's
        assert executor.stats.requests == 1 + 2
        scheduled.apply(second, Tiling((8, 8)))
        counters = _Counters(monkeypatch)
        result = executor.run_scheduled(scheduled)
        # The add's token is unchanged but its nest entry is gone: it is
        # lowered again, not re-fingerprinted.
        assert counters.lower_scheduled_op == 2
        assert counters.nest_fingerprint == 1
        assert executor.stats.requests == 2 * (1 + 2)
        assert result.breakdown == Executor().run_scheduled(scheduled).breakdown


class TestWarmEnvStep:
    """The acceptance regression: a warm-cache ``env.step`` never lowers."""

    def _run_episode(self, env, func, seed):
        rng = np.random.default_rng(seed)
        env.reset(func)
        rewards = []
        done = False
        while not done:
            mask = env._observe().mask
            legal = mask.legal_transformations()
            kind = legal[rng.integers(len(legal))]
            if kind in (
                TransformKind.TILING,
                TransformKind.TILED_PARALLELIZATION,
                TransformKind.TILED_FUSION,
            ):
                indices = tuple(
                    int(rng.integers(env.config.num_tile_sizes))
                    for _ in range(env.config.max_loops)
                )
                action = EnvAction(kind, tile_indices=indices)
            elif kind is TransformKind.INTERCHANGE:
                choices = np.flatnonzero(mask.interchange)
                action = EnvAction(kind, pointer_loop=int(rng.choice(choices)))
            else:
                action = EnvAction(kind)
            result = env.step(action)
            rewards.append(result.reward)
            done = result.done
        return rewards

    def test_warm_episode_never_lowers_or_fingerprints(self, monkeypatch):
        env = MlirRlEnv(config=CONFIG, executor=CachingExecutor())
        func, _, _ = _chain_func()
        cold = self._run_episode(env, func, seed=11)
        counters = _Counters(monkeypatch)
        warm = self._run_episode(env, func, seed=11)
        assert counters.lower_function == 0
        assert counters.lower_baseline == 0
        assert counters.lower_scheduled_op == 0
        assert counters.nest_fingerprint == 0
        assert warm == cold  # bit-identical rewards on the fast path


class TestObservationCaches:
    def _episode_observations(self, observation_cache, seed=5):
        env = MlirRlEnv(
            config=CONFIG,
            executor=CachingExecutor(),
            observation_cache=observation_cache,
        )
        func, _, _ = _chain_func()
        rng = np.random.default_rng(seed)
        observation = env.reset(func)
        observations = [observation]
        done = False
        while not done:
            mask = observation.mask
            legal = mask.legal_transformations()
            kind = legal[rng.integers(len(legal))]
            if kind in (
                TransformKind.TILING,
                TransformKind.TILED_PARALLELIZATION,
                TransformKind.TILED_FUSION,
            ):
                indices = tuple(
                    int(rng.integers(env.config.num_tile_sizes))
                    for _ in range(env.config.max_loops)
                )
                action = EnvAction(kind, tile_indices=indices)
            elif kind is TransformKind.INTERCHANGE:
                choices = np.flatnonzero(mask.interchange)
                action = EnvAction(kind, pointer_loop=int(rng.choice(choices)))
            else:
                action = EnvAction(kind)
            result = env.step(action)
            done = result.done
            if not done:
                observation = result.observation
                observations.append(observation)
        return observations

    def test_cached_observations_bit_identical(self):
        cached = self._episode_observations(observation_cache=True)
        plain = self._episode_observations(observation_cache=False)
        assert len(cached) == len(plain)
        for fast, slow in zip(cached, plain):
            np.testing.assert_array_equal(fast.consumer, slow.consumer)
            np.testing.assert_array_equal(fast.producer, slow.producer)
            np.testing.assert_array_equal(
                fast.mask.transformation, slow.mask.transformation
            )
            assert fast.mask.params.keys() == slow.mask.params.keys()
            for key in fast.mask.params:
                np.testing.assert_array_equal(
                    fast.mask.params[key], slow.mask.params[key]
                )
            assert fast.mask.forced_interchange == slow.mask.forced_interchange

    def test_mask_cache_hits_across_episodes(self):
        env = MlirRlEnv(config=CONFIG, executor=CachingExecutor())
        func, _ = _matmul_func()
        env.reset(func)
        env.step(EnvAction(TransformKind.NO_TRANSFORMATION))
        misses = env._mask_cache.misses
        env.reset(func)  # same op, same empty state -> cached mask
        assert env._mask_cache.misses == misses
        assert env._mask_cache.hits >= 1

    def test_feature_size_and_zero_features_memoized(self):
        config = small_config()
        assert feature_size(config) == feature_size(small_config())
        zeros = zero_features(config)
        assert zeros is zero_features(small_config())  # equal configs share
        assert not zeros.flags.writeable
        assert zeros.shape == (feature_size(config),)

    def test_mask_cache_matches_direct_compute(self):
        func, op = _matmul_func()
        scheduled = ScheduledFunction(func)
        schedule = scheduled.schedule_of(op)
        env = MlirRlEnv(config=CONFIG, executor=CachingExecutor())
        for _ in range(2):  # second lookup is the cached path
            cached = env._mask_cache.lookup(schedule, has_producer=False)
            direct = compute_mask(schedule, CONFIG, has_producer=False)
            np.testing.assert_array_equal(
                cached.transformation, direct.transformation
            )
            for key in direct.params:
                np.testing.assert_array_equal(
                    cached.params[key], direct.params[key]
                )

    def test_static_features_track_schedule_changes(self):
        """The dynamic slice still updates while statics are memoized."""
        func, op = _matmul_func()
        scheduled = ScheduledFunction(func)
        schedule = scheduled.schedule_of(op)
        from repro.env.history import ActionHistory

        history = ActionHistory(CONFIG)
        before = op_features(schedule, history, CONFIG)
        again = op_features(schedule, history, CONFIG)
        np.testing.assert_array_equal(before, again)
        scheduled.apply(op, Tiling((8, 0, 0)))
        history.record(Tiling((8, 0, 0)))
        after = op_features(schedule, history, CONFIG)
        assert not np.array_equal(before, after)
        uncached = op_features(schedule, history, CONFIG, cache=False)
        np.testing.assert_array_equal(after, uncached)


class TestPooledExecutorSafety:
    def test_concurrent_pooled_executor_is_singleton(self):
        reset_pool()
        try:
            results = []
            barrier = threading.Barrier(8)

            def grab():
                barrier.wait()
                results.append(pooled_executor())

            threads = [threading.Thread(target=grab) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len({id(executor) for executor in results}) == 1
        finally:
            reset_pool()

    def test_concurrent_cache_use_is_consistent(self):
        """Hammer one shared cache from threads; totals must add up."""
        executor = CachingExecutor()
        funcs = [_matmul_func(16, 16, k)[0] for k in (4, 8, 16, 32)]
        errors = []

        def work(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(25):
                    executor.run_baseline(funcs[rng.integers(len(funcs))])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = executor.stats
        # Every run_baseline resolves exactly one schedule-level lookup.
        assert stats.schedule_hits + stats.schedule_misses == 6 * 25
        assert stats.evaluations >= len(funcs)
