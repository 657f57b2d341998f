"""Machine-spec registry, hardware features, and cross-spec isolation.

The hardware axis of the environment (PR 5): named specs resolve
through the registry, every spec exposes a fixed-length normalized
feature vector, observations can be conditioned on the execution
target, and the spec-keyed execution cache keeps machines from ever
replaying each other's timings — including across fork workers.
"""

import numpy as np
import pytest

from repro.env import MlirRlEnv, feature_size, small_config
from repro.env.features import machine_feature_vector
from repro.env.vector import VecMlirRlEnv
from repro.ir import FuncOp, matmul, tensor
from repro.machine import (
    DEFAULT_MACHINE,
    MACHINE_FEATURE_SIZE,
    XEON_E5_2680_V4,
    CachingExecutor,
    ExecutionCache,
    Executor,
    MachineSpec,
    machine_names,
    pooled_executor,
    register_machine,
    reset_pool,
    scaled_spec,
    spec,
)
from repro.transforms import (
    ScheduledFunction,
    TiledParallelization,
    Vectorization,
)


def _matmul_func(m=48, n=32, k=16):
    a, b, c = tensor([m, k]), tensor([k, n]), tensor([m, n])
    func = FuncOp("mm", [a, b, c])
    op = func.append(matmul(a, b, c))
    func.returns = [op.result()]
    return func, op


class TestRegistry:
    def test_contains_at_least_four_machines(self):
        names = machine_names()
        assert len(names) >= 4
        assert names[0] == DEFAULT_MACHINE

    def test_default_resolves_to_the_paper_singleton(self):
        """Default-path consumers must see the exact pre-registry spec."""
        assert spec() is XEON_E5_2680_V4
        assert spec(DEFAULT_MACHINE) is XEON_E5_2680_V4

    def test_spec_passthrough_and_unknown(self):
        machine = spec("laptop-8core")
        assert spec(machine) is machine
        with pytest.raises(KeyError, match="laptop-8core"):
            spec("no-such-machine")

    def test_registered_specs_are_distinct_and_hashable(self):
        specs = [spec(name) for name in machine_names()]
        assert len(set(specs)) == len(specs)  # usable as cache/pool keys

    def test_register_machine_and_overwrite_guard(self):
        custom = scaled_spec("laptop-8core", cores=2)
        register_machine("test-tiny", custom, overwrite=True)
        try:
            assert spec("test-tiny") == custom
            with pytest.raises(ValueError, match="already registered"):
                register_machine("test-tiny", custom)
        finally:
            import repro.machine.registry as registry

            registry._REGISTRY.pop("test-tiny", None)

    def test_scaled_spec(self):
        base = spec("laptop-8core")
        scaled = scaled_spec(
            "laptop-8core", cores=16, cache_scale=2.0, bandwidth_scale=0.5
        )
        assert scaled.cores == 16
        assert scaled.caches[0].capacity == 2 * base.caches[0].capacity
        assert scaled.dram_bandwidth_cap == 0.5 * base.dram_bandwidth_cap
        assert isinstance(scaled, MachineSpec)
        with pytest.raises(ValueError):
            scaled_spec(cores=0)
        with pytest.raises(ValueError):
            scaled_spec(cache_scale=0.0)

    def test_every_registry_machine_times_programs(self):
        """All specs — including the two-level edge core — drive the
        full cost model."""
        func, _ = _matmul_func()
        seconds = {
            name: Executor(spec(name)).run_baseline(func).seconds
            for name in machine_names()
        }
        assert all(value > 0 for value in seconds.values())
        assert len(set(seconds.values())) == len(seconds)


class TestMachineFeatures:
    def test_fixed_length_normalized_and_distinct(self):
        vectors = {}
        for name in machine_names():
            features = spec(name).features()
            assert features.shape == (MACHINE_FEATURE_SIZE,)
            assert features.dtype == np.float32
            assert np.isfinite(features).all()
            assert float(np.abs(features).max()) <= 2.0
            vectors[name] = features
        names = list(vectors)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                assert not np.array_equal(vectors[a], vectors[b])

    def test_memoized_and_read_only(self):
        features = spec("laptop-8core").features()
        assert features is spec("laptop-8core").features()
        with pytest.raises(ValueError):
            features[0] = 1.0

    def test_feature_size_is_layout_not_machine_dependent(self):
        base = small_config()
        assert feature_size(small_config(machine="laptop-8core")) == (
            feature_size(base)
        )
        assert feature_size(small_config(machine_features=True)) == (
            feature_size(base) + MACHINE_FEATURE_SIZE
        )

    def test_machine_feature_vector_helper(self):
        assert machine_feature_vector(small_config()) is None
        conditioned = small_config(
            machine="edge-cortex-a72", machine_features=True
        )
        vector = machine_feature_vector(conditioned)
        assert np.array_equal(vector, spec("edge-cortex-a72").features())


class TestConditionedObservations:
    def test_observation_carries_target_machine_block(self):
        func, _ = _matmul_func()
        conditioned = small_config(machine_features=True)
        env = MlirRlEnv(config=conditioned)
        observation = env.reset(func)
        assert observation.consumer.shape[0] == feature_size(conditioned)
        block = observation.consumer[-MACHINE_FEATURE_SIZE:]
        assert np.array_equal(block, XEON_E5_2680_V4.features())

    def test_default_layout_is_unchanged(self):
        """machine_features=False: same vectors as the seed layout, and
        the machine block is a pure suffix on top of it."""
        func, _ = _matmul_func()
        default_env = MlirRlEnv(config=small_config())
        conditioned_env = MlirRlEnv(
            config=small_config(machine_features=True)
        )
        default = default_env.reset(func)
        conditioned = conditioned_env.reset(_matmul_func()[0])
        assert np.array_equal(
            default.consumer,
            conditioned.consumer[:-MACHINE_FEATURE_SIZE],
        )

    def test_set_machine_switches_block_and_timing(self):
        func, op = _matmul_func()
        config = small_config(machine_features=True)
        env = MlirRlEnv(config=config)
        env.reset(func)
        xeon_speedup = env.final_speedup()
        env.set_machine(spec("edge-cortex-a72"))
        observation = env.reset(_matmul_func()[0])
        block = observation.consumer[-MACHINE_FEATURE_SIZE:]
        assert np.array_equal(block, spec("edge-cortex-a72").features())
        assert env.executor.spec == spec("edge-cortex-a72")
        assert xeon_speedup > 0

    def test_set_machine_accepts_registry_names(self):
        env = MlirRlEnv(config=small_config())
        env.set_machine("laptop-8core")
        assert env.executor.spec == spec("laptop-8core")
        with pytest.raises(KeyError):
            env.set_machine("no-such-machine")
        vec = VecMlirRlEnv(2, config=small_config())
        vec.set_machine("edge-cortex-a72")
        assert vec.executor.spec == spec("edge-cortex-a72")

    def test_vec_env_set_machine_shares_one_executor(self):
        vec = VecMlirRlEnv(3, config=small_config())
        cache = vec.executor.cache
        vec.set_machine(spec("laptop-8core"))
        assert vec.executor.spec == spec("laptop-8core")
        assert vec.executor.cache is cache  # warm entries survive
        assert all(env.executor is vec.executor for env in vec.envs)

    def test_async_env_machine_matches_in_process(self):
        """Workers time on the config's machine: rewards match the
        in-process vector env on the same spec."""
        from repro.env import EnvAction
        from repro.transforms import TransformKind

        config = small_config(
            machine="laptop-8core", max_episode_steps=16
        )
        func = _matmul_func()[0]
        parallelize = EnvAction(
            TransformKind.TILED_PARALLELIZATION,
            tile_indices=(3, 3, 0, 0, 0, 0),
        )
        stop = EnvAction(TransformKind.NO_TRANSFORMATION)
        sync = VecMlirRlEnv(1, config=config)
        sync.reset([_matmul_func()[0]])
        sync.step([parallelize])
        expected = sync.step([stop])
        with VecMlirRlEnv(1, config=config, processes=True) as async_env:
            async_env.reset([func])
            async_env.step([parallelize])
            actual = async_env.step([stop])
            assert actual.rewards.tolist() == expected.rewards.tolist()
            # and retargeting workers mid-run works: the same schedule
            # scales differently on a 4-core narrow-vector edge part
            async_env.set_machine(spec("edge-cortex-a72"))
            async_env.reset([_matmul_func()[0]])
            async_env.step([parallelize])
            edge = async_env.step([stop])
        assert edge.infos[0]["speedup"] != actual.infos[0]["speedup"]

    def test_async_env_workers_follow_parent_executor_spec(self):
        """Workers time on the machine of the executor the pool is built
        on, like in-process envs, not on the config's default machine."""
        from repro.env import EnvAction
        from repro.transforms import TransformKind

        config = small_config(max_episode_steps=16)
        parallelize = EnvAction(
            TransformKind.TILED_PARALLELIZATION,
            tile_indices=(3, 3, 0, 0, 0, 0),
        )
        stop = EnvAction(TransformKind.NO_TRANSFORMATION)
        results = []
        for processes in (False, True):
            vec = VecMlirRlEnv(
                1,
                config=config,
                executor=CachingExecutor(spec("edge-cortex-a72")),
                processes=processes,
            )
            vec.reset([_matmul_func()[0]])
            first = vec.step([parallelize])
            results.append(
                (
                    first.observation.consumer.tolist(),
                    vec.step([stop]).infos[0]["speedup"],
                )
            )
            vec.close()
        assert results[0] == results[1]


class TestCrossSpecCacheIsolation:
    def _scheduled(self):
        func, op = _matmul_func()
        scheduled = ScheduledFunction(func)
        scheduled.apply(op, TiledParallelization((8, 8, 0)))
        scheduled.apply(op, Vectorization())
        return scheduled

    def test_identical_schedules_get_distinct_entries_per_spec(self):
        """One shared cache, two specs: both levels key on the spec, so
        each machine pays its own evaluation and replays its own value."""
        cache = ExecutionCache()
        xeon = CachingExecutor(spec(), cache=cache)
        edge = CachingExecutor(spec("edge-cortex-a72"), cache=cache)
        scheduled = self._scheduled()
        xeon_result = xeon.run_scheduled(scheduled)
        edge_result = edge.run_scheduled(scheduled)
        assert xeon_result.seconds != edge_result.seconds
        assert cache.stats.evaluations == 2  # no cross-spec replay
        assert len(cache) == 2
        # Warm replays return each spec's own timing bit-identically.
        assert xeon.run_scheduled(scheduled).seconds == xeon_result.seconds
        assert edge.run_scheduled(scheduled).seconds == edge_result.seconds
        assert cache.stats.evaluations == 2
        # And both match the uncached executors.
        assert (
            Executor(spec()).run_scheduled(scheduled).seconds
            == xeon_result.seconds
        )
        assert (
            Executor(spec("edge-cortex-a72")).run_scheduled(scheduled).seconds
            == edge_result.seconds
        )

    def test_drain_absorb_preserves_spec_keys(self):
        """Shipped entries stay spec-keyed: absorbing another process's
        updates can never replay timings across machines."""
        source = ExecutionCache()
        xeon = CachingExecutor(spec(), cache=source)
        edge = CachingExecutor(spec("edge-cortex-a72"), cache=source)
        scheduled = self._scheduled()
        xeon_seconds = xeon.run_scheduled(scheduled).seconds
        edge_seconds = edge.run_scheduled(scheduled).seconds
        updates = source.drain_updates()

        target = ExecutionCache()
        target.absorb_updates(updates)
        warm_xeon = CachingExecutor(spec(), cache=target)
        warm_edge = CachingExecutor(spec("edge-cortex-a72"), cache=target)
        before = target.stats.evaluations
        assert warm_xeon.run_scheduled(scheduled).seconds == xeon_seconds
        assert warm_edge.run_scheduled(scheduled).seconds == edge_seconds
        assert target.stats.evaluations == before  # all hits, per spec

    def test_sync_timing_caches_is_spec_safe_across_fork_workers(self):
        """A pool on machine A syncs entries that a machine-B consumer
        can share a cache with — without ever replaying A's timings."""
        config = small_config(machine="laptop-8core", max_episode_steps=16)
        func = _matmul_func()[0]
        with VecMlirRlEnv(2, config=config, processes=True) as async_env:
            async_env.reset([_matmul_func()[0], _matmul_func()[0]])
            exchanged = async_env.sync_timing_caches()
            assert exchanged > 0
            parent_cache = async_env.executor.cache
            # Every exchanged entry is keyed by the laptop spec — a
            # laptop executor sharing this cache replays warm while a
            # Xeon executor still evaluates fresh.
            laptop = CachingExecutor(spec("laptop-8core"), cache=parent_cache)
            before = parent_cache.stats.evaluations
            laptop.run_baseline(func)
            assert parent_cache.stats.evaluations == before  # warm
            xeon = CachingExecutor(spec(), cache=parent_cache)
            xeon.run_baseline(func)
            assert parent_cache.stats.evaluations == before + 1  # isolated

    def test_pooled_executor_accepts_registry_names(self):
        reset_pool()
        try:
            assert pooled_executor("laptop-8core") is pooled_executor(
                spec("laptop-8core")
            )
            assert pooled_executor() is pooled_executor(DEFAULT_MACHINE)
            assert pooled_executor("edge-cortex-a72") is not pooled_executor()
        finally:
            reset_pool()


class TestLruRecencyRegression:
    def test_schedule_level_reput_refreshes_recency(self):
        """Re-inserting an existing key must move it to the LRU's fresh
        end — the old put path left it in its stale slot, so a freshly
        re-put entry could be evicted as if it were the oldest."""
        from repro.machine.timing import TimingBreakdown

        cache = ExecutionCache(maxsize=8, schedule_maxsize=2)
        breakdown = TimingBreakdown(1.0, 1.0, 0.0, 0.0, 1)
        cache.schedule_put(("a",), breakdown)
        cache.schedule_put(("b",), breakdown)
        cache.schedule_put(("a",), breakdown)  # re-put: refresh, not stale
        cache.schedule_put(("c",), breakdown)  # evicts b (oldest), not a
        assert cache.schedule_get(("a",)) is not None
        assert cache.schedule_get(("b",)) is None
        assert cache.stats.schedule_evictions == 1
