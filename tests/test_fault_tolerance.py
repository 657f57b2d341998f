"""Fault-tolerance layer: guards, crash-safe persistence, and the
dead-worker regressions.

Companion to ``test_fault_injection.py`` (which drives the recovery
paths with deterministic FaultPlans); this file covers the building
blocks directly: GuardedExecutor retry/timeout/quarantine semantics,
atomic writes + checksum sidecars, cache salvage, checkpoint integrity,
the pool's ``close`` with dead or hung workers and its receive timeout,
and the pool-reset race hardening.
"""

import json
import threading

import numpy as np
import pytest

from repro.env import EnvAction, small_config, vector
from repro.env.environment import MlirRlEnv
from repro.env.vector import VecMlirRlEnv, WorkerError
from repro.fault.atomic import (
    CorruptArtifactError,
    atomic_write_text,
    checksum_path,
    verify_checksum,
)
from repro.fault.guard import (
    ExecutionFault,
    ExecutionTimeout,
    GuardedExecutor,
    GuardPolicy,
    QuarantinedError,
    QuarantineList,
)
from repro.ir import FuncOp, matmul, tensor
from repro.machine import CachingExecutor, ExecutionCache
from repro.machine.executor import ExecutionResult, Executor
from repro.machine.service import (
    CacheFormatError,
    pooled_executor,
    reset_pool,
    retargeted_executor,
)
from repro.machine.timing import TimingBreakdown
from repro.transforms import TransformKind

CONFIG = small_config(max_episode_steps=48)


def _matmul_func(m=24, n=16, k=8):
    a, b, c = tensor([m, k]), tensor([k, n]), tensor([m, n])
    func = FuncOp("mm", [a, b, c])
    op = func.append(matmul(a, b, c))
    func.returns = [op.result()]
    return func


class _FlakyExecutor(Executor):
    """Fails the first ``failures`` calls, then delegates."""

    def __init__(self, failures: int):
        self.inner = CachingExecutor()
        super().__init__(self.inner.spec)
        self.remaining = failures
        self.calls = 0

    def _maybe_fail(self):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise RuntimeError("transient backend failure")

    def run_baseline(self, func):
        self._maybe_fail()
        return self.inner.run_baseline(func)

    def run_scheduled(self, scheduled):
        self._maybe_fail()
        return self.inner.run_scheduled(scheduled)


class _SlowExecutor(Executor):
    """Blocks long enough to trip a short wall-clock timeout."""

    def __init__(self, seconds: float):
        super().__init__(CachingExecutor().spec)
        self.seconds = seconds

    def run_baseline(self, func):
        import time

        time.sleep(self.seconds)
        return ExecutionResult(1.0, TimingBreakdown(1.0, 1.0, 0.0, 0.0, 1))

    def run_scheduled(self, scheduled):
        return self.run_baseline(scheduled.func)


class TestGuardPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            GuardPolicy(timeout_seconds=-1)
        with pytest.raises(ValueError):
            GuardPolicy(retries=-1)
        with pytest.raises(ValueError):
            GuardPolicy(backoff_seconds=-0.5)
        with pytest.raises(ValueError):
            GuardPolicy(quarantine_threshold=-1)


class TestGuardedExecutor:
    def test_success_results_bit_identical(self):
        func = _matmul_func()
        plain = CachingExecutor()
        guarded = GuardedExecutor(CachingExecutor())
        assert (
            guarded.run_baseline(func).seconds
            == plain.run_baseline(func).seconds
        )

    def test_retry_recovers_transient_failures(self):
        guarded = GuardedExecutor(
            _FlakyExecutor(failures=2), GuardPolicy(retries=2)
        )
        result = guarded.run_baseline(_matmul_func())
        assert result.seconds > 0
        assert guarded.errors == 2
        assert guarded.retried == 2

    def test_failure_past_retries_raises_execution_fault(self):
        guarded = GuardedExecutor(
            _FlakyExecutor(failures=10), GuardPolicy(retries=1)
        )
        with pytest.raises(ExecutionFault, match="2 attempt"):
            guarded.run_baseline(_matmul_func())

    def test_wall_clock_timeout(self):
        guarded = GuardedExecutor(
            _SlowExecutor(10.0),
            GuardPolicy(timeout_seconds=0.05, retries=0),
        )
        with pytest.raises(ExecutionTimeout, match="wall clock"):
            guarded.run_baseline(_matmul_func())
        assert guarded.timeouts == 1

    def test_quarantine_blocks_after_threshold(self):
        guarded = GuardedExecutor(
            _FlakyExecutor(failures=100),
            GuardPolicy(retries=0, quarantine_threshold=2),
        )
        func = _matmul_func()
        for _ in range(2):
            with pytest.raises(ExecutionFault):
                guarded.run_baseline(func)
        # Third call is skipped instantly, without touching the backend.
        inner_calls = guarded.inner.calls
        with pytest.raises(QuarantinedError):
            guarded.run_baseline(func)
        assert guarded.inner.calls == inner_calls
        assert guarded.skipped_quarantined == 1
        assert guarded.telemetry()["quarantined"] == 1

    def test_success_resets_failure_count(self):
        flaky = _FlakyExecutor(failures=1)
        guarded = GuardedExecutor(
            flaky, GuardPolicy(retries=0, quarantine_threshold=2)
        )
        func = _matmul_func()
        with pytest.raises(ExecutionFault):
            guarded.run_baseline(func)
        guarded.run_baseline(func)  # success: counter resets
        flaky.remaining = 1
        with pytest.raises(ExecutionFault):
            guarded.run_baseline(func)
        guarded.run_baseline(func)  # still not quarantined

    def test_cache_and_stats_delegate(self):
        inner = CachingExecutor()
        guarded = GuardedExecutor(inner)
        assert guarded.cache is inner.cache
        assert guarded.stats is inner.stats

    def test_retargeted_preserves_guard_and_quarantine(self):
        from repro.machine.registry import spec

        guarded = GuardedExecutor(
            CachingExecutor(), GuardPolicy(retries=5)
        )
        target = spec("epyc-7763-64core")
        moved = retargeted_executor(guarded, target)
        assert isinstance(moved, GuardedExecutor)
        assert moved.spec == target
        assert moved.policy.retries == 5
        assert moved.quarantine is guarded.quarantine
        assert moved.cache is guarded.cache  # warm cache survives


class TestQuarantinePersistence:
    def test_save_load_round_trip(self, tmp_path):
        quarantine = QuarantineList(threshold=1)
        assert quarantine.record_failure(("k", 1))
        path = tmp_path / "quarantine.json"
        assert quarantine.save(path) == 1
        restored = QuarantineList(threshold=1)
        assert restored.load(path) == 1
        assert restored.is_quarantined(("k", 1))
        assert not restored.is_quarantined(("k", 2))

    def test_corrupt_file_detected(self, tmp_path):
        quarantine = QuarantineList(threshold=1)
        quarantine.record_failure(("k", 1))
        path = tmp_path / "quarantine.json"
        quarantine.save(path)
        path.write_text(path.read_text()[:10])
        with pytest.raises(CorruptArtifactError):
            QuarantineList().load(path)


class TestAtomicWrites:
    def test_checksum_round_trip(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_text(path, '{"ok": true}')
        assert checksum_path(path).exists()
        assert verify_checksum(path) is True

    def test_no_sidecar_is_legacy_not_error(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text("{}")
        assert verify_checksum(path) is False

    def test_torn_write_detected(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_text(path, '{"payload": "' + "x" * 100 + '"}')
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptArtifactError) as excinfo:
            verify_checksum(path)
        assert excinfo.value.path == path


class TestCachePersistence:
    def _warm_cache(self):
        executor = CachingExecutor(cache=ExecutionCache())
        executor.run_baseline(_matmul_func())
        executor.run_baseline(_matmul_func(16, 8, 4))
        return executor.cache

    def test_save_bytes_unchanged_and_sidecar_written(self, tmp_path):
        """Atomicity must not change the artifact's own bytes."""
        cache = self._warm_cache()
        path = tmp_path / "cache.json"
        written = cache.save(path)
        assert written > 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"version", "entries"}  # no new fields
        assert checksum_path(path).exists()
        assert verify_checksum(path) is True

    def test_malformed_json_raises_cache_format_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{definitely not json")
        with pytest.raises(CacheFormatError, match="malformed JSON"):
            ExecutionCache().load(path)

    def test_corrupt_entry_names_file_and_row(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"version":1,"entries":[["schedule",{"unknown-tag":1},'
            '{"bd":[1,1,0,0,1]}]]}'
        )
        with pytest.raises(CacheFormatError) as excinfo:
            ExecutionCache().load(path)
        assert excinfo.value.path == path
        assert "unknown-tag" in str(excinfo.value)

    def test_unknown_level_names_file_and_row(self, tmp_path):
        path = tmp_path / "cache.json"
        self._warm_cache().save(path)
        checksum_path(path).unlink()
        text = path.read_text()
        assert '["schedule",' in text
        path.write_text(text.replace('["schedule",', '["canonical",'))
        with pytest.raises(CacheFormatError, match="unknown cache level"):
            ExecutionCache().load(path)

    def test_bad_version_still_raises_value_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(ValueError, match="version"):
            ExecutionCache().load(path)

    def test_feature_version_mismatch_ignored_with_warning(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(
            '{"version": 1, "feature_version": "someone-elses", '
            '"entries": []}'
        )
        with pytest.warns(UserWarning, match="feature_version"):
            assert ExecutionCache().load(path) == 0

    def test_truncated_file_salvages_valid_prefix(self, tmp_path):
        cache = self._warm_cache()
        path = tmp_path / "cache.json"
        total = cache.save(path)
        assert total >= 2
        text = path.read_text()
        # Cut inside the *last* entry: the prefix stays parseable.
        cut = text.rfind("],[")
        assert cut > 0
        path.write_text(text[: cut + 1])
        with pytest.raises(CorruptArtifactError):
            ExecutionCache().load(path)
        salvaged = ExecutionCache()
        with pytest.warns(UserWarning, match="salvaged"):
            recovered = salvaged.load(path, salvage=True)
        assert 0 < recovered < total

    def test_salvage_of_intact_file_loads_everything(self, tmp_path):
        cache = self._warm_cache()
        path = tmp_path / "cache.json"
        total = cache.save(path)
        assert ExecutionCache().load(path, salvage=True) == total


class TestCheckpointIntegrity:
    def _agent(self):
        from repro.rl.agent import ActorCritic

        return ActorCritic(CONFIG, np.random.default_rng(0), hidden_size=8)

    def test_save_agent_writes_sidecar_and_verifies(self, tmp_path):
        from repro.rl import load_agent, save_agent

        agent = self._agent()
        path = tmp_path / "agent.npz"
        save_agent(agent, path)
        assert checksum_path(path).exists()
        load_agent(self._agent(), path)  # verifies, then loads

    def test_truncated_checkpoint_detected(self, tmp_path):
        from repro.rl import load_agent, save_agent

        agent = self._agent()
        path = tmp_path / "agent.npz"
        save_agent(agent, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptArtifactError):
            load_agent(self._agent(), path)

    def test_legacy_checkpoint_without_sidecar_loads(self, tmp_path):
        from repro.rl import load_agent, save_agent

        agent = self._agent()
        path = tmp_path / "agent.npz"
        save_agent(agent, path)
        checksum_path(path).unlink()
        load_agent(self._agent(), path)


class TestDeadWorkerRegressions:
    """``close()`` never deadlocks on a dead or hung worker, and a
    silent worker is flagged as hung."""

    def test_close_with_dead_worker_does_not_hang(self):
        async_env = VecMlirRlEnv(2, config=CONFIG, processes=True)
        async_env.reset([_matmul_func()])
        async_env._processes[0].kill()
        async_env._processes[0].join(timeout=5)
        async_env.close()  # must return promptly
        assert async_env.closed

    def test_close_with_hung_worker_terminates_it(self):
        async_env = VecMlirRlEnv(1, config=CONFIG, processes=True)
        # Park the worker in a long sleep so it cannot answer "close".
        async_env._parents[0].send(("hang", 60.0))
        async_env.close()
        assert not async_env._processes[0].is_alive()

    def test_recv_timeout_flags_hung_worker_as_alive(self, monkeypatch):
        monkeypatch.setattr(vector, "RECV_TIMEOUT_SECONDS", 0.2)
        async_env = VecMlirRlEnv(1, config=CONFIG, processes=True)
        try:
            async_env._send(0, ("hang", 30.0))
            with pytest.raises(WorkerError, match="hung") as excinfo:
                async_env._recv(0)
            assert excinfo.value.alive
        finally:
            async_env.close()


class TestPoolResetRace:
    """The double ``reset_pool()`` satellite."""

    def test_concurrent_resets_and_lookups(self):
        errors = []
        stop = threading.Event()

        def hammer_reset():
            while not stop.is_set():
                try:
                    reset_pool()
                except Exception as error:  # pragma: no cover
                    errors.append(error)

        def hammer_lookup():
            while not stop.is_set():
                try:
                    pooled_executor()
                except Exception as error:  # pragma: no cover
                    errors.append(error)

        threads = [
            threading.Thread(target=target)
            for target in (hammer_reset, hammer_reset, hammer_lookup)
        ]
        for thread in threads:
            thread.start()
        threads[0].join(timeout=0.3)
        stop.set()
        for thread in threads:
            thread.join(timeout=5)
        reset_pool()
        assert errors == []

    def test_reset_is_idempotent(self):
        executor = pooled_executor()
        reset_pool()
        reset_pool()
        assert pooled_executor() is not executor


class TestFaultTolerantEnv:
    def test_default_config_is_unwrapped(self):
        env = MlirRlEnv(config=CONFIG)
        assert not isinstance(env.executor, GuardedExecutor)

    def test_fault_tolerance_wraps_executor(self):
        guard = GuardedExecutor(CachingExecutor())
        env = MlirRlEnv(config=CONFIG, executor=guard)
        assert env.executor is guard

    def test_guarded_episode_matches_unguarded(self):
        func = _matmul_func()
        plain = MlirRlEnv(config=CONFIG)
        guarded = MlirRlEnv(
            config=CONFIG,
            executor=GuardedExecutor(CachingExecutor(), GuardPolicy(retries=1)),
        )
        action = EnvAction(TransformKind.NO_TRANSFORMATION)
        plain.reset(func)
        guarded.reset(func)
        expected = plain.step(action)
        actual = guarded.step(action)
        assert actual.reward == expected.reward
        assert actual.done == expected.done
        assert actual.info["speedup"] == expected.info["speedup"]

    def test_set_machine_keeps_guard(self):
        env = MlirRlEnv(
            config=CONFIG, executor=GuardedExecutor(CachingExecutor())
        )
        from repro.machine.registry import spec

        env.set_machine("epyc-7763-64core")
        assert isinstance(env.executor, GuardedExecutor)
        assert env.executor.spec == spec("epyc-7763-64core")
