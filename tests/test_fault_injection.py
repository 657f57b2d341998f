"""Deterministic fault injection: FaultPlan, worker recovery in the
rollout pool, and the chaos-smoke recovery-identity property.

The load-bearing property is *recovery determinism*: a run that suffers
injected worker kills, execution timeouts, and torn cache writes must
finish with the same rewards, the same checkpoint bytes, and a usable
cache — because respawned workers replay the logged episode prefix from
the original seeds, guarded executors absorb transient faults via
retries, and atomic writes make torn files detectable and salvageable.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.env import EnvAction, small_config, vector
from repro.env.environment import FAULT_PENALTY, MlirRlEnv
from repro.env.vector import MAX_RESPAWNS, VecMlirRlEnv, WorkerError
from repro.fault import (
    CorruptArtifactError,
    FaultEvent,
    FaultPlan,
    GuardedExecutor,
    GuardPolicy,
    active_plan,
    chaos,
    install_plan,
    random_plan,
)
from repro.fault.plan import _clear_plan_after_fork
from repro.ir import FuncOp, add, empty, matmul, relu, tensor
from repro.machine import CachingExecutor, ExecutionCache
from repro.rl.agent import ActorCritic
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.transforms import TransformKind

CONFIG = small_config(max_episode_steps=48)


def _matmul_func(m=24, n=16, k=8):
    a, b, c = tensor([m, k]), tensor([k, n]), tensor([m, n])
    func = FuncOp("mm", [a, b, c])
    op = func.append(matmul(a, b, c))
    func.returns = [op.result()]
    return func


def _chain_func():
    x, y = tensor([24, 24]), tensor([24, 24])
    func = FuncOp("chain", [x, y])
    first = func.append(add(x, y, empty([24, 24])))
    second = func.append(relu(first.result(), empty([24, 24])))
    func.returns = [second.result()]
    return func


def _scripted_action(observation, rng, config):
    mask = observation.mask
    legal = mask.legal_transformations()
    kind = legal[rng.integers(len(legal))]
    if kind in (
        TransformKind.TILING,
        TransformKind.TILED_PARALLELIZATION,
        TransformKind.TILED_FUSION,
    ):
        indices = tuple(
            int(rng.integers(config.num_tile_sizes))
            for _ in range(config.max_loops)
        )
        return EnvAction(kind, tile_indices=indices)
    if kind is TransformKind.INTERCHANGE:
        choices = np.flatnonzero(mask.interchange)
        return EnvAction(kind, pointer_loop=int(rng.choice(choices)))
    return EnvAction(kind)


def _run_vec(vec_env, funcs, seed):
    """Drive any vec env with the scripted policy; returns the record."""
    rngs = [np.random.default_rng(seed + i) for i in range(len(funcs))]
    vec_obs = vec_env.reset(list(funcs))
    record = []
    for _ in range(64):
        actions = [None] * vec_env.num_envs
        for index in range(len(funcs)):
            if vec_obs.active[index]:
                actions[index] = _scripted_action(
                    vec_obs.observation_of(index), rngs[index], vec_env.config
                )
        if all(action is None for action in actions):
            break
        result = vec_env.step(actions)
        record.append(
            (
                result.rewards.tolist(),
                result.dones.tolist(),
                [info.get("speedup") for info in result.infos],
            )
        )
        vec_obs = result.observation
    return record


_BASELINE_RECORDS: dict = {}


def _baseline_record(funcs, seed):
    # The fault-free reference comes from the in-process vector env, so
    # it does not depend on the pool under test.  Memoized per seed: the
    # property tests replay the same reference for every hypothesis
    # example (funcs are always the standard [matmul, chain] pair at a
    # given seed).
    if seed not in _BASELINE_RECORDS:
        vec_env = VecMlirRlEnv(len(funcs), config=CONFIG)
        _BASELINE_RECORDS[seed] = _run_vec(vec_env, funcs, seed)
    return _BASELINE_RECORDS[seed]


class TestFaultEvent:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="site"):
            FaultEvent("disk", 1, "kill")

    def test_kind_must_match_site(self):
        with pytest.raises(ValueError, match="cannot fire"):
            FaultEvent("worker", 1, "timeout")

    def test_occurrences_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultEvent("worker", 0, "kill")

    def test_duplicate_occurrence_rejected(self):
        with pytest.raises(ValueError, match="two events"):
            FaultPlan(
                [
                    FaultEvent("worker", 1, "kill"),
                    FaultEvent("worker", 1, "kill"),
                ]
            )


class TestFaultPlan:
    def test_draw_counts_occurrences(self):
        plan = FaultPlan([FaultEvent("exec", 2, "timeout")])
        assert plan.draw("exec") is None
        assert plan.draw("exec") == "timeout"
        assert plan.draw("exec") is None
        assert plan.occurrences("exec") == 3
        assert plan.exhausted()
        assert plan.fired[0].kind == "timeout"

    def test_sites_count_independently(self):
        plan = FaultPlan([FaultEvent("worker", 1, "kill")])
        assert plan.draw("exec") is None
        assert plan.draw("write") is None
        assert plan.draw("worker") == "kill"

    def test_reset_restores_pending_events(self):
        plan = FaultPlan([FaultEvent("worker", 1, "kill")])
        plan.draw("worker")
        assert plan.exhausted()
        plan.reset()
        assert not plan.exhausted()
        assert plan.pending() == [FaultEvent("worker", 1, "kill")]
        assert plan.draw("worker") == "kill"

    def test_parse_explicit_tokens(self):
        plan = FaultPlan.parse("worker.kill@2, exec.timeout@1")
        assert set(plan.events) == {
            FaultEvent("worker", 2, "kill"),
            FaultEvent("exec", 1, "timeout"),
        }

    def test_parse_randomized_counts_deterministic(self):
        spec = "kills=1,timeouts=2,seed=5,horizon=8"
        first = FaultPlan.parse(spec)
        second = FaultPlan.parse(spec)
        assert first.events == second.events
        assert sum(e.site == "worker" for e in first.events) == 1
        assert sum(e.site == "exec" for e in first.events) == 2

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("worker.kill")
        with pytest.raises(ValueError):
            FaultPlan.parse("nonsense")

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan.parse("worker.kill@1,write.partial_write@3")
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.events == plan.events
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.parse(str(path)).events == plan.events

    def test_report_names_fired_and_pending(self):
        plan = FaultPlan.parse("worker.kill@1,exec.error@9")
        plan.draw("worker")
        report = plan.report()
        assert "1/2 fired" in report
        assert "fired   worker#1: kill" in report
        assert "pending exec#9: error" in report

    def test_random_plan_is_seed_deterministic(self):
        assert random_plan(7).events == random_plan(7).events
        assert random_plan(7).events != random_plan(8).events


class TestPlanInstallation:
    def test_chaos_installs_and_restores(self):
        plan = FaultPlan([FaultEvent("worker", 1, "kill")])
        assert active_plan() is None
        with chaos(plan):
            assert active_plan() is plan
        assert active_plan() is None

    def test_fork_hook_clears_inherited_plan(self):
        install_plan(FaultPlan([FaultEvent("worker", 1, "kill")]))
        try:
            _clear_plan_after_fork()
            assert active_plan() is None
        finally:
            install_plan(None)


def _degrading_plan():
    """One worker kill whose every respawn attempt fails."""
    return FaultPlan(
        [FaultEvent("worker", 1, "kill")]
        + [
            FaultEvent("respawn", occurrence, "fail")
            for occurrence in range(1, MAX_RESPAWNS + 1)
        ]
    )


class TestSupervisedRecovery:
    def test_fault_free_run_is_bit_identical(self):
        funcs = [_matmul_func(), _chain_func()]
        expected = _baseline_record(funcs, seed=7)
        with VecMlirRlEnv(2, config=CONFIG, processes=True) as pool:
            actual = _run_vec(pool, funcs, seed=7)
            telemetry = pool.telemetry()
        assert actual == expected
        assert telemetry["respawns"] == 0
        assert telemetry["injected_kills"] == 0
        assert not telemetry["degraded"]

    def test_injected_kill_recovers_reward_identical(self):
        funcs = [_matmul_func(), _chain_func()]
        expected = _baseline_record(funcs, seed=7)
        plan = FaultPlan([FaultEvent("worker", 2, "kill")])
        with VecMlirRlEnv(2, config=CONFIG, processes=True, plan=plan) as pool:
            actual = _run_vec(pool, funcs, seed=7)
            telemetry = pool.telemetry()
        assert actual == expected
        assert telemetry["injected_kills"] == 1
        assert telemetry["respawns"] >= 1
        assert plan.exhausted()

    def test_externally_killed_worker_recovers(self):
        funcs = [_matmul_func(), _chain_func()]
        expected = _baseline_record(funcs, seed=11)
        with VecMlirRlEnv(2, config=CONFIG, processes=True) as pool:
            rngs = [np.random.default_rng(11 + i) for i in range(2)]
            vec_obs = pool.reset(list(funcs))
            record = []
            killed = False
            for _ in range(64):
                actions = [None, None]
                for index in range(2):
                    if vec_obs.active[index]:
                        actions[index] = _scripted_action(
                            vec_obs.observation_of(index), rngs[index], CONFIG
                        )
                if all(action is None for action in actions):
                    break
                if not killed and record:
                    pool._processes[0].kill()
                    pool._processes[0].join(timeout=5)
                    killed = True
                result = pool.step(actions)
                record.append(
                    (
                        result.rewards.tolist(),
                        result.dones.tolist(),
                        [info.get("speedup") for info in result.infos],
                    )
                )
                vec_obs = result.observation
            assert killed
            assert pool.telemetry()["respawns"] >= 1
        assert record == expected

    def test_hung_worker_recovers(self, monkeypatch):
        """A worker silent for RECV_TIMEOUT_SECONDS counts as hung: it
        is terminated, respawned and replayed, reward-identically."""
        monkeypatch.setattr(vector, "RECV_TIMEOUT_SECONDS", 0.5)
        funcs = [_matmul_func(), _chain_func()]
        expected = _baseline_record(funcs, seed=7)
        with VecMlirRlEnv(2, config=CONFIG, processes=True) as pool:
            pool._send(1, ("hang", 30.0))
            actual = _run_vec(pool, funcs, seed=7)
            assert pool.telemetry()["respawns"] == 1
        assert actual == expected

    def test_respawned_worker_reships_no_seeded_entries(self):
        """A respawned worker is warm-started with the parent's cache
        but never ships those entries back: every sync exchanges what
        the fault-free run's does, and the next sync with no steps
        between exchanges nothing."""
        funcs = [_matmul_func(), _chain_func()]

        def run(kill):
            with VecMlirRlEnv(2, config=CONFIG, processes=True) as pool:
                rngs = [np.random.default_rng(7 + i) for i in range(2)]
                vec_obs = pool.reset(list(funcs))
                record, syncs = [], []
                for step in range(64):
                    actions = [
                        _scripted_action(
                            vec_obs.observation_of(index), rngs[index], CONFIG
                        )
                        if vec_obs.active[index]
                        else None
                        for index in range(2)
                    ]
                    if all(action is None for action in actions):
                        break
                    if step == 1:
                        syncs.append(pool.sync_timing_caches())
                    if kill and step == 2:
                        # mid-episode: the victim is still stepping
                        victim = next(
                            index
                            for index, action in enumerate(actions)
                            if action is not None
                        )
                        pool._processes[victim].kill()
                        pool._processes[victim].join(timeout=5)
                    result = pool.step(actions)
                    record.append(
                        (
                            result.rewards.tolist(),
                            result.dones.tolist(),
                            [info.get("speedup") for info in result.infos],
                        )
                    )
                    vec_obs = result.observation
                syncs.append(pool.sync_timing_caches())
                syncs.append(pool.sync_timing_caches())
                assert pool.telemetry()["respawns"] == int(kill)
            return record, syncs

        plain_record, plain_syncs = run(kill=False)
        record, syncs = run(kill=True)
        assert record == plain_record == _baseline_record(funcs, seed=7)
        assert plain_syncs[0] > 0
        assert syncs == plain_syncs
        assert syncs[2] == 0

    def test_degrades_to_in_process_after_respawn_failures(self):
        funcs = [_matmul_func(), _chain_func()]
        expected = _baseline_record(funcs, seed=7)
        with VecMlirRlEnv(
            2, config=CONFIG, processes=True, plan=_degrading_plan()
        ) as pool:
            actual = _run_vec(pool, funcs, seed=7)
            assert pool.telemetry()["degraded"]
            # Nothing replays in-process slots, so nothing logs them.
            assert pool._logs == [None, None]
            # The degraded env keeps serving the full interface.
            speedup = pool.final_speedup(0)
            assert speedup > 0
            assert pool.sync_timing_caches() == 0
        assert actual == expected

    def test_worker_exception_is_not_a_fault(self):
        """An env that raises in a worker leaves it alive and in sync:
        the pool raises at once, names the worker, and closes, without
        respawning, replaying or degrading."""
        empty_func = FuncOp("empty", [tensor([4, 4])])
        pool = VecMlirRlEnv(2, config=CONFIG, processes=True)
        try:
            with pytest.raises(WorkerError, match="no linalg ops") as excinfo:
                pool.reset([_matmul_func(), empty_func])
            assert excinfo.value.index == 1
            assert "worker 1" in str(excinfo.value)
            assert pool.telemetry()["respawns"] == 0
            assert not pool.degraded
            assert pool.closed
        finally:
            pool.close()

    def test_workers_and_degraded_envs_follow_parent_guard(self):
        """The parent executor's GuardPolicy guards every worker and
        every degraded slot; an unguarded parent guards none."""
        # A baseline that takes tens of milliseconds against a budget of
        # a microsecond: a guarded worker times out (once: retries=0),
        # and its reset re-raises the fault.
        x, y = tensor([24, 24]), tensor([24, 24])
        long_chain = FuncOp("long_chain", [x, y])
        current = x
        for _ in range(200):
            current = long_chain.append(add(current, y, empty([24, 24])))
            current = current.result()
        long_chain.returns = [current]
        strict = GuardPolicy(timeout_seconds=1e-6, retries=0)
        guarded = GuardedExecutor(CachingExecutor(), strict)
        with (
            VecMlirRlEnv(1, config=CONFIG, executor=guarded, processes=True) as pool,
            pytest.raises(WorkerError, match="ExecutionTimeout.* 1 att"),
        ):
            pool.reset([long_chain])
        with VecMlirRlEnv(1, config=CONFIG, processes=True) as pool:
            assert pool.reset([long_chain]).active.all()

        policy = GuardPolicy(retries=4)
        with VecMlirRlEnv(
            2,
            config=CONFIG,
            executor=GuardedExecutor(CachingExecutor(), policy),
            processes=True,
            plan=_degrading_plan(),
        ) as pool:
            _run_vec(pool, [_matmul_func(), _chain_func()], seed=7)
            assert pool.degraded
            for env in pool.envs:
                assert isinstance(env.executor, GuardedExecutor)
                assert env.executor.policy == policy


def _resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class TestForkHeap:
    """The pool trims the parent's heap before every fork, so neither a
    respawn nor its victim's exit pays for freed memory's page tables."""

    def test_every_fork_trims_the_heap(self, monkeypatch):
        trims = []
        monkeypatch.setattr(vector, "_trim_heap", lambda: trims.append(1))
        plan = FaultPlan([FaultEvent("worker", 2, "kill")])
        with VecMlirRlEnv(2, config=CONFIG, processes=True, plan=plan) as pool:
            _run_vec(pool, [_matmul_func(), _chain_func()], seed=7)
            respawns = pool.telemetry()["respawns"]
        assert respawns >= 1
        assert len(trims) == 2 + respawns

    def test_trim_returns_freed_pages(self):
        vector._trim_heap()
        if not vector._malloc_trim:
            pytest.skip("the C library has no malloc_trim")
        # 64 KiB blocks come from the malloc heap, below its mmap
        # threshold; the live last block keeps free() from trimming the
        # heap top by itself.
        blocks = [np.ones(8192) for _ in range(1024)]
        keep = blocks[-1]
        del blocks
        before = _resident_bytes()
        vector._trim_heap()
        assert before - _resident_bytes() > 32 << 20
        assert keep.sum() == 8192


def _guarded_env(**policy):
    """An env on a guarded executor with ``GuardPolicy(**policy)``."""
    guard = GuardedExecutor(CachingExecutor(), GuardPolicy(**policy))
    return MlirRlEnv(config=CONFIG, executor=guard)


def _guarded_episode(func, plan, retries=2, timeout=5.0):
    """Rewards of one NO_TRANSFORMATION-scripted guarded episode."""
    env = _guarded_env(retries=retries, timeout_seconds=timeout)
    rewards = []
    with chaos(plan):
        env.reset(func)
        for _ in range(8):
            result = env.step(EnvAction(TransformKind.NO_TRANSFORMATION))
            rewards.append(result.reward)
            if result.done:
                break
    return rewards, env


class TestGuardedInjection:
    def test_timeout_with_retry_left_is_reward_identical(self):
        func = _matmul_func()
        clean, _ = _guarded_episode(func, FaultPlan())
        faulted, env = _guarded_episode(
            func, FaultPlan([FaultEvent("exec", 1, "timeout")]), retries=2
        )
        assert faulted == clean
        assert env.executor.timeouts == 1
        assert env.executor.retried == 1

    def test_fault_past_retries_ends_episode_with_penalty(self):
        func = _matmul_func()
        # Occurrence 1 is the baseline run during reset; occurrence 2
        # is the first step's schedule evaluation.
        plan = FaultPlan([FaultEvent("exec", 2, "error")])
        rewards, env = _guarded_episode(func, plan, retries=0)
        assert rewards[-1] == FAULT_PENALTY
        assert env.executor.errors >= 1

    def test_fault_info_reports_cause(self):
        func = _matmul_func()
        env = _guarded_env(retries=0)
        plan = FaultPlan([FaultEvent("exec", 2, "timeout")])
        with chaos(plan):
            env.reset(func)
            result = env.step(EnvAction(TransformKind.NO_TRANSFORMATION))
        assert result.done
        assert result.reward == FAULT_PENALTY
        assert "execution_fault" in result.info
        assert result.info["speedup"] == 1.0
        # The env is reusable after a faulted episode.
        env.reset(func)


class TestPartialWriteInjection:
    def _warm_cache(self):
        executor = CachingExecutor(cache=ExecutionCache())
        executor.run_baseline(_matmul_func())
        executor.run_baseline(_chain_func())
        return executor.cache

    def test_torn_write_detected_and_salvaged(self, tmp_path):
        cache = self._warm_cache()
        clean_path = tmp_path / "clean.json"
        cache.save(clean_path)
        torn_path = tmp_path / "torn.json"
        plan = FaultPlan([FaultEvent("write", 1, "partial_write")])
        with chaos(plan):
            cache.save(torn_path)
        assert plan.exhausted()
        assert torn_path.read_bytes() != clean_path.read_bytes()
        with pytest.raises(CorruptArtifactError):
            ExecutionCache().load(torn_path)
        salvaged = ExecutionCache()
        with pytest.warns(UserWarning, match="salvaged"):
            salvaged.load(torn_path, salvage=True)
        # The in-memory cache was never corrupted: a clean re-save is
        # byte-identical to the fault-free artifact.
        retry_path = tmp_path / "retry.json"
        cache.save(retry_path)
        assert retry_path.read_bytes() == clean_path.read_bytes()


class TestChaosSmoke:
    """The CI chaos-smoke scenario: one plan with a worker kill, an
    execution timeout, and a partial cache write; the run completes
    with fault-free rewards and every scheduled event fired."""

    def test_recovers_reward_identical_under_combined_plan(self, tmp_path):
        funcs = [_matmul_func(), _chain_func()]
        expected_record = _baseline_record(funcs, seed=7)
        clean_rewards, _ = _guarded_episode(_matmul_func(), FaultPlan())
        cache = CachingExecutor(cache=ExecutionCache())
        cache.run_baseline(_matmul_func())
        clean_path = tmp_path / "clean.json"
        cache.cache.save(clean_path)

        plan = FaultPlan(
            [
                FaultEvent("worker", 2, "kill"),
                FaultEvent("exec", 1, "timeout"),
                FaultEvent("write", 1, "partial_write"),
            ]
        )
        # Worker kill: the pool recovers by replay.
        with VecMlirRlEnv(2, config=CONFIG, processes=True, plan=plan) as pool:
            actual_record = _run_vec(pool, funcs, seed=7)
            assert pool.telemetry()["injected_kills"] == 1
        assert actual_record == expected_record

        # Execution timeout: absorbed by a retry, rewards identical.
        faulted_rewards, env = _guarded_episode(
            _matmul_func(), plan, retries=2
        )
        assert faulted_rewards == clean_rewards
        assert env.executor.timeouts == 1

        # Partial write: detected, salvaged, and retried byte-identical.
        torn_path = tmp_path / "torn.json"
        with chaos(plan):
            cache.cache.save(torn_path)
        with pytest.raises(CorruptArtifactError):
            ExecutionCache().load(torn_path)
        with pytest.warns(UserWarning, match="salvaged"):
            ExecutionCache().load(torn_path, salvage=True)
        retry_path = tmp_path / "retry.json"
        cache.cache.save(retry_path)
        assert retry_path.read_bytes() == clean_path.read_bytes()

        assert plan.exhausted(), plan.report()


class TestTrainingUnderChaos:
    def test_checkpoint_bytes_identical_after_worker_kills(self, tmp_path):
        funcs = [_matmul_func(), _chain_func()]

        def sampler(rng):
            return funcs[int(rng.integers(len(funcs)))]

        def run(plan, path):
            rng = np.random.default_rng(1)
            agent = ActorCritic(CONFIG, rng, hidden_size=16)
            env = MlirRlEnv(config=CONFIG)
            # The fault-free reference collects in-process through an
            # equally wide VecMlirRlEnv; the chaotic run uses the pool.
            ppo_config = PPOConfig(
                samples_per_iteration=3,
                minibatch_size=4,
                num_envs=2,
                num_workers=1 if plan is None else 2,
            )
            trainer = PPOTrainer(env, agent, sampler, ppo_config, seed=3)
            try:
                if plan is None:
                    history = trainer.train(2)
                else:
                    with chaos(plan):
                        history = trainer.train(2)
            finally:
                trainer.close()
            from repro.rl import save_agent

            save_agent(agent, path)
            return [
                (s.mean_reward, s.geomean_speedup, s.policy_loss, s.value_loss)
                for s in history.iterations
            ]

        clean_path = tmp_path / "clean.npz"
        clean = run(None, clean_path)
        plan = FaultPlan([FaultEvent("worker", 1, "kill")])
        chaotic_path = tmp_path / "chaos.npz"
        chaotic = run(plan, chaotic_path)
        assert chaotic == clean
        assert plan.exhausted()
        assert chaotic_path.read_bytes() == clean_path.read_bytes()


class TestFaultPlanProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_plans_are_valid_and_deterministic(self, seed):
        plan = random_plan(seed)
        assert plan.events == random_plan(seed).events
        occurrences = {}
        for event in plan.events:
            assert event.kind in ("kill", "timeout", "error", "partial_write")
            assert 1 <= event.occurrence <= 10
            key = (event.site, event.occurrence)
            assert key not in occurrences
            occurrences[key] = event
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.events == plan.events

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_draw_order_fires_every_event_exactly_once(self, seed):
        plan = random_plan(seed)
        fired = []
        for site in ("exec", "worker", "write", "respawn"):
            for _ in range(10):
                kind = plan.draw(site)
                if kind is not None:
                    fired.append((site, kind))
        assert plan.exhausted()
        assert len(fired) == len(plan.events)

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_plan_recovers_reward_identical(self, seed, tmp_path):
        """Any seeded plan: kills are replayed away, exec faults are
        absorbed by retries, torn writes never corrupt memory — final
        rewards and re-saved cache bytes match the fault-free run."""
        funcs = [_matmul_func(), _chain_func()]
        expected_record = _baseline_record(funcs, seed=7)
        clean_rewards, _ = _guarded_episode(
            _chain_func(), FaultPlan(), retries=5
        )

        plan = random_plan(seed, max_kills=1, horizon=6)
        with VecMlirRlEnv(2, config=CONFIG, processes=True, plan=plan) as pool:
            actual_record = _run_vec(pool, funcs, seed=7)
        assert actual_record == expected_record

        # retries=5 outlasts any schedule random_plan can produce at
        # this horizon (at most 4 exec events), so rewards must match.
        faulted_rewards, _ = _guarded_episode(
            _chain_func(), plan, retries=5
        )
        assert faulted_rewards == clean_rewards

        executor = CachingExecutor(cache=ExecutionCache())
        executor.run_baseline(_matmul_func())
        clean_path = tmp_path / f"clean-{seed}.json"
        executor.cache.save(clean_path)
        torn_path = tmp_path / f"maybe-torn-{seed}.json"
        with chaos(plan):
            executor.cache.save(torn_path)
        retry_path = tmp_path / f"retry-{seed}.json"
        executor.cache.save(retry_path)
        assert retry_path.read_bytes() == clean_path.read_bytes()


class TestCliChaosFlag:
    def test_train_accepts_chaos_plan(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "train",
                "--iterations",
                "1",
                "--samples",
                "2",
                "--num-envs",
                "1",
                "--hidden",
                "8",
                "--chaos",
                "exec.timeout@1",
                "--checkpoint",
                str(tmp_path / "agent.npz"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault plan" in out  # the fired/pending report
        assert active_plan() is None  # uninstalled after the run

    def test_faulted_baseline_reports_one_line(self, tmp_path, capsys):
        """A baseline that faults past every retry stops training with
        one line naming the program, and leaves no plan installed."""
        from repro.cli import main

        code = main(
            [
                "train",
                "--iterations",
                "1",
                "--samples",
                "2",
                "--hidden",
                "8",
                "--chaos",
                "exec.error@1,exec.error@2,exec.error@3",
                "--checkpoint",
                str(tmp_path / "agent.npz"),
            ]
        )
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("training stopped in iteration 0: ")
        assert "baseline @" in lines[0]
        assert active_plan() is None

    def test_train_rejects_bad_chaos_spec(self, capsys):
        from repro.cli import main

        code = main(["train", "--iterations", "1", "--chaos", "bogus@@"])
        assert code == 1
