"""Tests for the vectorized environment and batched rollout collection."""

import numpy as np
import pytest

from repro.env import (
    EnvAction,
    MlirRlEnv,
    VecMlirRlEnv,
    small_config,
)
from repro.fault import FaultEvent, FaultPlan
from repro.ir import FuncOp, add, empty, matmul, relu, tensor
from repro.machine import CachingExecutor
from repro.rl import (
    ActorCritic,
    FlatActorCritic,
    PPOConfig,
    PPOTrainer,
    collect_episode,
    collect_episodes_batched,
)
from repro.transforms import TransformKind

CONFIG = small_config()


def _matmul_func():
    a, b, c = tensor([64, 32]), tensor([32, 16]), tensor([64, 16])
    func = FuncOp("mm", [a, b, c])
    op = func.append(matmul(a, b, c))
    func.returns = [op.result()]
    return func


def _chain_func():
    x, y = tensor([64, 64]), tensor([64, 64])
    func = FuncOp("chain", [x, y])
    first = func.append(add(x, y, empty([64, 64])))
    second = func.append(relu(first.result(), empty([64, 64])))
    func.returns = [second.result()]
    return func


class VecEnvContract:
    """The slot contract of both modes of :class:`VecMlirRlEnv`.

    Subclasses pick the mode with ``processes``: ``TestVecEnvBasics``
    runs it in-process, ``test_parallel_rollout.TestAsyncVecEnv`` with
    worker processes.
    """

    processes = False

    def _vec(self, num_envs):
        return VecMlirRlEnv(num_envs, config=CONFIG, processes=self.processes)

    def test_reset_stacks_observations(self):
        with self._vec(3) as vec:
            obs = vec.reset([_matmul_func(), _chain_func(), _matmul_func()])
        assert obs.consumer.shape == obs.producer.shape
        assert obs.consumer.shape[0] == 3
        assert obs.active.all()
        assert all(mask is not None for mask in obs.masks)

    def test_reset_wrong_count_raises(self):
        """More functions than slots raises; fewer leaves the surplus
        slots idle."""
        with self._vec(2) as vec:
            with pytest.raises(ValueError):
                vec.reset([_matmul_func()] * 3)
            obs = vec.reset([_matmul_func()])
            assert obs.active.tolist() == [True, False]
            assert obs.masks[1] is None and obs.observation_of(1) is None
            assert obs.num_loops.tolist() == [3, 0]
            stop = EnvAction(TransformKind.NO_TRANSFORMATION)
            result = vec.step([stop, None])
        assert result.dones.tolist() == [True, True]

    def test_step_wrong_count_raises(self):
        with self._vec(2) as vec:
            vec.reset([_matmul_func(), _matmul_func()])
            with pytest.raises(ValueError):
                vec.step([EnvAction(TransformKind.NO_TRANSFORMATION)])

    def test_finished_slot_zeroes_and_rejects_actions(self):
        with self._vec(2) as vec:
            vec.reset([_matmul_func(), _chain_func()])
            stop = EnvAction(TransformKind.NO_TRANSFORMATION)
            result = vec.step([stop, stop])
            # matmul (1 op) finished; chain (2 ops) did not.
            assert result.dones[0] and not result.dones[1]
            assert not result.observation.active[0]
            assert result.observation.consumer[0].sum() == 0.0
            assert result.observation.masks[0] is None
            with pytest.raises(ValueError):
                vec.step([stop, stop])
            result = vec.step([None, stop])
        assert result.dones.all()

    def test_active_slot_requires_action(self):
        with self._vec(1) as vec:
            vec.reset([_matmul_func()])
            with pytest.raises(ValueError):
                vec.step([None])

    def test_num_envs_validation(self):
        with pytest.raises(ValueError):
            self._vec(0)

    def test_close_is_idempotent(self):
        vec = self._vec(1)
        vec.reset([_matmul_func()])
        vec.close()
        vec.close()
        assert vec.closed
        with pytest.raises(RuntimeError):
            vec.reset([_matmul_func()])


class TestVecEnvBasics(VecEnvContract):
    def test_envs_share_one_executor(self):
        vec = VecMlirRlEnv(3, config=CONFIG)
        assert isinstance(vec.executor, CachingExecutor)
        assert all(env.executor is vec.executor for env in vec.envs)

    def test_shared_cache_across_episodes(self):
        """Identical functions across slots time their baseline once."""
        vec = VecMlirRlEnv(4, config=CONFIG)
        vec.reset([_matmul_func() for _ in range(4)])
        assert vec.executor.stats.evaluations == 1
        assert vec.executor.stats.hits >= 3

    def test_in_process_slots_make_no_worker_draws(self):
        """An env built without processes is not a degraded pool, and
        a plan's worker kills stay pending: there is no worker."""
        plan = FaultPlan([FaultEvent("worker", 1, "kill")])
        vec = VecMlirRlEnv(2, config=CONFIG, plan=plan)
        vec.reset([_matmul_func(), _chain_func()])
        stop = EnvAction(TransformKind.NO_TRANSFORMATION)
        vec.step([stop, stop])
        assert not vec.degraded
        assert vec.telemetry() == {
            "respawns": 0,
            "injected_kills": 0,
            "degraded": False,
            "consecutive_respawn_failures": 0,
        }
        assert not plan.exhausted()


class TestBatchedRolloutEquivalence:
    """A vectorized rollout must reproduce N sequential single-env
    rollouts: same rewards, same episode lengths, same speedups."""

    def _funcs(self):
        return [_matmul_func, _chain_func, _matmul_func, _chain_func]

    def _sequential(self, agent, greedy):
        out = []
        for index, factory in enumerate(self._funcs()):
            env = MlirRlEnv(config=CONFIG)
            out.append(
                collect_episode(
                    env,
                    agent,
                    factory(),
                    np.random.default_rng(100 + index),
                    greedy=greedy,
                )
            )
        return out

    def _batched(self, agent, greedy):
        vec = VecMlirRlEnv(4, config=CONFIG)
        rngs = [np.random.default_rng(100 + i) for i in range(4)]
        return collect_episodes_batched(
            vec,
            agent,
            [factory() for factory in self._funcs()],
            rngs,
            greedy=greedy,
        )

    @pytest.mark.parametrize("greedy", [False, True])
    def test_rewards_match_sequential(self, greedy):
        agent = ActorCritic(CONFIG, np.random.default_rng(0), hidden_size=32)
        sequential = self._sequential(agent, greedy)
        batched = self._batched(agent, greedy)
        for seq, bat in zip(sequential, batched):
            assert len(seq.steps) == len(bat.steps)
            assert seq.rewards == bat.rewards
            assert seq.speedup == pytest.approx(bat.speedup, rel=1e-12)
            assert seq.executions == bat.executions

    def test_sampled_steps_match_sequential(self):
        agent = ActorCritic(CONFIG, np.random.default_rng(1), hidden_size=32)
        sequential = self._sequential(agent, greedy=False)
        batched = self._batched(agent, greedy=False)
        for seq, bat in zip(sequential, batched):
            for step_seq, step_bat in zip(seq.steps, bat.steps):
                assert step_seq.transformation == step_bat.transformation
                assert np.array_equal(
                    step_seq.tile_indices, step_bat.tile_indices
                )
                assert step_seq.choice_index == step_bat.choice_index
                assert step_seq.log_prob == pytest.approx(
                    step_bat.log_prob, abs=1e-9
                )

    @pytest.mark.parametrize("greedy", [False, True])
    def test_flat_agent_matches_sequential(self, greedy):
        """The flat agent collects through the same batched loop: three
        episodes over VecMlirRlEnv(3) equal three sequential
        collect_episode runs on identically seeded generators."""
        agent = FlatActorCritic(CONFIG, np.random.default_rng(3), hidden_size=32)
        factories = [_matmul_func, _chain_func, _matmul_func]
        sequential = [
            collect_episode(
                MlirRlEnv(config=CONFIG),
                agent,
                factory(),
                np.random.default_rng(100 + index),
                greedy=greedy,
            )
            for index, factory in enumerate(factories)
        ]
        batched = collect_episodes_batched(
            VecMlirRlEnv(3, config=CONFIG),
            agent,
            [factory() for factory in factories],
            [np.random.default_rng(100 + index) for index in range(3)],
            greedy=greedy,
        )
        for seq, bat in zip(sequential, batched):
            assert [s.action for s in seq.steps] == [s.action for s in bat.steps]
            assert seq.rewards == bat.rewards
            assert seq.speedup == pytest.approx(bat.speedup, rel=1e-12)
            assert seq.executions == bat.executions
            for step_seq, step_bat in zip(seq.steps, bat.steps):
                assert np.array_equal(step_seq.mask, step_bat.mask)
                assert step_seq.log_prob == pytest.approx(
                    step_bat.log_prob, abs=1e-9
                )

    def test_batched_steps_feed_ppo_evaluate(self):
        """Steps collected batched replay consistently through evaluate."""
        agent = ActorCritic(CONFIG, np.random.default_rng(2), hidden_size=32)
        batched = self._batched(agent, greedy=False)
        steps = [s for t in batched for s in t.steps]
        log_probs, _, _ = agent.evaluate(steps)
        recorded = np.array([s.log_prob for s in steps])
        assert np.allclose(log_probs.numpy(), recorded, atol=1e-8)


class TestStepLimit:
    def test_collectors_inherit_env_truncation_cap(self):
        from repro.rl.rollout import _step_limit

        assert _step_limit(small_config(max_episode_steps=7), None) == 7
        assert _step_limit(small_config(max_episode_steps=0), None) == 200
        assert _step_limit(small_config(max_episode_steps=7), 3) == 3

    def test_env_truncation_reachable_through_collector(self):
        """The env (not the collector) must end runaway episodes so the
        terminal reward is delivered."""
        config = small_config(max_episode_steps=4)
        env = MlirRlEnv(config=config)
        agent = ActorCritic(config, np.random.default_rng(0), hidden_size=32)
        trajectory = collect_episode(
            env, agent, _chain_func(), np.random.default_rng(0)
        )
        assert len(trajectory.steps) <= config.max_episode_steps
        # Either the episode ended naturally or the env truncated it; in
        # both cases the collector saw done=True and recorded a speedup.
        assert trajectory.speedup > 0


class TestActBatch:
    def test_empty_batch(self):
        agent = ActorCritic(CONFIG, np.random.default_rng(0), hidden_size=32)
        assert agent.act_batch([], []) == []

    def test_mismatched_rngs_raise(self):
        agent = ActorCritic(CONFIG, np.random.default_rng(0), hidden_size=32)
        env = MlirRlEnv(config=CONFIG)
        obs = env.reset(_matmul_func())
        with pytest.raises(ValueError):
            agent.act_batch([obs], [])


class TestVectorizedPPO:
    def test_vectorized_collection_trains(self):
        rng = np.random.default_rng(0)
        agent = ActorCritic(CONFIG, rng, hidden_size=32)
        env = MlirRlEnv(config=CONFIG)
        config = PPOConfig(
            samples_per_iteration=5, minibatch_size=8, num_envs=3
        )
        trainer = PPOTrainer(
            env, agent, lambda r: _matmul_func(), config, seed=0
        )
        history = trainer.train(2)
        assert len(history.iterations) == 2
        for stats in history.iterations:
            assert np.isfinite(stats.policy_loss)
            assert stats.geomean_speedup > 0

    def test_vectorized_collect_count(self):
        rng = np.random.default_rng(0)
        agent = ActorCritic(CONFIG, rng, hidden_size=32)
        env = MlirRlEnv(config=CONFIG)
        config = PPOConfig(
            samples_per_iteration=7, minibatch_size=8, num_envs=4
        )
        trainer = PPOTrainer(
            env, agent, lambda r: _matmul_func(), config, seed=0
        )
        trajectories = trainer.collect()
        assert len(trajectories) == 7
        assert all(len(t.steps) >= 1 for t in trajectories)

    def test_collect_reuses_one_vec_env(self):
        """Batched collection keeps one in-process vector env across
        collect() calls, so its slots' mask caches stay warm: the second
        call's resets of the same function hit."""
        func = _matmul_func()
        agent = ActorCritic(CONFIG, np.random.default_rng(0), hidden_size=32)
        config = PPOConfig(
            samples_per_iteration=2, minibatch_size=8, num_envs=2
        )
        trainer = PPOTrainer(
            MlirRlEnv(config=CONFIG), agent, lambda r: func, config, seed=0
        )
        trainer.collect()
        vec = trainer._vec_env
        assert isinstance(vec, VecMlirRlEnv) and vec.num_envs == 2
        caches = [env._mask_cache for env in vec.envs]
        hits = [cache.hits for cache in caches]
        trainer.collect()
        assert trainer._vec_env is vec
        assert all(cache.hits > before for cache, before in zip(caches, hits))
        trainer.close()
        assert trainer._vec_env is None

    def test_vectorized_collection_warms_cache(self):
        rng = np.random.default_rng(0)
        agent = ActorCritic(CONFIG, rng, hidden_size=32)
        env = MlirRlEnv(config=CONFIG)
        config = PPOConfig(
            samples_per_iteration=6, minibatch_size=8, num_envs=3
        )
        trainer = PPOTrainer(
            env, agent, lambda r: _matmul_func(), config, seed=0
        )
        trainer.collect()
        stats = env.executor.stats
        # baselines + probes mostly hit: far fewer cost-model
        # evaluations than resolved lookups
        assert stats.hits > stats.evaluations
