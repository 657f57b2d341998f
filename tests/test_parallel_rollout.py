"""Parallel rollout collection: the worker-process vector env + PPO workers.

The load-bearing property is *determinism across the process boundary*:
stepping episodes through the multiprocessing pool must reproduce the
in-process vectorized collector bit-for-bit — same trajectories, same
learning curves — because the policy forwards and every RNG draw stay in
the parent; only env stepping moves to workers.
"""

import pickle

import numpy as np
import pytest

from repro.env import EnvAction, small_config
from repro.env.environment import MlirRlEnv
from repro.env.vector import VecMlirRlEnv
from repro.ir import FuncOp, add, empty, matmul, relu, tensor
from repro.machine import CachingExecutor
from repro.rl.agent import ActorCritic, FlatActorCritic
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.rollout import collect_episode, collect_episodes_batched
from repro.transforms import TransformKind
from repro.transforms.registry import PluginKind
from test_vec_env import VecEnvContract

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


class TestAsyncVecEnv(VecEnvContract):
    """The slot contract with worker processes, plus what crosses the
    process boundary."""

    processes = True

    def test_matches_in_process_vec_env(self):
        funcs = [_matmul_func(), _chain_func()]
        sync = VecMlirRlEnv(2, config=CONFIG, executor=CachingExecutor())
        expected = _run_vec(sync, funcs, seed=7)
        with VecMlirRlEnv(2, config=CONFIG, processes=True) as async_env:
            actual = _run_vec(async_env, funcs, seed=7)
        assert actual == expected

    def test_final_speedup_round_trip(self):
        func = _matmul_func()
        with VecMlirRlEnv(1, config=CONFIG, processes=True) as async_env:
            async_env.reset([func])
            async_env.step([EnvAction(TransformKind.NO_TRANSFORMATION)])
            speedup = async_env.final_speedup(0)
        env = MlirRlEnv(config=CONFIG, executor=CachingExecutor())
        env.reset(func)
        env.step(EnvAction(TransformKind.NO_TRANSFORMATION))
        assert speedup == env.final_speedup()

    def test_timing_cache_sync_exchanges_entries(self):
        funcs = [_matmul_func(), _matmul_func()]  # structurally identical
        with VecMlirRlEnv(2, config=CONFIG, processes=True) as async_env:
            async_env.reset(funcs)
            first = async_env.sync_timing_caches()
            assert first > 0  # both workers timed the (same) baseline
            second = async_env.sync_timing_caches()
            assert second == 0  # nothing new since the last sync
            # Entries landed in the parent-side merge target too.
            assert async_env.executor.cache.schedule_entries > 0

    def test_pool_imports_analysis_before_forking(self):
        """Workers (and respawns) inherit repro.analysis from the pool's
        parent instead of importing it on their first mask, while
        ``import repro.env`` alone, or building an env without
        processes, still leaves it unloaded."""
        import os
        import subprocess
        import sys

        script = (
            "import sys\n"
            "import repro.env\n"
            "assert 'repro.analysis' not in sys.modules\n"
            "config = repro.env.small_config()\n"
            "repro.env.VecMlirRlEnv(1, config=config)\n"
            "assert 'repro.analysis' not in sys.modules\n"
            "with repro.env.VecMlirRlEnv(1, config=config, processes=True):\n"
            "    assert 'repro.analysis' in sys.modules\n"
        )
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )

    def test_observations_carry_num_loops(self):
        """Pool observations carry the same per-slot loop counts as
        in-process ones (the flat agent decodes records with them)."""
        funcs = [_matmul_func(), _chain_func()]

        def loop_counts(vec_env):
            rng = np.random.default_rng(11)
            vec_obs = vec_env.reset(list(funcs))
            counts = []
            while vec_obs.active.any():
                counts.append(vec_obs.num_loops.tolist())
                actions = [
                    _scripted_action(vec_obs.observation_of(i), rng, CONFIG)
                    if vec_obs.active[i]
                    else None
                    for i in range(vec_env.num_envs)
                ]
                vec_obs = vec_env.step(actions).observation
            return counts

        expected = loop_counts(VecMlirRlEnv(2, config=CONFIG))
        with VecMlirRlEnv(2, config=CONFIG, processes=True) as async_env:
            actual = loop_counts(async_env)
        assert actual == expected
        assert expected[0] == [3, 2]


class TestParallelCollection:
    def test_parallel_equals_sequential_episodes(self):
        """Fixed seeds: pool episodes == in-process episodes.

        Against the equally-batched in-process collector the match is
        bit-exact (identical forwards, identical draws).  Against fully
        sequential collection the comparison allows the same last-ULP
        tolerance the seed's vec-env tests use — batch-width changes
        reassociate the network's float reductions; the process boundary
        itself contributes nothing.
        """
        config = CONFIG
        funcs = [_matmul_func(), _chain_func(), _matmul_func(16, 8, 4)]
        rng = np.random.default_rng(0)
        agent = ActorCritic(config, rng, hidden_size=16)
        seeds = [101, 202, 303]

        sequential = []
        env = MlirRlEnv(config=config, executor=CachingExecutor())
        for func, seed in zip(funcs, seeds):
            sequential.append(
                collect_episode(
                    env, agent, func, np.random.default_rng(seed)
                )
            )

        sync_vec = VecMlirRlEnv(3, config=config)
        batched = collect_episodes_batched(
            sync_vec,
            agent,
            funcs,
            [np.random.default_rng(seed) for seed in seeds],
        )

        with VecMlirRlEnv(3, config=config, processes=True) as async_env:
            parallel = collect_episodes_batched(
                async_env,
                agent,
                funcs,
                [np.random.default_rng(seed) for seed in seeds],
            )

        assert len(parallel) == len(batched) == len(sequential)
        for par, bat, seq in zip(parallel, batched, sequential):
            # Bit-exact against the in-process vectorized collector.
            assert par.rewards == bat.rewards
            assert par.speedup == bat.speedup
            assert len(par.steps) == len(bat.steps)
            for pstep, bstep in zip(par.steps, bat.steps):
                assert pstep.transformation == bstep.transformation
                assert pstep.log_prob == bstep.log_prob
                assert pstep.value == bstep.value
            # Same episodes as sequential collection (seed tolerance).
            assert par.rewards == seq.rewards
            assert par.speedup == pytest.approx(seq.speedup, rel=1e-12)
            for pstep, sstep in zip(par.steps, seq.steps):
                assert pstep.transformation == sstep.transformation
                assert pstep.log_prob == pytest.approx(
                    sstep.log_prob, abs=1e-9
                )

    def test_trainer_workers_match_in_process_vec(self):
        funcs = [_matmul_func(), _chain_func()]

        def sampler(rng):
            return funcs[int(rng.integers(len(funcs)))]

        def run(ppo_config):
            rng = np.random.default_rng(1)
            agent = ActorCritic(CONFIG, rng, hidden_size=16)
            env = MlirRlEnv(config=CONFIG)
            trainer = PPOTrainer(env, agent, sampler, ppo_config, seed=3)
            try:
                history = trainer.train(2)
            finally:
                trainer.close()
            return [
                (s.mean_reward, s.geomean_speedup, s.policy_loss, s.value_loss)
                for s in history.iterations
            ]

        sync = run(
            PPOConfig(samples_per_iteration=3, minibatch_size=4, num_envs=2)
        )
        parallel = run(
            PPOConfig(
                samples_per_iteration=3,
                minibatch_size=4,
                num_envs=2,
                num_workers=2,
            )
        )
        assert sync == parallel

    def test_flat_trainer_workers_match_in_process_vec(self):
        """The flat agent collects through the worker pool too, and its
        episodes equal in-process batched collection's."""
        funcs = [_matmul_func(), _chain_func()]

        def sampler(rng):
            return funcs[int(rng.integers(len(funcs)))]

        def run(ppo_config):
            agent = FlatActorCritic(
                CONFIG, np.random.default_rng(1), hidden_size=16
            )
            env = MlirRlEnv(config=CONFIG)
            trainer = PPOTrainer(env, agent, sampler, ppo_config, seed=3)
            try:
                trajectories = trainer.collect()
            finally:
                trainer.close()
            return [
                (
                    t.rewards,
                    t.speedup,
                    [(s.action, s.log_prob, s.value) for s in t.steps],
                )
                for t in trajectories
            ]

        in_process = run(
            PPOConfig(samples_per_iteration=3, minibatch_size=4, num_envs=2)
        )
        pool = run(
            PPOConfig(
                samples_per_iteration=3,
                minibatch_size=4,
                num_envs=2,
                num_workers=2,
            )
        )
        assert len(in_process) == 3
        assert pool == in_process

    def test_single_worker_is_the_sequential_path(self):
        """num_workers=1 must not touch collection at all (seed-exact)."""
        funcs = [_matmul_func()]

        def sampler(rng):
            return funcs[0]

        def run(ppo_config):
            rng = np.random.default_rng(4)
            agent = ActorCritic(CONFIG, rng, hidden_size=16)
            env = MlirRlEnv(config=CONFIG)
            trainer = PPOTrainer(env, agent, sampler, ppo_config, seed=5)
            try:
                history = trainer.train(1)
                assert trainer._vec_env is None  # no vector env built
            finally:
                trainer.close()
            return [
                (s.mean_reward, s.geomean_speedup, s.policy_loss)
                for s in history.iterations
            ]

        baseline = run(PPOConfig(samples_per_iteration=3, minibatch_size=4))
        explicit = run(
            PPOConfig(
                samples_per_iteration=3, minibatch_size=4, num_workers=1
            )
        )
        assert baseline == explicit


class TestWorkerMachineShipping:
    def test_spawn_workers_get_runtime_registered_machines(self):
        """The parent resolves ``config.machine`` and ships the *spec*
        to workers: a machine registered at runtime survives
        spawn-started children whose fresh interpreter only has the
        built-in registry."""
        import repro.machine.registry as registry
        from repro.machine import register_machine, scaled_spec, spec

        if "spawn" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("no spawn start method on this platform")
        custom = scaled_spec("laptop-8core", cores=2)
        register_machine("test-runtime-box", custom, overwrite=True)
        try:
            config = small_config(
                machine="test-runtime-box", max_episode_steps=8
            )
            with VecMlirRlEnv(
                1, config=config, processes=True, start_method="spawn"
            ) as pool:
                pool.reset([_matmul_func()])
                result = pool.step(
                    [EnvAction(TransformKind.NO_TRANSFORMATION)]
                )
                assert result.dones.tolist() == [True]
        finally:
            registry._REGISTRY.pop("test-runtime-box", None)
        # sanity: the in-process env resolves the same spec
        assert custom == spec(custom)


class TestConfigValidation:
    def test_num_workers_validated(self):
        with pytest.raises(ValueError):
            PPOConfig(num_workers=0)

    def test_plugin_kind_pickles_with_name(self):
        kind = PluginKind(6, "unrolling")
        clone = pickle.loads(pickle.dumps(kind))
        assert clone == 6
        assert str(clone) == "unrolling"
