"""Execution-service benchmark: memoization on the RL training hot path.

Cost-model executions dominate training wall-clock (the reason Fig. 7's
final-vs-immediate ablation exists), and training revisits the same
functions every iteration: the baseline is re-timed on every reset, and
each PPO iteration re-collects episodes on the same benchmark mixture.
This benchmark measures how many *actual* cost-model evaluations
(cache misses) a training episode pays with a cold vs. warm cache and
asserts the acceptance criterion: >= 2x fewer evaluations per episode
once the cache is warm.
"""

import numpy as np

from harness import random_legal_action, scripted_suite
from repro.env import MlirRlEnv, small_config
from repro.evaluation import write_json
from repro.machine import CachingExecutor


def _run_episodes(env, episodes, seed):
    """Per-episode cost-model evaluation counts (nest-level misses), on
    freshly built programs."""
    rng = np.random.default_rng(seed)
    per_episode = []
    for index in range(episodes):
        funcs = scripted_suite()
        func = funcs[index % len(funcs)]
        before = env.executor.stats.evaluations
        observation = env.reset(func)
        done = False
        while not done:
            result = env.step(random_legal_action(observation, rng, env.config))
            done = result.done
            observation = result.observation
        per_episode.append(env.executor.stats.evaluations - before)
    return per_episode


def test_exec_cache_halves_evaluations(benchmark, results_dir):
    config = small_config(max_episode_steps=64)
    env = MlirRlEnv(config=config, executor=CachingExecutor())

    def run():
        # One episode per program, with the same seed for the cold and
        # warm sweeps: identical action sequences, so the only
        # difference is cache temperature.
        cold = _run_episodes(env, 2, seed=7)
        warm = _run_episodes(env, 2, seed=7)
        return cold, warm

    cold, warm = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = env.executor.stats
    cold_per_episode = sum(cold) / len(cold)
    # A warm replay of an identical episode re-times nothing new.
    warm_per_episode = sum(warm) / len(warm)
    result = {
        "episodes": len(cold) + len(warm),
        "cold_evaluations_per_episode": cold_per_episode,
        "warm_evaluations_per_episode": warm_per_episode,
        # None when warm episodes need zero evaluations (fully absorbed).
        "speedup_factor": (
            cold_per_episode / warm_per_episode if warm_per_episode else None
        ),
        "cache": stats.snapshot(),
    }
    print(
        f"\nexecution cache: {cold_per_episode:.1f} evaluations/episode "
        f"cold -> {warm_per_episode:.1f} warm "
        f"({stats.hits}/{stats.requests} requests hit, "
        f"{stats.hit_rate:.0%})"
    )
    write_json(result, results_dir / "exec_cache.json")
    assert cold_per_episode >= 2 * warm_per_episode
    assert stats.hit_rate > 0.5


def test_exec_cache_random_policy_mixture(benchmark, results_dir):
    """Even with fresh random episodes (new schedules every time), the
    structural cache keeps absorbing baselines, probes, and repeated
    sub-schedules: total requests stay >= 2x actual evaluations."""
    config = small_config(max_episode_steps=64)
    env = MlirRlEnv(config=config, executor=CachingExecutor())

    def run():
        return _run_episodes(env, 12, seed=3)

    benchmark.pedantic(run, rounds=1, iterations=1)
    stats = env.executor.stats
    print(
        f"\nrandom-policy mixture: {stats.requests} timing requests, "
        f"{stats.evaluations} evaluations ({stats.hit_rate:.0%} hit)"
    )
    assert stats.requests >= 2 * stats.evaluations
