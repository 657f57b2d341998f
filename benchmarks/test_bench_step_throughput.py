"""Env-step throughput: the schedule-keyed fast path vs the seed path.

The PR 3 acceptance criterion: on cache-warm rollouts — the steady state
of PPO data collection, which revisits the same training functions every
iteration — the fast path (schedule-keyed execution cache + incremental
observation) must deliver >= 3x the steps/second of the seed path
(nest-fingerprint LRU only, full ``_observe`` recompute), with rewards
bit-identical between the two.

Both paths drive the same scripted policy with the same seed, so they
take the exact same actions; the only difference is how much work each
step re-does.  ``speedup`` is the median over interleaved seed-path/
fast-path pairs of sweeps (:func:`harness.paired_timing`), written with
its IQR.  Set ``REPRO_BENCH_QUICK=1`` to take fewer pairs for smoke
runs.
"""

import os

import numpy as np

from harness import paired_timing, random_legal_action, scripted_suite
from repro.env import EnvConfig, MlirRlEnv
from repro.evaluation import write_json
from repro.machine import CachingExecutor, ExecutionCache

#: Quick mode (the CI smoke job) reduces timing repetitions only — the
#: sweep itself is identical, so all deterministic counters (cache
#: hit rates, evaluations, steps per sweep) match the committed
#: full-mode JSONs and remain comparable by compare_results.py.
QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
EPISODES = 24
PAIRS = 5 if QUICK else 9

#: Paper-scale static sizes (N=12, L=14, D=12) — the observation width
#: the real agent sees, hence an honest measure of ``_observe`` cost.
CONFIG = EnvConfig(max_episode_steps=64)


def _sweep(env, funcs, seed):
    """Run the scripted episodes; returns (steps, rewards)."""
    rng = np.random.default_rng(seed)
    steps = 0
    rewards = []
    for episode in range(EPISODES):
        observation = env.reset(funcs[episode % len(funcs)])
        done = False
        while not done:
            result = env.step(random_legal_action(observation, rng, env.config))
            rewards.append(result.reward)
            steps += 1
            done = result.done
            observation = result.observation
    return steps, rewards


def _fast_env():
    return MlirRlEnv(config=CONFIG, executor=CachingExecutor())


def _seed_path_env():
    """The pre-fast-path pipeline: nest-level LRU only, full observe."""
    return MlirRlEnv(
        config=CONFIG,
        executor=CachingExecutor(cache=ExecutionCache(schedule_maxsize=0)),
        observation_cache=False,
    )


def test_step_throughput_speedup(benchmark, results_dir):
    funcs = scripted_suite()
    fast = _fast_env()
    seed_path = _seed_path_env()
    # Warm both caches (and the interpreter) outside the timed region.
    _sweep(fast, funcs, seed=42)
    _sweep(seed_path, funcs, seed=42)

    # Deterministic counters over exactly ONE warm sweep, independent of
    # PAIRS — what compare_results.py tracks across quick/full runs.
    before = dict(fast.executor.stats.snapshot())
    mask_before = (fast._mask_cache.hits, fast._mask_cache.misses)
    _sweep(fast, funcs, seed=42)
    after = fast.executor.stats.snapshot()
    warm_hits = after["hits"] - before["hits"]
    warm_misses = after["misses"] - before["misses"]
    warm_cache = {
        "hits": warm_hits,
        "misses": warm_misses,
        "hit_rate": warm_hits / max(warm_hits + warm_misses, 1),
        "schedule_hits": after["schedule_hits"] - before["schedule_hits"],
        "schedule_misses": (
            after["schedule_misses"] - before["schedule_misses"]
        ),
    }
    mask_cache = {
        "hits": fast._mask_cache.hits - mask_before[0],
        "misses": fast._mask_cache.misses - mask_before[1],
    }

    # Every timed sweep's rewards, per path: the fast path must not
    # alter a single one.
    rewards: dict[str, list] = {"seed": [], "fast": []}

    def sweep(name, env):
        def run():
            rewards[name].append(_sweep(env, funcs, seed=42)[1])

        return run

    timing = benchmark.pedantic(
        lambda: paired_timing(
            sweep("seed", seed_path), sweep("fast", fast), pairs=PAIRS
        ),
        rounds=1,
        iterations=1,
    )
    steps = len(rewards["fast"][0])
    seed_sps = steps / timing.a_seconds
    fast_sps = steps / timing.b_seconds
    # seed-path seconds over fast-path seconds per sweep: the same
    # steps, so this is the fast path's throughput multiple
    speedup = timing.ratio
    rewards_identical = all(
        record == rewards["fast"][0]
        for record in rewards["seed"] + rewards["fast"]
    )
    result = {
        "config": "paper-size features (N=12, L=14, D=12)",
        "episodes_per_sweep": EPISODES,
        "steps_per_sweep": steps,
        "pairs": PAIRS,
        "seed_path_steps_per_second": seed_sps,
        "fast_path_steps_per_second": fast_sps,
        "speedup": speedup,
        "speedup_iqr": timing.ratio_iqr,
        "rewards_identical": rewards_identical,
        "warm_sweep_cache": warm_cache,
        "warm_sweep_mask_cache": mask_cache,
    }
    print(
        f"\nstep throughput: {seed_sps:.0f} steps/s (seed path) -> "
        f"{fast_sps:.0f} steps/s (fast path), {speedup:.2f}x "
        f"(median of {PAIRS} pairs, IQR {timing.ratio_iqr:.2f}), "
        f"rewards identical: {rewards_identical}"
    )
    write_json(result, results_dir / "step_throughput.json")
    assert rewards_identical, "fast path altered rewards"
    assert speedup >= 3.0, (
        f"fast path is only {speedup:.2f}x the seed path (need >= 3x)"
    )


def test_warm_rollout_needs_no_evaluations(benchmark, results_dir):
    """Warm fast-path sweeps resolve every timing at the schedule level:
    zero cost-model evaluations, zero lowering."""
    funcs = scripted_suite()
    env = _fast_env()
    _sweep(env, funcs, seed=7)

    def warm():
        before_misses = env.executor.stats.misses
        before_schedule = env.executor.stats.schedule_misses
        _sweep(env, funcs, seed=7)
        return (
            env.executor.stats.misses - before_misses,
            env.executor.stats.schedule_misses - before_schedule,
        )

    nest_misses, schedule_misses = benchmark.pedantic(
        warm, rounds=1, iterations=1
    )
    print(
        f"\nwarm sweep: {nest_misses} cost-model evaluations, "
        f"{schedule_misses} schedule-cache misses"
    )
    assert nest_misses == 0
    assert schedule_misses == 0
