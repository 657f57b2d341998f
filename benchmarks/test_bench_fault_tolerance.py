"""Fault-tolerance overhead benchmark: what recovering a worker costs.

The rollout pool logs each slot's episode, and when a worker dies it
respawns the worker and replays the logged episode prefix instead of
restarting collection.  This benchmark times scripted-rollout sweeps
over the same functions and seeds through two pools: a fault-free one,
and one that loses a worker to an injected kill in every sweep.  The
sweeps run in interleaved pairs (``harness.paired_timing``), and
``recovery_overhead_ratio`` is the median over pairs of the killed
sweep's wall-clock over the fault-free one's, recorded with its IQR.
The acceptance criterion is <= 1.2x: recovery replays one episode
prefix, so a modest constant tax, not a restart.
"""

import numpy as np

from harness import paired_timing, random_legal_action, scripted_suite
from repro.env import small_config
from repro.env.vector import VecMlirRlEnv
from repro.evaluation import write_json
from repro.fault import FaultEvent, FaultPlan

CONFIG = small_config(max_episode_steps=48)
#: Scripted rollout rounds per sweep: enough to amortize the one-off
#: respawn cost (a process fork plus one episode-prefix replay) the way
#: a real training run amortizes it.
ROUNDS = 30
PAIRS = 25


def _sweep(vec_env, funcs, rounds, seed):
    """Scripted rollout rounds; returns the per-step reward record."""
    record = []
    for round_index in range(rounds):
        rngs = [
            np.random.default_rng(seed + round_index * 100 + i)
            for i in range(len(funcs))
        ]
        vec_obs = vec_env.reset(list(funcs))
        for _ in range(64):
            actions = [None] * vec_env.num_envs
            for index in range(len(funcs)):
                if vec_obs.active[index]:
                    actions[index] = random_legal_action(
                        vec_obs.observation_of(index),
                        rngs[index],
                        vec_env.config,
                    )
            if all(action is None for action in actions):
                break
            result = vec_env.step(actions)
            record.append(result.rewards.tolist())
            vec_obs = result.observation
        # The PPO collector syncs worker timing caches every batch; do
        # the same so a respawned worker re-warms from its peers at the
        # next round boundary instead of re-executing for a whole sweep.
        vec_env.sync_timing_caches()
    return record


def test_recovery_overhead_within_budget(benchmark, results_dir):
    funcs = scripted_suite(mm=(24, 8, 16), chain=24)
    plan = FaultPlan([FaultEvent("worker", 2, "kill")])
    records: dict[str, list] = {"clean": [], "chaos": []}

    def run():
        with VecMlirRlEnv(2, config=CONFIG, processes=True) as clean, \
                VecMlirRlEnv(2, config=CONFIG, processes=True, plan=plan) as chaotic:
            # Untimed warm-up: pool spin-up and first-touch costs land
            # outside the measured sweeps for both pools alike.
            _sweep(clean, funcs, 1, seed=99)
            _sweep(chaotic, funcs, 1, seed=99)

            def fault_free():
                records["clean"].append(
                    _sweep(clean, funcs, ROUNDS, seed=7)
                )

            def with_kill():
                plan.reset()  # every timed sweep pays exactly one kill
                records["chaos"].append(
                    _sweep(chaotic, funcs, ROUNDS, seed=7)
                )

            timing = paired_timing(with_kill, fault_free, pairs=PAIRS)
            return timing, chaotic.telemetry()["respawns"]

    timing, respawns = benchmark.pedantic(run, rounds=1, iterations=1)

    # Recovery must be reward-transparent before its cost is worth
    # measuring at all.
    reference = records["clean"][0]
    assert all(record == reference for record in records["clean"])
    assert all(record == reference for record in records["chaos"])
    assert respawns >= PAIRS

    result = {
        "rounds": ROUNDS,
        "pairs": PAIRS,
        "steps": len(reference),
        "fault_free_seconds": timing.b_seconds,
        "with_kill_seconds": timing.a_seconds,
        "respawns": respawns,
        # The tracked metric: one worker kill + replay vs no faults,
        # median over the pairs, with the IQR of the per-pair ratios.
        "recovery_overhead_ratio": timing.ratio,
        "recovery_overhead_iqr": timing.ratio_iqr,
    }
    print(
        f"\nfault tolerance: fault-free {timing.b_seconds:.2f}s, "
        f"with kill {timing.a_seconds:.2f}s (median ratio "
        f"{timing.ratio:.3f}x, IQR {timing.ratio_iqr:.3f}, "
        f"{respawns} respawns)"
    )
    write_json(result, results_dir / "fault_tolerance.json")
    assert timing.ratio <= 1.2
