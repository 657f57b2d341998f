"""Per-spec warm throughput and machine-switch overhead.

The hardware registry (PR 5) lets one process train/evaluate across
several machine specs; the spec-keyed execution cache is supposed to
make that free once warm.  This benchmark measures, per registry spec,
the warm env-step throughput, and then an *alternating* sweep that
retargets the environment (``set_machine``) every episode.  Acceptance:

* alternating between warm specs costs at most a modest fraction of
  single-spec throughput (``switch_vs_single_ratio`` tracked by
  ``compare_results.py``);
* a warm alternating sweep performs **zero** cost-model evaluations —
  every timing resolves from the shared, spec-keyed cache on every
  machine (``warm_alternating_evaluations`` tracked, direction lower).

Quick mode (``REPRO_BENCH_QUICK=1``) reduces timing repetitions only;
the deterministic counters are identical to full mode.
"""

import os
import time

import numpy as np

from harness import random_legal_action, scripted_suite
from repro.env import EnvConfig, MlirRlEnv
from repro.evaluation import write_json
from repro.machine import CachingExecutor, spec

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
EPISODES = 12
ROUNDS = 1 if QUICK else 3

#: Paper-scale static sizes, like the step-throughput bench.
CONFIG = EnvConfig(max_episode_steps=48)

#: The specs the sweep alternates over — the training machine plus the
#: most dissimilar registry entries (big-L3 server, narrow-vector edge).
MACHINES = ("xeon-e5-2680-v4", "epyc-7763-64core", "edge-cortex-a72")


def _sweep(env, funcs, seed, machines=None):
    """Scripted episodes; ``machines`` retargets the env per episode."""
    rng = np.random.default_rng(seed)
    steps = 0
    for episode in range(EPISODES):
        if machines is not None:
            env.set_machine(spec(machines[episode % len(machines)]))
        observation = env.reset(funcs[episode % len(funcs)])
        done = False
        while not done:
            result = env.step(random_legal_action(observation, rng, env.config))
            steps += 1
            done = result.done
            observation = result.observation
    return steps


def test_spec_switch_overhead(benchmark, results_dir):
    funcs = scripted_suite()
    env = MlirRlEnv(config=CONFIG, executor=CachingExecutor())
    # Warm every machine's cache entries with the identical action
    # sequences the timed sweeps will replay.
    for machine in MACHINES:
        env.set_machine(spec(machine))
        _sweep(env, funcs, seed=11)
    _sweep(env, funcs, seed=11, machines=MACHINES)

    # Deterministic counter: a warm alternating sweep must resolve
    # every timing from the spec-keyed cache — zero evaluations.
    before = env.executor.stats.evaluations
    _sweep(env, funcs, seed=11, machines=MACHINES)
    warm_alternating_evaluations = env.executor.stats.evaluations - before

    def timed_round():
        per_spec = {}
        for machine in MACHINES:
            env.set_machine(spec(machine))
            start = time.perf_counter()
            steps = _sweep(env, funcs, seed=11)
            per_spec[machine] = steps / (time.perf_counter() - start)
        start = time.perf_counter()
        steps = _sweep(env, funcs, seed=11, machines=MACHINES)
        alternating = steps / (time.perf_counter() - start)
        return per_spec, alternating

    rounds = benchmark.pedantic(
        lambda: [timed_round() for _ in range(ROUNDS)], rounds=1, iterations=1
    )
    per_spec = {
        machine: max(r[0][machine] for r in rounds) for machine in MACHINES
    }
    alternating = max(r[1] for r in rounds)
    single = min(per_spec.values())
    ratio = alternating / single
    result = {
        "config": "paper-size features (N=12, L=14, D=12)",
        "machines": list(MACHINES),
        "episodes_per_sweep": EPISODES,
        "warm_steps_per_second": per_spec,
        "alternating_steps_per_second": alternating,
        # vs the slowest single spec: switching shouldn't cost beyond
        # the inherent spread of per-spec step costs.
        "switch_vs_single_ratio": ratio,
        # slowest spec vs the default machine: no registry entry's warm
        # step cost may balloon relative to the paper Xeon.
        "slowest_vs_default_throughput_ratio": (
            single / per_spec[MACHINES[0]]
        ),
        "warm_alternating_evaluations": warm_alternating_evaluations,
    }
    print("\nper-spec warm step throughput:")
    for machine, sps in per_spec.items():
        print(f"  {machine:20s} {sps:8.0f} steps/s")
    print(
        f"  alternating          {alternating:8.0f} steps/s "
        f"({ratio:.2f}x the slowest single spec, "
        f"{warm_alternating_evaluations} warm evaluations)"
    )
    write_json(result, results_dir / "spec_switch.json")
    assert warm_alternating_evaluations == 0, (
        "alternating warm sweep re-evaluated the cost model — the "
        "spec-keyed cache failed to absorb a machine switch"
    )
    assert ratio >= 0.5, (
        f"machine switching costs {ratio:.2f}x the slowest single-spec "
        "throughput (need >= 0.5x)"
    )
