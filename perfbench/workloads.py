"""The benchmark workloads.

Each workload sets up ``SETUP_REPEATS`` times from scratch (the last set-up
is the one timed), then runs a fixed amount of work that depends only on
``seed`` and ``seconds``: the work is sized so a run measures about
``seconds`` on a 2-vCPU x86 machine, and a given seed always produces the
same inputs, the same operations and the same results.  The machine-speed
probe (:mod:`perfbench.speed`) is sampled before each set-up and between
timed operations, outside their timings.  Output checks run after the
timed phase (see :mod:`perfbench.checks`).

Inputs come from the workload seed only: generated programs and policy
generators are seeded from ``(stream, seed, episode index)``, the order of
the Table II draws and the PPO trainer's generator from the seed, and the
three LQCD applications from seeds drawn from it.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import GreedyAgent, MlirBaseline
from repro import datasets
from repro.datasets import (
    dibaryon_dibaryon,
    dibaryon_hexaquark,
    generator,
    hexaquark_hexaquark,
    resnet18,
    vgg16,
)
from repro.env import EnvAction, MlirRlEnv, small_config
from repro.ir import FuncOp, matmul, tensor
from repro.ir.ops import clone_func
from repro.machine import reset_pool
from repro.machine.registry import DEFAULT_MACHINE, spec as machine_spec
from repro.rl import PPOConfig, get_backend
from repro.transforms import TransformKind

from . import checks

SETUP_REPEATS = 3

#: Work per second of ``--seconds``, calibrated on a 2-vCPU x86 machine.
TRAIN_ITERATIONS_PER_SECOND = 1.0
ROLLOUT_EPISODES_PER_SECOND = 64
OPTIMIZE_SECONDS_PER_PASS = 12.5

WARMUP_EPISODES = 24
#: probe samples spread over a rollout run's episodes
PROBES_PER_RUN = 48

#: Seed-sequence stream tags: one independent stream per input kind.
PROGRAM, POLICY, WARMUP_PROGRAM, WARMUP_POLICY, SAMPLE, LQCD, DRAWS = range(7)

OPTIMIZE_TARGETS = (
    "resnet18",
    "vgg",
    "hexaquark-hexaquark",
    "dibaryon-dibaryon",
    "dibaryon-hexaquark",
)


@dataclass
class Measurement:
    """What one workload run measured and checked."""

    #: wall seconds of each timed operation (iteration, episode or pass)
    op_seconds: list[float]
    #: units of work done in the timed operations
    work: float
    #: baseline seconds / scheduled seconds, one per episode or target
    speedups: list[float]
    #: seconds of each set-up repetition, imports excluded
    setup_seconds: list[float]
    peak_rss_mb: float
    #: wall seconds of the whole timed phase, probing excluded
    timed_wall: float
    attempted: int
    #: probe seconds over the nominal (see perfbench.speed)
    slowdown: float
    #: (item, message) of every failed output check
    failures: list[tuple[str, str]] = field(default_factory=list)
    #: counters read from public state over the timed phase
    counters: dict[str, float] = field(default_factory=dict)
    #: extra printed rows: (name, value, unit)
    rows: list[tuple[str, float, str]] = field(default_factory=list)
    #: digest of every reward, loss and speedup, for run-to-run equality
    digest: str = ""

    @property
    def failed(self) -> int:
        return len({item for item, _ in self.failures})


def start_timed(tracer) -> None:
    """Leave set-up: collect its garbage and freeze what survives, so the
    collections the timed code triggers do not rescan the inputs."""
    gc.collect()
    gc.freeze()
    tracer.phase = "timed"


def scaled(seconds: int, per_second: float, minimum: int) -> int:
    return max(minimum, round(seconds * per_second))


def digest(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cache_counters(before: dict, after: dict) -> dict[str, float]:
    """Execution-cache counters between two ``CacheStats.snapshot()``s."""
    delta = {key: value - before.get(key, 0) for key, value in after.items()}
    return {
        "cache_hits": delta["hits"],
        "cache_requests": delta["hits"] + delta["misses"],
        "schedule_hits": delta["schedule_hits"],
        "schedule_requests": delta["schedule_hits"] + delta["schedule_misses"],
        "evaluations": delta["evaluations"],
        "evictions": delta["evictions"] + delta["schedule_evictions"],
    }


# -- scripted policy and generated programs --------------------------------------


def scripted_action(config, mask, rng: np.random.Generator) -> EnvAction:
    """A uniformly random legal action (no network)."""
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


def stream(tag: int, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed, index])


def episode_spec(seed: int, index: int, tag: int = PROGRAM):
    """The program spec of one episode (replayable at smoke size).

    Generator functions are called through their module so the tracer's
    wrappers see the calls.
    """
    return generator.sample_spec(stream(tag, seed, index), generator.FULL_STAGE)


def episode_program(seed: int, index: int, tag: int = PROGRAM) -> FuncOp:
    return generator.emit(episode_spec(seed, index, tag), generator.FULL)


def play_episode(env: MlirRlEnv, func: FuncOp, rng: np.random.Generator):
    """One scripted episode: (rewards, final speedup)."""
    observation = env.reset(func)
    rewards = []
    while True:
        result = env.step(scripted_action(env.config, observation.mask, rng))
        rewards.append(result.reward)
        if result.done:
            return rewards, result.info["speedup"]
        observation = result.observation


def _warm_up_env(env: MlirRlEnv) -> None:
    """The same warm-up episodes for every workload seed."""
    for index in range(WARMUP_EPISODES):
        func = episode_program(0, index, WARMUP_PROGRAM)
        play_episode(env, func, stream(WARMUP_POLICY, 0, index))


def _check_sample(seed: int, episodes: int, size: int, salt: int = 0) -> list[int]:
    """A seeded sample of episode indices for the output checks."""
    rng = stream(SAMPLE, seed, salt)
    count = min(size, episodes)
    return sorted(int(i) for i in rng.choice(episodes, size=count, replace=False))


# -- train_table2 ----------------------------------------------------------------


class BalancedSampler:
    """Draws the Table II mixture in seeded permutations: every program
    once per cycle, as a defensive copy like ``FixedDatasetSampler``, so
    runs with different seeds train on the same program mix.
    """

    def __init__(self, dataset: list[FuncOp], seed: int):
        self.dataset = dataset
        self._order = stream(DRAWS, seed, 0)
        self._queue: list[int] = []

    def __call__(self, rng: np.random.Generator) -> FuncOp:
        if not self._queue:
            self._queue = [int(i) for i in self._order.permutation(len(self.dataset))]
        return clone_func(self.dataset[self._queue.pop()])


def _train_setup():
    """`repro train` defaults with 16 episodes per iteration, warmed up.

    The Table II mixture, the initial weights and the warm-up iteration
    are the ones `repro train` gives by default (seed 0), so set-up does
    the same work for every workload seed.
    """
    config = small_config()
    backend = get_backend("hierarchical", config)
    agent = backend.build_agent(np.random.default_rng(0), hidden_size=64)
    dataset = datasets.training_dataset(scale=0.01, seed=0)
    trainer = backend.trainer(
        MlirRlEnv(config=config),
        agent,
        BalancedSampler(dataset, 0),
        PPOConfig(samples_per_iteration=16, minibatch_size=16),
        seed=0,
    )
    trainer.train(1)  # warm-up iteration
    return trainer, dataset


def train_table2(seed: int, seconds: int, tracer, probe) -> Measurement:
    """`repro train` defaults in-process: collect + PPO update per iteration."""
    iterations = scaled(seconds, TRAIN_ITERATIONS_PER_SECOND, 2)
    setups = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        start = time.perf_counter()
        trainer, dataset = _train_setup()
        setups.append(time.perf_counter() - start)
    # The workload seed orders the episode draws and seeds the trainer:
    # action sampling and minibatch shuffles.
    trainer.sampler = BalancedSampler(dataset, seed)
    trainer.rng = np.random.default_rng(seed)

    start_timed(tracer)
    # Every timed iteration starts from the agent and optimizer state the
    # warm-up left: with learning carried over, episode lengths, and with
    # them iteration cost, drifted by up to 2x within a run, in a
    # direction that depended on the seed.
    start_state = copy.deepcopy((trainer.agent, trainer.optimizer))
    stats = trainer.env.executor.stats
    before = stats.snapshot()
    op_seconds, speedups, record, losses = [], [], [], []
    transitions = 0
    probed = probe.seconds()
    phase_start = time.perf_counter()
    for _ in range(iterations):
        trainer.agent, trainer.optimizer = copy.deepcopy(start_state)
        probe.sample()
        start = time.perf_counter()
        trajectories = trainer.collect()
        loss = trainer.update(trajectories)
        op_seconds.append(time.perf_counter() - start)
        trainer.iteration += 1
        transitions += sum(len(trajectory) for trajectory in trajectories)
        speedups.extend(trajectory.speedup for trajectory in trajectories)
        losses.append(loss)
        record.extend(reward for t in trajectories for reward in t.rewards)
        record.extend(loss)
    timed_wall = time.perf_counter() - phase_start - (probe.seconds() - probed)
    after = stats.snapshot()

    tracer.phase = "check"
    failures = [
        (f"iteration {index}", message)
        for index, loss in enumerate(losses)
        for message in checks.finite_losses(loss)
    ]
    return Measurement(
        op_seconds=op_seconds,
        work=transitions,
        speedups=speedups,
        setup_seconds=setups,
        peak_rss_mb=peak_rss_mb(),
        timed_wall=timed_wall,
        slowdown=probe.slowdown(),
        attempted=iterations,
        failures=failures,
        counters={
            "env.steps": transitions,
            **cache_counters(before, after),
        },
        digest=digest(record + speedups),
    )


# -- rollout_generated -------------------------------------------------------------


def _rollout_setup(seed: int, episodes: int):
    specs = [episode_spec(seed, index) for index in range(episodes)]
    funcs = [generator.emit(spec, generator.FULL) for spec in specs]
    env = MlirRlEnv()
    _warm_up_env(env)
    return specs, funcs, env


def rollout_generated(seed: int, seconds: int, tracer, probe) -> Measurement:
    """Scripted random-legal episodes on fresh generated programs."""
    episodes = scaled(seconds, ROLLOUT_EPISODES_PER_SECOND, 8)
    setups = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        start = time.perf_counter()
        specs, funcs, env = _rollout_setup(seed, episodes)
        setups.append(time.perf_counter() - start)
    verify = set(_check_sample(seed, episodes, checks.VERIFY_SAMPLE))

    start_timed(tracer)
    before = env.executor.stats.snapshot()
    op_seconds, speedups, record, kept = [], [], [], {}
    steps = 0
    probe_every = max(1, episodes // PROBES_PER_RUN)
    probed = probe.seconds()
    phase_start = time.perf_counter()
    for index, func in enumerate(funcs):
        if index % probe_every == 0:
            probe.sample()
        start = time.perf_counter()
        rewards, speedup = play_episode(env, func, stream(POLICY, seed, index))
        op_seconds.append(time.perf_counter() - start)
        steps += len(rewards)
        speedups.append(speedup)
        record.extend(rewards)
        if index in verify:
            kept[index] = (func, env.scheduled, speedup, rewards)
    timed_wall = time.perf_counter() - phase_start - (probe.seconds() - probed)
    after = env.executor.stats.snapshot()

    tracer.phase = "check"
    failures = checks.rollout_outputs(kept, env.executor.spec)
    smoke = _check_sample(seed, episodes, checks.SMOKE_SAMPLE, salt=1)
    failures += checks.smoke_replicas(
        {index: specs[index] for index in smoke},
        lambda index: stream(POLICY, seed, index),
        play_episode,
    )
    return Measurement(
        op_seconds=op_seconds,
        work=steps,
        speedups=speedups,
        setup_seconds=setups,
        peak_rss_mb=peak_rss_mb(),
        timed_wall=timed_wall,
        slowdown=probe.slowdown(),
        attempted=episodes,
        failures=failures,
        counters={"env.steps": steps, **cache_counters(before, after)},
        digest=digest(record + speedups),
    )


# -- optimize_models ---------------------------------------------------------------


def optimize_inputs(seed: int) -> list[tuple[str, FuncOp]]:
    """ResNet-18, VGG and the Table IV LQCD apps with seed-drawn contractions."""
    draws = [int(x) for x in stream(LQCD, seed, 0).integers(0, 2**31, size=3)]
    return list(
        zip(
            OPTIMIZE_TARGETS,
            (
                resnet18(),
                vgg16(),
                hexaquark_hexaquark(draws[0]),
                dibaryon_dibaryon(draws[1]),
                dibaryon_hexaquark(draws[2]),
            ),
        )
    )


def _small_function() -> FuncOp:
    a, b, c = tensor([64, 32]), tensor([32, 16]), tensor([64, 16])
    func = FuncOp("warmup", [a, b, c])
    op = func.append(matmul(a, b, c))
    func.returns = [op.result()]
    return func


def _optimize_target(machine, func: FuncOp):
    """`repro optimize` on one target, starting from an empty timing pool."""
    reset_pool()
    baseline = MlirBaseline(machine).seconds(func)
    agent = GreedyAgent(machine)
    result = agent.run(func)
    return baseline, result, agent


def _optimize_setup(seed: int):
    machine = machine_spec(DEFAULT_MACHINE)
    targets = optimize_inputs(seed)
    _optimize_target(machine, _small_function())
    return machine, targets


def optimize_models(seed: int, seconds: int, tracer, probe) -> Measurement:
    """MlirBaseline + GreedyAgent over the five targets; one pass per op."""
    passes = max(1, round(seconds / OPTIMIZE_SECONDS_PER_PASS))
    setups = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        start = time.perf_counter()
        machine, targets = _optimize_setup(seed)
        setups.append(time.perf_counter() - start)

    start_timed(tracer)
    op_seconds, record, results = [], [], []
    per_target: dict[str, list[float]] = {name: [] for name, _ in targets}
    candidates = 0
    score_seconds = 0.0
    cache: dict[str, float] = {}
    probed = probe.seconds()
    phase_start = time.perf_counter()
    for _ in range(passes):
        pass_seconds = 0.0
        for name, func in targets:
            probe.sample()
            start = time.perf_counter()
            baseline, result, agent = _optimize_target(machine, func)
            seconds_taken = time.perf_counter() - start
            per_target[name].append(seconds_taken)
            pass_seconds += seconds_taken
            record.extend((baseline, result.seconds))
            results.append((name, func, result, baseline))
            candidates += agent.candidates_scored
            score_seconds += agent.scoring_seconds
            # Each target starts from an empty pool, so its executor's
            # stats are the target's own.
            stats = cache_counters({}, agent.executor.stats.snapshot())
            for key, value in stats.items():
                cache[key] = cache.get(key, 0) + value
        op_seconds.append(pass_seconds)
    timed_wall = time.perf_counter() - phase_start - (probe.seconds() - probed)
    reset_pool()

    tracer.phase = "check"
    failures = checks.optimize_outputs(results, machine)
    speedups = {name: baseline / result.seconds for name, _, result, baseline in results}
    rows = [(f"{name}.seconds", float(np.median(per_target[name])), "s") for name in per_target]
    rows += [(f"{name}.speedup", speedup, "x") for name, speedup in speedups.items()]
    return Measurement(
        op_seconds=op_seconds,
        work=candidates,
        speedups=list(speedups.values()),
        setup_seconds=setups,
        peak_rss_mb=peak_rss_mb(),
        timed_wall=timed_wall,
        slowdown=probe.slowdown(),
        attempted=passes * len(targets),
        failures=failures,
        counters={
            "env.steps": 0,
            "baselines.candidates": candidates,
            "baselines.score_seconds": score_seconds,
            **cache,
        },
        rows=rows,
        digest=digest(record),
    )


WORKLOADS = {
    "train_table2": train_table2,
    "rollout_generated": rollout_generated,
    "optimize_models": optimize_models,
}
