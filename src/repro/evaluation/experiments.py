"""Per-experiment drivers: one function per paper table/figure.

Each driver returns plain data (dict) and has a ``fast`` knob that
shrinks workloads for test/bench wall-clock sanity without changing the
comparison structure.  The benchmark harness in ``benchmarks/`` calls
these and prints the paper-shaped rows; EXPERIMENTS.md records
paper-vs-measured values.
"""

from __future__ import annotations

import time

import numpy as np

from ..baselines import (
    BeamSearchAgent,
    GreedyAgent,
    HalideRL,
    MlirBaseline,
    MullapudiAutoscheduler,
    PyTorchCompiler,
    PyTorchEager,
)
from ..datasets import (
    APPLICATIONS,
    MODELS,
    TABLE_II_DISTRIBUTION,
    evaluation_suite,
    op_composition,
    training_sampler,
    training_suite,
)
from ..env.config import (
    EnvConfig,
    InterchangeMode,
    RewardMode,
    small_config,
)
from ..env.environment import MlirRlEnv
from ..rl.agent import ActorCritic
from ..rl.backends import get_backend
from ..rl.ppo import PPOConfig, PPOTrainer
from ..rl.rollout import collect_episode
from ..transforms.pipeline import ScheduledFunction
from .runner import SuiteResult, geomean, run_function, run_operator_suite

#: Operator classes each method supports in Fig. 5 (Halide RL's system
#: targets image-processing pipelines and lacks conv support; PyTorch is
#: evaluated on DNN operators only).
FIG5_METHOD_OPERATORS = {
    "halide-rl": {"matmul", "maxpooling", "add", "relu"},
}


def _one_case_per_operator(cases):
    """Fast-mode compaction: keep the first case of each operator class."""
    seen: set[str] = set()
    compact = []
    for case in cases:
        if case.operator not in seen:
            seen.add(case.operator)
            compact.append(case)
    return compact


def run_fig5(fast: bool = False) -> SuiteResult:
    """Figure 5: operator speedups for MLIR RL / Halide RL / PyTorch /
    PyTorch compiler over the MLIR baseline."""
    cases = evaluation_suite()
    if fast:
        cases = _one_case_per_operator(cases)
    methods = [
        BeamSearchAgent(beam_width=2 if fast else 4),
        HalideRL(),
        PyTorchEager(),
        PyTorchCompiler(),
    ]
    return run_operator_suite(cases, methods, FIG5_METHOD_OPERATORS)


def run_tab3(fast: bool = False) -> dict[str, dict[str, float]]:
    """Table III: model speedups for MLIR RL / PyTorch / PyTorch compiler."""
    methods = [GreedyAgent(), PyTorchEager(), PyTorchCompiler()]
    rows: dict[str, dict[str, float]] = {}
    for name, factory in MODELS:
        if fast and name == "MobileNetV2":
            continue
        func = factory()
        result = run_function(func, methods, name=name)
        rows[name] = result.speedups
    return rows


def run_tab4(fast: bool = False) -> dict[str, dict[str, float]]:
    """Table IV: LQCD application speedups for MLIR RL vs the Halide
    autoscheduler (Mullapudi)."""
    methods = [GreedyAgent(), MullapudiAutoscheduler()]
    rows: dict[str, dict[str, float]] = {}
    for name, lattice, factory in APPLICATIONS:
        func = factory()
        result = run_function(func, methods, name=name)
        rows[f"{name} (S = {lattice})"] = result.speedups
    return rows


# -- training-curve experiments (Figures 6-7, interchange ablation) ---------------


def _mini_training_setup(
    config: EnvConfig, seed: int
) -> tuple[MlirRlEnv, callable]:
    env = MlirRlEnv(config=config)
    sampler = training_sampler(scale=0.004, seed=seed)
    return env, sampler


def _ppo_config() -> PPOConfig:
    return PPOConfig(samples_per_iteration=6, minibatch_size=12)


def run_fig6(iterations: int = 6, seed: int = 0) -> dict:
    """Figure 6: flat vs multi-discrete action-space training curves.

    Returns per-iteration geomean speedups for both agents.  The paper's
    result: the flat space converges faster, the multi-discrete space
    reaches higher final speedups.
    """
    config = small_config(interchange_mode=InterchangeMode.ENUMERATED)
    rng = np.random.default_rng(seed)

    histories = {}
    for backend_name in ("hierarchical", "flat"):
        backend = get_backend(backend_name, config)
        env, sampler = _mini_training_setup(config, seed)
        agent = backend.build_agent(rng, hidden_size=64)
        trainer = backend.trainer(env, agent, sampler, _ppo_config(), seed)
        histories[backend_name] = trainer.train(iterations)

    return {
        "multi_discrete": histories["hierarchical"].speedups(),
        "flat": histories["flat"].speedups(),
        "multi_discrete_wall": histories["hierarchical"].wall_clock(),
        "flat_wall": histories["flat"].wall_clock(),
    }


def run_fig7(iterations: int = 6, seed: int = 0) -> dict:
    """Figure 7: immediate vs final reward.

    Expected shape: comparable speedup per iteration, but the immediate
    variant costs more wall-clock (it executes the program after every
    step — tracked via the env's execution counter).
    """
    results = {}
    for mode in (RewardMode.FINAL, RewardMode.IMMEDIATE):
        config = small_config(reward_mode=mode)
        rng = np.random.default_rng(seed)
        env, sampler = _mini_training_setup(config, seed)
        agent = ActorCritic(config, rng, hidden_size=64)
        trainer = PPOTrainer(env, agent, sampler, _ppo_config(), seed)
        history = trainer.train(iterations)
        results[mode.value] = {
            "speedups": history.speedups(),
            "wall": history.wall_clock(),
            "executions": [s.executions for s in history.iterations],
        }
    return results


def run_interchange_ablation(iterations: int = 5, seed: int = 0) -> dict:
    """§VII-D(1): level pointers vs enumerated candidates.

    The paper: level pointers reach 18.7x average speedup vs 14.5x for
    enumerated candidates on their benchmark suite.
    """
    results = {}
    for mode in (InterchangeMode.LEVEL_POINTERS, InterchangeMode.ENUMERATED):
        config = small_config(interchange_mode=mode)
        rng = np.random.default_rng(seed)
        env, sampler = _mini_training_setup(config, seed)
        agent = ActorCritic(config, rng, hidden_size=64)
        trainer = PPOTrainer(env, agent, sampler, _ppo_config(), seed)
        history = trainer.train(iterations)
        results[mode.value] = history.speedups()
    return results


# -- §VII-B overhead -----------------------------------------------------------------


def run_overhead(samples: int = 8, seed: int = 0) -> dict:
    """§VII-B: policy-inference and transformation-application overhead.

    The paper reports 0.028 s average policy inference per code sample
    and 0.089 s (operators) / 0.8 s (LQCD) to apply the transformation
    sequence.
    """
    config = small_config()
    rng = np.random.default_rng(seed)
    agent = ActorCritic(config, rng, hidden_size=64)
    env = MlirRlEnv(config=config)
    sampler = training_sampler(scale=0.004, seed=seed)

    inference_seconds = []
    for _ in range(samples):
        func = sampler(rng)
        start = time.perf_counter()
        collect_episode(env, agent, func, rng, greedy=True)
        inference_seconds.append(time.perf_counter() - start)

    agent_search = BeamSearchAgent(beam_width=2)
    apply_seconds = []
    for _ in range(samples):
        func = sampler(rng)
        schedule = agent_search.optimize(func)
        start = time.perf_counter()
        _apply_replay(func, schedule)
        apply_seconds.append(time.perf_counter() - start)

    return {
        "inference_seconds_per_sample": float(np.mean(inference_seconds)),
        "transform_seconds_per_sample": float(np.mean(apply_seconds)),
    }


def _apply_replay(func, schedule: ScheduledFunction) -> ScheduledFunction:
    """Re-apply a discovered schedule from scratch (the 'apply MLIR
    transformations' phase of §VII-B)."""
    replay = ScheduledFunction(func)
    for op in func.body:
        source = schedule.schedule_of(op)
        for record in source.history:
            try:
                replay.apply(op, record)
            except Exception:
                break
    return replay


# -- generator generalization (train on generated, eval on Table II) ------------------


def run_generator_generalization(
    fast: bool = False, seed: int = 0
) -> dict:
    """Train purely on randomly *generated* programs, evaluate on the
    fixed Table-II operator benchmarks the agent never saw.

    The paper's motivation for its random-program training corpus: the
    policy should transfer to unseen workloads.  This experiment trains
    an agent with the :mod:`~repro.datasets.generator` curriculum and
    reports greedy-policy speedups on the Fig. 5 evaluation suite
    (shapes *and* op structure both unseen during training), next to an
    untrained-policy control with the same initialization.
    """
    config = small_config()
    iterations = 3 if fast else 8
    ppo = PPOConfig(
        samples_per_iteration=4 if fast else 8, minibatch_size=12
    )
    episodes_per_stage = max(
        1, (iterations * ppo.samples_per_iteration) // 4
    )
    sampler = training_sampler(
        kind="generated", curriculum=episodes_per_stage, seed=seed
    )

    cases = evaluation_suite()
    if fast:
        cases = _one_case_per_operator(cases)

    def greedy_speedups(agent, env, rng) -> dict[str, float]:
        speedups = {}
        for case in cases:
            episode = collect_episode(
                env, agent, case.build(), rng, greedy=True
            )
            speedups[case.name] = episode.speedup
        return speedups

    rng = np.random.default_rng(seed)
    agent = ActorCritic(config, rng, hidden_size=64)
    env = MlirRlEnv(config=config)
    untrained = greedy_speedups(agent, env, np.random.default_rng(seed))

    trainer = PPOTrainer(env, agent, sampler, ppo, seed=seed)
    try:
        history = trainer.train(iterations)
    finally:
        trainer.close()
    trained = greedy_speedups(agent, env, np.random.default_rng(seed))

    return {
        "train": {
            "dataset": "generated",
            "curriculum_episodes_per_stage": episodes_per_stage,
            "iterations": iterations,
            "samples_per_iteration": ppo.samples_per_iteration,
            "speedups": history.speedups(),
        },
        "eval": {
            "suite": "table2-operators",
            "cases": trained,
            "untrained_cases": untrained,
            "geomean": geomean(trained.values()),
            "untrained_geomean": geomean(untrained.values()),
        },
    }


# -- hardware generalization (train on one machine, eval on the registry) -------------


def run_hardware_generalization(
    fast: bool = False,
    seed: int = 0,
    train_machine: str = "xeon-e5-2680-v4",
) -> dict:
    """Train a *spec-conditioned* agent on one registry machine,
    greedy-evaluate it on every other registered machine.

    Pearl-style scenario diversity: the observation carries the
    target's normalized hardware descriptor
    (``EnvConfig.machine_features``), so one policy serves every
    machine; this experiment measures how schedules learned on the
    training machine transfer when the same policy is pointed at a
    big-L3 server, a laptop, and a narrow-vector edge core — machines
    whose cost model (and observation conditioning) it never trained
    on.  An untrained-policy control with the same initialization
    separates transfer from environment bias.
    """
    from dataclasses import replace

    from ..machine.registry import machine_names, spec as machine_spec
    from ..machine.service import CachingExecutor, ExecutionCache

    config = small_config(machine=train_machine, machine_features=True)
    iterations = 3 if fast else 8
    ppo = PPOConfig(
        samples_per_iteration=4 if fast else 8, minibatch_size=12
    )
    sampler = training_sampler(scale=0.004, seed=seed)

    cases = evaluation_suite()
    if fast:
        cases = _one_case_per_operator(cases)

    # One spec-keyed cache behind every eval env: the untrained and
    # trained passes time identical (machine, schedule) pairs, so the
    # second pass replays baselines and probes instead of re-evaluating.
    eval_cache = ExecutionCache()

    def greedy_speedups(agent, machine: str) -> dict[str, float]:
        eval_env = MlirRlEnv(
            config=replace(config, machine=machine),
            executor=CachingExecutor(
                machine_spec(machine), cache=eval_cache
            ),
        )
        rng = np.random.default_rng(seed)
        speedups = {}
        for case in cases:
            episode = collect_episode(
                eval_env, agent, case.build(), rng, greedy=True
            )
            speedups[case.name] = episode.speedup
        return speedups

    rng = np.random.default_rng(seed)
    agent = ActorCritic(config, rng, hidden_size=64)
    env = MlirRlEnv(config=config)
    untrained = {
        machine: greedy_speedups(agent, machine)
        for machine in machine_names()
    }

    trainer = PPOTrainer(env, agent, sampler, ppo, seed=seed)
    try:
        history = trainer.train(iterations)
    finally:
        trainer.close()

    evaluations = {}
    for machine in machine_names():
        speedups = greedy_speedups(agent, machine)
        evaluations[machine] = {
            "cases": speedups,
            "geomean": geomean(speedups.values()),
            "untrained_geomean": geomean(untrained[machine].values()),
            "trained_on": machine == train_machine,
        }
    return {
        "train": {
            "machine": train_machine,
            "machine_features": True,
            "iterations": iterations,
            "samples_per_iteration": ppo.samples_per_iteration,
            "speedups": history.speedups(),
        },
        "eval": evaluations,
    }


# -- learned cost model (model-guided search vs real evaluation) ----------------------


#: Interleaved repeats of the two scoring modes behind the cost/real
#: throughput ratio; odd, so the median is one repeat's ratio.
SCORING_REPEATS = 5


def run_cost_model(fast: bool = False, seed: int = 0) -> dict:
    """Cost-model accuracy and model-guided search quality/throughput.

    Builds a corpus of generator programs, exports the execution cache
    into a training set, fits the cost model, then runs the Table-II
    suite with identical beam searches on **cold caches**: once
    scoring candidates with the machine model (real eval), once with
    batched cost-model forward passes (``--eval=cost``).  The two
    searches repeat :data:`SCORING_REPEATS` times, interleaved and with
    fresh caches (execution cache, evaluator memos and featurization
    part caches), alternating which mode goes first.  Reports MAPE,
    per-mode geomean speedup and candidate-scoring throughput of the
    repeat with the median cost/real throughput ratio, and the two
    tracked ratios: cost/real throughput (that median; target ≥ 10x)
    and cost/real search quality (target ≥ 0.9).
    """
    from ..machine.dataset import (
        RecordingEvaluator,
        ScheduleCostEvaluator,
        build_corpus,
        clear_feature_caches,
        export_dataset,
    )
    from ..machine.service import CachingExecutor, ExecutionCache
    from ..machine.spec import XEON_E5_2680_V4
    from ..nn.cost_model import train_cost_model

    num_programs = 32 if fast else 64
    schedules_per_program = 6 if fast else 8
    epochs = 60 if fast else 80
    # Generator programs give structural diversity; the Table-II
    # training mix adds the operator families/shape ranges the suite
    # draws from (the paper's own train/eval split — eval shapes stay
    # unseen).
    extras = training_suite(scale=0.02 if fast else 0.05)
    corpus_start = time.perf_counter()
    cache = build_corpus(
        num_programs=num_programs,
        schedules_per_program=schedules_per_program,
        seed=seed,
        extra_programs=extras,
    )
    # Guided pass: replay a real-eval greedy search over the training
    # mix with a recording evaluator, so every search-visited state is
    # timed into the cache — the distribution model-guided search must
    # later rank (random walks alone skew toward bad schedules).
    corpus_executor = CachingExecutor(XEON_E5_2680_V4, cache=cache)
    guide = GreedyAgent(
        executor=corpus_executor,
        evaluator=RecordingEvaluator(corpus_executor),
    )
    for func in extras:
        guide.optimize(func)
    dataset = export_dataset(cache)
    corpus_seconds = time.perf_counter() - corpus_start
    train_start = time.perf_counter()
    model, train_metrics = train_cost_model(
        dataset, seed=seed, epochs=epochs
    )
    train_seconds = time.perf_counter() - train_start

    cases = evaluation_suite()
    if fast:
        cases = _one_case_per_operator(cases)
    beam_width = 2 if fast else 4

    def search(mode: str) -> dict:
        clear_feature_caches()
        executor = CachingExecutor(
            XEON_E5_2680_V4, cache=ExecutionCache()
        )
        evaluator = (
            ScheduleCostEvaluator(model, XEON_E5_2680_V4, executor=executor)
            if mode == "cost"
            else None
        )
        agent = BeamSearchAgent(
            beam_width=beam_width, executor=executor, evaluator=evaluator
        )
        baseline = MlirBaseline(executor=executor)
        speedups: dict[str, float] = {}
        for case in cases:
            func = case.build()
            base_seconds = baseline.run(func).seconds
            agent_seconds = agent.run(func).seconds
            speedups[case.name] = base_seconds / agent_seconds
        throughput = (
            agent.candidates_scored / agent.scoring_seconds
            if agent.scoring_seconds > 0
            else 0.0
        )
        row = {
            "geomean_speedup": geomean(speedups.values()),
            "speedups": speedups,
            "candidates_scored": agent.candidates_scored,
            "scoring_seconds": agent.scoring_seconds,
            "candidates_per_second": throughput,
        }
        if evaluator is not None:
            row["evaluator"] = evaluator.stats.snapshot()
        return row

    runs: dict[str, list[dict]] = {"real": [], "cost": []}
    for repeat in range(SCORING_REPEATS):
        for mode in ("real", "cost") if repeat % 2 == 0 else ("cost", "real"):
            runs[mode].append(search(mode))
    ratios = [
        cost["candidates_per_second"] / real["candidates_per_second"]
        if real["candidates_per_second"] > 0
        else 0.0
        for real, cost in zip(runs["real"], runs["cost"])
    ]
    # The repeat with the median ratio reports both modes' rows.
    median = sorted(range(SCORING_REPEATS), key=ratios.__getitem__)[
        SCORING_REPEATS // 2
    ]
    modes = {mode: rows[median] for mode, rows in runs.items()}
    return {
        "dataset": {
            "num_programs": num_programs,
            "schedules_per_program": schedules_per_program,
            "samples": len(dataset),
            "feature_size": int(dataset.features.shape[1]),
            "corpus_seconds": corpus_seconds,
        },
        "train": dict(train_metrics, epochs=epochs, seconds=train_seconds),
        "holdout_mape": train_metrics["holdout_mape"],
        "modes": modes,
        "cost_vs_real_throughput_ratio": ratios[median],
        "throughput_ratio_repeats": ratios,
        "search_quality_ratio": (
            modes["cost"]["geomean_speedup"]
            / modes["real"]["geomean_speedup"]
        ),
    }


# -- dataset tables -------------------------------------------------------------------


def run_tab2(scale: float = 0.05) -> dict[str, int]:
    """Table II: the single-operator training-set composition."""
    suite = training_suite(scale=scale)
    counts: dict[str, int] = {}
    for func in suite:
        kind = func.name.split("_")[0]
        counts[kind] = counts.get(kind, 0) + 1
    counts["total"] = len(suite)
    counts["full_scale_distribution"] = dict(TABLE_II_DISTRIBUTION)
    counts["full_scale_total"] = sum(TABLE_II_DISTRIBUTION.values())
    return counts


def run_tab5() -> dict[str, dict[str, int]]:
    """Table V: op composition of the benchmarked models."""
    return {name: op_composition(factory()) for name, factory in MODELS}
