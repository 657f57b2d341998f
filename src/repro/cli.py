"""Command-line interface: ``python -m repro <command>``.

Mirrors the paper artifact's shell scripts:

* ``paper``     — regenerate every table/figure (JSON + text);
* ``evaluate``  — run all methods on one benchmark suite;
* ``train``     — train the PPO agent on the training mixture;
* ``optimize``  — schedule one model/app and print the schedule script;
* ``analyze``   — dependence report and schedule verification;
* ``profile``   — cProfile one training epoch (top cumulative entries);
* ``cost-export`` — build a schedule-timing corpus and export it as a
  training dataset for the learned cost model;
* ``cost-train``  — fit the cost model on an exported dataset.

``evaluate`` and ``optimize`` accept ``--eval cost --cost-model PATH``
to rank search candidates with the learned model (real-evaluating only
the finalists) instead of pricing every candidate on the machine model.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _resolve_machines(name: str) -> "list | None":
    """Registry specs for a ``--machine`` value (``all`` = round-robin).

    Returns the resolved spec list, or None (with the registry's own
    unknown-name message printed) when the name is unknown.
    """
    from .machine.registry import machine_names, spec

    names = machine_names() if name == "all" else (name,)
    try:
        return [spec(entry) for entry in names]
    except KeyError as error:
        print(error.args[0])
        return None


def _add_machine_argument(parser, extra: str = "") -> None:
    from .machine.registry import DEFAULT_MACHINE

    parser.add_argument(
        "--machine",
        default=DEFAULT_MACHINE,
        help="execution target: a machine-registry name (see "
        "`repro.machine.registry`); default is the paper's Xeon "
        "E5-2680 v4" + extra,
    )


def _cmd_paper(args: argparse.Namespace) -> int:
    from .evaluation import (
        render_fig5,
        render_tab3,
        render_tab4,
        run_fig5,
        run_hardware_generalization,
        run_tab2,
        run_tab3,
        run_tab4,
        run_tab5,
        write_json,
    )

    out = Path(args.output)
    suite = run_fig5(fast=args.fast)
    print(render_fig5(suite))
    write_json(suite, out / "fig5_operators.json")
    rows3 = run_tab3(fast=args.fast)
    print("\n" + render_tab3(rows3))
    write_json(rows3, out / "tab3_models.json")
    rows4 = run_tab4(fast=args.fast)
    print("\n" + render_tab4(rows4))
    write_json(rows4, out / "tab4_lqcd.json")
    write_json(run_tab2(), out / "tab2_dataset.json")
    write_json(run_tab5(), out / "tab5_models.json")
    from .evaluation import run_generator_generalization

    generalization = run_generator_generalization(fast=args.fast)
    write_json(generalization, out / "generator_generalization.json")
    print(
        f"\ngenerator generalization: geomean "
        f"{generalization['eval']['geomean']:.2f}x on Table-II operators "
        f"(untrained control {generalization['eval']['untrained_geomean']:.2f}x)"
    )
    hardware = run_hardware_generalization(fast=args.fast)
    write_json(hardware, out / "hardware_generalization.json")
    print(
        f"\nhardware generalization (trained on "
        f"{hardware['train']['machine']}):"
    )
    for machine, row in hardware["eval"].items():
        marker = " (train)" if row["trained_on"] else ""
        print(
            f"  {machine:20s} geomean {row['geomean']:6.2f}x "
            f"(untrained {row['untrained_geomean']:.2f}x){marker}"
        )
    print(f"\nresults written to {out}/")
    return 0


def _load_cost_model(path: str):
    """Load + layout-check a saved cost model; None (message printed)
    on failure."""
    from .machine.dataset import check_model_compatible
    from .nn import load_cost_model

    try:
        model = load_cost_model(path)
        check_model_compatible(model)
    except (OSError, ValueError, KeyError) as error:
        print(f"cannot load cost model {path!r}: {error}")
        return None
    return model


def _add_eval_arguments(parser) -> None:
    parser.add_argument(
        "--eval",
        choices=("real", "cost"),
        default="real",
        help="candidate ranking during search: 'real' prices every "
        "candidate on the machine model; 'cost' ranks with the learned "
        "cost model (batched forward passes) and real-evaluates only "
        "the finalists — needs --cost-model",
    )
    parser.add_argument(
        "--cost-model",
        default=None,
        metavar="PATH",
        help="a model saved by `repro cost-train` (required with "
        "--eval cost)",
    )


def _attach_cost_evaluator(args: argparse.Namespace, agents: list) -> bool:
    """Wire --eval cost onto search agents; False = bad arguments."""
    if getattr(args, "eval", "real") != "cost":
        return True
    if not args.cost_model:
        print(
            "--eval cost needs --cost-model PATH; train one with "
            "`repro cost-export` + `repro cost-train`"
        )
        return False
    model = _load_cost_model(args.cost_model)
    if model is None:
        return False
    from .machine.dataset import ScheduleCostEvaluator

    for agent in agents:
        agent.evaluator = ScheduleCostEvaluator(
            model, agent.spec, executor=agent.executor
        )
    return True


def _print_scoring_stats(agents: list) -> None:
    scored = sum(agent.candidates_scored for agent in agents)
    seconds = sum(agent.scoring_seconds for agent in agents)
    if scored and seconds > 0:
        print(
            f"candidate scoring: {scored} candidates in {seconds:.2f} s "
            f"({scored / seconds:,.0f}/s)"
        )


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .baselines import (
        BeamSearchAgent,
        HalideRL,
        PyTorchCompiler,
        PyTorchEager,
    )
    from .datasets import evaluation_suite
    from .evaluation import render_fig5, run_operator_suite
    from .evaluation.experiments import FIG5_METHOD_OPERATORS

    if args.machine == "all":
        print("evaluate runs one machine at a time; pass a single name")
        return 1
    machines = _resolve_machines(args.machine)
    if machines is None:
        return 1
    machine = machines[0]
    agent = BeamSearchAgent(machine)
    if not _attach_cost_evaluator(args, [agent]):
        return 1
    methods = [
        agent,
        HalideRL(machine),
        PyTorchEager(machine),
        PyTorchCompiler(machine),
    ]
    cases = evaluation_suite()
    if args.operator:
        cases = [c for c in cases if c.operator == args.operator]
        if not cases:
            print(f"no benchmark cases for operator {args.operator!r}")
            return 1
    suite = run_operator_suite(cases, methods, FIG5_METHOD_OPERATORS)
    print(f"machine: {args.machine}")
    print(render_fig5(suite))
    _print_scoring_stats([agent])
    if suite.cache is not None:
        # Per-suite delta (not process-lifetime pool stats).
        requests = suite.cache["hits"] + suite.cache["misses"]
        print(
            f"execution cache: {suite.cache['hits']}/{requests} hits "
            f"({suite.cache['hit_rate']:.0%}), "
            f"{suite.cache['evaluations']} cost-model evaluations"
        )
    return 0


def _print_cache_stats(executor) -> None:
    """One-line execution-cache summary (pooled service telemetry)."""
    stats = getattr(executor, "stats", None)
    if stats is None or not stats.requests:
        return
    print(
        f"execution cache: {stats.hits}/{stats.requests} hits "
        f"({stats.hit_rate:.0%}), {stats.evaluations} cost-model "
        f"evaluations, {stats.evictions} evictions"
    )


def _cmd_train(args: argparse.Namespace) -> int:
    import numpy as np

    from .datasets import training_sampler
    from .env import MlirRlEnv, small_config
    from .machine import CachingExecutor
    from .rl import (
        PPOConfig,
        get_backend,
        load_training_state,
        save_agent,
        save_training_state,
    )

    from .machine.registry import DEFAULT_MACHINE

    machines = _resolve_machines(args.machine)
    if machines is None:
        return 1
    # Round-robin mixed-hardware training needs the observation to say
    # which machine an episode ran on; single-machine runs may opt in
    # (e.g. to later evaluate the checkpoint across the registry).
    machine_features = args.machine_features or args.machine == "all"
    first_machine = (
        args.machine if args.machine != "all" else DEFAULT_MACHINE
    )
    chaos_plan = None
    if args.chaos:
        from .fault import FaultPlan, install_plan

        try:
            chaos_plan = FaultPlan.parse(args.chaos)
        except (ValueError, OSError) as error:
            print(f"cannot parse --chaos plan: {error}")
            return 1
        install_plan(chaos_plan)
    config = small_config(
        machine=first_machine, machine_features=machine_features
    )
    if args.transforms:
        from .transforms.registry import actionable_transforms

        extra = tuple(
            name.strip() for name in args.transforms.split(",") if name.strip()
        )
        known = actionable_transforms()
        unknown = [name for name in extra if name not in known]
        if unknown:
            print(
                f"unknown or record-only transformation(s) "
                f"{', '.join(unknown)}; available: {', '.join(sorted(known))}"
            )
            return 1
        config = config.with_transforms(*extra)
    rng = np.random.default_rng(args.seed)
    backend = get_backend(args.action_space, config)
    agent = backend.build_agent(rng, hidden_size=args.hidden)
    executor = CachingExecutor(config.machine_spec())
    if chaos_plan is not None:
        # Chaos runs need the guards the injected faults exercise; the
        # guarded fault-free path is bit-identical to the unguarded one,
        # and the rollout pool guards its workers alike.
        from .fault import GuardedExecutor

        executor = GuardedExecutor(executor)
    env = MlirRlEnv(config=config, executor=executor)
    sampler = training_sampler(
        scale=args.scale,
        seed=args.seed,
        kind=args.dataset,
        curriculum=args.curriculum,
    )
    trainer = backend.trainer(
        env,
        agent,
        sampler,
        PPOConfig(
            samples_per_iteration=args.samples,
            minibatch_size=16,
            num_envs=args.num_envs,
            num_workers=args.workers,
        ),
        seed=args.seed,
        machines=machines if len(machines) > 1 else None,
    )
    resumed_from = 0
    if args.resume:
        try:
            load_training_state(trainer, args.resume)
        except (ValueError, OSError) as error:
            print(f"cannot resume from {args.resume}: {error}")
            return 1
        resumed_from = trainer.iteration
        print(f"resumed from {args.resume} at iteration {resumed_from}")
    state_path = args.state or f"{args.checkpoint}.state.npz"
    if not state_path.endswith(".npz"):
        state_path += ".npz"  # np.savez appends it; keep the printed
        # path and a later --resume consistent with the file on disk
    try:
        # State is written every iteration, so a killed run keeps a
        # resumable snapshot at its last completed iteration boundary.
        history = trainer.train(args.iterations, state_path=state_path)
    finally:
        trainer.close()
    for stats in history.iterations[resumed_from:]:
        print(
            f"iter {stats.iteration:3d}: speedup "
            f"{stats.geomean_speedup:6.2f}x reward {stats.mean_reward:7.3f} "
            f"({stats.wall_seconds:.2f} s, update "
            f"{stats.update_seconds / stats.wall_seconds:.0%})"
        )
    save_agent(agent, args.checkpoint)
    if not history.iterations:
        save_training_state(trainer, state_path)
    print(
        f"checkpoint saved to {args.checkpoint} "
        f"(resumable state: {state_path})"
    )
    _print_cache_stats(env.executor)
    if chaos_plan is not None:
        from .fault import install_plan

        install_plan(None)
        print(chaos_plan.report())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """cProfile one training epoch; print the top cumulative entries.

    The fast way to answer "where do collection steps actually go":
    run it before/after a change and compare the lower/fingerprint/
    observe shares (the README's Performance section shows a typical
    profile).
    """
    import cProfile
    import pstats

    import numpy as np

    from .datasets import training_sampler
    from .env import MlirRlEnv, small_config
    from .rl import PPOConfig, get_backend

    config = small_config()
    rng = np.random.default_rng(args.seed)
    backend = get_backend("hierarchical", config)
    agent = backend.build_agent(rng, hidden_size=args.hidden)
    env = MlirRlEnv(config=config)
    sampler = training_sampler(scale=args.scale, seed=args.seed)
    trainer = backend.trainer(
        env,
        agent,
        sampler,
        PPOConfig(
            samples_per_iteration=args.samples,
            minibatch_size=16,
            num_envs=args.num_envs,
        ),
        seed=args.seed,
    )
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        trainer.train(args.iterations)
    finally:
        profiler.disable()
        trainer.close()
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    _print_cache_stats(env.executor)
    return 0


def _named_targets() -> dict:
    """The model/app functions addressable by name from the CLI."""
    from .datasets import (
        dibaryon_dibaryon,
        dibaryon_hexaquark,
        hexaquark_hexaquark,
        mobilenet_v2,
        resnet18,
        vgg16,
    )

    return {
        "resnet18": resnet18,
        "vgg": vgg16,
        "mobilenet": mobilenet_v2,
        "hexaquark-hexaquark": hexaquark_hexaquark,
        "dibaryon-dibaryon": dibaryon_dibaryon,
        "dibaryon-hexaquark": dibaryon_hexaquark,
    }


def _cmd_optimize(args: argparse.Namespace) -> int:
    from .baselines import GreedyAgent, MlirBaseline
    from .transforms.script import render_script

    targets = _named_targets()
    factory = targets.get(args.target)
    if factory is None:
        print(f"unknown target {args.target!r}; pick from {sorted(targets)}")
        return 1
    if args.machine == "all":
        print("optimize schedules for one machine; pass a single name")
        return 1
    machines = _resolve_machines(args.machine)
    if machines is None:
        return 1
    machine = machines[0]
    func = factory()
    baseline = MlirBaseline(machine).seconds(func)
    agent = GreedyAgent(machine)
    if not _attach_cost_evaluator(args, [agent]):
        return 1
    result = agent.run(func)
    _print_scoring_stats([agent])
    print(
        f"{args.target} on {args.machine}: {baseline * 1e3:.2f} ms -> "
        f"{result.seconds * 1e3:.2f} ms "
        f"({baseline / result.seconds:.2f}x)"
    )
    if args.script:
        script = render_script(result.schedule)
        Path(args.script).write_text(script)
        print(f"schedule script written to {args.script}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Dependence-analysis report / schedule verification.

    ``repro analyze <target>`` prints every op's dependence vectors and
    the function's flow edges; ``--script`` additionally replays a
    schedule script and reports the verifier's violations.
    """
    from .analysis import DependenceGraph, verify_schedule

    if args.target == "generated":
        import numpy as np

        from .datasets.generator import generate_program

        func = generate_program(np.random.default_rng(args.seed))
    else:
        targets = _named_targets()
        factory = targets.get(args.target)
        if factory is None:
            print(
                f"unknown target {args.target!r}; pick from "
                f"{sorted(targets) + ['generated']}"
            )
            return 1
        func = factory()

    graph = DependenceGraph.analyze(func)
    print(graph.render())
    if args.script:
        from .transforms.script import apply_script

        scheduled = apply_script(func, Path(args.script).read_text())
        violations = verify_schedule(func, scheduled)
        if not violations:
            print(f"\nschedule {args.script}: no violations")
            return 0
        print(f"\nschedule {args.script}: {len(violations)} violation(s)")
        for violation in violations:
            print(f"  {violation.render()}")
        return 1
    return 0


def _cmd_cost_export(args: argparse.Namespace) -> int:
    """Build (or reload) a timing corpus and export the training set."""
    from .machine import ExecutionCache, export_dataset
    from .machine.dataset import build_corpus

    if args.from_cache:
        cache = ExecutionCache()
        try:
            entries = cache.load(args.from_cache)
        except (OSError, ValueError) as error:
            print(f"cannot load cache {args.from_cache!r}: {error}")
            return 1
        print(f"loaded {entries} cache entries from {args.from_cache}")
    else:
        machines = _resolve_machines(args.machine)
        if machines is None:
            return 1
        if len(machines) != 1:
            print("cost-export builds one machine's corpus at a time")
            return 1
        cache = build_corpus(
            num_programs=args.programs,
            schedules_per_program=args.schedules,
            seed=args.seed,
            machine=machines[0],
        )
    if args.save_cache:
        saved = cache.save(args.save_cache)
        print(f"saved {saved} cache entries to {args.save_cache}")
    dataset = export_dataset(cache)
    if not len(dataset.targets):
        print("cache produced no trainable samples; nothing written")
        return 1
    dataset.save(args.output)
    print(
        f"exported {len(dataset.targets)} samples "
        f"({dataset.features.shape[1]} features each) to {args.output}"
    )
    return 0


def _cmd_cost_train(args: argparse.Namespace) -> int:
    """Fit the learned cost model on an exported dataset."""
    from .machine.dataset import CostDataset
    from .nn import save_cost_model, train_cost_model

    try:
        dataset = CostDataset.load(args.data)
    except (OSError, ValueError, KeyError) as error:
        print(f"cannot load dataset {args.data!r}: {error}")
        return 1
    try:
        model, metrics = train_cost_model(
            dataset,
            seed=args.seed,
            hidden=args.hidden,
            epochs=args.epochs,
        )
    except ValueError as error:
        print(f"training failed: {error}")
        return 1
    save_cost_model(model, args.output)
    print(
        f"trained on {metrics['train_samples']} samples "
        f"({metrics['holdout_samples']} held out): "
        f"train MAPE {metrics['train_mape']:.3f}, "
        f"holdout MAPE {metrics['holdout_mape']:.3f}"
    )
    print(f"model saved to {args.output}")
    return 0


def _positive_int(value: str) -> int:
    """argparse type: an integer >= 1 with a clear error message."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1, got {number} (1 = sequential collection, "
            "N > 1 = batched vec-env rollouts)"
        )
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="MLIR RL reproduction CLI"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    paper = commands.add_parser("paper", help="regenerate paper results")
    paper.add_argument("--output", default="paper/results")
    paper.add_argument("--fast", action="store_true")
    paper.set_defaults(func=_cmd_paper)

    evaluate = commands.add_parser("evaluate", help="run the Fig. 5 suite")
    evaluate.add_argument("--operator", default=None)
    _add_machine_argument(evaluate)
    _add_eval_arguments(evaluate)
    evaluate.set_defaults(func=_cmd_evaluate)

    train = commands.add_parser("train", help="train the PPO agent")
    train.add_argument("--iterations", type=int, default=5)
    train.add_argument("--samples", type=int, default=8)
    train.add_argument(
        "--num-envs",
        type=_positive_int,
        default=1,
        help="episodes collected concurrently (must be >= 1); >1 opts "
        "into batched rollouts (RNG consumption differs from "
        "sequential, so checkpoints are not seed-identical across "
        "values)",
    )
    train.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="rollout worker processes (must be >= 1); 1 collects "
        "in-process (seed-exact), N > 1 steps episodes through a "
        "multiprocessing pool with cross-worker timing-cache sync "
        "(identical episodes to --num-envs N in-process collection)",
    )
    train.add_argument(
        "--action-space",
        choices=("hierarchical", "flat"),
        default="hierarchical",
        help="action-space backend: the paper's multi-discrete heads "
        "or the flat §VII-D ablation",
    )
    train.add_argument(
        "--transforms",
        default="",
        help="comma-separated extra registered transformations to "
        "append to the paper's six (e.g. 'unrolling'); default "
        "action space is unchanged",
    )
    train.add_argument(
        "--dataset",
        choices=("table2", "generated", "mixed"),
        default="table2",
        help="training corpus: the paper's fixed Table-II mixture, "
        "freshly generated random loop-nest programs, or a 50/50 blend",
    )
    train.add_argument(
        "--curriculum",
        type=int,
        default=0,
        help="episodes per curriculum stage for generated programs "
        "(warmup -> single -> chains -> deep); 0 disables staging and "
        "samples the full generator distribution",
    )
    _add_machine_argument(
        train,
        extra="; 'all' trains round-robin across the whole registry "
        "(one machine per iteration) with machine-conditioned "
        "observations",
    )
    train.add_argument(
        "--machine-features",
        action="store_true",
        help="append the target machine's hardware descriptor to every "
        "observation even for single-machine training (implied by "
        "--machine all); changes the observation layout, but legacy "
        "checkpoints still load via the zero-padded compatibility path",
    )
    train.add_argument(
        "--resume",
        default=None,
        help="resume from a training state saved by a previous run "
        "(the .state.npz next to the checkpoint); restores weights, "
        "optimizer moments, RNG streams, iteration counter, and "
        "curriculum stage, so the run continues bit-identically",
    )
    train.add_argument(
        "--state",
        default=None,
        help="where to write the resumable training state "
        "(default: <checkpoint>.state.npz)",
    )
    train.add_argument(
        "--chaos",
        default="",
        help="deterministic fault-injection plan (chaos testing): "
        "explicit events like "
        "'exec.timeout@2,worker.kill@1,write.partial_write@1', "
        "randomized counts like 'kills=1,timeouts=2,seed=7', or a JSON "
        "plan file; guards every execution (timeouts, retries, "
        "quarantine) and prints a fired/pending report after the run",
    )
    train.add_argument("--hidden", type=int, default=64)
    train.add_argument("--scale", type=float, default=0.01)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--checkpoint", default="mlir_rl_agent.npz")
    train.set_defaults(func=_cmd_train)

    optimize = commands.add_parser("optimize", help="schedule one target")
    optimize.add_argument("target")
    optimize.add_argument("--script", default=None)
    _add_machine_argument(optimize)
    _add_eval_arguments(optimize)
    optimize.set_defaults(func=_cmd_optimize)

    cost_export = commands.add_parser(
        "cost-export",
        help="build a schedule-timing corpus and export a cost-model "
        "training dataset",
    )
    cost_export.add_argument(
        "--programs",
        type=int,
        default=64,
        help="generator programs in the corpus (plus the paper's "
        "training models)",
    )
    cost_export.add_argument(
        "--schedules",
        type=int,
        default=8,
        help="random schedule walks per program (every prefix state "
        "is timed and exported)",
    )
    cost_export.add_argument("--seed", type=int, default=0)
    _add_machine_argument(cost_export)
    cost_export.add_argument(
        "--output",
        default="cost_dataset.npz",
        help="where to write the exported dataset (.npz)",
    )
    cost_export.add_argument(
        "--save-cache",
        default=None,
        metavar="PATH",
        help="also persist the raw execution cache as JSON "
        "(reload with --from-cache to re-export without re-timing)",
    )
    cost_export.add_argument(
        "--from-cache",
        default=None,
        metavar="PATH",
        help="export from a cache JSON saved by --save-cache instead "
        "of building a fresh corpus (--programs/--schedules ignored)",
    )
    cost_export.set_defaults(func=_cmd_cost_export)

    cost_train = commands.add_parser(
        "cost-train",
        help="train the learned cost model on an exported dataset",
    )
    cost_train.add_argument(
        "--data",
        default="cost_dataset.npz",
        help="dataset written by cost-export",
    )
    cost_train.add_argument(
        "--output",
        default="cost_model.npz",
        help="where to save the trained model",
    )
    cost_train.add_argument("--epochs", type=int, default=80)
    cost_train.add_argument("--hidden", type=int, default=64)
    cost_train.add_argument("--seed", type=int, default=0)
    cost_train.set_defaults(func=_cmd_cost_train)

    analyze = commands.add_parser(
        "analyze",
        help="dependence-analysis report / schedule verification",
    )
    analyze.add_argument(
        "target",
        help="a model/app name (as for `optimize`) or 'generated' "
        "(one generator program, controlled by --seed)",
    )
    analyze.add_argument(
        "--script",
        default=None,
        help="also replay this schedule script and report the "
        "legality verifier's violations",
    )
    analyze.add_argument("--seed", type=int, default=0)
    analyze.set_defaults(func=_cmd_analyze)

    profile = commands.add_parser(
        "profile", help="cProfile one training epoch"
    )
    profile.add_argument("--iterations", type=int, default=1)
    profile.add_argument("--samples", type=int, default=8)
    profile.add_argument("--num-envs", type=_positive_int, default=1)
    profile.add_argument("--hidden", type=int, default=64)
    profile.add_argument("--scale", type=float, default=0.01)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--top", type=int, default=25, help="rows of the profile to print"
    )
    profile.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime", "calls"),
    )
    profile.set_defaults(func=_cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
