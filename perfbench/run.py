"""Run one benchmark workload, check its outputs and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload rollout_generated --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
installs the outside-in tracer and reports the per-layer metrics instead.
Human-readable rows come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Details
(samples, per-target rows, output digest, spans) go under ``--out``.  The
exit code is 0 only when every output check passed.
"""

import time

START = time.perf_counter()

import argparse
import json
import math
import os
import statistics
import sys
from pathlib import Path

# One BLAS thread: on a 2-vCPU machine a second BLAS thread spins on the
# core other processes need, and it made PPO iteration times vary more
# between runs with no gain at these matrix sizes.  Set before numpy is
# imported; an explicit setting wins.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train_table2", "rollout_generated", "optimize_models")

#: The workload-specific names of the generic end-to-end metrics.
ALIASES = {
    "train_table2": {"op_s": "iter_s", "work_per_s": "transitions_per_s"},
    "rollout_generated": {
        "op_s": "episode_s",
        "op_p90_s": "episode_p90_s",
        "work_per_s": "steps_per_s",
    },
    "optimize_models": {"op_s": "optimize_s", "work_per_s": "candidates_per_s"},
}


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(measurement, import_seconds: float, scale: float = 1.0):
    """The end-to-end metrics; times are divided by ``scale`` (the run's
    machine slowdown, see ``perfbench.speed``) and rates multiplied by it."""
    return {
        "setup_s": (import_seconds + statistics.median(measurement.setup_seconds))
        / scale,
        "peak_rss_mb": measurement.peak_rss_mb,
        "speedup_geomean": geomean(measurement.speedups),
        "op_s": statistics.median(measurement.op_seconds) / scale,
        "work_per_s": measurement.work / sum(measurement.op_seconds) * scale,
    }


def tail_row(op_seconds: list[float]):
    """The 90th-percentile row, when at least ten samples lie beyond it."""
    if len(op_seconds) * 0.1 < 10:
        return None
    return ("op_p90_s", percentile(op_seconds, 0.9), "s")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, measurement, setup_repeats: int) -> dict[str, float]:
    """Self seconds per operation of each layer, plus counts and ratios."""
    phase = "timed"
    ops = len(measurement.op_seconds)
    counters = measurement.counters
    steps = counters.get("env.steps", 0)

    def per_op(*names: str) -> float:
        return tracer.self_time(phase, *names) / ops

    lookups = tracer.count(phase, "env.mask_lookup")
    computed = tracer.pair_count(phase, "env.mask_lookup", "env.compute_mask")
    spans = tracer.span_count(phase)
    score_seconds = counters.get("baselines.score_seconds", 0.0)
    candidates = counters.get("baselines.candidates", 0)
    return {
        "rl.collect_s": per_op("rl.collect"),
        "rl.update_s": per_op("rl.update"),
        "rl.update_share": _ratio(
            tracer.total_time(phase, "rl.update"), sum(measurement.op_seconds)
        ),
        "rl.act_s": per_op("rl.act"),
        "rl.evaluate_s": per_op("rl.evaluate"),
        "nn.backward_s": per_op("nn.backward"),
        "nn.adam_step_s": per_op("nn.adam_step"),
        "nn.adam_step_calls": tracer.count(phase, "nn.adam_step"),
        "env.steps": steps,
        "env.step_s": per_op("env.step"),
        "env.reset_s": per_op("env.reset"),
        "env.mask_s": per_op("env.mask_lookup", "env.compute_mask"),
        "env.mask_hit_ratio": _ratio(lookups - computed, lookups),
        "env.features_s": per_op("env.features"),
        "machine.run_scheduled_s": per_op("machine.run_scheduled"),
        "machine.run_scheduled_per_step": _ratio(
            tracer.count(phase, "machine.run_scheduled"), steps
        ),
        "machine.run_baseline_s": per_op("machine.run_baseline"),
        "machine.cache_hit_ratio": _ratio(
            counters.get("cache_hits", 0), counters.get("cache_requests", 0)
        ),
        "machine.schedule_hit_ratio": _ratio(
            counters.get("schedule_hits", 0), counters.get("schedule_requests", 0)
        ),
        "machine.evaluations": counters.get("evaluations", 0),
        "machine.evictions": counters.get("evictions", 0),
        "machine.nest_time_s": per_op("machine.nest_time"),
        "machine.nest_time_calls": tracer.count(phase, "machine.nest_time"),
        "transforms.apply_s": per_op("transforms.apply"),
        "transforms.clone_s": per_op("transforms.clone"),
        "transforms.clone_calls": tracer.count(phase, "transforms.clone"),
        "transforms.schedule_key_s": per_op("transforms.schedule_key"),
        "transforms.lower_s": per_op("transforms.lower"),
        "baselines.candidates": candidates,
        "baselines.candidates_per_s": _ratio(candidates, score_seconds),
        "baselines.score_s": score_seconds / ops,
        "datasets.draw_s": tracer.self_time("setup", "datasets.draw") / setup_repeats,
        "trace.coverage": _ratio(tracer.top_seconds[phase], measurement.timed_wall),
        "trace.spans_per_op": spans / ops,
        "trace.overhead_est_s": tracer.wrapper_cost() * spans / ops,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out",
        type=Path,
        default=ROOT / ".perfbench_out",
        help="directory for run details and spans (default: .perfbench_out)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    from perfbench.speed import SpeedProbe
    from perfbench.tracer import Tracer

    import_seconds = time.perf_counter() - START
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    probe = SpeedProbe()
    if args.trace:
        tracer.install()
    try:
        measurement = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, probe
        )
        traced = (
            per_layer(tracer, measurement, workloads.SETUP_REPEATS)
            if args.trace
            else {}
        )
    finally:
        tracer.uninstall()
    e2e = end_to_end(measurement, import_seconds, measurement.slowdown)
    raw = end_to_end(measurement, import_seconds)

    ops = len(measurement.op_seconds)
    aliases = ALIASES[args.workload]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    samples = {
        "setup_s": f"{len(measurement.setup_seconds)} set-ups",
        "speedup_geomean": f"{len(measurement.speedups)} results",
        "op_s": f"{ops} ops",
        "op_p90_s": f"{ops} ops",
        "work_per_s": f"{measurement.work:g} units",
    }
    print(f"  machine slowdown {measurement.slowdown:.4f} (from "
          f"{len(probe.samples)} probes); raw wall values in brackets")
    rows = [(m["name"], e2e[m["name"]], m["unit"]) for m in declared["end_to_end"]]
    tail = tail_row(measurement.op_seconds)
    rows += ([tail] if tail else []) + measurement.rows
    for name, value, unit in rows:
        alias = f" ({aliases[name]})" if name in aliases else ""
        count = f"n={samples[name]}" if name in samples else ""
        wall = f"[{raw[name]:.6g}]" if raw.get(name, value) != value else ""
        print(f"  {name + alias:34s} {value:14.6g} {unit:6s} {wall:14s} {count}")
    for metric in declared["per_layer"] if args.trace else ():
        print(f"  {metric['name']:34s} {traced[metric['name']]:14.6g} {metric['unit']}")
    for item, message in measurement.failures:
        print(f"  FAILED {item}: {message}")
    print(f"  attempted {measurement.attempted}, failed {measurement.failed}, "
          f"digest {measurement.digest}")

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "end_to_end": e2e,
        "raw_end_to_end": raw,
        "slowdown": measurement.slowdown,
        "probe_seconds": probe.samples,
        "per_layer": traced,
        "rows": measurement.rows,
        "op_seconds": measurement.op_seconds,
        "setup_seconds": measurement.setup_seconds,
        "import_seconds": import_seconds,
        "failures": measurement.failures,
        "digest": measurement.digest,
    }
    (args.out / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if args.trace:
        tracer.write(args.out / f"{stem}-spans.npz")

    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    values = traced if args.trace else e2e
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    result = {
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in names
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
