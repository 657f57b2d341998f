#!/usr/bin/env python
"""Compare freshly generated benchmark JSONs against a baseline copy.

Usage::

    python benchmarks/compare_results.py BASELINE_DIR NEW_DIR [--threshold 0.2]

The CI benchmark-smoke job reruns the bench suite in quick mode with
``--basetemp=/tmp/bench-out`` (the benches write their JSONs to
``/tmp/bench-out/results/``), then calls this script against the
committed ``paper/results/``: any tracked metric that regresses by more
than the threshold fails the job.

Only machine-portable *ratio* metrics are tracked — absolute steps/sec
or wall-clock numbers differ across runner hardware, but cache speedup
factors and hit rates measure the code, not the box.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: (file, path-into-json, direction).  "higher" means larger is better.
#: Every metric here is (a) regenerated by the CI bench-smoke job and
#: (b) machine-portable: cache hit/evaluation counters are fully
#: deterministic, and the throughput *ratio* measures the code, not the
#: runner.  Don't add metrics the smoke job doesn't rerun — they would
#: compare a committed file against itself and can never fail.
TRACKED_METRICS: list[tuple[str, tuple[str, ...], str]] = [
    ("step_throughput.json", ("speedup",), "higher"),
    ("step_throughput.json", ("warm_sweep_cache", "hit_rate"), "higher"),
    ("exec_cache.json", ("cold_evaluations_per_episode",), "lower"),
    ("exec_cache.json", ("cache", "hit_rate"), "higher"),
    # Generator: every sampled program must verify (deterministic), and
    # drawing a fresh program must not balloon relative to the fixed
    # sampler's clone-per-draw (a same-box ratio, machine-portable).
    ("generator_bench.json", ("verified_fraction",), "higher"),
    ("generator_bench.json", ("generated_vs_fixed_draw_ratio",), "lower"),
    # Hardware registry: switching machines mid-run must stay nearly
    # free — a throughput *ratio* against the slowest single spec (same
    # box, machine-portable) — and no registry spec's warm step cost
    # may balloon relative to the default machine (also a same-box
    # ratio).  The warm-alternating-sweep zero-evaluation property is
    # asserted inside the bench itself (a zero baseline cannot be
    # ratio-tracked).
    ("spec_switch.json", ("switch_vs_single_ratio",), "higher"),
    ("spec_switch.json", ("slowest_vs_default_throughput_ratio",), "higher"),
    # Dependence analysis: the mask-cache lookup's tax over the seed's
    # warm-hit path (a same-box ratio, machine-portable).
    ("analysis_overhead.json", ("keyed_vs_seed_lookup_ratio",), "lower"),
    # Learned cost model: candidate-scoring throughput vs pricing every
    # candidate on the machine model (same-box ratio), and how much of
    # real-eval search quality the model-guided beam search retains
    # (a geomean-speedup ratio — deterministic modulo training noise).
    ("cost_model.json", ("cost_vs_real_throughput_ratio",), "higher"),
    ("cost_model.json", ("search_quality_ratio",), "higher"),
    # Fault tolerance: what one injected worker kill + replay-recovery
    # costs a rollout-pool sweep relative to a fault-free sweep (median
    # of interleaved pairs; a same-box wall-clock ratio,
    # machine-portable).
    ("fault_tolerance.json", ("recovery_overhead_ratio",), "lower"),
]


def _lookup(data: dict, path: tuple[str, ...]):
    for key in path:
        if not isinstance(data, dict) or key not in data:
            return None
        data = data[key]
    return data


def compare(
    baseline_dir: Path, new_dir: Path, threshold: float
) -> list[str]:
    """Failure messages for every metric regressing past ``threshold``."""
    failures = []
    for name, path, direction in TRACKED_METRICS:
        baseline_file = baseline_dir / name
        new_file = new_dir / name
        label = f"{name}:{'.'.join(path)}"
        if not baseline_file.exists() or not new_file.exists():
            print(f"skip {label}: file missing")
            continue
        baseline = _lookup(json.loads(baseline_file.read_text()), path)
        current = _lookup(json.loads(new_file.read_text()), path)
        if not isinstance(baseline, (int, float)) or not isinstance(
            current, (int, float)
        ):
            print(f"skip {label}: non-numeric ({baseline!r} -> {current!r})")
            continue
        if baseline == 0:
            print(f"skip {label}: zero baseline")
            continue
        if direction == "higher":
            change = (current - baseline) / abs(baseline)
        else:
            change = (baseline - current) / abs(baseline)
        status = "ok"
        if change < -threshold:
            status = "REGRESSION"
            failures.append(
                f"{label}: {baseline:.4g} -> {current:.4g} "
                f"({change:+.1%}, allowed -{threshold:.0%})"
            )
        print(f"{status:>10} {label}: {baseline:.4g} -> {current:.4g} ({change:+.1%})")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir", type=Path)
    parser.add_argument("new_dir", type=Path)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="maximum allowed fractional regression (default 0.20)",
    )
    args = parser.parse_args(argv)
    failures = compare(args.baseline_dir, args.new_dir, args.threshold)
    if failures:
        print("\nbenchmark regressions detected:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nno benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
