"""Steadiness evidence: two sets of runs of the same code, compared per metric.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--traced 1]

Set A runs seeds 1..N and set B seeds 101..100+N, untraced, one run at a
time (all of set A first, so drift between the sets shows as a gap).  For
every workload and end-to-end metric it prints both medians, their
quartiles, each set's spread (quartile distance over median) and the gap
between the medians in the metric's worse direction, both as a fraction of
the metric's bound.  It then re-runs the first ``--traced`` seeds of set A
with ``--trace 1``: traced speedups and output digests must equal the
untraced ones, tracing overhead is the traced minus the untraced median
``op_s``, and the per-layer metrics print next to the predictions in
``predictions.json``.  Exits 1 when a run fails, a spread (other than
``setup_s``) or a gap exceeds its bound, or a traced run changes outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def worse_gap(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int, trace: int, out: Path) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(out),
    ]
    start = time.perf_counter()
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    wall = time.perf_counter() - start
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    detail_path = out / f"{workload}-seed{seed}-trace{trace}.json"
    detail = json.loads(detail_path.read_text()) if detail_path.exists() else {}
    ok = completed.returncode == 0 and result.get("correct", False)
    if not ok:
        print(completed.stdout[-2000:], completed.stderr[-2000:], file=sys.stderr)
    return {"ok": ok, "result": result, "detail": detail, "wall": wall}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in declared["workloads"]),
        help="comma-separated workload names (default: all)",
    )
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--traced", type=int, default=1, help="traced seeds")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out" / "steady")
    args = parser.parse_args(argv)
    workloads = [name for name in args.workloads.split(",") if name]
    metrics = declared["end_to_end"]
    sets = {"A": range(1, args.runs + 1), "B": range(101, 101 + args.runs)}

    runs: dict[tuple[str, str], list[dict]] = {}
    healthy = True
    for label, seeds in sets.items():
        for workload in workloads:
            for seed in seeds:
                run = run_once(workload, seed, args.seconds, 0, args.out / label)
                healthy &= run["ok"]
                runs.setdefault((workload, label), []).append(run)
                print(f"# {label} {workload} seed {seed}: "
                      f"{'ok' if run['ok'] else 'FAILED'} in {run['wall']:.1f} s",
                      flush=True)

    print("\nworkload           metric           "
          "median A   [Q1 A, Q3 A]          median B   [Q1 B, Q3 B]"
          "          spread A/bound  spread B/bound  gap/bound")
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            values = {
                label: [r["detail"]["end_to_end"][name]
                        for r in runs[(workload, label)] if r["detail"]]
                for label in sets
            }
            qa, qb = quartiles(values["A"]), quartiles(values["B"])
            spread_a, spread_b = spread(values["A"]), spread(values["B"])
            gap = worse_gap(qa[1], qb[1], metric["better"])
            print(f"{workload:18s} {name:16s} "
                  f"{qa[1]:10.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
                  f"{qb[1]:10.5g} [{qb[0]:.5g}, {qb[2]:.5g}]  "
                  f"{spread_a / bound:14.2f}  {spread_b / bound:14.2f}  "
                  f"{gap / bound:9.2f}")
            if name != "setup_s" and max(spread_a, spread_b) > bound:
                healthy = False
            if gap > bound:
                healthy = False

    if args.traced:
        healthy &= report_traced(args, declared, workloads, runs)
    print(f"\n{'steady' if healthy else 'NOT STEADY'}")
    return 0 if healthy else 1


def report_traced(args, declared, workloads, runs) -> bool:
    """Traced re-runs: equal outputs, tracing overhead, per-layer table."""
    predictions = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    expectation = {}
    for layer in predictions["layers"]:
        for metric in layer["metrics"]:
            expectation[metric] = layer
    healthy = True
    layer_values: dict[str, dict[str, float]] = {}
    print("\ntraced runs (seed: speedup and digest equal untraced?)")
    for workload in workloads:
        untraced = runs[(workload, "A")][: args.traced]
        traced = []
        for plain in untraced:
            seed = plain["detail"]["seed"]
            run = run_once(workload, seed, args.seconds, 1, args.out / "traced")
            healthy &= run["ok"]
            same = bool(run["detail"]) and (
                run["detail"]["digest"] == plain["detail"]["digest"]
                and run["detail"]["end_to_end"]["speedup_geomean"]
                == plain["detail"]["end_to_end"]["speedup_geomean"]
            )
            healthy &= same
            traced.append(run)
            print(f"  {workload} seed {seed}: {'equal' if same else 'DIFFERENT'}")
        if not all(run["detail"] for run in traced):
            continue
        overhead = statistics.median(
            r["detail"]["end_to_end"]["op_s"] for r in traced
        ) - statistics.median(p["detail"]["end_to_end"]["op_s"] for p in untraced)
        print(f"  {workload} tracing overhead: {overhead:+.6g} s per operation "
              f"(traced minus untraced median op_s)")
        layer_values[workload] = {
            metric["name"]: statistics.median(
                r["detail"]["per_layer"][metric["name"]] for r in traced
            )
            for metric in declared["per_layer"]
        }

    shown = [w for w in workloads if w in layer_values]
    print("\nper-layer metrics (median of traced runs; * = predicted to move "
          "here, . = predicted to do little)")
    print(f"{'metric':32s} {'unit':6s}" + "".join(f"{w:>20s}" for w in shown))
    for metric in declared["per_layer"]:
        name = metric["name"]
        layer = expectation.get(name, {"on": [], "little_on": []})
        cells = ""
        for workload in shown:
            mark = "*" if workload in layer["on"] else (
                "." if workload in layer["little_on"] else " ")
            cells += f"{layer_values[workload][name]:>19.4g}{mark}"
        print(f"{name:32s} {metric['unit']:6s}{cells}")
    return healthy


if __name__ == "__main__":
    sys.exit(main())
