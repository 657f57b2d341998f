"""Learned cost model: export/train pipeline + model-guided search.

Runs the full ``run_cost_model`` experiment — corpus collection via the
execution cache, dataset export, cost-model training, then the Table-II
beam search in each evaluation mode, ``SCORING_REPEATS`` interleaved
times on cold caches — and tracks the two acceptance metrics of
model-guided search:

* ``cost_vs_real_throughput_ratio`` — candidates ranked per second by
  batched cost-model inference vs the machine model, the median over
  the repeats (same box, so the ratio is machine-portable; must stay
  >= 10x);
* ``search_quality_ratio`` — geomean speedup found by cost-guided beam
  search over real-eval beam search (>= 0.9 means the model-guided
  search keeps at least 90% of the search quality while paying real
  evaluation only for the finalists).

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the corpus, training
epochs, and evaluation suite (one case per operator, narrower beam);
full mode runs the paper-sized experiment.
"""

import os

from repro.evaluation import run_cost_model, write_json

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))


def test_cost_model_guided_search(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: run_cost_model(fast=QUICK, seed=0), rounds=1, iterations=1
    )
    throughput = result["cost_vs_real_throughput_ratio"]
    quality = result["search_quality_ratio"]
    mape = result["holdout_mape"]
    print(
        f"\ncost model: {result['dataset']['samples']} samples, "
        f"holdout MAPE {mape:.3f}"
    )
    for mode, row in result["modes"].items():
        print(
            f"  {mode:5s} geomean {row['geomean_speedup']:8.2f}x  "
            f"{row['candidates_scored']:6d} candidates in "
            f"{row['scoring_seconds']:.3f} s "
            f"({row['candidates_per_second']:,.0f}/s)"
        )
    print(
        f"  throughput ratio {throughput:.1f}x, "
        f"search quality {quality:.3f}"
    )
    write_json(result, results_dir / "cost_model.json")
    assert throughput >= 10.0, (
        f"cost-model candidate scoring is only {throughput:.1f}x faster "
        "than real evaluation (need >= 10x)"
    )
    assert quality >= 0.9, (
        f"cost-guided search keeps only {quality:.3f} of real-eval "
        "search quality (need >= 0.9)"
    )
    assert mape < 1.0, (
        f"holdout MAPE {mape:.3f} — the cost model no longer fits its "
        "own corpus (expect well under 100% error)"
    )
