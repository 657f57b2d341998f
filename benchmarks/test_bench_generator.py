"""Generator throughput: programs/sec and sampler overhead.

The random-program generator feeds PPO data collection, so drawing a
fresh program must stay cheap next to the episode that consumes it.
This bench measures:

* full verification throughput (sample + emit + ``verify_ssa`` + loop
  bounds + interpreter smoke replica) across every curriculum stage;
* per-draw sampler overhead of the generated-program samplers vs the
  fixed-dataset sampler (which clones a stored function per draw), as
  medians over interleaved pairs (``harness.paired_timing``); the
  tracked ``generated_vs_fixed_draw_ratio`` is the median per-pair
  ratio, with its IQR recorded next to it.  The curriculum sampler is
  timed the same way against the fixed one (its ratio is recorded, not
  tracked); each of its samples builds a fresh ``CurriculumSampler``
  per ``DRAWS`` draws, so its per-draw figure includes that
  construction.

Deterministic counters (programs verified, failures) are independent of
timing rounds, so quick-mode (``REPRO_BENCH_QUICK=1``) JSONs stay
comparable by ``compare_results.py``; absolute programs/sec is recorded
for humans but not tracked across machines.
"""

import os
import time

import numpy as np

from harness import paired_timing
from repro.datasets import (
    DEFAULT_CURRICULUM,
    FULL_STAGE,
    CurriculumSampler,
    GeneratedSampler,
    sample_spec,
    training_sampler,
    verify_program,
)
from repro.evaluation import write_json

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
ROUNDS = 1 if QUICK else 3
PAIRS = 5 if QUICK else 9
PROGRAMS_PER_STAGE = 24
DRAWS = 200


def _verify_sweep(seed: int) -> tuple[int, int]:
    """Verify PROGRAMS_PER_STAGE programs per stage; returns
    (verified, failed)."""
    rng = np.random.default_rng(seed)
    verified = failed = 0
    for stage in (*DEFAULT_CURRICULUM, FULL_STAGE):
        for _ in range(PROGRAMS_PER_STAGE):
            try:
                verify_program(sample_spec(rng, stage), rng)
                verified += 1
            except Exception:
                failed += 1
    return verified, failed


def test_generator_throughput(benchmark, results_dir):
    verified, failed = _verify_sweep(seed=0)  # warm numpy/interpreter

    def timed_round():
        start = time.perf_counter()
        v, f = _verify_sweep(seed=0)
        return v / (time.perf_counter() - start), v, f

    rounds = benchmark.pedantic(
        lambda: [timed_round() for _ in range(ROUNDS)], rounds=1, iterations=1
    )
    programs_per_second = max(r[0] for r in rounds)
    total = verified + failed

    # Sampler overhead: seconds per draw, generated vs fixed dataset.
    fixed = training_sampler(scale=0.02, seed=0)
    generated = GeneratedSampler(FULL_STAGE)

    def draws(sampler):
        def run() -> None:
            rng = np.random.default_rng(7)
            for _ in range(DRAWS):
                sampler(rng)

        return run

    def curriculum_draws() -> None:
        # A fresh curriculum per call, so every call walks the same
        # stages however many calls a sample takes.
        draws(CurriculumSampler(DEFAULT_CURRICULUM, episodes_per_stage=50))()

    versus_fixed = paired_timing(draws(generated), draws(fixed), pairs=PAIRS)
    curriculum_vs_fixed = paired_timing(
        curriculum_draws, draws(fixed), pairs=PAIRS
    )
    fixed_draw = versus_fixed.b_seconds / DRAWS
    generated_draw = versus_fixed.a_seconds / DRAWS
    curriculum_draw = curriculum_vs_fixed.a_seconds / DRAWS

    result = {
        "programs_per_stage": PROGRAMS_PER_STAGE,
        "stages": [s.name for s in (*DEFAULT_CURRICULUM, FULL_STAGE)],
        "programs_verified": verified,
        "programs_failed": failed,
        "verified_fraction": verified / max(total, 1),
        "verify_programs_per_second": programs_per_second,
        "fixed_sampler_seconds_per_draw": fixed_draw,
        "generated_sampler_seconds_per_draw": generated_draw,
        "curriculum_sampler_seconds_per_draw": curriculum_draw,
        "generated_vs_fixed_draw_ratio": versus_fixed.ratio,
        "generated_vs_fixed_draw_ratio_iqr": versus_fixed.ratio_iqr,
        "curriculum_vs_fixed_draw_ratio": curriculum_vs_fixed.ratio,
        "draw_pairs": PAIRS,
    }
    print(
        f"\ngenerator: {programs_per_second:.0f} verified programs/s; "
        f"draw overhead {fixed_draw * 1e6:.0f}us (fixed) vs "
        f"{generated_draw * 1e6:.0f}us (generated) vs "
        f"{curriculum_draw * 1e6:.0f}us (curriculum)"
    )
    write_json(result, results_dir / "generator_bench.json")
    assert failed == 0, f"{failed}/{total} generated programs failed to verify"
    assert result["verified_fraction"] == 1.0
