"""Output checks with oracles outside the timed code.

Each check returns ``(item, message)`` failures; an item is the iteration,
episode or target the failure is charged to.  The oracles are independent
of the timed path: the dependence-based legality verifier, the reference
interpreter, and an uncached :class:`~repro.machine.executor.Executor`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis import verify_schedule
from repro.datasets.generator import SMOKE, emit
from repro.env import MlirRlEnv
from repro.ir.interpreter import evaluate_op, evaluate_scheduled_op, random_operands
from repro.machine import Executor

#: rollout episodes whose final schedules are verified and re-timed
VERIFY_SAMPLE = 8
#: rollout episodes replayed at smoke size through the interpreter
SMOKE_SAMPLE = 2


def finite_losses(loss: tuple[float, float, float]) -> list[str]:
    names = ("policy loss", "value loss", "entropy")
    return [
        f"{name} is {value}"
        for name, value in zip(names, loss)
        if not math.isfinite(value)
    ]


def _violations(item: str, func, scheduled) -> list[tuple[str, str]]:
    return [
        (item, violation.render()) for violation in verify_schedule(func, scheduled)
    ]


def rollout_outputs(kept: dict, spec) -> list[tuple[str, str]]:
    """Sampled rollout episodes: legal final schedules, finite rewards, and
    the speedup an uncached executor gives."""
    executor = Executor(spec)
    failures = []
    for index, (func, scheduled, speedup, rewards) in kept.items():
        item = f"episode {index}"
        failures += _violations(item, func, scheduled)
        if not all(math.isfinite(reward) for reward in rewards):
            failures.append((item, "non-finite reward"))
        expected = (
            executor.run_baseline(func).seconds
            / executor.run_scheduled(scheduled).seconds
        )
        if speedup != expected:
            failures.append((item, f"speedup {speedup!r} != uncached {expected!r}"))
    return failures


def smoke_replicas(specs: dict, policy_rng, play_episode) -> list[tuple[str, str]]:
    """Scripted episodes on smoke-size replicas: every scheduled op must
    compute what the reference interpreter computes."""
    env = MlirRlEnv()
    failures = []
    for index, spec in specs.items():
        item = f"episode {index}"
        replica = emit(spec, SMOKE)
        play_episode(env, replica, policy_rng(index))
        rng = np.random.default_rng(index)
        for op in replica.body:
            operands = random_operands(op, rng)
            expected = evaluate_op(op, operands)
            actual = evaluate_scheduled_op(env.scheduled.schedule_of(op), operands)
            if not all(np.allclose(e, a) for e, a in zip(expected, actual)):
                failures.append((item, f"{op.name}: scheduled result differs"))
    return failures


def optimize_outputs(results: list, machine) -> list[tuple[str, str]]:
    """Returned schedules are legal, timings equal uncached ones, and a
    target optimized twice gives the same speedup both times."""
    executor = Executor(machine)
    failures = []
    first: dict[str, float] = {}
    for name, func, result, baseline in results:
        failures += _violations(name, func, result.schedule)
        expected_baseline = executor.run_baseline(func).seconds
        expected = executor.run_scheduled(result.schedule).seconds
        if (baseline, result.seconds) != (expected_baseline, expected):
            failures.append(
                (
                    name,
                    f"timings ({baseline!r}, {result.seconds!r}) s != uncached "
                    f"({expected_baseline!r}, {expected!r}) s",
                )
            )
        speedup = baseline / result.seconds
        if not (math.isfinite(speedup) and speedup > 0):
            failures.append((name, f"speedup {speedup!r}"))
        if first.setdefault(name, speedup) != speedup:
            failures.append((name, "speedup changed between passes"))
    return failures
