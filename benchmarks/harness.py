"""What the benches share: paired timing, one scripted policy and the
programs it steps.

A ratio of two single samples moves with whatever else the machine is
doing while one of them runs: a stalled vCPU or a collection of an
earlier test's garbage lands on one side only.  :func:`paired_timing`
takes the two variants in adjacent pairs, alternates which one goes
first, runs every sample for at least :data:`MIN_SAMPLE_SECONDS` and
reports medians, so one disturbed sample moves the result by one rank
at most.

:func:`random_legal_action` is the scripted policy of the env-stepping
benches: given the same seed, every bench replays the same actions.
:func:`scripted_suite` builds the two programs those benches step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.env import EnvAction, EnvConfig, Observation
from repro.ir import FuncOp, add, empty, matmul, relu, tensor
from repro.transforms import TransformKind

#: Shortest sample: long enough that the timer and a stray interrupt
#: stay small against it.
MIN_SAMPLE_SECONDS = 0.05


@dataclass(frozen=True)
class PairedTiming:
    """Medians over the pairs of one :func:`paired_timing` run."""

    #: median over pairs of (seconds per call of ``a``) / (of ``b``)
    ratio: float
    #: interquartile range of those per-pair ratios
    ratio_iqr: float
    #: median seconds per call of each variant
    a_seconds: float
    b_seconds: float


def paired_timing(
    a: Callable[[], object],
    b: Callable[[], object],
    *,
    pairs: int,
) -> PairedTiming:
    """Time ``a`` against ``b`` in ``pairs`` interleaved pairs.

    Pair ``i`` samples ``a`` then ``b`` when ``i`` is even and ``b``
    then ``a`` when it is odd.  A sample calls its variant until at
    least :data:`MIN_SAMPLE_SECONDS` have passed and records the mean
    seconds per call; each pair contributes the ratio of its two
    samples.
    """

    def sample(fn: Callable[[], object]) -> float:
        calls = 0
        start = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= MIN_SAMPLE_SECONDS:
                return elapsed / calls

    a_samples, b_samples = [], []
    for index in range(pairs):
        if index % 2 == 0:
            a_samples.append(sample(a))
            b_samples.append(sample(b))
        else:
            b_samples.append(sample(b))
            a_samples.append(sample(a))
    ratios = np.asarray(a_samples) / np.asarray(b_samples)
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    return PairedTiming(
        ratio=float(median),
        ratio_iqr=float(q3 - q1),
        a_seconds=float(np.median(a_samples)),
        b_seconds=float(np.median(b_samples)),
    )


#: Transformations whose action carries one tile-size index per loop.
_TILED = (
    TransformKind.TILING,
    TransformKind.TILED_PARALLELIZATION,
    TransformKind.TILED_FUSION,
)


def random_legal_action(
    observation: Observation, rng: np.random.Generator, config: EnvConfig
) -> EnvAction:
    """A uniformly drawn legal transformation with random parameters:
    a tile-size index per loop, or a legal interchange pointer."""
    mask = observation.mask
    legal = mask.legal_transformations()
    kind = legal[rng.integers(len(legal))]
    if kind in _TILED:
        indices = tuple(
            int(rng.integers(config.num_tile_sizes))
            for _ in range(config.max_loops)
        )
        return EnvAction(kind, tile_indices=indices)
    if kind is TransformKind.INTERCHANGE:
        choices = np.flatnonzero(mask.interchange)
        return EnvAction(kind, pointer_loop=int(rng.choice(choices)))
    return EnvAction(kind)


def scripted_suite(
    mm: tuple[int, int, int] = (64, 32, 16), chain: int = 64
) -> list[FuncOp]:
    """Fresh copies of the env-stepping benches' two programs: an
    ``m x k`` by ``k x n`` matmul (``mm = (m, k, n)``) and an add feeding
    a relu on ``chain x chain`` tensors."""
    m, k, n = mm
    a, b, c = tensor([m, k]), tensor([k, n]), tensor([m, n])
    matmul_func = FuncOp("mm", [a, b, c])
    op = matmul_func.append(matmul(a, b, c))
    matmul_func.returns = [op.result()]

    shape = [chain, chain]
    x, y = tensor(shape), tensor(shape)
    chain_func = FuncOp("chain", [x, y])
    first = chain_func.append(add(x, y, empty(shape)))
    second = chain_func.append(relu(first.result(), empty(shape)))
    chain_func.returns = [second.result()]
    return [matmul_func, chain_func]
