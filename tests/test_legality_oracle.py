"""Dependence-derived masks equal the old iterator-type predicates on the
paper and generator suites.

Random legal walks over 500 generator programs, the scaled Table-II
training set, ResNet-18, VGG-16, MobileNetV2 and the three LQCD apps;
each program is walked under one of the three base configs below, in
turn.  At every visited state, every param mask and the transformation
head of that base config in both interchange modes must equal
:mod:`legality_oracle`'s, bit for bit; the level-pointer mode is also
compared mid pointer sequence.  Every op in these suites declares
iterator types equal to its dependence facts and has no coupled
dimension, which is what makes the agreement exact.
"""

from dataclasses import replace

import numpy as np
import pytest

from legality_oracle import oracle_mask
from repro.datasets import (
    generate_program,
    mobilenet_v2,
    resnet18,
    training_dataset,
    vgg16,
)
from repro.datasets.lqcd import APPLICATIONS
from repro.env.actions import flat_action_table
from repro.env.config import (
    PAPER_CONFIG,
    InterchangeMode,
    extended_config,
    small_config,
)
from repro.env.masking import compute_mask
from repro.transforms import ScheduledFunction, view_for

#: one (enumerated, level-pointer) pair per base config
CONFIGS = [
    tuple(replace(base, interchange_mode=mode) for mode in InterchangeMode)
    for base in (
        small_config(),
        PAPER_CONFIG,
        extended_config("unrolling", "parallelization", max_loops=8),
    )
]


class _Comparer:
    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.masks = 0

    def check(self, schedule, config, has_producer, placed=(), in_seq=False):
        mask = compute_mask(schedule, config, has_producer, placed, in_seq)
        head, params = oracle_mask(schedule, config, has_producer, placed, in_seq)
        equal = (
            np.array_equal(mask.transformation, head)
            and mask.params.keys() == params.keys()
            and all(np.array_equal(mask.params[k], v) for k, v in params.items())
        )
        assert equal, (schedule.op, schedule.history, config, placed, mask, head)
        self.masks += 1

    def check_state(self, schedule, configs, has_producer):
        for config in configs:
            self.check(schedule, config, has_producer)
            if config.interchange_mode is InterchangeMode.ENUMERATED:
                continue
            n = schedule.num_loops
            if 2 <= n <= config.max_loops:
                prefix = self.rng.permutation(n)[: self.rng.integers(1, n)]
                placed = tuple(int(p) for p in prefix)
                self.check(schedule, config, has_producer, placed, True)


def _walk(func, comparer: _Comparer, configs, steps_per_op: int) -> None:
    """Random mask-legal flat actions per op, comparing at every state."""
    rng = comparer.rng
    walk_config = configs[0]
    table = flat_action_table(walk_config)
    view = view_for(walk_config)
    scheduled = ScheduledFunction(func)
    for op in func.walk_consumers_first():
        for step in range(steps_per_op + 1):
            schedule = scheduled.schedule_of(op)
            has_producer = scheduled.fusable_producer_of(op) is not None
            comparer.check_state(schedule, configs, has_producer)
            if step == steps_per_op or schedule.is_terminal():
                break
            mask = compute_mask(schedule, walk_config, has_producer)
            n = schedule.num_loops
            pool = [
                flat
                for flat in table
                if mask.transformation[int(flat.kind)]
                and not view.spec_at(int(flat.kind)).is_stop
                and flat._spec().flat_legal(flat, mask, n, walk_config)
            ]
            if not pool:
                break
            flat = pool[int(rng.integers(len(pool)))]
            scheduled.apply(op, flat.to_record(n))


def _generated():
    rng = np.random.default_rng(0)
    return [generate_program(rng) for _ in range(500)]


#: suite -> (function factory, walk steps per op)
SUITES = {
    "generated": (_generated, 3),
    "table2": (lambda: training_dataset(scale=0.05), 2),
    "models": (lambda: [resnet18(), vgg16(), mobilenet_v2()], 1),
    "lqcd": (lambda: [factory() for _, _, factory in APPLICATIONS], 1),
}


@pytest.mark.parametrize("suite", list(SUITES))
def test_masks_match_old_predicates(suite):
    build, steps = SUITES[suite]
    funcs = build()
    comparer = _Comparer(np.random.default_rng(1))
    for index, func in enumerate(funcs):
        _walk(func, comparer, CONFIGS[index % len(CONFIGS)], steps)
    assert comparer.masks > len(funcs) * 2
