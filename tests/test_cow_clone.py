"""Copy-on-write ScheduledFunction clones against a deep-copy oracle.

``deep_clone`` is the clone the search agents used before clones became
copy-on-write: a private copy of every entry, fusion links remapped.  It
survives here only as the oracle a copy-on-write clone must match.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines.reference_agent import candidate_transformations
from repro.datasets.generator import FAMILIES, Stage, generate_program
from repro.env import extended_config
from repro.ir import FuncOp, add, empty, mul, relu, tensor
from repro.machine import Executor
from repro.machine.service import nest_fingerprint
from repro.transforms import (
    MultiTiledFusion,
    ScheduledFunction,
    ScheduledOp,
    TiledFusion,
    Tiling,
    TransformError,
    Vectorization,
)
from repro.transforms.scheduled_op import FusedProducer

_STAGE = Stage("cow", tuple(FAMILIES), 2, 4, 6)
_CONFIG = extended_config("unrolling", "parallelization", max_loops=8)
_EXECUTOR = Executor()


def deep_clone(scheduled: ScheduledFunction) -> ScheduledFunction:
    """A private deep copy of every entry (the test oracle)."""
    copy = ScheduledFunction(scheduled.func)
    mapping: dict[int, ScheduledOp] = {}
    for key, schedule in scheduled._schedules.items():
        cloned = schedule.clone_state()
        mapping[id(schedule)] = cloned
        copy._schedules[key] = cloned
    for cloned in copy._schedules.values():
        if cloned.fused_into is not None:
            cloned.fused_into = mapping.get(
                id(cloned.fused_into), cloned.fused_into
            )
        cloned.fused = [
            FusedProducer(
                mapping.get(id(fused.producer), fused.producer),
                fused.band_index,
            )
            for fused in cloned.fused
        ]
    copy._owned = set(copy._schedules)
    return copy


def _lowered(scheduled: ScheduledFunction) -> tuple:
    return (
        [nest_fingerprint(nest) for nest in scheduled.lower()],
        _EXECUTOR.run_scheduled(scheduled).seconds,
    )


def _records(scheduled: ScheduledFunction, op) -> list:
    """Legal search records for ``op``, plus multi-producer fusion."""
    schedule = scheduled.schedule_of(op)
    has_producer = scheduled.fusable_producer_of(op) is not None
    records = candidate_transformations(schedule, has_producer, _CONFIG)
    if scheduled.fusable_producers_of(op):
        records += [
            MultiTiledFusion(record.sizes)
            for record in records
            if isinstance(record, TiledFusion)
        ]
    return records


def _chain(size=64):
    x, y = tensor([size, size]), tensor([size, size])
    func = FuncOp("chain", [x, y])
    first = func.append(add(x, y, empty([size, size])))
    second = func.append(mul(first.result(), x, empty([size, size])))
    third = func.append(relu(second.result(), empty([size, size])))
    func.returns = [third.result()]
    return func, first, second, third


class TestOracleProperty:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_clones_match_deep_copies(self, seed):
        """Random clone/apply/mutate walks over generated programs: every
        copy-on-write state keys, lowers and times like its deep-copy
        twin after every step, so no mutation leaks into a source or a
        sibling that shares the entry."""
        rng = np.random.default_rng(seed)
        func = generate_program(rng, _STAGE)
        population = [(ScheduledFunction(func), ScheduledFunction(func))]
        for _ in range(14):
            cow, oracle = population[int(rng.integers(len(population)))]
            op = func.body[int(rng.integers(len(func.body)))]
            roll = rng.random()
            if roll < 0.3 and len(population) < 5:
                population.append((cow.clone(), deep_clone(oracle)))
            elif roll < 0.4:
                # Mullapudi's direct mutation through schedule_of().
                for state in (cow, oracle):
                    schedule = state.schedule_of(op)
                    if not schedule.vectorized:
                        schedule.vectorized = True
                        schedule.history.append(Vectorization())
            else:
                records = _records(oracle, op)
                assert _records(cow, op) == records
                fusions = [
                    record
                    for record in records
                    if isinstance(record, (TiledFusion, MultiTiledFusion))
                ]
                if fusions and rng.random() < 0.5:
                    records = fusions
                if records:
                    record = records[int(rng.integers(len(records)))]
                    applied = []
                    for state in (cow, oracle):
                        try:
                            state.apply(op, record)
                            applied.append(True)
                        except TransformError:
                            applied.append(False)
                    assert applied[0] == applied[1]
            for cow, oracle in population:
                # A fresh deep copy keys without any memo.
                assert cow.schedule_key() == deep_clone(oracle).schedule_key()
                assert _lowered(cow) == _lowered(oracle)


class TestCopyOnWrite:
    def test_clone_shares_until_first_mutation(self):
        func, first, second, third = _chain()
        source = ScheduledFunction(func)
        source.apply(third, Tiling((8, 8)))
        clone = source.clone()
        shared = source._schedules[id(third)]
        assert clone._schedules[id(third)] is shared
        clone.apply(third, Vectorization())
        assert clone._schedules[id(third)] is not shared
        assert source.schedule_of(third) is not clone.schedule_of(third)
        assert not source.schedule_of(third).vectorized
        assert clone.schedule_of(third).vectorized

    def test_source_copies_before_mutating_after_clone(self):
        func, first, second, third = _chain()
        source = ScheduledFunction(func)
        source.apply(third, Tiling((8, 8)))
        clone = source.clone()
        source.apply(third, Vectorization())
        assert not clone.schedule_of(third).vectorized

    def test_mutating_a_fused_producer_copies_its_component(self):
        func, first, second, third = _chain()
        source = ScheduledFunction(func)
        source.apply(third, TiledFusion((8, 8)))
        before = deep_clone(source).schedule_key()
        clone = source.clone()
        clone.apply(second, Tiling((4, 0)))
        producer = clone.schedule_of(second)
        consumer = clone._schedules[id(third)]
        assert producer.fused_into is consumer
        assert consumer.fused[0].producer is producer
        assert consumer is not source._schedules[id(third)]
        assert source.schedule_key() == before
        assert source._schedules[id(third)].fused[0].producer is (
            source._schedules[id(second)]
        )

    def test_read_only_accessors_do_not_copy(self):
        func, first, second, third = _chain()
        source = ScheduledFunction(func)
        source.apply(third, Tiling((8, 8)))
        source.fusable_producer_of(third)
        clone = source.clone()
        producer = clone.fusable_producer_of(third)
        assert producer is source._schedules[id(second)]
        clone.schedule_key()
        clone.lower()
        assert all(
            clone._schedules[key] is schedule
            for key, schedule in source._schedules.items()
        )

    def test_siblings_rekey_only_the_entries_they_own(self, monkeypatch):
        func, first, second, third = _chain()
        source = ScheduledFunction(func)
        for op in func.body:
            source.apply(op, Tiling((8, 8)))
        source.clone().schedule_key()  # keys every shared entry once
        calls = []
        original = ScheduledOp.state_key

        def counting(self, op_index=None):
            calls.append(self.op)
            return original(self, op_index)

        monkeypatch.setattr(ScheduledOp, "state_key", counting)
        sibling = source.clone()
        sibling.apply(first, Vectorization())
        key = sibling.schedule_key()
        assert calls == [first]
        assert key == deep_clone(sibling).schedule_key()

    def test_adopt_shares_without_aliasing(self):
        func, first, second, third = _chain()
        target = ScheduledFunction(func)
        target.apply(third, Tiling((8, 8)))
        source = target.clone()
        source.apply(third, Vectorization())
        target.adopt(source)
        assert target.schedule_of(third).vectorized
        before = deep_clone(source).schedule_key()
        target.apply(second, Tiling((8, 8)))
        target.schedule_of(third).history.append(Vectorization())
        assert source.schedule_key() == before
        assert len(source.schedule_of(third).history) == 2
