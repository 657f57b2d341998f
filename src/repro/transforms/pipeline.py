"""Schedule application pipeline: dispatch transformation records.

:class:`ScheduledFunction` owns the per-op schedule state for one
function and applies transformation records through the transform
registry — any registered record type (including plugins like
``Unroll``) dispatches to its spec's apply hook, with the paper's
semantics and the producer bookkeeping that tiled fusion needs.
"""

from __future__ import annotations

from ..ir.ops import FuncOp, LinalgOp
from .fusion import is_fusable
from .loop_nest import LoweredNest
from .lowering import lower_function
from .records import Transformation
from .registry import spec_for_record
from .scheduled_op import FusedProducer, ScheduledOp, TransformError


class ScheduledFunction:
    """Schedule state for every linalg op of one function.

    Copy-on-write: :meth:`clone` shares every :class:`ScheduledOp` with
    its source, and from then on neither side owns a shared entry.  The
    first mutating access to an op — :meth:`schedule_of` or
    :meth:`apply` — copies that op's fusion-linked component (the op,
    the consumers it is fused into and the producers fused into it, with
    their links remapped onto the copies) and marks it owned.  Owned
    entries are mutated in place.  Ownership is tracked per
    ``id(LinalgOp)``, which is stable for the function's life.

    Contract for callers and transform plugins: mutate schedule state
    only through :meth:`schedule_of` and :meth:`apply`.  An entry
    reached any other way (``_schedules``, :meth:`fusable_producer_of`,
    fusion links) may be shared and is read-only, and a
    :meth:`schedule_of` result must not be mutated after a later
    :meth:`clone` of the same function — call :meth:`schedule_of` again.
    ``_schedules`` is read-only outside this module.
    """

    def __init__(self, func: FuncOp):
        self.func = func
        self._schedules: dict[int, ScheduledOp] = {}
        #: ids of the ops whose entries only this function references
        self._owned: set[int] = set()

    def _entry(self, op: LinalgOp) -> ScheduledOp:
        """``op``'s (lazily created) entry, for reading only."""
        schedule = self._schedules.get(id(op))
        if schedule is None:
            schedule = ScheduledOp(op)
            self._schedules[id(op)] = schedule
            self._owned.add(id(op))
        return schedule

    def schedule_of(self, op: LinalgOp) -> ScheduledOp:
        """The (lazily created) schedule state of ``op``, owned by this
        function: safe to mutate until the next :meth:`clone`."""
        schedule = self._entry(op)
        if id(op) in self._owned:
            return schedule
        # Links only join owned states (fusion owns both ends first), so
        # a shared state's whole fusion-linked component is shared.
        component: dict[int, ScheduledOp] = {}
        stack = [schedule]
        while stack:
            member = stack.pop()
            if id(member) not in component:
                component[id(member)] = member
                stack.extend(entry.producer for entry in member.fused)
                if member.fused_into is not None:
                    stack.append(member.fused_into)
        copies = {key: member.clone_state() for key, member in component.items()}
        for copy in copies.values():
            if copy.fused_into is not None:
                copy.fused_into = copies[id(copy.fused_into)]
            copy.fused = [
                FusedProducer(copies[id(entry.producer)], entry.band_index)
                for entry in copy.fused
            ]
            self._schedules[id(copy.op)] = copy
            self._owned.add(id(copy.op))
        return copies[id(schedule)]

    def apply(self, op: LinalgOp, transform: Transformation) -> None:
        """Apply one transformation record to ``op``'s schedule.

        Dispatches through the registry: the record type's spec owns the
        application semantics, so registered plugins apply here without
        any pipeline edit.
        """
        spec = spec_for_record(type(transform))
        if spec is None:
            raise TransformError(f"unknown transformation {transform!r}")
        spec.apply(self, op, transform)

    def fusable_producer_of(self, op: LinalgOp) -> ScheduledOp | None:
        """The producer a TiledFusion on ``op`` would fuse — its last
        producer (paper §III), when still fusable — or None.  Read-only:
        mutate it through ``schedule_of(producer.op)``."""
        self._entry(op)
        producer_op = self.func.last_producer(op)
        if producer_op is None:
            return None
        producer = self._entry(producer_op)
        return producer if is_fusable(producer) else None

    def fusable_producers_of(self, op: LinalgOp) -> list[ScheduledOp]:
        """Every producer of ``op`` that could still fuse (read-only,
        like :meth:`fusable_producer_of`)."""
        self._entry(op)
        producers = map(self._entry, self.func.producers_of(op))
        return [producer for producer in producers if is_fusable(producer)]

    def lower(self) -> list[LoweredNest]:
        """Lower all (non-fused) ops of the function."""
        return lower_function(self.func, self._schedules)

    def schedule_key(self) -> tuple | None:
        """A hashable snapshot of the whole function's schedule state.

        One :meth:`~repro.transforms.scheduled_op.ScheduledOp.state_key`
        entry per body op (None for ops never scheduled, i.e. baseline
        lowering), with fused-producer links resolved to body positions
        so the key is identity-free.  Combined with a structural function
        fingerprint this keys the schedule-level execution cache: equal
        keys lower to structurally identical nest lists, so cached
        timings can be replayed without lowering at all.  Returns None
        when the state cannot be keyed (e.g. a fused producer outside
        the function body) — callers then use the uncached path.

        Shared entries never change, so their key part is computed once
        and reused by every clone that still shares them; only owned
        entries are re-keyed.
        """
        op_index = {id(op): i for i, op in enumerate(self.func.body)}
        parts = []
        for op in self.func.body:
            schedule = self._schedules.get(id(op))
            if schedule is None:
                parts.append(None)
                continue
            part = schedule.shared_key
            if part is None:
                try:
                    part = schedule.state_key(op_index)
                except KeyError:
                    return None
                if id(op) not in self._owned:
                    schedule.shared_key = part
            parts.append(part)
        return tuple(parts)

    def clone(self) -> "ScheduledFunction":
        """Copy-on-write copy of all schedule state (for search agents).

        Copies only the op-to-entry table: both functions share every
        entry until their first mutating access to it.
        """
        copy = ScheduledFunction(self.func)
        copy._schedules = dict(self._schedules)
        self._owned = set()
        return copy

    def adopt(self, source: "ScheduledFunction") -> None:
        """Replace this function's schedule state by ``source``'s.

        A :meth:`clone` into an existing object: afterwards both
        functions share every entry and own none of them.
        """
        self._schedules = dict(source._schedules)
        self._owned = set()
        source._owned = set()

    def schedules(self) -> list[ScheduledOp]:
        return [self.schedule_of(op) for op in self.func.body]
