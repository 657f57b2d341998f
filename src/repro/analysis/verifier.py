"""Schedule-legality verification from dependence vectors.

:func:`verify_schedule` replays a fully-built schedule record by record
against a *shadow* :class:`~repro.transforms.pipeline.ScheduledFunction`,
asking each transformation's registry spec which of its dependence rule's
banned dimensions the record touches (``TransformSpec.violations``)
before the record is applied to the shadow.  The masks derive from the
same rule, so every mask-legal action verifies.  The result is a list of
:class:`Violation` — empty for a schedule the analyzer accepts.

Two execution-level helpers back the property tests:

* :func:`reduction_order_preserved` classifies whether a schedule keeps
  each output element's reduction accumulation in canonical order —
  analyzer-accepted schedules are bit-identical to the reference
  exactly when it holds, and ``allclose`` otherwise (legal FP
  reassociation, e.g. interchanging two reduction loops);
* :func:`evaluate_scheduled_op_racy` executes a schedule with *racy*
  parallel semantics — parallel band iterations read the output snapshot
  taken at band entry and writes merge last-wins — so an illegal
  parallelization of a dependence-carried loop observably corrupts
  results instead of being hidden by the interpreter's sequential
  execution of parallel loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from ..ir.interpreter import _read, evaluate_body
from ..ir.ops import FuncOp, IteratorType
from ..transforms.pipeline import ScheduledFunction
from ..transforms.records import Transformation
from ..transforms.registry import spec_for_record
from ..transforms.scheduled_op import ScheduledOp, TransformError
from .dependence import DependenceGraph


@dataclass(frozen=True)
class Violation:
    """One analyzer objection to one transformation record."""

    op: str
    record: Transformation
    rule: str
    detail: str

    def render(self) -> str:
        return f"{self.op}: [{self.rule}] {self.record} — {self.detail}"

    def __str__(self) -> str:
        return self.render()


def verify_schedule(
    func: FuncOp, scheduled: ScheduledFunction
) -> list[Violation]:
    """Re-derive the legality of every record in ``scheduled``.

    Replays each op's history consumers-first (the environment's
    traversal order) onto a fresh shadow schedule; each record is checked
    by its spec's ``violations`` hook against the op's dependence
    vectors *in the shadow state the record applied to*, then applied.
    A record the apply layer itself rejects becomes an ``apply``
    violation and stops that op's replay.
    """
    graph = DependenceGraph.analyze(func)
    shadow = ScheduledFunction(func)
    violations: list[Violation] = []
    for op in func.walk_consumers_first():
        source = scheduled._schedules.get(id(op))
        if source is None or not source.history:
            continue
        deps = graph.node(op)
        shadow_op = shadow.schedule_of(op)
        for record in source.history:
            spec = spec_for_record(type(record))
            if spec is None:
                violations.append(
                    Violation(op.name, record, "unknown",
                              "no registered spec for this record type")
                )
                break
            has_producer = shadow.fusable_producer_of(op) is not None
            violations.extend(
                Violation(op.name, record, spec.name, detail)
                for detail in spec.violations(
                    deps, shadow_op, record, has_producer
                )
            )
            try:
                shadow.apply(op, record)
            except TransformError as error:
                violations.append(
                    Violation(op.name, record, "apply", str(error))
                )
                break
    return violations


# ---------------------------------------------------------------------------
# Accumulation-order classification
# ---------------------------------------------------------------------------


def _loop_list(schedule: ScheduledOp) -> list[tuple[int, int, int, bool]]:
    """(dim, trip, span, parallel) rows mirroring the interpreter's nest."""
    loops: list[tuple[int, int, int, bool]] = []
    for band in schedule.bands:
        for loop in band.loops:
            loops.append((loop.dim, loop.trip, loop.tile, loop.parallel))
    for position in range(schedule.num_loops):
        dim = schedule.order[position]
        loops.append((dim, schedule.extents[dim], 1, False))
    return loops


def reduction_visit_order(schedule: ScheduledOp) -> list[tuple[int, ...]]:
    """Reduction-coordinate tuples in scheduled visit order.

    Fixes every parallel-iterator coordinate at 0 (one representative
    output element) and walks the scheduled nest, collecting the
    reduction coordinates in the order the body executes them.  Cost is
    the product of loop trips — fine at smoke/test extents, not meant
    for full-size shapes.
    """
    op = schedule.op
    reduction = [
        d
        for d, it in enumerate(op.iterator_types)
        if it is IteratorType.REDUCTION
    ]
    loops = _loop_list(schedule)
    original = schedule.original_extents
    order: list[tuple[int, ...]] = []
    for iterations in product(*(range(trip) for _, trip, _, _ in loops)):
        coords = [0] * schedule.num_loops
        for (dim, _, span, _), iteration in zip(loops, iterations):
            coords[dim] += iteration * span
        if any(coords[d] >= original[d] for d in range(schedule.num_loops)):
            continue
        if any(coords[d] != 0 for d in range(schedule.num_loops)
               if d not in reduction):
            continue
        order.append(tuple(coords[d] for d in reduction))
    return order


def reduction_order_preserved(schedule: ScheduledOp) -> bool:
    """True when the schedule keeps the canonical accumulation order.

    The reference interpreter visits reduction coordinates in ascending
    lexicographic order per output element; a schedule preserving that
    order produces bit-identical floats, anything else is an (legal but
    reassociating) FP-order change.
    """
    visited = reduction_visit_order(schedule)
    return visited == sorted(visited)


# ---------------------------------------------------------------------------
# Racy parallel execution
# ---------------------------------------------------------------------------


def evaluate_scheduled_op_racy(
    schedule: ScheduledOp, operands: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Execute a schedule with adversarial parallel-loop semantics.

    Mirrors :func:`repro.ir.interpreter.evaluate_scheduled_op` except at
    parallel band loops: every iteration of a parallel loop reads the
    output array as it was when the loop was entered, and the iterations'
    writes are merged last-iteration-wins afterwards — the worst
    legally-schedulable interleaving of a truly parallel execution.  A
    legal parallelization (no dependence carried by the parallel loops)
    is unaffected; an illegal one visibly diverges from the sequential
    result.
    """
    op = schedule.op
    arrays = [np.array(a, dtype=np.float64) for a in operands]
    num_inputs = len(op.inputs)
    original = schedule.original_extents
    num_dims = op.num_loops
    loops = _loop_list(schedule)
    coords = [0] * num_dims

    def walk(depth: int) -> None:
        if depth == len(loops):
            point = tuple(coords)
            if any(point[d] >= original[d] for d in range(num_dims)):
                return
            reads = [
                _read(arrays[i], op.indexing_maps[i].evaluate(point))
                for i in range(len(arrays))
            ]
            result = evaluate_body(op.body, reads)
            out_index = op.indexing_maps[num_inputs].evaluate(point)
            arrays[num_inputs][out_index] = result
            return
        dim, trip, span, parallel = loops[depth]
        if not parallel:
            for iteration in range(trip):
                coords[dim] += iteration * span
                walk(depth + 1)
                coords[dim] -= iteration * span
            return
        snapshot = arrays[num_inputs].copy()
        merged = snapshot.copy()
        for iteration in range(trip):
            arrays[num_inputs] = snapshot.copy()
            coords[dim] += iteration * span
            walk(depth + 1)
            coords[dim] -= iteration * span
            written = arrays[num_inputs] != snapshot
            merged[written] = arrays[num_inputs][written]
        arrays[num_inputs] = merged

    walk(0)
    return arrays[num_inputs:]
