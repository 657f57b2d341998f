"""Lowering scheduled linalg ops to the explicit loop-nest IR.

Reconstructs what MLIR's bufferization + ``scf`` lowering would produce
for a scheduled op: the materialized tile bands (outermost first, each
``scf.for`` or ``scf.forall``), then the inner op's point loops in their
(possibly interchanged) order, with the innermost marked vector when the
op was vectorized.

Fused producers are lowered recursively and attached with their recompute
factor, so the machine model can price the fusion trade-off (saved
intermediate traffic vs. redundant recompute).
"""

from __future__ import annotations

from typing import Iterator

from ..ir.affine import AffineError
from ..ir.ops import FuncOp, LinalgOp
from .fusion import intermediate_value_dims, recompute_factor
from .loop_nest import Access, FusedNest, Loop, LoweredNest
from .registry import lowering_hooks
from .scheduled_op import ScheduledOp


def access_patterns(op: LinalgOp) -> list[Access]:
    """Build the per-operand access patterns of a linalg op."""
    accesses = []
    num_inputs = len(op.inputs)
    for index, (value, map_) in enumerate(
        zip(op.operands, op.indexing_maps)
    ):
        try:
            matrix = tuple(tuple(row) for row in map_.access_matrix())
        except AffineError:
            # Non-linear accesses (none produced by our builders) fall
            # back to a dense all-dims pattern: conservative footprints.
            matrix = tuple(
                tuple([1] * map_.num_dims + [0])
                for _ in range(value.type.rank)
            )
        accesses.append(
            Access(
                tensor_shape=value.type.shape,
                element_bytes=value.type.element.bytes,
                matrix=matrix,
                is_write=index >= num_inputs,
                tensor_id=id(value),
            )
        )
    return accesses


def lower_scheduled_op(schedule: ScheduledOp) -> LoweredNest:
    """Lower one scheduled op (and its fused producers) to loops."""
    loops: list[Loop] = []
    for band in schedule.bands:
        for band_loop in band.loops:
            loops.append(
                Loop(
                    dim=band_loop.dim,
                    trip=band_loop.trip,
                    span=band_loop.tile,
                    parallel=band_loop.parallel,
                )
            )
    num_point_loops = schedule.num_loops
    for index, position in enumerate(range(num_point_loops)):
        dim = schedule.order[position]
        loops.append(
            Loop(
                dim=dim,
                trip=schedule.extents[dim],
                span=1,
                vector=schedule.vectorized and index == num_point_loops - 1,
            )
        )
    # Registered plugin transforms (e.g. unrolling) post-process the
    # loop list; with no plugin annotations this is the identity.
    for spec in lowering_hooks():
        loops = spec.lower_loops(schedule, loops)
    nest = LoweredNest(
        loops=loops,
        accesses=access_patterns(schedule.op),
        flops_per_point=schedule.op.body.flops_per_point(),
        arith_uops=schedule.op.body.arith_uops_per_point(),
        reduction_dims=frozenset(schedule.op.reduction_dims()),
        vectorized=schedule.vectorized,
        label=schedule.op.name,
    )
    for fused in schedule.fused:
        producer_nest = lower_scheduled_op(fused.producer)
        intermediate = frozenset(
            id(r) for r in fused.producer.op.results
        )
        nest.fused.append(
            FusedNest(
                nest=producer_nest,
                recompute=recompute_factor(schedule, fused.producer),
                intermediate_ids=intermediate,
            )
        )
    return nest


def lower_baseline(op: LinalgOp) -> LoweredNest:
    """Lower an unscheduled op: original loop order, scalar, serial.

    This is the paper's baseline — the MLIR pipeline with loop-level
    optimization disabled (plain -O3 code generation).
    """
    return lower_scheduled_op(ScheduledOp(op))


def top_level_ops(
    func: FuncOp, schedules: dict[int, ScheduledOp]
) -> Iterator[tuple[LinalgOp, ScheduledOp | None]]:
    """The ``(op, schedule)`` pairs that lower to top-level nests, in body
    order.

    Ops fused into a consumer are lowered inside that consumer's nest and
    skipped.  An op without a schedule pairs with None: it gets the
    baseline lowering.
    """
    for op in func.body:
        schedule = schedules.get(id(op))
        if schedule is None or schedule.fused_into is None:
            yield op, schedule


def lower_top_level(op: LinalgOp, schedule: ScheduledOp | None) -> LoweredNest:
    """Lower one :func:`top_level_ops` pair."""
    if schedule is None:
        return lower_baseline(op)
    return lower_scheduled_op(schedule)


def lower_function(
    func: FuncOp, schedules: dict[int, ScheduledOp]
) -> list[LoweredNest]:
    """Lower every non-fused op of a function, in body order."""
    return [
        lower_top_level(op, schedule)
        for op, schedule in top_level_ops(func, schedules)
    ]
