"""Halide autoscheduler baseline (Mullapudi et al. 2016, §VII-A4).

Re-implementation of the published greedy algorithm on our IR:

1. **grouping** — stages are greedily merged with their consumers when
   inlining/tile-level fusion reduces intermediate traffic (we fuse pure
   elementwise producers into their consumers);
2. **tile-size selection** — for each group, enumerate a small set of
   power-of-two tile sizes over the *outer parallel* loops and pick the
   one whose working set best fits the last private cache while leaving
   enough parallel tiles for the machine;
3. **parallelize** the outermost tile loop and **vectorize** the
   innermost pure loop (Halide splits by lanes, no unroll limit).

The deliberate fidelity point: like the original, the heuristic only
tiles the outermost (up to 4) *pure/parallel* loops and never reorders
reduction loops.  On the paper's 12-deep, reduction-heavy LQCD nests
this leaves the bad innermost strides in place — the reason Table IV
shows it collapsing to 1.17x on hexaquark-hexaquark while MLIR RL's
interchange+tiling reaches 13.25x.
"""

from __future__ import annotations

from ..ir.ops import FuncOp, IteratorType, LinalgOp, OpKind
from ..machine.timing import nest_time
from ..transforms.lowering import lower_scheduled_op
from ..transforms.pipeline import ScheduledFunction
from ..transforms.records import (
    Interchange,
    TiledFusion,
    TiledParallelization,
    Vectorization,
)
from ..transforms.scheduled_op import ScheduledOp, TransformError
from .base import MethodResult, OptimizationMethod

_TILE_CANDIDATES = (8, 16, 32, 64, 128)
_MAX_ANALYZED_LOOPS = 4


def _outer_parallel_positions(schedule: ScheduledOp) -> list[int]:
    positions = []
    for position in range(
        min(schedule.num_loops, _MAX_ANALYZED_LOOPS)
    ):
        if (
            schedule.iterator_type_at(position) is IteratorType.PARALLEL
            and schedule.extent_at(position) > 1
        ):
            positions.append(position)
    return positions[:2]


class MullapudiAutoscheduler(OptimizationMethod):
    """The Halide autoscheduler's greedy grouping + tiling heuristic."""

    name = "halide-autoscheduler"

    def run(self, func: FuncOp) -> MethodResult:
        scheduled = ScheduledFunction(func)
        self._group_stages(scheduled, func)
        for op in func.body:
            schedule = scheduled.schedule_of(op)
            if schedule.fused_into is not None:
                continue
            self._schedule_group(scheduled, op)
        result = self.executor.run_scheduled(scheduled)
        return MethodResult(result.seconds, schedule=scheduled)

    # -- phase 1: grouping ---------------------------------------------------------

    def _group_stages(
        self, scheduled: ScheduledFunction, func: FuncOp
    ) -> None:
        """Fuse pure elementwise producers into their consumers."""
        for op in func.walk_consumers_first():
            schedule = scheduled.schedule_of(op)
            if schedule.fused_into is not None or schedule.bands:
                continue
            producer = scheduled.fusable_producer_of(op)
            if producer is None:
                continue
            if producer.op.reduction_dims():
                continue  # the heuristic does not inline reductions
            positions = _outer_parallel_positions(schedule)
            if not positions:
                continue
            sizes = tuple(
                32 if p in positions else 0
                for p in range(schedule.num_loops)
            )
            try:
                scheduled.apply(op, TiledFusion(sizes))
            except TransformError:
                continue

    # -- phase 2: per-group tiling ----------------------------------------------------

    def _schedule_group(
        self, scheduled: ScheduledFunction, op: LinalgOp
    ) -> None:
        schedule = scheduled.schedule_of(op)
        best_seconds = self._group_seconds(scheduled, op)
        best_clone: ScheduledFunction | None = None
        positions = _outer_parallel_positions(schedule)
        if positions:
            for size in _TILE_CANDIDATES:
                if not all(
                    size <= schedule.extent_at(p) for p in positions
                ):
                    continue
                clone = scheduled.clone()
                sizes = tuple(
                    size if p in positions else 0
                    for p in range(schedule.num_loops)
                )
                try:
                    clone.apply(op, TiledParallelization(sizes))
                except TransformError:
                    continue
                self._vectorize_innermost(clone, op)
                seconds = self._group_seconds(clone, op)
                if seconds < best_seconds:
                    best_seconds = seconds
                    best_clone = clone
        if best_clone is not None:
            scheduled.adopt(best_clone)

    def _vectorize_innermost(
        self, scheduled: ScheduledFunction, op: LinalgOp
    ) -> None:
        """Halide vectorizes the innermost pure loop by splitting —
        independent of MLIR's unroll-based preconditions — but does not
        reorder: a reduction innermost stays scalar."""
        schedule = scheduled.schedule_of(op)
        innermost = schedule.num_loops - 1
        if (
            schedule.iterator_type_at(innermost) is IteratorType.PARALLEL
            and not schedule.vectorized
        ):
            schedule.vectorized = True
            schedule.history.append(Vectorization())

    def _group_seconds(
        self, scheduled: ScheduledFunction, op: LinalgOp
    ) -> float:
        schedule = scheduled.schedule_of(op)
        nest = lower_scheduled_op(schedule)
        return nest_time(
            nest, self.spec, skip_tensor_ids=nest.fused_skip_ids()
        ).total
