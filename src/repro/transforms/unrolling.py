"""Loop unrolling — the registry's worked example of a plugin transform.

``Unroll(f)`` unrolls the innermost loop by factor ``f`` the way MLIR's
``transform.loop.unroll`` on the tiled point loop does: an outer chunk
loop of ``ceil(extent / f)`` iterations around a fully-unrolled
``f``-point body.  On the schedule state that is a tile band over the
innermost position whose inner chunk is marked *unrolled*; the lowering
hook then emits the point loop with ``Loop.unroll == trip`` so the
machine model drops the per-point loop-control micro-op (straight-line
code).  The FP-reduction latency floor is deliberately *not* lifted —
``-O3`` cannot reassociate FP reductions, so replicated bodies still
feed one serial accumulator chain.

The interesting interaction is with **vectorization's full-unroll
precondition** (paper §IV-A2): MLIR's vectorizer fully unrolls the
innermost dimension, so vectorization is masked above 512 iterations.
Unrolling shrinks the inner chunk to ``f`` points, so a previously
too-long innermost loop becomes vectorizable — the masks pick this up
with *zero edits* to ``env/masking.py`` because both predicates read
``schedule.innermost_extent()``.

Everything action-space-facing lives in :class:`UnrollSpec`:
legality/masking, the unroll-factor choice head (sized by
``EnvConfig.unroll_factors``), decode, flat-table entries, search
candidates for the beam baselines, and an Appendix-A-style history slot
(one factor one-hot per step).  Activate with
``EnvConfig.with_transforms("unrolling")`` or the CLI's
``--transforms unrolling``; default configs are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .registry import HeadSpec, MaskContext, TransformSpec, register_transform
from .scheduled_op import ScheduledOp, TransformError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..env.config import EnvConfig
    from .loop_nest import Loop

#: ``ScheduledOp.annotations`` key: {original dim -> unrolled chunk size}.
UNROLL_ANNOTATION = "unroll"


@dataclass(frozen=True)
class Unroll:
    """U(f): unroll the innermost loop by ``factor``."""

    factor: int

    def __str__(self) -> str:
        return f"U({self.factor})"


def unrolled_dims(schedule: ScheduledOp) -> dict[int, int]:
    """The schedule's {dim: chunk size} unroll annotation (read-only)."""
    return schedule.annotations.get(UNROLL_ANNOTATION, {})


def can_unroll(schedule: ScheduledOp, factor: int | None = None) -> bool:
    """Legality of unrolling the innermost loop (by ``factor`` if given).

    One unroll per dimension: re-unrolling an already-unrolled chunk
    would strand the first chunk band and overwrite the annotation, so
    it is illegal (matching MLIR, where the unrolled body is no longer
    a loop to unroll).
    """
    if schedule.vectorized:
        return False
    innermost_dim = schedule.order[schedule.num_loops - 1]
    if innermost_dim in unrolled_dims(schedule):
        return False
    extent = schedule.innermost_extent()
    if extent < 2:
        return False
    if factor is not None and not 2 <= factor <= extent:
        return False
    return True


def apply_unroll(schedule: ScheduledOp, transform: Unroll) -> None:
    """Unroll the innermost loop by ``transform.factor``.

    Materializes the chunk loop as a (sequential) tile band over the
    innermost position and records the unrolled chunk size in the
    schedule's annotations for the lowering hook.
    """
    factor = transform.factor
    if not can_unroll(schedule, factor):
        raise TransformError(
            f"cannot unroll {schedule.op.name} by {factor} "
            f"(innermost extent {schedule.innermost_extent()}, "
            f"vectorized={schedule.vectorized})"
        )
    innermost = schedule.num_loops - 1
    sizes = tuple(
        factor if position == innermost else 0
        for position in range(schedule.num_loops)
    )
    schedule.materialize_band(sizes, parallel=False)
    dim = schedule.order[innermost]
    annotation = schedule.annotations.setdefault(UNROLL_ANNOTATION, {})
    annotation[dim] = schedule.extents[dim]
    schedule.history.append(transform)


class UnrollSpec(TransformSpec):
    """Registry plugin: unroll factors over the innermost loop."""

    name = "unrolling"
    record_types = (Unroll,)
    #: searched after the paper's five (default figure outputs untouched)
    search_priority = 5

    # -- policy head / sub-action space ---------------------------------------

    def head(self, config: "EnvConfig") -> HeadSpec:
        return HeadSpec(
            "unrolling",
            "unrolling",
            "unrolling",
            0,
            len(config.unroll_factors),
        )

    # -- masking ---------------------------------------------------------------

    def param_mask(self, ctx: MaskContext) -> np.ndarray:
        factors = ctx.config.unroll_factors
        mask = np.zeros(len(factors), dtype=bool)
        if ctx.depth_overflow or ctx.terminal:
            return mask
        for index, factor in enumerate(factors):
            mask[index] = can_unroll(ctx.schedule, factor)
        return mask

    def is_legal(self, ctx: MaskContext, param_mask) -> bool:
        return (
            not ctx.terminal
            and not ctx.depth_overflow
            and bool(param_mask.any())
        )

    # -- decoding / encoding ---------------------------------------------------

    def decode(self, action, num_loops, config):
        if action.choice is None:
            raise ValueError("unrolling requires a factor choice")
        return Unroll(config.unroll_factors[action.choice])

    def to_env_action(self, kind, config, tile_indices=None, choice=-1):
        from ..env.actions import EnvAction

        return EnvAction(kind, choice=choice)

    # -- application / lowering ------------------------------------------------

    def apply(self, scheduled, op, record) -> None:
        apply_unroll(scheduled.schedule_of(op), record)

    def lower_loops(
        self, schedule: ScheduledOp, loops: "list[Loop]"
    ) -> "list[Loop]":
        """Rewrite the unroll band into real unroll structure.

        ``apply_unroll`` materializes the chunk loop as a tile band, which
        the generic lowering places outermost; true unrolling keeps the
        iteration order intact, so the chunk loop is moved to sit
        directly above its (fully-unrolled, straight-line) point loop.
        """
        annotation = unrolled_dims(schedule)
        if not annotation:
            return loops
        num_points = schedule.num_loops
        bands = list(loops[: len(loops) - num_points])
        points = list(loops[len(loops) - num_points:])
        for dim, chunk in annotation.items():
            chunk_loop = None
            for index in range(len(bands) - 1, -1, -1):
                band = bands[index]
                if (
                    band.dim == dim
                    and band.span == chunk
                    and not band.parallel
                ):
                    chunk_loop = bands.pop(index)
                    break
            for index, point in enumerate(points):
                if point.dim != dim:
                    continue
                if point.trip > 1:
                    points[index] = replace(point, unroll=point.trip)
                if chunk_loop is not None:
                    points.insert(index, chunk_loop)
                break
        return bands + points

    # -- flat action space -----------------------------------------------------

    def flat_entries(self, config: "EnvConfig", kind) -> list:
        from ..env.actions import FlatAction

        return [
            FlatAction(
                kind, choice=index, factor=factor, spec_name=self.name
            )
            for index, factor in enumerate(config.unroll_factors)
        ]

    def flat_legal(self, flat, mask, num_loops, config) -> bool:
        return bool(mask.params["unrolling"][flat.choice])

    def flat_record(self, flat, num_loops: int):
        return Unroll(flat.factor)

    # -- search baselines ------------------------------------------------------

    def search_candidates(self, schedule, has_producer, config):
        return [
            Unroll(factor)
            for factor in config.unroll_factors
            if can_unroll(schedule, factor)
        ]

    # -- action history --------------------------------------------------------

    def history_shape(self, config: "EnvConfig") -> tuple[int, ...]:
        return (len(config.unroll_factors),)

    def record_history(self, history, record) -> None:
        factors = history.config.unroll_factors
        if record.factor in factors:
            index = factors.index(record.factor)
        else:
            # Clamped factors map to the nearest candidate at or below.
            index = 0
            for i, factor in enumerate(factors):
                if factor <= record.factor:
                    index = i
        history.extras[self.name][history.step, index] = 1.0


register_transform(UnrollSpec())
