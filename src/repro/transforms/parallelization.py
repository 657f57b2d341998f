"""Loop parallelization — a registry plugin whose legality is *derived*,
not hand-written.

``Par(p0, p1, ..)`` marks the loops at the given positions parallel
without blocking: each position is materialized as a parallel band loop
with tile size 1 (``scf.forall`` over the full extent — see
``transforms/tiling.py``, where tile size 1 on every level is plain
parallelization).

Like every spec, it states one dependence rule
(:meth:`ParallelizationSpec.banned_dims`: dimensions that carry a
dependence or are coupled), and its mask, its verifier messages, its
search candidates and its apply-layer check all read that rule through
the dependence analysis (:func:`repro.analysis.dependence.analyze_op`),
never through the declared iterator types — so an op whose iterator
types are mislabeled is still parallelized correctly.

Everything lives in :class:`ParallelizationSpec`; activate with
``EnvConfig.with_transforms("parallelization")`` or
``extended_config("parallelization")``.  Default configs are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .registry import HeadSpec, MaskContext, TransformSpec, register_transform
from .scheduled_op import ScheduledOp, TransformError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..analysis.dependence import OpDependences
    from ..env.config import EnvConfig


@dataclass(frozen=True)
class Parallelize:
    """Par(p..): run the loops at ``positions`` in parallel (no blocking)."""

    positions: tuple[int, ...]

    def __str__(self) -> str:
        return f"Par({','.join(str(p) for p in self.positions)})"


def _banned_dims(schedule: ScheduledOp) -> frozenset[int]:
    """The spec's rule applied to ``schedule``'s op.

    Imported lazily: ``repro.analysis`` imports ``repro.transforms`` for
    the verifier, so a module-level import here would be circular.
    """
    from ..analysis.dependence import analyze_op

    return _SPEC.banned_dims(analyze_op(schedule.op))


def legal_parallel_positions(schedule: ScheduledOp) -> list[bool]:
    """Per-position parallelizability under the spec's rule."""
    banned = _banned_dims(schedule)
    return [
        schedule.extent_at(position) > 1
        and schedule.order[position] not in banned
        for position in range(schedule.num_loops)
    ]


def apply_parallelization(
    schedule: ScheduledOp, transform: Parallelize
) -> None:
    """Materialize a parallel band of tile-size-1 loops at ``positions``.

    Re-checks legality against the dependence analysis (never the
    iterator-type declarations), so an illegal record raises
    :class:`TransformError` even when constructed by hand.
    """
    positions = transform.positions
    if not positions:
        raise TransformError("parallelization needs at least one position")
    if len(set(positions)) != len(positions):
        raise TransformError(f"duplicate positions in {transform}")
    for position in positions:
        if not 0 <= position < schedule.num_loops:
            raise TransformError(
                f"position {position} out of range for "
                f"{schedule.num_loops} loops"
            )
    banned = _banned_dims(schedule)
    for position in positions:
        dim = schedule.order[position]
        if dim in banned:
            raise TransformError(
                f"cannot parallelize dependence-carried loop d{dim} "
                f"(position {position})"
            )
    sizes = tuple(
        1 if position in positions else 0
        for position in range(schedule.num_loops)
    )
    schedule.materialize_band(sizes, parallel=True)
    schedule.history.append(transform)


class ParallelizationSpec(TransformSpec):
    """Registry plugin: dependence-backed plain parallelization."""

    name = "parallelization"
    record_types = (Parallelize,)
    #: searched after the built-ins and unrolling
    search_priority = 6

    def banned_dims(self, dep: "OpDependences") -> frozenset[int]:
        return dep.carried | dep.coupled

    def touched_dims(self, schedule, record) -> list[int]:
        return [
            schedule.order[position]
            for position in record.positions
            if 0 <= position < schedule.num_loops
        ]

    # -- policy head / sub-action space ---------------------------------------

    def head(self, config: "EnvConfig") -> HeadSpec:
        return HeadSpec(
            "parallelize",
            "parallelize",
            "parallelize",
            0,
            config.max_loops,
        )

    # -- masking ---------------------------------------------------------------

    def param_mask(self, ctx: MaskContext) -> np.ndarray:
        mask = np.zeros(ctx.config.max_loops, dtype=bool)
        if ctx.depth_overflow or ctx.terminal:
            return mask
        mask[: ctx.schedule.num_loops] = legal_parallel_positions(ctx.schedule)
        return mask

    def is_legal(self, ctx: MaskContext, param_mask) -> bool:
        return (
            not ctx.terminal
            and not ctx.depth_overflow
            # Fused ops execute inside the consumer's tile loops and
            # cannot open a nested parallel region.
            and ctx.schedule.fused_into is None
            and bool(param_mask.any())
        )

    # -- decoding / encoding ---------------------------------------------------

    def decode(self, action, num_loops, config):
        if action.choice is None:
            raise ValueError("parallelization requires a position choice")
        return Parallelize((action.choice,))

    def to_env_action(self, kind, config, tile_indices=None, choice=-1):
        from ..env.actions import EnvAction

        return EnvAction(kind, choice=choice)

    # -- application -----------------------------------------------------------

    def apply(self, scheduled, op, record) -> None:
        apply_parallelization(scheduled.schedule_of(op), record)

    # -- flat action space -----------------------------------------------------

    def flat_entries(self, config: "EnvConfig", kind) -> list:
        from ..env.actions import FlatAction

        return [
            FlatAction(kind, choice=position, spec_name=self.name)
            for position in range(config.max_loops)
        ]

    def flat_legal(self, flat, mask, num_loops, config) -> bool:
        return bool(mask.params["parallelize"][flat.choice])

    def flat_record(self, flat, num_loops: int) -> Parallelize:
        return Parallelize((flat.choice,))

    # -- search baselines ------------------------------------------------------

    def search_candidates(self, schedule, has_producer, config):
        if schedule.fused_into is not None or schedule.vectorized:
            return []
        if any(band.parallel for band in schedule.bands):
            return []
        legal = legal_parallel_positions(schedule)
        positions = [p for p, ok in enumerate(legal) if ok]
        candidates = [Parallelize((p,)) for p in positions]
        if len(positions) > 1:
            candidates.append(Parallelize(tuple(positions[:3])))
        return candidates

    # -- action history --------------------------------------------------------

    def history_shape(self, config: "EnvConfig") -> tuple[int, ...]:
        return (config.max_loops,)

    def record_history(self, history, record) -> None:
        for position in record.positions:
            if position < history.config.max_loops:
                history.extras[self.name][history.step, position] = 1.0


_SPEC = register_transform(ParallelizationSpec())
