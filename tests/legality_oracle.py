"""Test-only oracle: the action-mask predicates as they stood before each
transform spec stated one dependence rule.

The tiled masks read the *declared* iterator types (a tiled-parallel
position had to be a ``parallel`` iterator), and the interchange mask
checked depth only, blind to coupled dimensions.  The head predicates
are restated here as they were too.  Wherever the declared iterator
types equal the dependence facts (reduction iterators are exactly the
carried dimensions) and no dimension is coupled, these predicates and
the dependence-derived masks must agree bit for bit — which holds for
every op the builders, the generator and the paper suites emit.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import analyze_op
from repro.ir.ops import IteratorType
from repro.transforms import can_vectorize, enumerated_candidates, get_spec
from repro.transforms.registry import (
    MaskContext,
    interchange_head_size,
    view_for,
)


def _enumerated(config) -> bool:
    return config.interchange_mode.value == "enumerated"


def tile_mask(ctx: MaskContext, parallel: bool) -> np.ndarray:
    """Per-position tile-size legality from extents and iterator types."""
    config, schedule = ctx.config, ctx.schedule
    mask = np.zeros((config.max_loops, config.num_tile_sizes), dtype=bool)
    mask[:, 0] = True
    if ctx.depth_overflow:
        return mask
    for position in range(schedule.num_loops):
        extent = schedule.extent_at(position)
        if extent <= 1:
            continue
        if (
            parallel
            and schedule.iterator_type_at(position) is not IteratorType.PARALLEL
        ):
            continue
        for index, size in enumerate(config.tile_sizes):
            if index and size <= extent:
                mask[position, index] = True
    return mask


def interchange_mask(ctx: MaskContext) -> np.ndarray:
    """Candidates (enumerated) or free loops (pointers) within depth."""
    config, schedule = ctx.config, ctx.schedule
    size = interchange_head_size(config)
    mask = np.zeros(size, dtype=bool)
    if ctx.depth_overflow:
        return mask
    if _enumerated(config):
        num_loops = schedule.num_loops
        for index, perm in enumerate(enumerated_candidates(config.max_loops)):
            moved = [p for p, q in enumerate(perm) if p != q]
            mask[index] = all(p < num_loops for p in moved)
        return mask
    for loop in range(min(schedule.num_loops, size)):
        mask[loop] = loop not in ctx.pointer_placed
    return mask


def parallelize_mask(ctx: MaskContext) -> np.ndarray:
    """The parallelization plugin's positions: extent > 1, no carried or
    coupled dependence (that plugin always read the analysis)."""
    schedule = ctx.schedule
    mask = np.zeros(ctx.config.max_loops, dtype=bool)
    if ctx.depth_overflow or ctx.terminal:
        return mask
    dep = analyze_op(schedule.op)
    for position in range(schedule.num_loops):
        dim = schedule.order[position]
        mask[position] = (
            schedule.extent_at(position) > 1
            and dim not in dep.carried
            and dim not in dep.coupled
        )
    return mask


PARAM_MASKS = {
    "tiles": lambda ctx: tile_mask(ctx, parallel=False),
    "tiles_parallel": lambda ctx: tile_mask(ctx, parallel=True),
    "interchange": interchange_mask,
    "parallelize": parallelize_mask,
    # unrolling bans no dim, so its own mask is the reference
    "unrolling": lambda ctx: get_spec("unrolling").param_mask(ctx),
}


def _any_tile(ctx: MaskContext, param: np.ndarray) -> bool:
    return bool(param[: ctx.schedule.num_loops, 1:].any())


def head_legal(name: str, ctx: MaskContext, params: dict) -> bool:
    """The transformation-head predicate of one spec."""
    schedule = ctx.schedule
    live = not ctx.terminal
    if name == "tiling":
        return live and _any_tile(ctx, params["tiles"])
    if name == "tiled_parallelization":
        return (
            live
            and _any_tile(ctx, params["tiles_parallel"])
            and schedule.fused_into is None
        )
    if name == "tiled_fusion":
        return live and _any_tile(ctx, params["tiles"]) and ctx.has_producer
    if name == "interchange":
        return (
            live
            and not ctx.depth_overflow
            and schedule.num_loops >= 2
            and bool(params["interchange"].any())
        )
    if name == "vectorization":
        return live and not ctx.depth_overflow and can_vectorize(schedule)
    if name == "no_transformation":
        return True
    if name == "parallelization":
        return (
            live
            and not ctx.depth_overflow
            and schedule.fused_into is None
            and bool(params["parallelize"].any())
        )
    if name == "unrolling":
        return (
            live and not ctx.depth_overflow and bool(params["unrolling"].any())
        )
    raise KeyError(name)


def oracle_mask(
    schedule,
    config,
    has_producer: bool,
    pointer_placed: tuple[int, ...] = (),
    in_pointer_sequence: bool = False,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """(transformation head, param masks) under the old predicates."""
    ctx = MaskContext(
        schedule, config, has_producer, pointer_placed, in_pointer_sequence
    )
    view = view_for(config)
    params = {}
    for spec in view:
        head = spec.head(config)
        if head is not None and head.mask_key not in params:
            params[head.mask_key] = PARAM_MASKS[head.mask_key](ctx)
    transformation = np.zeros(len(view), dtype=bool)
    if in_pointer_sequence and not ctx.depth_overflow:
        transformation[view.index_of("interchange")] = True
        return transformation, params
    for index, spec in enumerate(view):
        transformation[index] = head_legal(spec.name, ctx, params)
    return transformation, params
