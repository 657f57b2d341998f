"""Numerical interpreter for linalg ops and lowered loop nests.

Executes the IR on numpy arrays.  Two entry points:

* :func:`evaluate_op` — reference semantics: iterate the op's full
  iteration space in canonical order and apply the scalar body;
* :func:`evaluate_nest` — scheduled semantics: walk a
  :class:`~repro.transforms.loop_nest.LoweredNest` in its transformed
  loop order (tile bands, interchanged point loops), clamping
  tile-boundary overruns to the original domain.

Their agreement is the correctness oracle the transformation tests use:
tiling, interchange and parallelization must never change results
(modulo FP reassociation, which these bodies tolerate at test sizes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..transforms.loop_nest import LoweredNest
from .ops import (
    ArithKind,
    Body,
    BodyArg,
    BodyConst,
    IRError,
    LinalgOp,
)

if TYPE_CHECKING:
    from ..transforms.scheduled_op import ScheduledOp


def _apply_arith(kind: ArithKind, operands: list[float]) -> float:
    if kind is ArithKind.ADDF:
        return operands[0] + operands[1]
    if kind is ArithKind.SUBF:
        return operands[0] - operands[1]
    if kind is ArithKind.MULF:
        return operands[0] * operands[1]
    if kind is ArithKind.DIVF:
        return operands[0] / operands[1]
    if kind is ArithKind.EXP:
        return float(np.exp(operands[0]))
    if kind is ArithKind.MAXF:
        return max(operands[0], operands[1])
    if kind is ArithKind.CMPF:
        return 1.0 if operands[0] > operands[1] else 0.0
    if kind is ArithKind.SELECT:
        return operands[1] if operands[0] != 0.0 else operands[2]
    raise IRError(f"cannot interpret {kind}")


def evaluate_body(body: Body, args: Sequence[float]) -> float:
    """Evaluate a scalar body at one point; ``args`` are operand reads."""
    values: list[float] = []
    for leaf in body.leaves:
        if isinstance(leaf, BodyArg):
            values.append(float(args[leaf.index]))
        elif isinstance(leaf, BodyConst):
            values.append(leaf.value)
    for op in body.ops:
        operands = [values[i] for i in op.operands]
        values.append(_apply_arith(op.kind, operands))
    return values[body.yield_index]


def _read(array: np.ndarray, indices: tuple[int, ...]) -> float:
    return float(array[indices])


def evaluate_op(
    op: LinalgOp, operands: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Reference execution: returns the updated output arrays.

    ``operands`` supplies inputs then outputs (the outputs act as init
    tensors, as in linalg-on-tensors); arrays are copied, not mutated.
    """
    expected = len(op.inputs) + len(op.outputs)
    if len(operands) != expected:
        raise IRError(
            f"{op.name}: expected {expected} operand arrays, got "
            f"{len(operands)}"
        )
    for value, array in zip(op.operands, operands):
        if tuple(array.shape) != value.type.shape:
            raise IRError(
                f"{op.name}: operand shape {array.shape} does not match "
                f"{value.type.shape}"
            )
    arrays = [np.array(a, dtype=np.float64) for a in operands]
    num_inputs = len(op.inputs)
    bounds = op.loop_bounds()
    for point in np.ndindex(*bounds):
        reads = [
            _read(arrays[i], op.indexing_maps[i].evaluate(point))
            for i in range(len(arrays))
        ]
        result = evaluate_body(op.body, reads)
        out_index = op.indexing_maps[num_inputs].evaluate(point)
        arrays[num_inputs][out_index] = result
    return arrays[num_inputs:]


def evaluate_scheduled_op(
    schedule: ScheduledOp, operands: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Execute an op in its *scheduled* iteration order.

    Walks the materialized tile bands and the (possibly interchanged)
    point loops exactly as the lowered code would, clamping boundary
    tiles to the original domain.  Vectorization does not change the
    traversal (lanes execute the same points).
    """
    op = schedule.op
    arrays = [np.array(a, dtype=np.float64) for a in operands]
    num_inputs = len(op.inputs)
    original = schedule.original_extents
    num_dims = op.num_loops

    # Build the loop list: (dim, trip, span) for bands then point loops.
    loops: list[tuple[int, int, int]] = []
    for band in schedule.bands:
        for band_loop in band.loops:
            loops.append((band_loop.dim, band_loop.trip, band_loop.tile))
    for position in range(num_dims):
        dim = schedule.order[position]
        loops.append((dim, schedule.extents[dim], 1))

    coords = [0] * num_dims

    def walk(depth: int) -> None:
        if depth == len(loops):
            point = tuple(coords)
            if any(point[d] >= original[d] for d in range(num_dims)):
                return  # boundary tile overrun: masked out
            reads = [
                _read(arrays[i], op.indexing_maps[i].evaluate(point))
                for i in range(len(arrays))
            ]
            result = evaluate_body(op.body, reads)
            out_index = op.indexing_maps[num_inputs].evaluate(point)
            arrays[num_inputs][out_index] = result
            return
        dim, trip, span = loops[depth]
        for iteration in range(trip):
            coords[dim] += iteration * span
            walk(depth + 1)
            coords[dim] -= iteration * span

    walk(0)
    return arrays[num_inputs:]


def random_operands(
    op: LinalgOp, rng: np.random.Generator
) -> list[np.ndarray]:
    """Random input arrays plus zero-initialized outputs for ``op``."""
    arrays = []
    for value in op.inputs:
        arrays.append(rng.normal(size=value.type.shape))
    for value in op.outputs:
        arrays.append(np.zeros(value.type.shape))
    return arrays
