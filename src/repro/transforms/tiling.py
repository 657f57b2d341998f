"""Loop tiling and tiled parallelization (paper §IV-A).

Tiling materializes a band of ``scf.for`` tile loops around a shrunken
inner linalg op.  Tiled parallelization produces an ``scf.forall`` band —
tiling followed by parallel execution of the generated tile loops, lowered
through the OpenMP dialect in real MLIR.  Parallelizing with tile size 1
on every level corresponds to plain parallelization without blocking.
"""

from __future__ import annotations

from ..ir.ops import IteratorType
from .records import TiledParallelization, Tiling
from .scheduled_op import ScheduledOp, TransformError


def apply_tiling(schedule: ScheduledOp, transform: Tiling) -> None:
    """Apply a sequential tiling action to ``schedule``."""
    schedule.materialize_band(transform.sizes, parallel=False)
    schedule.history.append(transform)


def apply_tiled_parallelization(
    schedule: ScheduledOp, transform: TiledParallelization
) -> None:
    """Apply tiling + parallelization of the generated tile band.

    Follows ``scf.forall`` semantics: only parallel iterators may carry a
    parallel tile loop, so every tiled position must be a parallel
    iterator.
    """
    for position, size in enumerate(transform.sizes):
        if size <= 0:
            continue
        if schedule.iterator_type_at(position) is not IteratorType.PARALLEL:
            raise TransformError(
                f"cannot parallelize reduction loop at position {position}"
            )
    schedule.materialize_band(transform.sizes, parallel=True)
    schedule.history.append(transform)

