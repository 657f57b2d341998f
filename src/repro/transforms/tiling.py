"""Loop tiling and tiled parallelization (paper §IV-A).

Tiling materializes a band of ``scf.for`` tile loops around a shrunken
inner linalg op.  Tiled parallelization produces an ``scf.forall`` band —
tiling followed by parallel execution of the generated tile loops, lowered
through the OpenMP dialect in real MLIR.  Parallelizing with tile size 1
on every level corresponds to plain parallelization without blocking.
"""

from __future__ import annotations

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

    Follows ``scf.forall`` semantics: a parallel tile loop may not run a
    dimension that carries a dependence.  The check is the spec's
    verifier hook (``TransformSpec.violations`` over ``banned_dims``:
    carried or coupled dims), so apply, the masks and
    ``verify_schedule`` read one rule, never the declared iterator
    types.
    """
    # Imported lazily: the registry imports this module, and
    # ``repro.analysis`` imports ``repro.transforms`` for the verifier.
    from ..analysis.dependence import analyze_op
    from .registry import get_spec

    violations = get_spec("tiled_parallelization").violations(
        analyze_op(schedule.op), schedule, transform, has_producer=False
    )
    if violations:
        raise TransformError(f"cannot parallelize: {violations[0]}")
    schedule.materialize_band(transform.sizes, parallel=True)
    schedule.history.append(transform)

