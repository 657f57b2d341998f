"""Static analysis over the mini-MLIR IR.

Two layers, the second built on the first:

* :mod:`.dependence` — affine dependence analysis: per-statement access
  relations extracted from the ops' indexing maps, distance/direction
  vectors per loop dimension, and a :class:`DependenceGraph` per
  function;
* :mod:`.verifier` — the schedule-legality verifier: replays whole
  schedules (:func:`verify_schedule`) and reports every record that
  breaks its spec's dependence rule.

The analyzer is load-bearing, not a linter: every transform spec states
one dependence rule (``TransformSpec.banned_dims``) over
:func:`analyze_op`'s facts, and the action masks, flat legality and the
verifier's messages all derive from it.
"""

from .dependence import (
    Dependence,
    DependenceGraph,
    DependenceKind,
    FlowEdge,
    OpDependences,
    analyze_op,
)
from .verifier import (
    Violation,
    evaluate_scheduled_op_racy,
    reduction_order_preserved,
    verify_schedule,
)

__all__ = [
    "Dependence",
    "DependenceGraph",
    "DependenceKind",
    "FlowEdge",
    "OpDependences",
    "Violation",
    "analyze_op",
    "evaluate_scheduled_op_racy",
    "reduction_order_preserved",
    "verify_schedule",
]
