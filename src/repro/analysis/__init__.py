"""Static analysis over the mini-MLIR IR.

Two layers, the second built on the first:

* :mod:`.dependence` — affine dependence analysis: per-statement access
  relations extracted from the ops' indexing maps, distance/direction
  vectors per loop dimension, and a :class:`DependenceGraph` per
  function;
* :mod:`.verifier` — the schedule-legality verifier: replays whole
  schedules (:func:`verify_schedule`) and reports every record that
  breaks its spec's dependence rule.

Two sibling layers feed the *search* side rather than legality:

* :mod:`.canonical` — schedule canonicalization: a stable canonical key
  under which structurally equivalent transformation sequences (and
  no-op records) collapse, used by the beam/greedy pruning layer;
* :mod:`.bounds` — symbolic cost bounds: monotone lower/upper bounds on
  iteration work and cache traffic computed directly from schedule
  state (no lowering), letting search prove that no completion of a
  prefix can beat the incumbent.

The analyzer is load-bearing, not a linter: every transform spec states
one dependence rule (``TransformSpec.banned_dims``) over
:func:`analyze_op`'s facts, and the action masks, flat legality and the
verifier's messages all derive from it.
"""

from .bounds import (
    PruneAuditReport,
    TrafficBounds,
    WorkBounds,
    completion_lower_seconds,
    prune_audit,
    traffic_bounds,
    work_bounds,
)
from .canonical import (
    CanonicalSweepStats,
    canonical_form,
    canonical_op_key,
    canonical_schedule_key,
    canonical_sweep,
)
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
    "CanonicalSweepStats",
    "Dependence",
    "DependenceGraph",
    "DependenceKind",
    "FlowEdge",
    "OpDependences",
    "PruneAuditReport",
    "TrafficBounds",
    "Violation",
    "WorkBounds",
    "analyze_op",
    "canonical_form",
    "canonical_op_key",
    "canonical_schedule_key",
    "canonical_sweep",
    "completion_lower_seconds",
    "evaluate_scheduled_op_racy",
    "prune_audit",
    "reduction_order_preserved",
    "traffic_bounds",
    "verify_schedule",
    "work_bounds",
]
