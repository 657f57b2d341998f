"""Fault tolerance: execution guards, crash-safe persistence, and
deterministic fault injection.

See :mod:`repro.fault.plan` for the injection model, ``guard`` for
timeouts/retries/quarantine around executors (its
:class:`~repro.fault.guard.GuardPolicy` is the one fault config), and
``atomic`` for crash-safe writes.  Worker recovery lives in the vector
env's worker pool, :class:`~repro.env.vector.VecMlirRlEnv` built with
``processes=True``.
"""

from .atomic import (
    CorruptArtifactError,
    atomic_write,
    atomic_write_text,
    checksum_path,
    finalize_atomic,
    verify_checksum,
)
from .guard import (
    ExecutionFault,
    ExecutionTimeout,
    GuardedExecutor,
    GuardPolicy,
    InjectedError,
    QuarantinedError,
    QuarantineList,
)
from .plan import (
    SITE_KINDS,
    FaultEvent,
    FaultPlan,
    FiredFault,
    active_plan,
    chaos,
    install_plan,
    random_plan,
)

__all__ = [
    "SITE_KINDS",
    "CorruptArtifactError",
    "ExecutionFault",
    "ExecutionTimeout",
    "FaultEvent",
    "FaultPlan",
    "FiredFault",
    "GuardPolicy",
    "GuardedExecutor",
    "InjectedError",
    "QuarantineList",
    "QuarantinedError",
    "active_plan",
    "atomic_write",
    "atomic_write_text",
    "chaos",
    "checksum_path",
    "finalize_atomic",
    "install_plan",
    "random_plan",
    "verify_checksum",
]
