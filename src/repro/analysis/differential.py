"""Differential checking: hand-written predicates vs the analyzer.

The environment's legality masks are heuristics (`iterator types say
this loop is parallel`); the dependence analyzer derives the same facts
from first principles.  :class:`DifferentialChecker` cross-checks them
live — every mask bit against ``TransformSpec.analysis_legal`` /
``analysis_param_mask``, every applied record against
``analysis_violations`` — and either raises
:class:`DifferentialDisagreement` (tests, ``EnvConfig.verify_raise``)
or logs and counts (training, surfaced via ``info["verifier"]``).

:func:`differential_sweep` is the acceptance gate: masks and random
legal actions over hundreds of PR-4 generator programs, asserting zero
analyzer-vs-predicate disagreements.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..transforms.pipeline import ScheduledFunction
from ..transforms.records import Transformation
from ..transforms.registry import MaskContext, spec_for_record, view_for
from ..transforms.scheduled_op import ScheduledOp
from .dependence import DependenceGraph, analyze_op

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..datasets.generator import Stage
    from ..env.config import EnvConfig
    from ..env.masking import ActionMask
    from ..ir.ops import LinalgOp

logger = logging.getLogger("repro.analysis")

#: examples kept on the stats object (full messages also go to the log)
_MAX_EXAMPLES = 10


class DifferentialDisagreement(AssertionError):
    """The analyzer and a hand-written legality predicate disagree."""


@dataclass
class DifferentialStats:
    """Counters the checker accumulates (cheap to snapshot per step)."""

    masks_checked: int = 0
    records_checked: int = 0
    disagreements: int = 0
    programs: int = 0
    examples: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.disagreements += 1
        if len(self.examples) < _MAX_EXAMPLES:
            self.examples.append(message)

    def snapshot(self) -> dict[str, int]:
        return {
            "masks_checked": self.masks_checked,
            "records_checked": self.records_checked,
            "disagreements": self.disagreements,
        }


class DifferentialChecker:
    """Cross-checks masks and applied records against the analyzer.

    Stateless apart from :attr:`stats`; one instance per environment
    (or per sweep).  ``strict`` controls raise-vs-log on disagreement.
    """

    def __init__(self, config: "EnvConfig", strict: bool = True) -> None:
        self.config = config
        self.strict = strict
        self.stats = DifferentialStats()

    # -- analyzer-side state queries ------------------------------------------

    def analysis_has_producer(
        self, scheduled: ScheduledFunction, op: "LinalgOp"
    ) -> bool:
        """`has_producer` re-derived from dependence-graph flow edges.

        Mirrors :meth:`ScheduledFunction.fusable_producer_of` — the
        textually closest flow producer, still unfused and unvectorized
        — but reads the analyzer's edges instead of ``defining_op``
        links, so a divergence between the two surfaces as a fusion-bit
        disagreement.
        """
        graph = DependenceGraph.analyze(scheduled.func)
        producers = graph.flow_producers_of(op)
        if not producers:
            return False
        producer = scheduled._schedules.get(id(producers[-1]))
        if producer is None:
            return True
        return producer.fused_into is None and not producer.vectorized

    # -- checks ---------------------------------------------------------------

    def check_mask(
        self,
        scheduled: ScheduledFunction,
        op: "LinalgOp",
        mask: "ActionMask",
        pointer_placed: tuple[int, ...] = (),
        in_pointer_sequence: bool = False,
    ) -> None:
        """Compare one computed :class:`ActionMask` with the analyzer.

        Skips forced-continuation masks (mid pointer-sequence the
        transformation head is forced, not legality-derived).
        """
        if mask.forced_interchange:
            return
        self.stats.masks_checked += 1
        dep = analyze_op(op)
        ctx = MaskContext(
            scheduled.schedule_of(op),
            self.config,
            self.analysis_has_producer(scheduled, op),
            tuple(pointer_placed),
            in_pointer_sequence,
        )
        view = view_for(self.config)
        for index, spec in enumerate(view.specs):
            param = spec.analysis_param_mask(ctx, dep)
            head = spec.head(self.config)
            if param is not None and head is not None:
                heuristic = mask.params.get(head.mask_key)
                if heuristic is not None and not np.array_equal(
                    np.asarray(heuristic, dtype=bool),
                    np.asarray(param, dtype=bool),
                ):
                    self._disagree(
                        f"{op.name}/{spec.name}: param mask "
                        f"{np.asarray(heuristic, dtype=int).tolist()} != "
                        f"analysis "
                        f"{np.asarray(param, dtype=int).tolist()}"
                    )
            legal = spec.analysis_legal(ctx, dep, param)
            if legal is None:
                continue
            if bool(mask.transformation[index]) != bool(legal):
                self._disagree(
                    f"{op.name}/{spec.name}: head bit "
                    f"{bool(mask.transformation[index])} != analysis "
                    f"{bool(legal)}"
                )

    def before_apply(
        self, scheduled: ScheduledFunction, op: "LinalgOp"
    ) -> tuple[ScheduledOp | None, bool]:
        """Snapshot what :meth:`check_applied` needs, pre-application.

        Applying a record mutates the schedule (fusion even mutates the
        *producer's* state), so both the schedule state the record saw
        and the analyzer-side ``has_producer`` must be captured first.
        """
        schedule = scheduled._schedules.get(id(op))
        pre_state = None if schedule is None else schedule.clone_state()
        return pre_state, self.analysis_has_producer(scheduled, op)

    def check_applied(
        self,
        scheduled: ScheduledFunction,
        op: "LinalgOp",
        record: Transformation,
        pre: tuple[ScheduledOp | None, bool],
    ) -> None:
        """Analyzer verdict on a record the apply layer accepted."""
        pre_state, has_producer = pre
        schedule = pre_state if pre_state is not None else ScheduledOp(op)
        spec = spec_for_record(type(record))
        if spec is None:
            return
        self.stats.records_checked += 1
        for detail in spec.analysis_violations(
            analyze_op(op), schedule, record, has_producer
        ):
            self._disagree(
                f"{op.name}/{spec.name}: applied {record} but the "
                f"analyzer rejects it — {detail}"
            )

    # -- plumbing -------------------------------------------------------------

    def _disagree(self, message: str) -> None:
        self.stats.note(message)
        logger.warning("differential disagreement: %s", message)
        if self.strict:
            raise DifferentialDisagreement(message)


# ---------------------------------------------------------------------------
# Generator-universe sweep (the acceptance gate)
# ---------------------------------------------------------------------------


def differential_sweep(
    num_programs: int = 500,
    seed: int = 0,
    stage: "Stage | None" = None,
    steps_per_op: int = 3,
    config: "EnvConfig | None" = None,
    strict: bool = True,
) -> DifferentialStats:
    """Cross-check masks + random legal actions over generated programs.

    For each program: every op (consumers-first) gets its mask checked,
    then up to ``steps_per_op`` random mask-legal flat actions applied
    and re-checked, mutating the schedule between steps so deep states
    are covered too.  Stop actions are only sampled when nothing else is
    legal.  Returns the accumulated stats; with ``strict`` the first
    disagreement raises.
    """
    from ..datasets.generator import FULL_STAGE, generate_program
    from ..env.actions import flat_action_table
    from ..env.config import extended_config
    from ..env.masking import compute_mask

    if stage is None:
        stage = FULL_STAGE
    if config is None:
        # Activate both plugins so the sweep also exercises the
        # dependence-backed parallelization masks; max_loops covers the
        # generator's deepest op (conv2d, 7 loops).
        config = extended_config(
            "unrolling", "parallelization", max_loops=8
        )
    checker = DifferentialChecker(config, strict=strict)
    rng = np.random.default_rng(seed)
    table = flat_action_table(config)
    view = view_for(config)
    for _ in range(num_programs):
        func = generate_program(rng, stage)
        scheduled = ScheduledFunction(func)
        for op in func.walk_consumers_first():
            schedule = scheduled.schedule_of(op)
            for _ in range(steps_per_op):
                has_producer = (
                    scheduled.fusable_producer_of(op) is not None
                )
                mask = compute_mask(schedule, config, has_producer)
                checker.check_mask(scheduled, op, mask)
                candidates = [
                    flat
                    for flat in table
                    if mask.transformation[int(flat.kind)]
                    and flat._spec().flat_legal(
                        flat, mask, schedule.num_loops, config
                    )
                ]
                moving = [
                    flat
                    for flat in candidates
                    if not view.spec_at(int(flat.kind)).is_stop
                ]
                pool = moving or candidates
                if not pool:
                    break
                flat = pool[int(rng.integers(len(pool)))]
                record = flat.to_record(schedule.num_loops)
                pre = checker.before_apply(scheduled, op)
                scheduled.apply(op, record)
                checker.check_applied(scheduled, op, record, pre)
                if view.spec_at(int(flat.kind)).ends_op:
                    break
        checker.stats.programs += 1
    return checker.stats
