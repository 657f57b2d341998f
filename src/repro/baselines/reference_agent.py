"""The MLIR RL evaluation agent: beam search over the paper's action space.

The paper's headline tables use a PPO policy pre-trained for ~5 node-days;
that budget is out of reach here, so the evaluation harness substitutes a
beam search bound to the *identical* action space, legality masks and
schedule-length budget as the environment (see DESIGN.md).  Crucially, it
cannot express anything the trained policy couldn't (no img2col, no
register tiling), so the paper's losses against library kernels are
preserved by construction; where good tilings/interchanges exist in the
space, the search finds them like a converged policy would.

Operations are traversed consumer-to-producer exactly like the
environment; each op gets a beam search over its at-most-``tau``-step
transformation sequence, scored by the machine model on the nests the
op affects (its own, plus its not-yet-fused producer's).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..env.config import PAPER_CONFIG, EnvConfig
from ..ir.ops import FuncOp, LinalgOp
from ..machine.timing import nest_time
from ..transforms.lowering import lower_scheduled_op
from ..transforms.pipeline import ScheduledFunction
from ..transforms.records import Transformation
from ..transforms.registry import spec_for_record, view_for
from ..transforms.scheduled_op import ScheduledOp, TransformError
from .base import MethodResult, OptimizationMethod


@dataclass
class _BeamState:
    scheduled: ScheduledFunction
    steps: int
    terminal: bool
    score: float
    history: list[Transformation] = field(default_factory=list)


def candidate_transformations(
    schedule: ScheduledOp,
    has_producer: bool,
    config: EnvConfig,
) -> list[Transformation]:
    """Pruned action candidates for one beam-search expansion.

    Registry-derived: every active spec contributes its own pruned
    candidate set (``TransformSpec.search_candidates``) in the specs'
    declared search order, so a config that registers extra transforms
    (e.g. unrolling) is searched over them with no edit here.
    """
    if schedule.is_terminal():
        return []
    if schedule.num_loops > config.max_loops:
        # Beyond the action space's N cap: the system cannot represent
        # this op (fixed-size tile heads / features), so it is skipped.
        return []
    candidates: list[Transformation] = []
    for spec in view_for(config).by_search_priority():
        candidates.extend(
            spec.search_candidates(schedule, has_producer, config)
        )
    return candidates


class BeamSearchAgent(OptimizationMethod):
    """MLIR RL's pre-trained-policy stand-in (see module docstring)."""

    name = "mlir-rl"

    def __init__(
        self,
        spec=None,
        beam_width: int = 4,
        config: EnvConfig = PAPER_CONFIG,
        executor=None,
        evaluator=None,
        verify_pool: int = 12,
        cost_beam_factor: int = 6,
    ):
        if spec is not None:
            super().__init__(spec, executor=executor)
        else:
            super().__init__(executor=executor)
        self.beam_width = beam_width
        self.config = config
        #: Cost mode only: how many of the model's best-ranked states
        #: (across the whole per-op search) are real-evaluated at the
        #: end to pick the winner.
        self.verify_pool = verify_pool
        #: Cost mode only: beam-width multiplier.  Model scoring is
        #: orders of magnitude cheaper than real evaluation, so a
        #: model-guided search affords a wider beam for the same budget
        #: — the standard trade of learned-cost-model autoschedulers.
        self.cost_beam_factor = cost_beam_factor
        #: Optional ScheduleCostEvaluator: when set, beam expansions are
        #: ranked by batched cost-model forward passes instead of the
        #: machine model, and only the per-op finalists are real-evaluated.
        self.evaluator = evaluator
        #: Scoring telemetry (both modes): candidate count and the wall
        #: time spent ranking them — the cost-vs-real throughput metric.
        self.candidates_scored = 0
        self.scoring_seconds = 0.0
        #: id -> (state, seconds) of the unfused producers timed by the
        #: running _optimize_op call (None outside it)
        self._producer_memo: dict[int, tuple[ScheduledOp, float]] | None = (
            None
        )

    # -- local scoring ----------------------------------------------------------

    def _local_seconds(
        self, scheduled: ScheduledFunction, op: LinalgOp
    ) -> float:
        """Time of the nests this op's schedule affects.

        For an op fused into a consumer, the priced nest is the *root*
        consumer's — the whole fusion subtree with its compounded
        recompute factors — so moving a producer into the subtree never
        hides its cost.
        """
        root = scheduled.schedule_of(op)
        while root.fused_into is not None:
            root = root.fused_into
        total = self._nest_seconds(root)
        producer = scheduled.fusable_producer_of(op)
        if producer is None:
            return total
        if self._producer_memo is None:
            return total + self._nest_seconds(producer)
        # Candidates that leave the producer alone share its copy-on-write
        # state, which no one mutates, so one op's search times it once.
        entry = self._producer_memo.get(id(producer))
        if entry is None:
            entry = (producer, self._nest_seconds(producer))
            self._producer_memo[id(producer)] = entry
        return total + entry[1]

    def _nest_seconds(self, schedule: ScheduledOp) -> float:
        """Machine-model time of one top-level nest and its fusions."""
        nest = lower_scheduled_op(schedule)
        return nest_time(
            nest, self.spec, skip_tensor_ids=nest.fused_skip_ids()
        ).total

    def _score_batch(
        self,
        states: list[_BeamState],
        op: LinalgOp,
        keys: list[tuple | None] | None = None,
    ) -> list[float]:
        """Rank one expansion: machine model per state, or — with an
        evaluator — one batched cost-model forward pass (states the
        model cannot key fall back to the machine model)."""
        start = time.perf_counter()
        if self.evaluator is None:
            scores = [
                self._local_seconds(state.scheduled, op) for state in states
            ]
        else:
            predicted = self.evaluator.score_batch(
                [state.scheduled for state in states], keys=keys
            )
            scores = [
                score
                if score is not None
                else self._local_seconds(state.scheduled, op)
                for state, score in zip(states, predicted)
            ]
        self.candidates_scored += len(states)
        self.scoring_seconds += time.perf_counter() - start
        return scores

    # -- per-op beam ---------------------------------------------------------------

    def _optimize_op(
        self, scheduled: ScheduledFunction, op: LinalgOp
    ) -> ScheduledFunction:
        self._producer_memo = {}
        try:
            return self._search_op(scheduled, op)
        finally:
            self._producer_memo = None

    def _search_op(
        self, scheduled: ScheduledFunction, op: LinalgOp
    ) -> ScheduledFunction:
        initial = _BeamState(
            scheduled=scheduled, steps=0, terminal=False, score=0.0
        )
        initial.score = self._score_batch([initial], op)[0]
        beam = [initial]
        best = initial
        pool: list[_BeamState] = []
        for _ in range(self.config.max_schedule_length):
            expansions: list[_BeamState] = []
            keys: list[tuple | None] = []
            seen_keys: set[tuple] = set()
            for state in beam:
                if state.terminal:
                    continue
                schedule = state.scheduled.schedule_of(op)
                has_producer = (
                    state.scheduled.fusable_producer_of(op) is not None
                )
                for record in candidate_transformations(
                    schedule, has_producer, self.config
                ):
                    clone = state.scheduled.clone()
                    try:
                        clone.apply(op, record)
                    except TransformError:
                        continue
                    # Identical schedules reached via different action
                    # orders score identically: keep the first, skip the
                    # rest before paying for evaluation.  Unkeyable
                    # schedules are kept (cannot prove them duplicates).
                    key = clone.schedule_key()
                    if key is not None:
                        if key in seen_keys:
                            continue
                        seen_keys.add(key)
                    record_spec = spec_for_record(type(record))
                    expansions.append(
                        _BeamState(
                            scheduled=clone,
                            steps=state.steps + 1,
                            terminal=bool(
                                record_spec is not None
                                and record_spec.ends_op
                            ),
                            score=0.0,
                            history=state.history + [record],
                        )
                    )
                    keys.append(key)
            if not expansions:
                break
            for state, score in zip(
                expansions, self._score_batch(expansions, op, keys=keys)
            ):
                state.score = score
            expansions.sort(key=lambda s: s.score)
            width = self.beam_width
            if self.evaluator is not None:
                width *= self.cost_beam_factor
            beam = expansions[:width]
            if beam[0].score < best.score:
                best = beam[0]
            if self.evaluator is not None:
                pool.extend(beam)
                pool.sort(key=lambda s: s.score)
                del pool[self.verify_pool :]
        if self.evaluator is not None:
            return self._select_real(op, initial, best, beam, pool)
        return best.scheduled

    def _select_real(
        self,
        op: LinalgOp,
        initial: _BeamState,
        best: _BeamState,
        beam: list[_BeamState],
        pool: list[_BeamState],
    ) -> ScheduledFunction:
        """Cost-mode finalist selection: real-evaluate only the final
        contenders (initial state, tracked best, surviving beam, and
        the model's ``verify_pool`` best-ranked states from the whole
        search) and keep the machine-model winner — so a cost-guided
        search never returns a schedule the machine model rates worse
        than leaving the op untouched, and a model that merely gets a
        good state *near* the top is enough."""
        finalists: list[_BeamState] = []
        seen: set[int] = set()
        for state in (initial, best, *beam, *pool):
            if id(state) not in seen:
                seen.add(id(state))
                finalists.append(state)
        ranked = [
            (self._local_seconds(state.scheduled, op), index)
            for index, state in enumerate(finalists)
        ]
        ranked.sort()
        return finalists[ranked[0][1]].scheduled

    # -- full function ----------------------------------------------------------------

    def optimize(self, func: FuncOp) -> ScheduledFunction:
        """Schedule every op, consumer-to-producer."""
        scheduled = ScheduledFunction(func)
        visited: set[int] = set()
        current: LinalgOp | None = func.body[-1] if func.body else None
        while current is not None:
            scheduled = self._optimize_op(scheduled, current)
            visited.add(id(current))
            current = func.next_to_schedule(current, visited)
        return scheduled

    def run(self, func: FuncOp) -> MethodResult:
        scheduled = self.optimize(func)
        result = self.executor.run_scheduled(scheduled)
        return MethodResult(result.seconds, schedule=scheduled)


class GreedyAgent(BeamSearchAgent):
    """Beam width 1 — a fast greedy scheduler for large modules."""

    name = "mlir-rl-greedy"

    def __init__(
        self,
        spec=None,
        config: EnvConfig = PAPER_CONFIG,
        executor=None,
        evaluator=None,
    ):
        super().__init__(
            spec,
            beam_width=1,
            config=config,
            executor=executor,
            evaluator=evaluator,
        )
