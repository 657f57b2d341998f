"""The MLIR RL environment (paper §III–IV).

One episode optimizes one linalg function.  Operations are traversed
from consumers to producers (reversed body order, following producer
links first) because linalg fusion has limited ability to fuse a
modified producer — starting at the consumer preserves fusion
opportunities.  The agent applies at most ``tau`` transformations per
operation; terminal actions (vectorization, no-transformation) end the
current operation.

The action space is registry-derived: :meth:`step` looks the sampled
kind up in the config's :func:`~repro.transforms.registry.view_for`
view and defers decoding, multi-step sub-sequences and termination
semantics to the spec — adding a transformation requires no edit here.

Observations are the Fig. 1 representation vectors of the current
consumer and its (last) producer plus the action masks.  Rewards are
log-speedups measured on the machine model.

Episode truncation: legal episodes are naturally bounded (at most
``tau`` transformations per op plus pointer sub-steps), but illegal
actions cost a mild penalty without ending the episode, so an agent that
ignores the masks could loop forever.  ``EnvConfig.max_episode_steps``
caps the episode; crossing the cap ends it with ``done=True`` and
``info["truncated"]=True``, delivering the terminal reward for whatever
schedule was reached.

Execution costs: the default executor is a
:class:`~repro.machine.service.CachingExecutor`, so re-timing an
unchanged schedule (baseline re-evaluations, pointer sub-steps, no-ops,
info probes) hits a memoization cache; its hit/miss statistics are
surfaced under ``StepResult.info["cache"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ir.ops import FuncOp, LinalgOp
from ..machine.executor import Executor
from ..machine.service import CachingExecutor, retargeted_executor
from ..transforms.pipeline import ScheduledFunction
from ..transforms.records import Transformation
from ..transforms.registry import view_for
from ..transforms.scheduled_op import ScheduledOp, TransformError
from ..machine.spec import MachineSpec
from .actions import EnvAction, decode_action
from .config import EnvConfig, PAPER_CONFIG, RewardMode
from .features import machine_feature_vector, op_features, zero_features
from .history import ActionHistory
from .masking import ActionMask, MaskCache, compute_mask
from .reward import RewardModel, RewardState


#: Episode reward when an evaluation faults past the guard's retries
#: (log-speedup rewards make a negative value a below-baseline penalty).
FAULT_PENALTY = -1.0


@dataclass
class Observation:
    """What the agent sees each step.

    ``num_loops`` is the current op's loop count: the flat agent needs
    it to turn a table entry into a record.
    """

    consumer: np.ndarray
    producer: np.ndarray
    mask: ActionMask
    num_loops: int


@dataclass
class StepResult:
    observation: Observation | None
    reward: float
    done: bool
    info: dict = field(default_factory=dict)


class MlirRlEnv:
    """Gym-style environment over linalg functions.

    Each episode optimizes the function its caller passes to
    :meth:`reset` — in training, a sampler's draw.
    """

    def __init__(
        self,
        config: EnvConfig = PAPER_CONFIG,
        executor: Executor | None = None,
        observation_cache: bool = True,
    ):
        self.config = config
        self._view = view_for(config)
        #: The default executor times on the config's registered
        #: machine (the paper Xeon unless ``EnvConfig.machine`` says
        #: otherwise); an explicit executor wins and defines the true
        #: target — observations condition on ``executor.spec``.
        self.executor = executor or CachingExecutor(config.machine_spec())
        self._guard_faults()
        #: incremental _observe(): per-op static feature memos plus a
        #: mask LRU keyed by (op, schedule state, pointer state); False
        #: recomputes everything each step (the pre-fast-path behavior,
        #: kept for benchmarking — observations are bit-identical).
        self._observation_cache = observation_cache
        self._mask_cache = MaskCache(config) if observation_cache else None
        self.reward_model = RewardModel(self.executor, config.reward_mode)
        self._machine_vec = machine_feature_vector(config, self.executor.spec)
        self._func: FuncOp | None = None
        self.scheduled: ScheduledFunction | None = None
        self._histories: dict[int, ActionHistory] = {}
        self._visited: set[int] = set()
        self._current: LinalgOp | None = None
        #: pending loops of a multi-step sub-sequence (level pointers)
        self._pointer_placed: list[int] = []
        self._reward_state: RewardState | None = None
        self._episode_steps = 0
        #: bumped on every applied transform; keys the info-probe memo
        self._schedule_version = 0
        self._probe_memo: tuple[int, float] | None = None

    def _guard_faults(self) -> None:
        """Fault tolerance follows the executor: on a
        :class:`~repro.fault.guard.GuardedExecutor` (timeouts, retries,
        quarantine; the one executor with a ``policy``) an execution
        fault ends the episode with :data:`FAULT_PENALTY` instead of
        raising.  Any other executor lets it raise, and the unguarded
        path never imports :mod:`repro.fault`."""
        self._fault_types: tuple = ()
        if getattr(self.executor, "policy", None) is not None:
            from ..fault.guard import ExecutionFault

            self._fault_types = (ExecutionFault,)

    # -- episode control -------------------------------------------------------

    def reset(self, func: FuncOp) -> Observation:
        """Start a new episode on ``func``.

        A baseline evaluation that faults past a guarded executor's
        retries raises; only a fault during :meth:`step` ends the
        episode with :data:`FAULT_PENALTY`.
        """
        if not func.body:
            raise ValueError(f"function @{func.name} has no linalg ops")
        self._func = func
        self.scheduled = ScheduledFunction(func)
        self._histories = {}
        self._visited = set()
        self._pointer_placed = []
        self._episode_steps = 0
        self._schedule_version = 0
        self._probe_memo = None
        self._current = func.body[-1]
        self._reward_state = self.reward_model.start_episode(self.scheduled)
        return self._observe()

    def set_machine(
        self, spec: MachineSpec | str, executor: Executor | None = None
    ) -> None:
        """Retarget the environment to another machine (spec or
        registry name).

        Replaces the executor with one timing on ``spec`` while keeping
        the current timing cache (entries are spec-keyed, so warm
        timings of other machines stay valid and can never be replayed
        across specs) and refreshes the observation's machine block.
        ``executor`` lets a vector env install one shared replacement
        in every slot; it must already time on ``spec``.  Call between
        episodes: the change takes effect at the next :meth:`reset` —
        mid-episode the baseline already timed under the old spec would
        corrupt rewards.
        """
        from ..machine.registry import spec as resolve_machine

        spec = resolve_machine(spec)
        if executor is None:
            executor = retargeted_executor(self.executor, spec)
        self.executor = executor
        self._guard_faults()
        self.reward_model = RewardModel(
            self.executor, self.config.reward_mode
        )
        self._machine_vec = machine_feature_vector(self.config, spec)
        self._probe_memo = None

    @property
    def current_op(self) -> LinalgOp | None:
        return self._current

    def current_schedule(self) -> ScheduledOp:
        if self._current is None or self.scheduled is None:
            raise RuntimeError("environment not reset")
        return self.scheduled.schedule_of(self._current)

    def _history_of(self, op: LinalgOp) -> ActionHistory:
        history = self._histories.get(id(op))
        if history is None:
            history = ActionHistory(self.config)
            self._histories[id(op)] = history
        return history

    def _producer_of_current(self) -> ScheduledOp | None:
        if self._current is None or self.scheduled is None:
            return None
        return self.scheduled.fusable_producer_of(self._current)

    def _observe(self) -> Observation:
        schedule = self.current_schedule()
        history = self._history_of(self._current)
        producer = self._producer_of_current()
        cache = self._observation_cache
        if producer is not None:
            producer_vec = op_features(
                producer,
                self._history_of(producer.op),
                self.config,
                cache=cache,
                machine=self._machine_vec,
            )
        else:
            producer_vec = zero_features(self.config)
        if self._mask_cache is not None:
            mask = self._mask_cache.lookup(
                schedule,
                has_producer=producer is not None,
                pointer_placed=tuple(self._pointer_placed),
                in_pointer_sequence=bool(self._pointer_placed),
            )
        else:
            mask = compute_mask(
                schedule,
                self.config,
                has_producer=producer is not None,
                pointer_placed=tuple(self._pointer_placed),
                in_pointer_sequence=bool(self._pointer_placed),
            )
        return Observation(
            consumer=op_features(
                schedule,
                history,
                self.config,
                cache=cache,
                machine=self._machine_vec,
            ),
            producer=producer_vec,
            mask=mask,
            num_loops=schedule.num_loops,
        )

    # -- traversal ---------------------------------------------------------------

    def _advance(self) -> bool:
        """Move to the next operation.  Returns True when episode is done."""
        assert self._current is not None and self._func is not None
        self._visited.add(id(self._current))
        self._pointer_placed = []
        self._current = self._func.next_to_schedule(
            self._current, self._visited
        )
        return self._current is None

    # -- stepping ---------------------------------------------------------------

    def step(self, action: EnvAction) -> StepResult:
        """Apply one agent action."""
        if self._current is None or self.scheduled is None:
            raise RuntimeError("environment not reset or episode finished")
        assert self._reward_state is not None
        schedule = self.current_schedule()
        history = self._history_of(self._current)
        info: dict = {"action": str(action), "op": self._current.name}
        self._episode_steps += 1
        spec = self._view.spec_at(action.kind)

        done_with_op = False
        applied: Transformation | None = None
        illegal = False

        if action.record is None and spec.is_multistep(self.config):
            done_with_op, applied, illegal = spec.multistep(
                self, schedule, history, action
            )
        elif self._pointer_placed:
            # Mid multi-step sub-sequence the mask forces continuation;
            # any other action would leave the partial sub-action rows
            # and pointer state inconsistent, so it is illegal (nothing
            # is applied).
            info["error"] = "interchange pointer sequence in progress"
            illegal = True
        else:
            record = self._decode(schedule, action)
            if record is None:
                # all-zero tiling: a no-op that still consumes a step
                history.record_noop()
            else:
                try:
                    self.scheduled.apply(self._current, record)
                    applied = record
                    history.record(record)
                except TransformError as error:
                    info["error"] = str(error)
                    illegal = True
            if spec.ends_op:
                done_with_op = not illegal

        if applied is not None:
            self._schedule_version += 1

        truncated = (
            self.config.max_episode_steps > 0
            and self._episode_steps >= self.config.max_episode_steps
        )

        try:
            if illegal:
                # Illegal actions should be masked; reaching here means
                # the agent ignored the mask.  Penalize mildly and
                # continue — unless the step budget is exhausted, which
                # ends the episode (otherwise a mask-ignoring agent
                # loops forever).
                info["illegal"] = True
                if truncated:
                    return self._finish_truncated(info, penalty=-0.1)
                observation = self._observe()
                self._attach_exec_info(info)
                return StepResult(observation, -0.1, False, info)

            budget_exhausted = (
                history.step >= self.config.max_schedule_length
            )
            if budget_exhausted and not self._pointer_placed:
                done_with_op = True

            done = False
            if done_with_op:
                done = self._advance()
            if truncated and not done:
                return self._finish_truncated(info)

            reward = self.reward_model.step_reward(
                self._reward_state, self.scheduled, done
            )
            self._attach_exec_info(info, done)
            observation = None if done else self._observe()
            return StepResult(observation, reward, done, info)
        except self._fault_types as error:
            return self._finish_faulted(info, error)

    def _finish_truncated(self, info: dict, penalty: float = 0.0) -> StepResult:
        """End the episode at the step cap with the terminal reward."""
        assert self._reward_state is not None and self.scheduled is not None
        info["truncated"] = True
        self._pointer_placed = []
        self._current = None
        reward = penalty + self.reward_model.step_reward(
            self._reward_state, self.scheduled, True
        )
        self._attach_exec_info(info, done=True)
        return StepResult(None, reward, True, info)

    def _finish_faulted(self, info: dict, error: Exception) -> StepResult:
        """End the episode with the sentinel penalty after an
        evaluation faulted past all retries (or was quarantined).

        The episode cannot continue — its reward signal is gone — but
        the *rollout* can: the caller sees a normal terminal step with
        ``info["execution_fault"]`` set, a neutral ``speedup`` of 1.0,
        and :data:`FAULT_PENALTY` as the reward.
        """
        assert self._reward_state is not None
        info["execution_fault"] = f"{type(error).__name__}: {error}"
        info["speedup"] = 1.0
        info["executions"] = self._reward_state.executions
        self._pointer_placed = []
        self._current = None
        return StepResult(None, FAULT_PENALTY, True, info)

    def _attach_exec_info(self, info: dict, done: bool = False) -> None:
        """Record speedup/execution telemetry on a step's info dict.

        ``speedup`` is the *true* speedup of the current schedule — in
        FINAL reward mode ``RewardState.last_seconds`` only updates at
        episode end, so the stale value would read 1.0 on every
        intermediate step.  When the live value is already known
        (IMMEDIATE mode executes every step; any mode executes at
        episode end) it is read off the reward state for free; only
        intermediate FINAL-mode steps pay an info probe, which does not
        count toward ``executions`` (the Fig. 7 quantity) and is a
        cache hit whenever the schedule is unchanged.
        """
        assert self._reward_state is not None and self.scheduled is not None
        if done or self.reward_model.mode is RewardMode.IMMEDIATE:
            info["speedup"] = self.reward_model.speedup(self._reward_state)
        else:
            info["speedup"] = (
                self._reward_state.baseline_seconds
                / self._scheduled_seconds()
            )
        info["executions"] = self._reward_state.executions
        stats = getattr(self.executor, "stats", None)
        if stats is not None:
            info["cache"] = stats.snapshot()

    def _scheduled_seconds(self) -> float:
        """Current schedule's time, memoized per schedule version.

        Steps that change nothing (pointer sub-steps, no-ops, illegal
        actions) reuse the previous probe without re-lowering the
        function; the memo is an info-only probe that never counts
        toward ``RewardState.executions``.
        """
        assert self.scheduled is not None
        memo = self._probe_memo
        if memo is not None and memo[0] == self._schedule_version:
            return memo[1]
        seconds = self.executor.run_scheduled(self.scheduled).seconds
        self._probe_memo = (self._schedule_version, seconds)
        return seconds

    def _decode(
        self, schedule: ScheduledOp, action: EnvAction
    ) -> Transformation | None:
        return decode_action(action, schedule.num_loops, self.config)

    # -- conveniences --------------------------------------------------------------

    def final_speedup(self) -> float:
        """Speedup of the fully-scheduled function over its baseline."""
        assert self.scheduled is not None and self._reward_state is not None
        return self._reward_state.baseline_seconds / self._scheduled_seconds()
