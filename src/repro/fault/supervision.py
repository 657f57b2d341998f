"""Worker supervision: detect, respawn, replay — or degrade gracefully.

:class:`SupervisedAsyncVecEnv` extends
:class:`~repro.env.vector.AsyncVecMlirRlEnv` with recovery from dead and
hung fork workers.  Detection combines a ``recv`` timeout (a worker that
does not answer within ``recv_timeout`` seconds is presumed hung),
``Process.is_alive`` (to tell a hang from a death in error messages and
the :meth:`heartbeat` sweep), and pipe EOF/broken-pipe errors.

Recovery is **replay**, not checkpointing.  The supervisor records, per
slot, the in-flight episode's reset function and the actions applied so
far; a replacement worker is spawned from the slot's *original*
``SeedSequence`` spawn key, fast-forwards any benchmark-provider draws a
dead predecessor already made (the ``burn_draws`` worker command), then
re-runs the episode prefix.  Because every environment step is
deterministic given the reset function and action sequence, the
replacement reaches exactly the state the dead worker held, and the
vector operation that observed the failure is re-issued — rollouts under
faults stay reward-identical to fault-free runs.

After ``max_respawns`` consecutive respawn failures the supervisor
**degrades**: the worker pool is torn down and every slot is replayed
into an in-process :class:`~repro.env.environment.MlirRlEnv` sharing the
parent-side executor.  Throughput drops to single-process levels, but
the run completes instead of deadlocking.  (Degraded replay of an
episode whose reset drew from a worker-side benchmark provider cannot
recover that draw — explicit reset functions, which the batched
collectors always pass, replay exactly.)

Fault injection: one ``"worker"``-site draw per vector step; a scheduled
``kill`` terminates a stepping worker with ``Process.kill`` so the real
recovery machinery runs.  A ``"respawn"``-site ``fail`` makes one
respawn attempt count as failed, driving the degradation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np

from ..env.actions import EnvAction
from ..env.config import EnvConfig, PAPER_CONFIG
from ..env.environment import MlirRlEnv, Observation
from ..env.vector import (
    AsyncVecMlirRlEnv,
    VecObservation,
    VecStepResult,
    WorkerError,
    _unpack_observation,
)
from ..ir.ops import FuncOp
from ..machine.executor import Executor
from ..machine.spec import MachineSpec
from .plan import FaultPlan, active_plan


@dataclass
class _EpisodeLog:
    """Replay record of one in-flight episode on one slot."""

    func: FuncOp | None
    actions: list[EnvAction] = dataclass_field(default_factory=list)


class SupervisedAsyncVecEnv(AsyncVecMlirRlEnv):
    """AsyncVecMlirRlEnv that survives dead and hung workers.

    Drop-in for the batched collectors.  On the fault-free path the only
    additions over the base class are per-slot action logging and a
    ``poll`` before each ``recv`` — observations, rewards, and cache
    contents are bit-identical.
    """

    def __init__(
        self,
        num_envs: int,
        benchmark_provider: Callable[[], FuncOp] | None = None,
        config: EnvConfig = PAPER_CONFIG,
        executor: Executor | None = None,
        seed: int = 0,
        start_method: str | None = None,
        recv_timeout: float = 60.0,
        max_respawns: int = 3,
        plan: FaultPlan | None = None,
    ):
        if recv_timeout <= 0:
            raise ValueError("recv_timeout must be > 0 seconds")
        if max_respawns < 1:
            raise ValueError("max_respawns must be >= 1")
        super().__init__(
            num_envs,
            benchmark_provider=benchmark_provider,
            config=config,
            executor=executor,
            seed=seed,
            start_method=start_method,
        )
        self.recv_timeout = recv_timeout
        self.max_respawns = max_respawns
        #: None falls back to the process-wide installed plan (the
        #: ``--chaos`` path) at draw time.
        self._plan = plan
        self._logs: list[_EpisodeLog | None] = [None] * num_envs
        #: completed provider draws (reset(None) calls) per slot — the
        #: burn count a replacement worker must fast-forward.
        self._draws = [0] * num_envs
        self._consecutive_respawn_failures = 0
        #: telemetry
        self.respawns = 0
        self.injected_kills = 0
        self.degraded = False
        self._local: list[MlirRlEnv] | None = None

    # -- fault plumbing ---------------------------------------------------------

    def _active_plan(self) -> FaultPlan | None:
        return self._plan if self._plan is not None else active_plan()

    def _maybe_kill_worker(self, stepped: list[int]) -> None:
        """One ``worker``-site draw per vector step; ``kill`` terminates
        a stepping worker (round-robin victim) with SIGKILL."""
        plan = self._active_plan()
        if plan is None or not stepped:
            return
        if plan.draw("worker", context="vector step") == "kill":
            victim = stepped[self.injected_kills % len(stepped)]
            self.injected_kills += 1
            self._processes[victim].kill()
            self._processes[victim].join(timeout=5)

    # -- recovery ---------------------------------------------------------------

    def _teardown_worker(self, index: int) -> None:
        try:
            self._parents[index].close()
        except OSError:  # pragma: no cover - already closed
            pass
        process = self._processes[index]
        if process.is_alive():
            process.terminate()
            process.join(timeout=1)
        if process.is_alive():  # pragma: no cover - defensive
            process.kill()
            process.join(timeout=1)

    def _replay(self, index: int) -> None:
        """Bring a freshly spawned worker to the dead one's state.

        Burns provider draws of *completed* resets, then re-runs the
        in-flight episode (reset + logged actions).  Raises
        :class:`WorkerError` if the replacement fails mid-replay.
        """
        log = self._logs[index]
        burn = self._draws[index]
        if log is not None and log.func is None:
            burn -= 1  # the replayed reset below re-makes this draw
        if burn > 0:
            self._send_raw(index, ("burn_draws", burn))
            self._recv_raw(index, timeout=self.recv_timeout)
        # Warm-start the replacement from the parent's merged timing
        # cache: past syncs absorbed its predecessor's entries without
        # re-journaling them, so future syncs alone would leave the
        # fresh worker re-executing everything already paid for.  A
        # drain first (empty: the worker has timed nothing yet) starts
        # its journal, and absorbed entries are never journaled, so its
        # next drain ships only what it times itself, not these entries
        # back to every peer.
        cache = getattr(self.executor, "cache", None)
        if cache is not None:
            entries = cache.entries()
            if entries:
                self._send_raw(index, ("cache_drain",))
                self._recv_raw(index, timeout=self.recv_timeout)
                self._send_raw(index, ("cache_absorb", entries))
                self._recv_raw(index, timeout=self.recv_timeout)
        if log is None:
            return
        self._send_raw(index, ("reset", log.func))
        self._recv_raw(index, timeout=self.recv_timeout)
        for action in log.actions:
            self._send_raw(index, ("step", action))
            self._recv_raw(index, timeout=self.recv_timeout)

    def _recover(self, index: int, error: WorkerError) -> None:
        """Respawn worker ``index`` and replay its episode prefix;
        degrade to in-process environments after ``max_respawns``
        consecutive failures."""
        self._teardown_worker(index)
        plan = self._active_plan()
        while True:
            injected = (
                plan.draw("respawn", context=f"worker {index}")
                if plan
                else None
            )
            if injected != "fail":
                try:
                    parent, process = self._spawn_worker(index)
                    self._parents[index] = parent
                    self._processes[index] = process
                    self._replay(index)
                except WorkerError:
                    self._teardown_worker(index)
                else:
                    self._consecutive_respawn_failures = 0
                    self.respawns += 1
                    return
            self._consecutive_respawn_failures += 1
            if self._consecutive_respawn_failures >= self.max_respawns:
                self._degrade()
                return

    def _degrade(self) -> None:
        """Fall back to in-process environments sharing the parent
        executor; the pool is torn down and every slot's episode prefix
        is replayed locally."""
        self.degraded = True
        for index in range(self.num_envs):
            self._teardown_worker(index)
        machine = self._machine
        local: list[MlirRlEnv] = []
        for log in self._logs:
            env = MlirRlEnv(self._provider, self.config, self.executor)
            if machine != self.config.machine_spec():
                env.set_machine(machine, executor=self.executor)
            if log is not None:
                env.reset(log.func)
                for action in log.actions:
                    env.step(action)
            local.append(env)
        self._local = local

    # -- robust worker protocol -------------------------------------------------

    def _dispatch(self, index: int, message: tuple) -> bool:
        """Robust send; False when the pool degraded instead."""
        if self.degraded:
            return False
        try:
            self._send_raw(index, message)
            return True
        except WorkerError as error:
            self._recover(index, error)
            if self.degraded:
                return False
            self._send_raw(index, message)
            return True

    def _collect(self, index: int, message: tuple):
        """Robust receive; re-issues ``message`` to the replacement
        worker after a recovery.  Returns None when the pool degraded
        (the caller finishes the operation on the local environments)."""
        attempts = 0
        while not self.degraded:
            try:
                if attempts:
                    self._send_raw(index, message)
                return self._recv_raw(index, timeout=self.recv_timeout)
            except WorkerError as error:
                attempts += 1
                if attempts > self.max_respawns:
                    self._degrade()
                    break
                self._recover(index, error)
        return None

    def _call(self, index: int, message: tuple):
        """Robust single-slot round trip (None when degraded)."""
        if not self._dispatch(index, message):
            return None
        return self._collect(index, message)

    def heartbeat(self) -> list[int]:
        """Proactive liveness sweep: respawn (and replay) every slot
        whose process is no longer alive.  Returns the recovered slots.
        Safe only between vector operations — never call it with replies
        in flight."""
        recovered = []
        if self.degraded or self._closed:
            return recovered
        for index, process in enumerate(self._processes):
            if self.degraded:
                break
            if not process.is_alive():
                self._recover(
                    index,
                    WorkerError(index, f"worker {index} found dead"),
                )
                recovered.append(index)
        return recovered

    # -- VecMlirRlEnv interface -------------------------------------------------

    def reset(
        self, funcs: Sequence[FuncOp | None] | None = None
    ) -> VecObservation:
        if funcs is None:
            funcs = [None] * self.num_envs
        if len(funcs) > self.num_envs:
            raise ValueError(
                f"{len(funcs)} functions for {self.num_envs} environments"
            )
        self._observations = [None] * self.num_envs
        if not self.degraded:
            for index, func in enumerate(funcs):
                # the old episode needs no replay once a new reset is
                # in flight; clear before sending so recovery only
                # burns draws.
                self._logs[index] = None
                self._dispatch(index, ("reset", func))
                if self.degraded:
                    break
        for index, func in enumerate(funcs):
            if self.degraded:
                # degradation happened before this slot's reply arrived;
                # (re)start its episode locally.  Slots collected before
                # the degradation keep their worker-reported
                # observations — _degrade replayed their prefix.
                observation = self._local[index].reset(func)
                self._logs[index] = _EpisodeLog(func)
                self._observations[index] = observation
                continue
            payload = self._collect(index, ("reset", func))
            if payload is None:  # degraded during collection
                observation = self._local[index].reset(func)
                self._logs[index] = _EpisodeLog(func)
                self._observations[index] = observation
                continue
            self._observations[index] = _unpack_observation(payload)
            if func is None:
                self._draws[index] += 1
            self._logs[index] = _EpisodeLog(func)
        return self._stack()

    def step(self, actions: Sequence[EnvAction | None]) -> VecStepResult:
        if len(actions) != self.num_envs:
            raise ValueError(
                f"{len(actions)} actions for {self.num_envs} environments"
            )
        rewards = np.zeros(self.num_envs)
        dones = np.zeros(self.num_envs, dtype=bool)
        infos: list[dict] = [{} for _ in range(self.num_envs)]
        stepped = []
        for index, action in enumerate(actions):
            if self._observations[index] is None:
                if action is not None:
                    raise ValueError(
                        f"environment {index} already finished its episode"
                    )
                dones[index] = True
                continue
            if action is None:
                raise ValueError(f"environment {index} expects an action")
            stepped.append(index)
        if not self.degraded:
            self._maybe_kill_worker(stepped)
            for index in stepped:
                self._dispatch(index, ("step", actions[index]))
                if self.degraded:
                    break
        for index in stepped:
            action = actions[index]
            if self.degraded:
                # local env state includes exactly the logged prefix;
                # this slot's action is applied (and logged) here.
                result = self._local[index].step(action)
                packed_observation = result.observation
                reward, done, info = (
                    result.reward,
                    result.done,
                    result.info,
                )
            else:
                payload = self._collect(index, ("step", action))
                if payload is None:  # degraded during collection
                    result = self._local[index].step(action)
                    packed_observation = result.observation
                    reward, done, info = (
                        result.reward,
                        result.done,
                        result.info,
                    )
                else:
                    packed, reward, done, info = payload
                    packed_observation = _unpack_observation(packed)
            self._observations[index] = packed_observation
            rewards[index] = reward
            dones[index] = done
            infos[index] = info
            log = self._logs[index]
            if log is not None:
                log.actions.append(action)
        return VecStepResult(self._stack(), rewards, dones, infos)

    def final_speedup(self, index: int) -> float:
        if self.degraded:
            return self._local[index].final_speedup()
        payload = self._call(index, ("final_speedup",))
        if payload is None:
            return self._local[index].final_speedup()
        return float(payload)

    def set_machine(self, spec: MachineSpec | str) -> None:
        from ..machine.registry import spec as resolve_machine
        from ..machine.service import retargeted_executor

        spec = resolve_machine(spec)
        # record first: a worker respawned mid-operation must already
        # start on the new machine (its replacement skips the worker-side
        # set_machine below, which would then be a harmless no-op).
        self._machine = spec
        if not self.degraded:
            for index in range(self.num_envs):
                self._call(index, ("set_machine", spec))
                if self.degraded:
                    break
        self.executor = retargeted_executor(self.executor, spec)
        if self.degraded:
            for env in self._local:
                env.set_machine(spec, executor=self.executor)

    def sync_timing_caches(self) -> int:
        if self.degraded:
            # local envs share the parent executor — nothing to exchange.
            return 0
        updates: list = []
        cache = getattr(self.executor, "cache", None)
        if cache is not None:
            updates.extend(cache.drain_updates())
        for index in range(self.num_envs):
            payload = self._call(index, ("cache_drain",))
            if payload is None:
                return 0
            updates.extend(payload)
        if not updates:
            return 0
        merged: dict = {}
        for level, key, value in updates:
            merged.setdefault((level, key), (level, key, value))
        deduped = list(merged.values())
        for index in range(self.num_envs):
            if self._call(index, ("cache_absorb", deduped)) is None:
                break
        if cache is not None:
            cache.absorb_updates(deduped)
        return len(deduped)

    # -- lifecycle --------------------------------------------------------------

    def telemetry(self) -> dict:
        return {
            "respawns": self.respawns,
            "injected_kills": self.injected_kills,
            "degraded": self.degraded,
            "consecutive_respawn_failures": (
                self._consecutive_respawn_failures
            ),
        }

    def close(self) -> None:
        if self._closed:
            return
        if self.degraded:
            # the pool is already down; only the flag remains.
            self._closed = True
            return
        super().close()
