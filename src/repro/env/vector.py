"""Vectorized environment: N independent episodes, stacked observations.

:class:`VecMlirRlEnv` steps N :class:`~repro.env.environment.MlirRlEnv`
slots in lockstep and exposes their observations as stacked
``(B, feature)`` arrays, so a batched policy can run one network forward
pass per vector step instead of one per environment.  The slots run
in-process on one shared :class:`~repro.machine.service.
CachingExecutor`, so identical schedules across episodes (baselines
above all) are timed once, or, with ``processes=True``, in a pool of
worker processes that survives dead and hung workers.

Semantics are deliberately plain: no auto-reset.  An episode that
finishes keeps reporting ``done`` and a zeroed observation row until the
whole vector is reset; callers pass ``None`` as the action for finished
slots.  This makes a vectorized rollout with per-env policy generators
bit-equivalent to N sequential single-env rollouts (see
``tests/test_vec_env.py``), in either mode.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..ir.ops import FuncOp
from ..machine.executor import Executor
from ..machine.service import CachingExecutor, retargeted_executor
from ..machine.spec import MachineSpec
from .actions import EnvAction
from .config import EnvConfig, PAPER_CONFIG
from .environment import MlirRlEnv, Observation
from .features import feature_size
from .masking import ActionMask

if TYPE_CHECKING:
    from ..fault.guard import GuardPolicy
    from ..fault.plan import FaultPlan


@dataclass
class VecObservation:
    """Stacked observations of all member environments.

    Finished environments contribute zero rows and loop counts;
    ``masks[i]`` is ``None`` for them.  ``active`` marks environments
    still running.
    """

    consumer: np.ndarray                  # (B, feature)
    producer: np.ndarray                  # (B, feature)
    masks: list[ActionMask | None]
    active: np.ndarray                    # (B,) bool
    num_loops: np.ndarray                 # (B,) int

    def observation_of(self, index: int) -> Observation | None:
        """The per-env view of slot ``index`` (None when finished)."""
        if not self.active[index]:
            return None
        return Observation(
            consumer=self.consumer[index],
            producer=self.producer[index],
            mask=self.masks[index],
            num_loops=int(self.num_loops[index]),
        )


@dataclass
class VecStepResult:
    """One vector step: stacked rewards/dones plus per-env infos."""

    observation: VecObservation
    rewards: np.ndarray                   # (B,)
    dones: np.ndarray                     # (B,) bool
    infos: list[dict] = field(default_factory=list)


class WorkerError(RuntimeError):
    """A worker process died, hung, or raised.

    Carries which worker failed (``index``) and whether the process was
    still alive when the failure was detected (``alive`` — True for a
    hang or an exception the worker's environment raised), so error
    messages can say what actually happened.
    """

    def __init__(self, index: int, message: str, alive: bool = False):
        super().__init__(message)
        self.index = index
        self.alive = alive


def _env_worker(
    conn,
    config: EnvConfig,
    machine: MachineSpec,
    policy: GuardPolicy | None,
    warm_entries: Sequence,
) -> None:
    """One worker process hosting one :class:`MlirRlEnv`.

    ``machine`` is the spec the parent executor times on — shipped as a
    value (frozen, picklable) rather than re-resolved here, so machines
    registered at runtime survive spawn-started workers whose fresh
    interpreter only has the built-in registry.
    ``policy`` is the parent executor's guard policy: a guarded parent
    gets guarded workers.  ``warm_entries`` seed a respawned worker's
    timing cache (see :meth:`VecMlirRlEnv._recover`).  Replies carry
    the :class:`Observation` and :class:`StepResult` the env returned.
    """
    # A forked worker inherits the parent's objects but never needs to
    # collect them.  Freezing them keeps its garbage collector from
    # touching, and so copying, the parent's pages, which made respawns
    # from a large parent measurably slower.
    gc.freeze()
    executor: Executor = CachingExecutor(machine)
    if policy is not None:
        from ..fault.guard import GuardedExecutor

        executor = GuardedExecutor(executor, policy)
    env = MlirRlEnv(config, executor)
    if warm_entries:
        # Draining first starts the journal, and absorbed entries are
        # never journaled, so later drains ship only what this worker
        # times itself, not these entries back to every peer.
        executor.cache.drain_updates()
        executor.cache.absorb_updates(warm_entries)
    try:
        while True:
            message = conn.recv()
            command = message[0]
            try:
                if command == "reset":
                    conn.send(("ok", env.reset(message[1])))
                elif command == "step":
                    conn.send(("ok", env.step(message[1])))
                elif command == "final_speedup":
                    conn.send(("ok", env.final_speedup()))
                elif command == "cache_drain":
                    conn.send(("ok", env.executor.cache.drain_updates()))
                elif command == "cache_absorb":
                    env.executor.cache.absorb_updates(message[1])
                    conn.send(("ok", None))
                elif command == "set_machine":
                    env.set_machine(message[1])
                    conn.send(("ok", None))
                elif command == "hang":
                    # Test hook: simulate a hung (alive but unresponsive)
                    # worker for the pool's recv-timeout path.
                    import time as _time

                    _time.sleep(message[1])
                    conn.send(("ok", None))
                elif command == "close":
                    conn.send(("ok", None))
                    return
                else:
                    conn.send(("error", f"unknown command {command!r}"))
            except Exception as error:  # surface worker-side failures
                conn.send(("error", f"{type(error).__name__}: {error}"))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass


#: glibc's ``malloc_trim``, looked up on first use; False where the C
#: library has none
_malloc_trim = None


def _trim_heap() -> None:
    """Return the C allocator's free pages to the OS before a fork.

    A fork copies the page-table entry of every resident page, freed
    but retained ones too, and a killed worker's exit tears them all
    down again, so both slow down as the parent's heap grows.  glibc
    keeps the pages of freed numpy buffers resident; ``malloc_trim``
    hands them back.  Elsewhere this is a no-op.
    """
    global _malloc_trim
    if _malloc_trim is None:
        import ctypes

        try:
            _malloc_trim = ctypes.CDLL(None).malloc_trim
        except (AttributeError, OSError):
            _malloc_trim = False
    if _malloc_trim:
        _malloc_trim(0)


#: Seconds a worker may stay silent before the pool treats it as hung
#: and respawns it.
RECV_TIMEOUT_SECONDS = 60.0
#: Consecutive failed respawns before the pool degrades to in-process
#: environments.
MAX_RESPAWNS = 3


@dataclass
class _EpisodeLog:
    """Replay record of one in-flight episode on one slot."""

    func: FuncOp
    actions: list[EnvAction] = field(default_factory=list)


class VecMlirRlEnv:
    """N independent episodes stepped as one batch.

    ``executor`` defaults to a fresh shared :class:`CachingExecutor`;
    pass :func:`repro.machine.service.pooled_executor` to share timings
    with other consumers in the process.

    By default every slot is an in-process :class:`MlirRlEnv` on that
    one executor (:attr:`envs`).  With ``processes=True`` each slot's
    env lives in its own worker process instead (``start_method``
    picks how workers start; fork where available), and :meth:`step`
    dispatches every active slot's action before collecting any reply,
    so environments execute their (lowering/cost-model-bound) steps
    concurrently while the batched policy forward stays in the parent.
    Observations, no-auto-reset semantics and validation are the same
    in both modes, with two differences by necessity of the process
    boundary:

    * each worker owns a private timing cache;
      :meth:`sync_timing_caches` exchanges newly computed entries
      between all workers (and the parent-side ``executor``), which is
      valid because cache keys are identity-free structural tuples;
    * the functions :meth:`reset` starts cross the pipe, so they are
      drawn in the parent and pickled to the workers.

    Recovery is replay, not checkpointing.  While workers serve the
    slots, the env logs each slot's in-flight episode: its reset
    function and the actions applied so far.  A worker that dies, or
    stays silent for :data:`RECV_TIMEOUT_SECONDS`, is respawned and
    replays the episode prefix; the vector operation that saw the
    failure is then re-issued.  Every environment step is deterministic
    given the reset function and the actions, so recovered rollouts are
    reward-identical to fault-free ones.  After :data:`MAX_RESPAWNS`
    consecutive failed respawns the pool degrades: the workers are torn
    down and every slot is replayed into an in-process env on the
    parent ``executor``, so the env goes on exactly as one built
    without processes.  Throughput drops to one process, but the run
    completes.

    A worker whose environment raises replies with the error and stays
    in sync, so that is the caller's error, not a worker fault: the
    pool closes and raises :class:`WorkerError` naming the worker and
    the error, and the next use fails loudly (``PPOTrainer`` starts a
    fresh pool).

    A :class:`~repro.fault.guard.GuardedExecutor` as ``executor`` makes
    every worker guarded by its :class:`~repro.fault.guard.GuardPolicy`.
    Fault injection: one ``"worker"``-site draw of ``plan`` (default:
    the installed plan) per vector step while workers serve the slots,
    where a scheduled ``kill`` terminates a stepping worker with
    ``Process.kill``; a ``"respawn"``-site ``fail`` makes one respawn
    attempt fail.

    Workers are daemonic: an abandoned pool dies with the parent.  Call
    :meth:`close` (or use the env as a context manager) for an orderly
    shutdown.  A closed env rejects :meth:`reset` in both modes.
    """

    def __init__(
        self,
        num_envs: int,
        config: EnvConfig = PAPER_CONFIG,
        executor: Executor | None = None,
        processes: bool = False,
        start_method: str | None = None,
        plan: FaultPlan | None = None,
    ):
        if num_envs < 1:
            raise ValueError("need at least one environment")
        self.config = config
        #: the executor in-process slots share; with workers, also the
        #: parent-side merge target for :meth:`sync_timing_caches` and
        #: the machine every worker times on (its spec)
        self.executor = executor or CachingExecutor(config.machine_spec())
        #: None falls back to the process-wide installed plan (the
        #: ``--chaos`` path) at draw time.
        self._plan = plan
        self._observations: list[Observation | None] = [None] * num_envs
        self._feature = feature_size(config)
        self._logs: list[_EpisodeLog | None] = [None] * num_envs
        self._consecutive_respawn_failures = 0
        self.respawns = 0
        self.injected_kills = 0
        self._closed = False
        self._parents = []
        self._processes = []
        #: the in-process slots, or None while workers serve them
        self.envs: list[MlirRlEnv] | None = None
        if not processes:
            self.envs = [
                MlirRlEnv(config, self.executor) for _ in range(num_envs)
            ]
            return
        # A worker's first action mask imports repro.analysis lazily
        # (the import breaks a registry <-> verifier cycle), and the
        # parent never computes a mask.  Importing it here, before the
        # first fork, lets every worker and every respawn inherit the
        # module instead of paying ~18 ms to import it again.
        from .. import analysis  # noqa: F401

        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._context = mp.get_context(start_method)
        #: the guard policy of a GuardedExecutor parent, for its workers
        self._policy = getattr(self.executor, "policy", None)
        if self._context.get_start_method() == "fork":
            # Dead cycles left by earlier work would be inherited by
            # every worker; collect them once so _trim_heap can return
            # their pages before the first fork.
            gc.collect()
        for index in range(num_envs):
            parent_conn, process = self._spawn_worker(index)
            self._parents.append(parent_conn)
            self._processes.append(process)

    def _spawn_worker(self, index: int, warm_entries: Sequence = ()):
        """Start worker ``index`` with ``warm_entries`` in its timing
        cache; returns (parent pipe end, process)."""
        if self._context.get_start_method() == "fork":
            _trim_heap()
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_env_worker,
            args=(
                child_conn,
                self.config,
                self.executor.spec,
                self._policy,
                warm_entries,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return parent_conn, process

    @property
    def num_envs(self) -> int:
        return len(self._observations)

    @property
    def degraded(self) -> bool:
        """True once a pool lost its workers: every slot then runs
        in-process on the parent executor.  False for an env built
        without processes."""
        return self.envs is not None and bool(self._processes)

    # -- slot bookkeeping -------------------------------------------------------

    def _stack(self) -> VecObservation:
        consumer = np.zeros((self.num_envs, self._feature))
        producer = np.zeros((self.num_envs, self._feature))
        masks: list[ActionMask | None] = []
        active = np.zeros(self.num_envs, dtype=bool)
        num_loops = np.zeros(self.num_envs, dtype=np.int64)
        for index, observation in enumerate(self._observations):
            if observation is None:
                masks.append(None)
                continue
            consumer[index] = observation.consumer
            producer[index] = observation.producer
            masks.append(observation.mask)
            active[index] = True
            num_loops[index] = observation.num_loops
        return VecObservation(consumer, producer, masks, active, num_loops)

    def _reset_slots(self, funcs: Sequence[FuncOp]) -> None:
        """Check that the env is open and that ``funcs`` (one per slot
        from the first) fits the slots, then mark every slot idle until
        its episode starts."""
        if self._closed:
            raise RuntimeError("vector environment is closed")
        if len(funcs) > self.num_envs:
            raise ValueError(
                f"{len(funcs)} functions for {self.num_envs} environments"
            )
        self._observations = [None] * self.num_envs

    def _stepped_slots(self, actions: Sequence[EnvAction | None]) -> list[int]:
        """The slots ``actions`` steps: one action per running slot,
        ``None`` for each finished one.  Raises before any slot is
        stepped, so a bad batch leaves every episode where it was."""
        if len(actions) != self.num_envs:
            raise ValueError(
                f"{len(actions)} actions for {self.num_envs} environments"
            )
        stepped = []
        for index, action in enumerate(actions):
            if self._observations[index] is not None:
                if action is None:
                    raise ValueError(f"environment {index} expects an action")
                stepped.append(index)
            elif action is not None:
                raise ValueError(
                    f"environment {index} already finished its episode"
                )
        return stepped

    # -- worker protocol --------------------------------------------------------

    def _send(self, index: int, message: tuple) -> None:
        """Send ``message`` to worker ``index``; raises
        :class:`WorkerError` on a broken pipe (worker already dead)."""
        if self._closed:
            raise RuntimeError("vector environment is closed")
        try:
            self._parents[index].send(message)
        except (BrokenPipeError, ConnectionResetError, OSError) as error:
            raise WorkerError(
                index,
                f"worker {index} died before receiving "
                f"{message[0]!r}: {type(error).__name__}",
            ) from error

    def _recv(self, index: int) -> tuple:
        """Worker ``index``'s next ``(status, payload)`` reply.

        Raises :class:`WorkerError` when the worker died (EOF/broken
        pipe) or stayed silent for :data:`RECV_TIMEOUT_SECONDS`, naming
        the worker in either case.
        """
        parent = self._parents[index]
        try:
            if not parent.poll(RECV_TIMEOUT_SECONDS):
                alive = self._processes[index].is_alive()
                state = "is hung (alive but unresponsive)" if alive else "died"
                raise WorkerError(
                    index,
                    f"worker {index} {state}: no reply within "
                    f"{RECV_TIMEOUT_SECONDS:g}s",
                    alive=alive,
                )
            return parent.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as error:
            raise WorkerError(
                index,
                f"worker {index} died mid-command "
                f"(exit code {self._processes[index].exitcode}): "
                f"{type(error).__name__}",
            ) from error

    def _dispatch(self, index: int, message: tuple) -> None:
        """Send ``message`` while workers serve the slots.  A dead
        worker is left for :meth:`_collect`, which recovers it and
        re-issues ``message``."""
        if self.envs is not None:
            return
        try:
            self._send(index, message)
        except WorkerError:
            pass

    def _collect(self, index: int, message: tuple):
        """Worker ``index``'s reply payload to the dispatched ``message``.

        A dead or hung worker is recovered and ``message`` re-issued to
        its replacement.  Returns None when the slots run in-process
        (from the start, or because the pool degraded): the caller then
        finishes the operation on :attr:`envs`.  An error reply closes
        the pool and raises :class:`WorkerError`.
        """
        for attempt in range(MAX_RESPAWNS + 1):
            if self.envs is not None:
                return None
            try:
                if attempt:
                    self._send(index, message)
                status, payload = self._recv(index)
            except WorkerError:
                if attempt < MAX_RESPAWNS:
                    self._recover(index)
                continue
            if status != "ok":
                # Other workers may still have queued replies, so the
                # pipe protocol cannot go on; tear the pool down.
                self.close()
                raise WorkerError(
                    index, f"worker {index} failed: {payload}", alive=True
                )
            return payload
        self._degrade()
        return None

    # -- recovery ---------------------------------------------------------------

    def _active_plan(self) -> FaultPlan | None:
        from ..fault.plan import active_plan

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

    def _stop_worker(self, index: int, grace: float = 0.0) -> None:
        """End worker ``index``: give its process ``grace`` seconds to
        exit, close its pipe, then terminate and finally kill it."""
        process = self._processes[index]
        process.join(timeout=grace)
        self._parents[index].close()
        if process.is_alive():
            process.terminate()
            process.join(timeout=1)
        if process.is_alive():  # pragma: no cover - defensive
            process.kill()
            process.join(timeout=1)

    def _replay_call(self, index: int, message: tuple) -> None:
        """One replay round trip; any failure fails the respawn."""
        self._send(index, message)
        status, payload = self._recv(index)
        if status != "ok":
            raise WorkerError(
                index, f"worker {index} failed replay: {payload}", alive=True
            )

    def _replay(self, index: int) -> None:
        """Bring a freshly spawned worker to the dead one's state by
        re-running the in-flight episode (reset + logged actions).
        Raises :class:`WorkerError` if the replacement fails mid-replay.
        """
        log = self._logs[index]
        if log is None:
            return
        self._replay_call(index, ("reset", log.func))
        for action in log.actions:
            self._replay_call(index, ("step", action))

    def _recover(self, index: int) -> None:
        """Respawn worker ``index`` and replay its episode prefix;
        degrade to in-process environments after :data:`MAX_RESPAWNS`
        consecutive failed respawns."""
        self._stop_worker(index)
        # The replacement starts warm from the parent's merged timing
        # cache: past syncs absorbed its predecessor's entries without
        # re-journaling them, so future syncs alone would leave it
        # re-executing everything already paid for.  A forked worker
        # inherits the entries instead of unpickling them from its pipe.
        cache = getattr(self.executor, "cache", None)
        entries = cache.entries() if cache is not None else []
        plan = self._active_plan()
        while True:
            injected = (
                plan.draw("respawn", context=f"worker {index}")
                if plan
                else None
            )
            if injected != "fail":
                try:
                    parent, process = self._spawn_worker(index, entries)
                    self._parents[index] = parent
                    self._processes[index] = process
                    self._replay(index)
                except WorkerError:
                    self._stop_worker(index)
                else:
                    self._consecutive_respawn_failures = 0
                    self.respawns += 1
                    return
            self._consecutive_respawn_failures += 1
            if self._consecutive_respawn_failures >= MAX_RESPAWNS:
                self._degrade()
                return

    def _degrade(self) -> None:
        """Tear the pool down and replay every slot's episode prefix into
        an in-process environment on the parent executor.  The logs go
        with the workers: nothing replays in-process slots."""
        for index in range(self.num_envs):
            self._stop_worker(index)
        envs: list[MlirRlEnv] = []
        for log in self._logs:
            env = MlirRlEnv(self.config, self.executor)
            if log is not None:
                env.reset(log.func)
                for action in log.actions:
                    env.step(action)
            envs.append(env)
        self.envs = envs
        self._logs = [None] * self.num_envs

    # -- episodes ---------------------------------------------------------------

    def reset(self, funcs: Sequence[FuncOp]) -> VecObservation:
        """Start one episode per function in ``funcs``, on the slots
        from the first; slots beyond ``len(funcs)`` stay idle."""
        self._reset_slots(funcs)
        for index, func in enumerate(funcs):
            # the old episode needs no replay once a new reset is in
            # flight: a recovery before its reply re-issues the reset.
            self._logs[index] = None
            self._dispatch(index, ("reset", func))
        for index, func in enumerate(funcs):
            observation = self._collect(index, ("reset", func))
            if self.envs is not None:
                # In-process, or degraded before this slot's reply:
                # (re)start its episode locally.  Slots collected
                # earlier keep their worker-reported observations;
                # _degrade replayed them.
                observation = self.envs[index].reset(func)
            else:
                self._logs[index] = _EpisodeLog(func)
            self._observations[index] = observation
        return self._stack()

    def step(self, actions: Sequence[EnvAction | None]) -> VecStepResult:
        """Apply one action per environment (None for finished slots)."""
        stepped = self._stepped_slots(actions)
        rewards = np.zeros(self.num_envs)
        dones = np.ones(self.num_envs, dtype=bool)  # finished slots stay done
        infos: list[dict] = [{} for _ in range(self.num_envs)]
        if self.envs is None:
            self._maybe_kill_worker(stepped)
        for index in stepped:
            self._dispatch(index, ("step", actions[index]))
        for index in stepped:
            action = actions[index]
            result = self._collect(index, ("step", action))
            if self.envs is not None:
                # In-process, or degraded (_degrade replayed the logged
                # prefix): this slot's action is applied here.
                result = self.envs[index].step(action)
            else:
                self._logs[index].actions.append(action)
            self._observations[index] = result.observation
            rewards[index] = result.reward
            dones[index] = result.done
            infos[index] = result.info
        return VecStepResult(self._stack(), rewards, dones, infos)

    def final_speedup(self, index: int) -> float:
        """Final speedup of slot ``index`` (see MlirRlEnv.final_speedup)."""
        message = ("final_speedup",)
        self._dispatch(index, message)
        payload = self._collect(index, message)
        if self.envs is not None:
            return self.envs[index].final_speedup()
        return float(payload)

    # -- cache sync / lifecycle -------------------------------------------------

    def set_machine(self, spec: MachineSpec | str) -> None:
        """Retarget every slot (and the parent-side executor) to a
        machine (spec or registry name — resolved here, so workers
        receive the value and never re-consult their own registry).

        In-process slots move to one fresh shared executor that keeps
        the current cache, and workers keep their warm timing caches:
        entries are spec-keyed, so nothing ever replays across
        machines.  Call between episodes, like
        :meth:`MlirRlEnv.set_machine`.
        """
        from ..machine.registry import spec as resolve_machine

        spec = resolve_machine(spec)
        # Retarget first: a worker respawned (or a slot degraded) during
        # this call must already start on the new machine.
        self.executor = retargeted_executor(self.executor, spec)
        message = ("set_machine", spec)
        for index in range(self.num_envs):
            self._dispatch(index, message)
        for index in range(self.num_envs):
            self._collect(index, message)
        if self.envs is not None:
            for env in self.envs:
                env.set_machine(spec, executor=self.executor)

    def sync_timing_caches(self) -> int:
        """Exchange new timing-cache entries between all workers.

        Pulls each worker's (and the parent executor's) entries added
        since the last sync, merges them, and pushes the union back, so
        a baseline or schedule timed once in any process is a hit
        everywhere.  Returns the number of distinct entries exchanged
        (0 for in-process slots: they share the parent executor).
        """
        if self.envs is not None:
            return 0
        updates: list = []
        cache = getattr(self.executor, "cache", None)
        if cache is not None:
            updates.extend(cache.drain_updates())
        for index in range(self.num_envs):
            self._dispatch(index, ("cache_drain",))
        for index in range(self.num_envs):
            payload = self._collect(index, ("cache_drain",))
            if self.envs is not None:
                return 0
            updates.extend(payload)
        if not updates:
            return 0
        merged: dict = {}
        for level, key, value in updates:
            merged.setdefault((level, key), (level, key, value))
        deduped = list(merged.values())
        message = ("cache_absorb", deduped)
        for index in range(self.num_envs):
            self._dispatch(index, message)
        for index in range(self.num_envs):
            self._collect(index, message)
        if cache is not None:
            cache.absorb_updates(deduped)
        return len(deduped)

    def telemetry(self) -> dict:
        return {
            "respawns": self.respawns,
            "injected_kills": self.injected_kills,
            "degraded": self.degraded,
            "consecutive_respawn_failures": (
                self._consecutive_respawn_failures
            ),
        }

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Never blocks on a dead or hung worker: each process gets a few
        seconds to exit after the ``close`` command, then is
        terminated, then killed.
        """
        if self._closed:
            return
        self._closed = True
        if self.envs is not None:
            return  # no workers, or they are already down
        for parent in self._parents:
            try:
                parent.send(("close",))
            except (BrokenPipeError, ConnectionResetError, OSError):
                pass
        for index in range(self.num_envs):
            self._stop_worker(index, grace=5)

    def __enter__(self) -> "VecMlirRlEnv":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
