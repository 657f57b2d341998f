"""Vectorized environment: N independent episodes, stacked observations.

:class:`VecMlirRlEnv` steps N :class:`~repro.env.environment.MlirRlEnv`
instances in lockstep and exposes their observations as stacked
``(B, feature)`` arrays, so a batched policy can run one network forward
pass per vector step instead of one per environment.  All member
environments share a single :class:`~repro.machine.service.
CachingExecutor`, so identical schedules across episodes (baselines
above all) are timed once.

Semantics are deliberately plain: no auto-reset.  An episode that
finishes keeps reporting ``done`` and a zeroed observation row until the
whole vector is reset; callers pass ``None`` as the action for finished
slots.  This makes a vectorized rollout with per-env policy generators
bit-equivalent to N sequential single-env rollouts (see
``tests/test_vec_env.py``).
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass, field
from typing import Callable, Sequence

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


@dataclass
class VecObservation:
    """Stacked observations of all member environments.

    Finished environments contribute zero rows; ``masks[i]`` is ``None``
    for them.  ``active`` marks environments still running.
    """

    consumer: np.ndarray                  # (B, feature)
    producer: np.ndarray                  # (B, feature)
    masks: list[ActionMask | None]
    active: np.ndarray                    # (B,) bool

    def observation_of(self, index: int) -> Observation | None:
        """The per-env view of slot ``index`` (None when finished)."""
        if not self.active[index]:
            return None
        return Observation(
            consumer=self.consumer[index],
            producer=self.producer[index],
            mask=self.masks[index],
        )


@dataclass
class VecStepResult:
    """One vector step: stacked rewards/dones plus per-env infos."""

    observation: VecObservation
    rewards: np.ndarray                   # (B,)
    dones: np.ndarray                     # (B,) bool
    infos: list[dict] = field(default_factory=list)


class _VectorEnvBase:
    """Shared slot bookkeeping of the in-process and async vector envs.

    Subclasses own ``self._observations`` (one ``Observation | None``
    per slot) and ``self._feature``; stacking and activity queries are
    identical across transports and live here so the two environments
    cannot drift apart.
    """

    _observations: list[Observation | None]
    _feature: int

    @property
    def num_envs(self) -> int:
        raise NotImplementedError

    def _stack(self) -> VecObservation:
        consumer = np.zeros((self.num_envs, self._feature))
        producer = np.zeros((self.num_envs, self._feature))
        masks: list[ActionMask | None] = []
        active = np.zeros(self.num_envs, dtype=bool)
        for index, observation in enumerate(self._observations):
            if observation is None:
                masks.append(None)
                continue
            consumer[index] = observation.consumer
            producer[index] = observation.producer
            masks.append(observation.mask)
            active[index] = True
        return VecObservation(consumer, producer, masks, active)

    def active_indices(self) -> list[int]:
        """Indices of environments whose episodes are still running."""
        return [
            index
            for index, observation in enumerate(self._observations)
            if observation is not None
        ]


class VecMlirRlEnv(_VectorEnvBase):
    """N independent episodes stepped as one batch.

    ``executor`` defaults to a fresh shared :class:`CachingExecutor`;
    pass :func:`repro.machine.service.pooled_executor` to share timings
    with other consumers in the process.
    """

    def __init__(
        self,
        num_envs: int,
        benchmark_provider: Callable[[], FuncOp] | None = None,
        config: EnvConfig = PAPER_CONFIG,
        executor: Executor | None = None,
    ):
        if num_envs < 1:
            raise ValueError("need at least one environment")
        self.config = config
        self.executor = executor or CachingExecutor(config.machine_spec())
        self.envs = [
            MlirRlEnv(benchmark_provider, config, self.executor)
            for _ in range(num_envs)
        ]
        self._observations: list[Observation | None] = [None] * num_envs
        self._feature = feature_size(config)

    @property
    def num_envs(self) -> int:
        return len(self.envs)

    def set_machine(self, spec: MachineSpec | str) -> None:
        """Retarget every member environment to a machine (spec or
        registry name).

        One fresh shared executor (keeping the current cache — entries
        are spec-keyed) replaces the old one in all slots, preserving
        the cross-episode timing sharing the vector env exists for.
        Call between episodes, like :meth:`MlirRlEnv.set_machine`.
        """
        from ..machine.registry import spec as resolve_machine

        spec = resolve_machine(spec)
        self.executor = retargeted_executor(self.executor, spec)
        for env in self.envs:
            env.set_machine(spec, executor=self.executor)

    def reset(
        self, funcs: Sequence[FuncOp | None] | None = None
    ) -> VecObservation:
        """Start a new episode in every slot.

        ``funcs`` gives one function per environment (or None entries to
        draw from the benchmark provider); omitting it draws every
        episode from the provider.
        """
        if funcs is None:
            funcs = [None] * self.num_envs
        if len(funcs) != self.num_envs:
            raise ValueError(
                f"{len(funcs)} functions for {self.num_envs} environments"
            )
        self._observations = [
            env.reset(func) for env, func in zip(self.envs, funcs)
        ]
        return self._stack()

    def step(self, actions: Sequence[EnvAction | None]) -> VecStepResult:
        """Apply one action per environment (None for finished slots)."""
        if len(actions) != self.num_envs:
            raise ValueError(
                f"{len(actions)} actions for {self.num_envs} environments"
            )
        rewards = np.zeros(self.num_envs)
        dones = np.zeros(self.num_envs, dtype=bool)
        infos: list[dict] = []
        for index, (env, action) in enumerate(zip(self.envs, actions)):
            if self._observations[index] is None:
                if action is not None:
                    raise ValueError(
                        f"environment {index} already finished its episode"
                    )
                dones[index] = True
                infos.append({})
                continue
            if action is None:
                raise ValueError(f"environment {index} expects an action")
            result = env.step(action)
            self._observations[index] = result.observation
            rewards[index] = result.reward
            dones[index] = result.done
            infos.append(result.info)
        return VecStepResult(self._stack(), rewards, dones, infos)

    def final_speedup(self, index: int) -> float:
        """Final speedup of slot ``index`` (see MlirRlEnv.final_speedup)."""
        return self.envs[index].final_speedup()


# ---------------------------------------------------------------------------
# Multiprocessing vector environment
# ---------------------------------------------------------------------------


def _pack_observation(observation: Observation | None):
    if observation is None:
        return None
    return (observation.consumer, observation.producer, observation.mask)


def _unpack_observation(payload) -> Observation | None:
    if payload is None:
        return None
    consumer, producer, mask = payload
    return Observation(consumer=consumer, producer=producer, mask=mask)


class WorkerError(RuntimeError):
    """A worker process died, hung, or desynchronized its pipe protocol.

    Carries which worker failed (``index``) and whether the process was
    still alive when the failure was detected (``alive`` — True means a
    hang/timeout rather than a death), so supervisors can pick the
    right recovery and error messages can say what actually happened.
    """

    def __init__(self, index: int, message: str, alive: bool = False):
        super().__init__(message)
        self.index = index
        self.alive = alive


def _async_env_worker(
    conn,
    config: EnvConfig,
    provider,
    seed: np.random.SeedSequence,
    machine: MachineSpec,
) -> None:
    """One worker process hosting one :class:`MlirRlEnv`.

    Deterministic per-worker seeding: the global RNGs any benchmark
    provider might use are seeded from the worker's spawned
    :class:`~numpy.random.SeedSequence`, so a pool started twice with
    the same base seed replays the same draws.  Spawned children (not
    ``base + index`` offsets) keep pools with *different* base seeds on
    provably disjoint streams — with plain offsets, pools seeded 0 and
    1 ran workers 1.. and 0.. on the same RNG states.

    ``machine`` is the spec the parent resolved from ``config.machine``
    — shipped as a value (frozen, picklable) rather than re-resolved
    here, so machines registered at runtime survive spawn-started
    workers whose fresh interpreter only has the built-in registry.
    """
    import random

    words = seed.generate_state(2)
    random.seed(int(words[0]))
    np.random.seed(int(words[1]))
    env = MlirRlEnv(provider, config, CachingExecutor(machine))
    try:
        while True:
            message = conn.recv()
            command = message[0]
            try:
                if command == "reset":
                    observation = env.reset(message[1])
                    conn.send(("ok", _pack_observation(observation)))
                elif command == "step":
                    result = env.step(message[1])
                    conn.send(
                        (
                            "ok",
                            (
                                _pack_observation(result.observation),
                                result.reward,
                                result.done,
                                result.info,
                            ),
                        )
                    )
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
                elif command == "burn_draws":
                    # Supervisor replay: fast-forward the provider's RNG
                    # consumption past draws a dead predecessor already
                    # made, so the respawned worker's next reset(None)
                    # yields the draw the episode actually ran on.
                    for _ in range(message[1]):
                        if provider is not None:
                            provider()
                    conn.send(("ok", None))
                elif command == "hang":
                    # Test hook: simulate a hung (alive but unresponsive)
                    # worker for the supervisor's recv-timeout path.
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


class AsyncVecMlirRlEnv(_VectorEnvBase):
    """The :class:`VecMlirRlEnv` interface over a multiprocessing pool.

    Each slot is an :class:`MlirRlEnv` living in its own worker process;
    :meth:`step` dispatches every active slot's action before collecting
    any reply, so environments execute their (lowering/cost-model-bound)
    steps concurrently while the batched policy forward stays in the
    parent.  Drop-in for the batched collectors: same stacked
    observations, same no-auto-reset semantics, same validation.

    Differences from the in-process vector env, by necessity of the
    process boundary:

    * ``reset`` accepts *fewer* functions than slots — the surplus
      workers sit the batch out (needed by collectors whose last batch
      is smaller than the pool);
    * each worker owns a private timing cache;
      :meth:`sync_timing_caches` exchanges newly computed entries
      between all workers (and the parent-side ``executor``), which is
      valid because cache keys are identity-free structural tuples;
    * a ``benchmark_provider`` must be picklable under the chosen start
      method ("fork" by default, where it need not pickle at all).

    Workers are daemonic: an abandoned pool dies with the parent.  Call
    :meth:`close` (or use the pool as a context manager) for an orderly
    shutdown.
    """

    def __init__(
        self,
        num_envs: int,
        benchmark_provider: Callable[[], FuncOp] | None = None,
        config: EnvConfig = PAPER_CONFIG,
        executor: Executor | None = None,
        seed: int = 0,
        start_method: str | None = None,
    ):
        if num_envs < 1:
            raise ValueError("need at least one environment")
        self.config = config
        #: parent-side merge target for :meth:`sync_timing_caches`
        self.executor = executor or CachingExecutor(config.machine_spec())
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        #: respawn ingredients, kept so a supervisor can replace a dead
        #: worker with one seeded by the *original* SeedSequence spawn
        #: key (deterministic replay) on the *current* machine spec.
        self._context = mp.get_context(start_method)
        self._provider = benchmark_provider
        self._worker_seeds = np.random.SeedSequence(seed).spawn(num_envs)
        self._machine = config.machine_spec()
        self._parents = []
        self._processes = []
        for index in range(num_envs):
            parent_conn, process = self._spawn_worker(index)
            self._parents.append(parent_conn)
            self._processes.append(process)
        self._observations: list[Observation | None] = [None] * num_envs
        self._feature = feature_size(config)
        self._closed = False

    def _spawn_worker(self, index: int):
        """Start worker ``index``; returns (parent pipe end, process)."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_async_env_worker,
            args=(
                child_conn,
                self.config,
                self._provider,
                self._worker_seeds[index],
                self._machine,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return parent_conn, process

    @property
    def num_envs(self) -> int:
        return len(self._processes)

    # -- worker protocol --------------------------------------------------------

    def _send_raw(self, index: int, message: tuple) -> None:
        """Send without pool teardown; raises :class:`WorkerError` on a
        broken pipe (worker already dead)."""
        if self._closed:
            raise RuntimeError("async vector environment is closed")
        try:
            self._parents[index].send(message)
        except (BrokenPipeError, ConnectionResetError, OSError) as error:
            raise WorkerError(
                index,
                f"worker {index} died before receiving "
                f"{message[0]!r}: {type(error).__name__}",
            ) from error

    def _recv_raw(self, index: int, timeout: float | None = None):
        """Receive without pool teardown.

        Raises :class:`WorkerError` when the worker died (EOF/broken
        pipe), hung past ``timeout`` seconds, or answered with an error
        status — naming the worker in every case.  The caller decides
        whether to tear the pool down (:meth:`_recv`) or recover the
        one worker (a supervisor).
        """
        parent = self._parents[index]
        try:
            if timeout is not None and not parent.poll(timeout):
                alive = self._processes[index].is_alive()
                state = "is hung (alive but unresponsive)" if alive else "died"
                raise WorkerError(
                    index,
                    f"worker {index} {state}: no reply within "
                    f"{timeout:g}s",
                    alive=alive,
                )
            status, payload = parent.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as error:
            raise WorkerError(
                index,
                f"worker {index} died mid-command "
                f"(exit code {self._processes[index].exitcode}): "
                f"{type(error).__name__}",
            ) from error
        if status != "ok":
            raise WorkerError(
                index, f"worker {index} failed: {payload}", alive=True
            )
        return payload

    def _send(self, index: int, message: tuple) -> None:
        try:
            self._send_raw(index, message)
        except WorkerError:
            # A dead worker desynchronizes nothing on send, but the pool
            # cannot complete this vector operation — fail loudly and
            # release every other worker.
            self.close()
            raise

    def _recv(self, index: int):
        try:
            return self._recv_raw(index)
        except WorkerError:
            # Other workers may still have queued replies; a later recv
            # would read them against the wrong command.  The pool's
            # pipe protocol is desynchronized — tear it down so the next
            # use fails loudly (and PPOTrainer starts a fresh pool).
            self.close()
            raise

    # -- VecMlirRlEnv interface -------------------------------------------------

    def reset(
        self, funcs: Sequence[FuncOp | None] | None = None
    ) -> VecObservation:
        """Start new episodes; slots beyond ``len(funcs)`` stay idle."""
        if funcs is None:
            funcs = [None] * self.num_envs
        if len(funcs) > self.num_envs:
            raise ValueError(
                f"{len(funcs)} functions for {self.num_envs} environments"
            )
        for index, func in enumerate(funcs):
            self._send(index, ("reset", func))
        self._observations = [None] * self.num_envs
        for index in range(len(funcs)):
            self._observations[index] = _unpack_observation(self._recv(index))
        return self._stack()

    def step(self, actions: Sequence[EnvAction | None]) -> VecStepResult:
        """Apply one action per environment (None for finished slots)."""
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
            self._send(index, ("step", action))
            stepped.append(index)
        for index in stepped:
            packed, reward, done, info = self._recv(index)
            self._observations[index] = _unpack_observation(packed)
            rewards[index] = reward
            dones[index] = done
            infos[index] = info
        return VecStepResult(self._stack(), rewards, dones, infos)

    def final_speedup(self, index: int) -> float:
        self._send(index, ("final_speedup",))
        return float(self._recv(index))

    # -- cache sync / lifecycle -------------------------------------------------

    def set_machine(self, spec: MachineSpec | str) -> None:
        """Retarget every worker (and the parent-side executor) to a
        machine (spec or registry name — resolved here, so workers
        receive the value and never re-consult their own registry).

        Workers keep their warm timing caches — entries are spec-keyed,
        so nothing ever replays across machines.  Call between
        episodes, like :meth:`MlirRlEnv.set_machine`.
        """
        from ..machine.registry import spec as resolve_machine

        spec = resolve_machine(spec)
        for index in range(self.num_envs):
            self._send(index, ("set_machine", spec))
        for index in range(self.num_envs):
            self._recv(index)
        self._machine = spec  # respawned workers start on the new machine
        self.executor = retargeted_executor(self.executor, spec)

    def sync_timing_caches(self) -> int:
        """Exchange new timing-cache entries between all workers.

        Pulls each worker's (and the parent executor's) entries added
        since the last sync, merges them, and pushes the union back, so
        a baseline or schedule timed once in any process is a hit
        everywhere.  Returns the number of distinct entries exchanged.
        """
        updates: list = []
        cache = getattr(self.executor, "cache", None)
        if cache is not None:
            updates.extend(cache.drain_updates())
        for index in range(self.num_envs):
            self._send(index, ("cache_drain",))
        for index in range(self.num_envs):
            updates.extend(self._recv(index))
        if not updates:
            return 0
        merged: dict = {}
        for level, key, value in updates:
            merged.setdefault((level, key), (level, key, value))
        deduped = list(merged.values())
        for index in range(self.num_envs):
            self._send(index, ("cache_absorb", deduped))
        for index in range(self.num_envs):
            self._recv(index)
        if cache is not None:
            cache.absorb_updates(deduped)
        return len(deduped)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Never blocks on a dead or hung worker: acknowledgements are
        polled with a timeout rather than awaited, and a process that
        does not join is terminated, then killed.
        """
        if self._closed:
            return
        self._closed = True
        for parent in self._parents:
            try:
                parent.send(("close",))
            except (BrokenPipeError, ConnectionResetError, OSError):
                pass
        for parent in self._parents:
            try:
                if parent.poll(1.0):
                    parent.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
                pass
            parent.close()
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1)
            if process.is_alive():  # pragma: no cover - defensive
                process.kill()

    def __enter__(self) -> "AsyncVecMlirRlEnv":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
