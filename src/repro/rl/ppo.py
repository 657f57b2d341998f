"""Proximal Policy Optimization (paper §VII-A5).

Hyper-parameters follow the paper: learning rate 1e-3, clip range 0.2,
gamma 1.0, GAE lambda 0.95, value-loss coefficient 0.5, entropy
coefficient 0.01, minibatch size 32, and 4 update epochs per collected
batch of trajectories.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..env.environment import MlirRlEnv
from ..env.vector import VecMlirRlEnv
from ..ir.ops import FuncOp
from ..nn.optim import Adam, clip_grad_norm
from ..nn.tensor import Tensor, where
from .agent import ActorCritic, FlatActorCritic
from .gae import compute_gae, normalize_advantages
from .rollout import Trajectory, collect_episode, collect_episodes_batched


@dataclass(frozen=True)
class PPOConfig:
    """PPO hyper-parameters (paper defaults)."""

    learning_rate: float = 1e-3
    clip_range: float = 0.2
    gamma: float = 1.0
    gae_lambda: float = 0.95
    value_coefficient: float = 0.5
    entropy_coefficient: float = 0.01
    update_epochs: int = 4
    minibatch_size: int = 32
    samples_per_iteration: int = 64
    max_grad_norm: float = 0.5
    #: Episodes collected concurrently through a VecMlirRlEnv (one policy
    #: forward per vector step instead of one per env); 1 = sequential.
    num_envs: int = 1
    #: Rollout worker processes.  1 keeps collection in-process (the
    #: seed-exact path); N > 1 steps episodes through the persistent
    #: vector env of ``max(num_envs, num_workers)`` slots with
    #: ``processes=True``: a worker pool with cross-worker timing-cache
    #: sync, which respawns dead or hung workers and replays their
    #: episodes.  Like ``num_envs`` > 1, the parallel collector draws
    #: per-episode generators up front, so RNG consumption differs from
    #: sequential collection — but is identical between the worker
    #: pool and an equally sized in-process vector env.
    num_workers: int = 1

    def __post_init__(self) -> None:
        if self.num_envs < 1:
            raise ValueError(
                f"PPOConfig.num_envs must be >= 1, got {self.num_envs}; "
                "use 1 for sequential collection or N > 1 for batched "
                "vec-env rollouts"
            )
        if self.num_workers < 1:
            raise ValueError(
                f"PPOConfig.num_workers must be >= 1, got "
                f"{self.num_workers}; use 1 for in-process collection or "
                "N > 1 for a multiprocessing rollout pool"
            )
        if self.samples_per_iteration < 1:
            raise ValueError(
                "PPOConfig.samples_per_iteration must be >= 1, got "
                f"{self.samples_per_iteration}"
            )
        if self.minibatch_size < 2:
            raise ValueError(
                f"PPOConfig.minibatch_size must be >= 2, got "
                f"{self.minibatch_size} (singleton minibatches are "
                "skipped by the update loop)"
            )


@dataclass
class IterationStats:
    """Per-iteration training telemetry.

    ``wall_seconds`` covers the whole iteration; ``collect_seconds`` and
    ``update_seconds`` split it into rollout collection and the PPO
    update (0.0 in histories saved before the split was recorded).
    """

    iteration: int
    mean_reward: float
    geomean_speedup: float
    policy_loss: float
    value_loss: float
    entropy: float
    executions: int
    wall_seconds: float
    collect_seconds: float = 0.0
    update_seconds: float = 0.0


@dataclass
class TrainingHistory:
    iterations: list[IterationStats] = field(default_factory=list)

    def speedups(self) -> list[float]:
        return [s.geomean_speedup for s in self.iterations]

    def wall_clock(self) -> list[float]:
        total, out = 0.0, []
        for stats in self.iterations:
            total += stats.wall_seconds
            out.append(total)
        return out


def _geomean(values: Sequence[float]) -> float:
    clipped = [max(v, 1e-12) for v in values]
    return math.exp(sum(math.log(v) for v in clipped) / max(len(clipped), 1))


class PPOTrainer:
    """Trains either agent (multi-discrete or flat) on an environment."""

    def __init__(
        self,
        env: MlirRlEnv,
        agent: ActorCritic | FlatActorCritic,
        sampler: Callable[[np.random.Generator], FuncOp],
        config: PPOConfig = PPOConfig(),
        seed: int = 0,
        machines: "Sequence | None" = None,
    ):
        self.env = env
        self.agent = agent
        self.sampler = sampler
        self.config = config
        self.rng = np.random.default_rng(seed)
        #: Mixed-hardware training: machine specs visited round-robin,
        #: one per iteration (iteration ``i`` collects on
        #: ``machines[i % len]``, so a resumed run lands on the same
        #: spec its uninterrupted twin would).  None — the default —
        #: trains on the env's machine only, exactly as before.
        self.machines = tuple(machines) if machines else None
        parameters = list(agent.policy.parameters()) + list(
            agent.value.parameters()
        )
        self.optimizer = Adam(parameters, lr=config.learning_rate)
        self.history = TrainingHistory()
        #: Global iteration counter; persists across :meth:`train` calls
        #: (and checkpoint resume) so resumed runs continue numbering
        #: where they stopped.
        self.iteration = 0
        self._vec_env: VecMlirRlEnv | None = None

    # -- collection ------------------------------------------------------------

    def collect(self) -> list[Trajectory]:
        """The iteration's episodes: sequential on the training env when
        ``num_envs == num_workers == 1``, else batched through
        :meth:`_vector_env`.

        A batch runs one policy forward per vector step.  Its draws (the
        functions, then one generator per episode) come from the
        trainer's generator up front, so a pool and an equally wide
        in-process vector env collect identical episodes.  Timing caches
        are synced after every batch: a baseline computed by one worker
        is a hit for every other worker from then on.
        """
        if self.config.num_envs == 1 and self.config.num_workers == 1:
            trajectories = []
            for _ in range(self.config.samples_per_iteration):
                func = self.sampler(self.rng)
                trajectories.append(
                    collect_episode(self.env, self.agent, func, self.rng)
                )
            return trajectories
        vec_env = self._vector_env()
        trajectories = []
        remaining = self.config.samples_per_iteration
        while remaining > 0:
            batch = min(vec_env.num_envs, remaining)
            funcs = [self.sampler(self.rng) for _ in range(batch)]
            rngs = [
                np.random.default_rng(int(self.rng.integers(0, 2**63)))
                for _ in range(batch)
            ]
            trajectories.extend(
                collect_episodes_batched(vec_env, self.agent, funcs, rngs)
            )
            vec_env.sync_timing_caches()
            remaining -= batch
        return trajectories

    def _vector_env(self) -> VecMlirRlEnv:
        """The persistent vector env of batched collection, built on
        first use on the training env's executor: one slot per episode
        of a batch, ``max(num_envs, num_workers)``, served by worker
        processes when ``num_workers > 1``.

        A pool closed by a worker's error is replaced on the next
        collection instead of reused with a desynchronized protocol.
        """
        if self._vec_env is not None and self._vec_env.closed:
            self._vec_env = None
        if self._vec_env is None:
            self._vec_env = VecMlirRlEnv(
                max(self.config.num_envs, self.config.num_workers),
                config=self.env.config,
                executor=self.env.executor,
                processes=self.config.num_workers > 1,
            )
        return self._vec_env

    def _apply_machine(self, spec) -> None:
        """Point the training env (and any live vector env) at ``spec``.

        Timing caches survive the switch — entries are spec-keyed — so
        revisiting a machine later in the round-robin stays warm.
        """
        self.env.set_machine(spec)
        if self._vec_env is not None and not self._vec_env.closed:
            self._vec_env.set_machine(spec)

    def close(self) -> None:
        """Shut down the vector env, if batched collection built one."""
        if self._vec_env is not None:
            self._vec_env.close()
            self._vec_env = None

    # -- update ---------------------------------------------------------------

    def _flatten(self, trajectories: list[Trajectory]):
        steps, advantages, returns = [], [], []
        for trajectory in trajectories:
            values = [s.value for s in trajectory.steps]
            adv, ret = compute_gae(
                trajectory.rewards,
                values,
                self.config.gamma,
                self.config.gae_lambda,
            )
            steps.extend(trajectory.steps)
            advantages.extend(adv)
            returns.extend(ret)
        return steps, np.asarray(advantages), np.asarray(returns)

    def _minibatches(self, indices: np.ndarray) -> list[np.ndarray]:
        """Split shuffled indices into minibatches, consuming every one.

        A trailing singleton is folded into the previous minibatch
        instead of dropped — skipping it (the old behavior) permanently
        discarded one transition per epoch whenever
        ``len(steps) % minibatch_size == 1``.  Only a full batch of one
        (a single transition total) is skipped: a singleton cannot be
        batch-evaluated.
        """
        size = self.config.minibatch_size
        batches = [
            indices[start : start + size]
            for start in range(0, len(indices), size)
        ]
        if batches and len(batches[-1]) < 2:
            tail = batches.pop()
            if batches:
                batches[-1] = np.concatenate([batches[-1], tail])
        return batches

    def update(self, trajectories: list[Trajectory]) -> tuple[float, float, float]:
        steps, advantages, returns = self._flatten(trajectories)
        advantages = normalize_advantages(advantages)
        old_log_probs = np.array([s.log_prob for s in steps])
        indices = np.arange(len(steps))
        policy_losses, value_losses, entropies = [], [], []
        for _ in range(self.config.update_epochs):
            self.rng.shuffle(indices)
            for batch in self._minibatches(indices):
                mb_steps = [steps[i] for i in batch]
                log_probs, entropy, values = self.agent.evaluate(mb_steps)
                ratio = (log_probs - Tensor(old_log_probs[batch])).exp()
                mb_advantage = Tensor(advantages[batch])
                unclipped = ratio * mb_advantage
                clipped = (
                    ratio.clip_value(
                        1.0 - self.config.clip_range,
                        1.0 + self.config.clip_range,
                    )
                    * mb_advantage
                )
                smaller = where(
                    unclipped.data <= clipped.data, unclipped, clipped
                )
                policy_loss = -smaller.mean()
                value_loss = ((values - Tensor(returns[batch])) ** 2).mean()
                entropy_bonus = entropy.mean()
                loss = (
                    policy_loss
                    + self.config.value_coefficient * value_loss
                    - self.config.entropy_coefficient * entropy_bonus
                )
                self.optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(
                    self.optimizer.parameters, self.config.max_grad_norm
                )
                self.optimizer.step()
                policy_losses.append(policy_loss.item())
                value_losses.append(value_loss.item())
                entropies.append(entropy_bonus.item())
        return (
            float(np.mean(policy_losses)) if policy_losses else 0.0,
            float(np.mean(value_losses)) if value_losses else 0.0,
            float(np.mean(entropies)) if entropies else 0.0,
        )

    # -- loop ------------------------------------------------------------------

    def train(
        self, iterations: int, state_path: str | None = None
    ) -> TrainingHistory:
        """Run ``iterations`` *further* training iterations.

        Numbering continues from :attr:`iteration`, so training resumed
        from a saved state (see :mod:`.checkpoint`) produces the same
        ``TrainingHistory`` an uninterrupted run would.

        With ``state_path``, the full training state is written there
        after *every* iteration — each save lands on a consistent
        iteration boundary, so a run killed mid-training loses at most
        the in-flight iteration and resumes bit-identically from the
        last completed one.
        """
        from .checkpoint import save_training_state  # avoid module cycle

        for _ in range(iterations):
            if self.machines:
                self._apply_machine(
                    self.machines[self.iteration % len(self.machines)]
                )
            start = time.perf_counter()
            trajectories = self.collect()
            collected = time.perf_counter()
            policy_loss, value_loss, entropy = self.update(trajectories)
            end = time.perf_counter()
            rewards = [sum(t.rewards) for t in trajectories]
            stats = IterationStats(
                iteration=self.iteration,
                mean_reward=float(np.mean(rewards)),
                geomean_speedup=_geomean([t.speedup for t in trajectories]),
                policy_loss=policy_loss,
                value_loss=value_loss,
                entropy=entropy,
                executions=sum(t.executions for t in trajectories),
                wall_seconds=end - start,
                collect_seconds=collected - start,
                update_seconds=end - collected,
            )
            self.history.iterations.append(stats)
            self.iteration += 1
            if state_path is not None:
                save_training_state(self, state_path)
        return self.history
