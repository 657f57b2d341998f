"""Trajectory collection.

A trajectory is the full transformation sequence for every operation of
one code sample (paper §VII-A5).  The collector runs the current policy
over a batch of samples and records everything PPO needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..env.environment import MlirRlEnv
from ..env.vector import VecMlirRlEnv
from ..ir.ops import FuncOp
from .agent import ActorCritic, FlatActorCritic


@dataclass
class Trajectory:
    """One episode: per-step records plus rewards and the final speedup."""

    steps: list = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    speedup: float = 1.0
    executions: int = 0

    def __len__(self) -> int:
        return len(self.steps)


def _step_limit(config, max_steps: int | None) -> int:
    """The collector's loop bound.

    Defaults to the environment's own truncation cap so the env — not
    the collector — ends runaway episodes (delivering the terminal
    reward); the flat 200 only backstops configs that disabled
    truncation.
    """
    if max_steps is not None:
        return max_steps
    if config.max_episode_steps > 0:
        return config.max_episode_steps
    return 200


def collect_episode(
    env: MlirRlEnv,
    agent: ActorCritic | FlatActorCritic,
    func: FuncOp,
    rng: np.random.Generator,
    max_steps: int | None = None,
    greedy: bool = False,
) -> Trajectory:
    """Run one episode with either agent."""
    trajectory = Trajectory()
    observation = env.reset(func)
    for _ in range(_step_limit(env.config, max_steps)):
        action, step = agent.act(observation, rng, greedy=greedy)
        result = env.step(action)
        trajectory.steps.append(step)
        trajectory.rewards.append(result.reward)
        trajectory.executions = result.info.get(
            "executions", trajectory.executions
        )
        if result.done:
            trajectory.speedup = result.info.get("speedup", 1.0)
            break
        observation = result.observation
    else:
        trajectory.speedup = env.final_speedup()
    return trajectory


def collect_episodes_batched(
    vec_env: VecMlirRlEnv,
    agent: ActorCritic | FlatActorCritic,
    funcs: Sequence[FuncOp],
    rngs: Sequence[np.random.Generator],
    max_steps: int | None = None,
    greedy: bool = False,
) -> list[Trajectory]:
    """Run one episode per vec-env slot with batched policy forwards.

    Each vector step runs ONE network forward over every still-active
    episode (``agent.act_batch``) instead of one per environment.  With
    per-env generators the sampled trajectories match N sequential
    :func:`collect_episode` calls on identically-seeded generators.

    ``funcs`` may be shorter than the vector width: surplus slots sit
    the batch out, so a persistent vector env can collect a tail batch
    smaller than itself.
    """
    episodes = len(funcs)
    if episodes > vec_env.num_envs or len(rngs) != episodes:
        raise ValueError("need one function and one rng per environment")
    trajectories = [Trajectory() for _ in funcs]
    vec_obs = vec_env.reset(list(funcs))
    for _ in range(_step_limit(vec_env.config, max_steps)):
        indices = [i for i in range(episodes) if vec_obs.active[i]]
        if not indices:
            break
        observations = [vec_obs.observation_of(i) for i in indices]
        sampled = agent.act_batch(
            observations, [rngs[i] for i in indices], greedy=greedy
        )
        actions: list = [None] * vec_env.num_envs
        for index, (action, step) in zip(indices, sampled):
            actions[index] = action
            trajectories[index].steps.append(step)
        result = vec_env.step(actions)
        for index in indices:
            trajectory = trajectories[index]
            trajectory.rewards.append(float(result.rewards[index]))
            trajectory.executions = result.infos[index].get(
                "executions", trajectory.executions
            )
            if result.dones[index]:
                trajectory.speedup = result.infos[index].get("speedup", 1.0)
        vec_obs = result.observation
    for index in range(episodes):
        if vec_obs.active[index]:
            trajectories[index].speedup = vec_env.final_speedup(index)
    return trajectories
