"""Action-space backends: one interface over the two §IV-A formulations.

An :class:`ActionSpaceBackend` bundles everything that depends on *how*
the registry's transforms are exposed to the agent:

* the gym-style action space (``MultiDiscrete`` vs ``Discrete``),
* the agent class (:class:`~repro.rl.agent.ActorCritic` vs
  :class:`~repro.rl.agent.FlatActorCritic`).

Both agents act through the same ``act``/``act_batch`` protocol, so one
episode collector and one :class:`~repro.rl.ppo.PPOTrainer` serve both.

Both backends are registry-derived — they enumerate the same
:func:`~repro.transforms.registry.view_for` view, so they reach the same
:class:`~repro.transforms.records.Transformation` records (the parity
property tested in ``tests/test_registry.py``):

* ``hierarchical`` — the paper's multi-discrete formulation: a
  transformation head plus per-transform parameter heads;
* ``flat`` — the §VII-D2 ablation: one softmax over the enumerated
  (transformation, parameters) table.

Pick one with :func:`get_backend` (the CLI's ``--action-space`` flag).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from ..env.actions import flat_space, multi_discrete_space
from ..env.config import EnvConfig
from ..env.environment import MlirRlEnv
from ..env.spaces import Space
from ..ir.ops import FuncOp
from ..transforms.registry import view_for
from .agent import ActorCritic, FlatActorCritic
from .ppo import PPOConfig, PPOTrainer


class ActionSpaceBackend(ABC):
    """One way of exposing the registry's transforms to an agent."""

    name: str = ""

    def __init__(self, config: EnvConfig):
        self.config = config
        self.view = view_for(config)

    @abstractmethod
    def action_space(self) -> Space:
        """The gym-style action space of this backend."""

    @abstractmethod
    def build_agent(
        self, rng: np.random.Generator, hidden_size: int = 512
    ):
        """A fresh agent sized for this backend's action space."""

    def trainer(
        self,
        env: MlirRlEnv,
        agent,
        sampler: Callable[[np.random.Generator], FuncOp],
        ppo_config: PPOConfig = PPOConfig(),
        seed: int = 0,
        machines=None,
    ) -> PPOTrainer:
        """A PPO trainer for this backend's agent.

        ``machines`` (a sequence of machine specs) opts into
        round-robin mixed-hardware training — see
        :class:`~repro.rl.ppo.PPOTrainer`.
        """
        return PPOTrainer(env, agent, sampler, ppo_config, seed, machines)


class HierarchicalBackend(ActionSpaceBackend):
    """The paper's multi-discrete action space (§IV-A1)."""

    name = "hierarchical"

    def action_space(self) -> Space:
        return multi_discrete_space(self.config)

    def build_agent(self, rng, hidden_size: int = 512) -> ActorCritic:
        return ActorCritic(self.config, rng, hidden_size)


class FlatBackend(ActionSpaceBackend):
    """The flat enumerated action space (ablation §VII-D2)."""

    name = "flat"

    def action_space(self) -> Space:
        return flat_space(self.config)

    def build_agent(self, rng, hidden_size: int = 512) -> FlatActorCritic:
        return FlatActorCritic(self.config, rng, hidden_size)


BACKENDS: dict[str, type[ActionSpaceBackend]] = {
    HierarchicalBackend.name: HierarchicalBackend,
    FlatBackend.name: FlatBackend,
}


def get_backend(name: str, config: EnvConfig) -> ActionSpaceBackend:
    """The named backend bound to ``config``."""
    backend = BACKENDS.get(name)
    if backend is None:
        raise ValueError(
            f"unknown action-space backend {name!r}; "
            f"available: {sorted(BACKENDS)}"
        )
    return backend(config)
