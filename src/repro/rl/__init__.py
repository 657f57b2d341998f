"""Actor-critic networks and PPO training for MLIR RL."""

from .agent import ActorCritic, FlatActorCritic, FlatSampledStep, SampledStep
from .backends import (
    BACKENDS,
    ActionSpaceBackend,
    FlatBackend,
    HierarchicalBackend,
    get_backend,
)
from .checkpoint import (
    load_agent,
    load_training_state,
    save_agent,
    save_training_state,
)
from .gae import compute_gae, normalize_advantages
from .policy import FlatPolicyNetwork, PolicyNetwork, ValueNetwork
from .ppo import IterationStats, PPOConfig, PPOTrainer, TrainingHistory
from .rollout import Trajectory, collect_episode, collect_episodes_batched

__all__ = [
    "ActionSpaceBackend",
    "BACKENDS",
    "FlatBackend",
    "HierarchicalBackend",
    "get_backend",
    "ActorCritic",
    "FlatActorCritic",
    "FlatPolicyNetwork",
    "FlatSampledStep",
    "IterationStats",
    "PPOConfig",
    "PPOTrainer",
    "PolicyNetwork",
    "SampledStep",
    "Trajectory",
    "TrainingHistory",
    "ValueNetwork",
    "collect_episode",
    "collect_episodes_batched",
    "compute_gae",
    "load_agent",
    "load_training_state",
    "normalize_advantages",
    "save_agent",
    "save_training_state",
]
