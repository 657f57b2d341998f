"""The MLIR RL environment: spaces, features, masks, rewards, episodes."""

from .actions import (
    EnvAction,
    FlatAction,
    decode_action,
    flat_action_table,
    flat_space,
    interchange_head_size,
    multi_discrete_space,
    tile_sizes_from_indices,
)
from .config import (
    PAPER_CONFIG,
    PAPER_TRANSFORMS,
    EnvConfig,
    InterchangeMode,
    RewardMode,
    extended_config,
    small_config,
)
from .environment import MlirRlEnv, Observation, StepResult
from .features import (
    OP_TYPE_ORDER,
    feature_size,
    indexing_map_features,
    loop_range_features,
    op_features,
    op_type_features,
    operation_count_features,
    zero_features,
)
from .history import ActionHistory
from .masking import ActionMask, MaskCache, compute_mask, mask_cache_key
from .reward import RewardModel, RewardState
from .spaces import Box, Discrete, MultiDiscrete, Space
from .vector import VecMlirRlEnv, VecObservation, VecStepResult

__all__ = [
    "ActionHistory",
    "MaskCache",
    "mask_cache_key",
    "ActionMask",
    "Box",
    "Discrete",
    "EnvAction",
    "EnvConfig",
    "FlatAction",
    "InterchangeMode",
    "MlirRlEnv",
    "MultiDiscrete",
    "Observation",
    "OP_TYPE_ORDER",
    "PAPER_CONFIG",
    "PAPER_TRANSFORMS",
    "RewardMode",
    "RewardModel",
    "RewardState",
    "Space",
    "StepResult",
    "VecMlirRlEnv",
    "VecObservation",
    "VecStepResult",
    "compute_mask",
    "decode_action",
    "extended_config",
    "feature_size",
    "flat_action_table",
    "flat_space",
    "indexing_map_features",
    "interchange_head_size",
    "loop_range_features",
    "multi_discrete_space",
    "op_features",
    "op_type_features",
    "operation_count_features",
    "small_config",
    "tile_sizes_from_indices",
    "zero_features",
]
