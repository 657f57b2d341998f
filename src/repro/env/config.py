"""Environment configuration.

Paper defaults (§VII-A5): up to 12 loop levels, 8 candidate tile sizes
(including 0 = no tiling), at most 14 accessed arrays per nest, access
rank up to 12, and schedule length 5.  Tests and training-curve
benchmarks use smaller configs for wall-clock sanity; the constructor
only fixes vector sizes, never semantics.

The action space itself is configuration: ``transforms`` names the
active :mod:`repro.transforms.registry` specs in head order.  The
default is the paper's six transformations, so observation sizes, masks
and checkpoints are unchanged unless a config opts into extra plugins
(e.g. ``extended_config("unrolling")``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum


class InterchangeMode(Enum):
    """The two interchange action-space formulations of §IV-A1."""

    ENUMERATED = "enumerated"
    LEVEL_POINTERS = "level_pointers"


class RewardMode(Enum):
    """Final (terminal-only) vs immediate per-step rewards (§IV-C)."""

    FINAL = "final"
    IMMEDIATE = "immediate"


#: The paper's six transformations in head order — the default action
#: space.  Names refer to :mod:`repro.transforms.registry` specs.
PAPER_TRANSFORMS: tuple[str, ...] = (
    "tiling",
    "tiled_parallelization",
    "tiled_fusion",
    "interchange",
    "vectorization",
    "no_transformation",
)


@dataclass(frozen=True)
class EnvConfig:
    """Static sizes and modes of the RL environment."""

    max_loops: int = 12                 # N
    tile_sizes: tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64)  # M candidates
    max_arrays: int = 14                # L
    max_rank: int = 12                  # D
    max_schedule_length: int = 5        # tau
    interchange_mode: InterchangeMode = InterchangeMode.LEVEL_POINTERS
    reward_mode: RewardMode = RewardMode.FINAL
    #: Hard per-episode step bound (0 disables).  Legal episodes are
    #: naturally bounded — at most tau transformations per op, each
    #: interchange costing up to N pointer sub-steps, so ~tau*N steps
    #: per op — but an agent that keeps emitting illegal actions (mild
    #: penalty, not done) would otherwise loop forever.  Crossing the
    #: bound ends the episode with ``info["truncated"] = True`` and the
    #: terminal reward for the schedule reached.  The default is a
    #: backstop sized far above any legal paper-scale episode
    #: (tau=5 x N=12 x ~60 ops).
    max_episode_steps: int = 4096
    #: Active transformations in transformation-head order.  Names
    #: resolve against the global transform registry when the view is
    #: built; position is the head index the policy/masks/actions use.
    transforms: tuple[str, ...] = PAPER_TRANSFORMS
    #: Unroll-factor candidates of the ``unrolling`` plugin (ignored
    #: unless ``"unrolling"`` appears in ``transforms``).
    unroll_factors: tuple[int, ...] = (2, 4, 8)
    #: Execution target: a :mod:`repro.machine.registry` name.  The
    #: environment times rewards on this machine's spec (resolved when
    #: the env builds its default executor).  The default is the
    #: paper's Xeon, so unconfigured behavior is unchanged.
    machine: str = "xeon-e5-2680-v4"
    #: Append the target's normalized hardware descriptor
    #: (:meth:`~repro.machine.spec.MachineSpec.features`) to every
    #: observation vector, so one policy can condition on the machine
    #: it is scheduling for.  Off by default: the observation layout —
    #: and therefore checkpoints — stays bit-identical to the paper's.
    machine_features: bool = False

    @property
    def num_tile_sizes(self) -> int:
        return len(self.tile_sizes)

    @property
    def num_transformations(self) -> int:
        return len(self.transforms)

    def __post_init__(self) -> None:
        if self.tile_sizes[0] != 0:
            raise ValueError("tile size candidates must start with 0 (no tile)")
        if self.max_schedule_length < 1:
            raise ValueError("schedule length must be positive")
        if self.max_loops < 2:
            raise ValueError("need at least two loop levels")
        if self.max_episode_steps < 0:
            raise ValueError("max_episode_steps must be >= 0 (0 disables)")
        if not self.transforms:
            raise ValueError("need at least one active transformation")
        if len(set(self.transforms)) != len(self.transforms):
            raise ValueError(f"duplicate transforms in {self.transforms}")
        if any(factor < 2 for factor in self.unroll_factors):
            raise ValueError("unroll factors must be >= 2")
        if not self.machine:
            raise ValueError("machine name must be non-empty")

    def machine_spec(self):
        """The resolved :class:`~repro.machine.spec.MachineSpec` of
        :attr:`machine` (imported lazily to keep this module
        dependency-free)."""
        from ..machine.registry import spec

        return spec(self.machine)

    def with_transforms(self, *extra: str) -> "EnvConfig":
        """This config with ``extra`` transforms appended to the head."""
        added = tuple(t for t in extra if t not in self.transforms)
        return replace(self, transforms=(*self.transforms, *added))


def small_config(**overrides) -> EnvConfig:
    """A compact config for tests and short training runs."""
    defaults = dict(
        max_loops=6,
        tile_sizes=(0, 1, 4, 8, 16, 32),
        max_arrays=4,
        max_rank=4,
        max_schedule_length=5,
    )
    defaults.update(overrides)
    return EnvConfig(**defaults)


def extended_config(*extra: str, **overrides) -> EnvConfig:
    """A :func:`small_config` with extra registered transforms active."""
    return small_config(**overrides).with_transforms(*extra)


#: The configuration used throughout the paper's experiments.
PAPER_CONFIG = EnvConfig()
