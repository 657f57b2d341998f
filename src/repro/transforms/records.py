"""Transformation records — the schedule language of the action space.

One record per paper transformation (§IV-A): Tiling, Tiled
Parallelization, Tiled Fusion, Interchange, Vectorization, and
No-Transformation.  Records are pure data; application logic lives in
the sibling transform modules, and each record type is owned by a
registered :class:`~repro.transforms.registry.TransformSpec` that maps
agent outputs onto it and applies it.  The action space is therefore
open-ended — plugins add record types (e.g.
:class:`~repro.transforms.unrolling.Unroll`) without touching this
module; :class:`TransformKind` remains as the stable ids of the paper's
six default head positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence


class TransformKind(IntEnum):
    """The six transformation options, in the paper's head order."""

    TILING = 0
    TILED_PARALLELIZATION = 1
    TILED_FUSION = 2
    INTERCHANGE = 3
    VECTORIZATION = 4
    NO_TRANSFORMATION = 5

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Tiling:
    """T(t1..tN): tile loop position ``i`` by ``sizes[i]``; 0 = untiled."""

    sizes: tuple[int, ...]

    kind = TransformKind.TILING

    def __str__(self) -> str:
        return f"T({', '.join(str(s) for s in self.sizes)})"


@dataclass(frozen=True)
class TiledParallelization:
    """Tiling followed by parallelization of the generated tile band.

    Tile size 1 on every level parallelizes without blocking (paper
    §IV-A).
    """

    sizes: tuple[int, ...]

    kind = TransformKind.TILED_PARALLELIZATION

    def __str__(self) -> str:
        return f"P({', '.join(str(s) for s in self.sizes)})"


@dataclass(frozen=True)
class TiledFusion:
    """Tiling of the consumer followed by fusing its last producer."""

    sizes: tuple[int, ...]

    kind = TransformKind.TILED_FUSION

    def __str__(self) -> str:
        return f"F({', '.join(str(s) for s in self.sizes)})"


@dataclass(frozen=True)
class Interchange:
    """I(a1..aN): the loop at old position ``permutation[i]`` moves to
    position ``i`` (so ``I(2,0,1)`` makes the innermost loop outermost)."""

    permutation: tuple[int, ...]

    kind = TransformKind.INTERCHANGE

    def __str__(self) -> str:
        return f"I({', '.join(str(p) for p in self.permutation)})"


@dataclass(frozen=True)
class Vectorization:
    """Vectorize the innermost loop.  Terminal for the current op."""

    kind = TransformKind.VECTORIZATION

    def __str__(self) -> str:
        return "V"


@dataclass(frozen=True)
class NoTransformation:
    """Stop optimizing the current op and move to the next one."""

    kind = TransformKind.NO_TRANSFORMATION

    def __str__(self) -> str:
        return "stop"


Transformation = (
    Tiling
    | TiledParallelization
    | TiledFusion
    | Interchange
    | Vectorization
    | NoTransformation
)


def is_permutation(values: Sequence[int]) -> bool:
    return sorted(values) == list(range(len(values)))
