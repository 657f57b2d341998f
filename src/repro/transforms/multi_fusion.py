"""Multi-producer tiled fusion — the paper's named future extension.

§V-A1 motivates the LSTM producer-consumer embedding with "future
extensions towards multi-producer fusion"; §III's single-producer rule
("we select the last producer") is the restriction this module lifts:
one tiling of the consumer, then *every* fusable producer is cloned
into the generated tile band (MLIR's ``fuse_into_containing_op`` applied
per producer).

The RL action space keeps the paper's single-producer action; this
extension is exposed to search agents and library users, and the
LSTM encoder already accepts arbitrarily many producer vectors
(:class:`repro.nn.layers.LSTMEncoder` takes a step list).
"""

from __future__ import annotations

from dataclasses import dataclass

from .records import TransformKind


@dataclass(frozen=True)
class MultiTiledFusion:
    """Tile the consumer, then fuse all its fusable producers."""

    sizes: tuple[int, ...]

    kind = TransformKind.TILED_FUSION

    def __str__(self) -> str:
        return f"MF({', '.join(str(s) for s in self.sizes)})"
