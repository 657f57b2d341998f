"""Training dataset registry.

The §VI training mixture (1135 singles + sequences + 691 LQCD nests ≈
3959 samples at full scale), plus the randomly *generated* corpora from
:mod:`.generator` (``kind="generated"`` / ``"mixed"``).  The evaluation
suites live with their builders: Fig. 5 operators in :mod:`.dnn_ops`,
Table III models in :mod:`.models`, Table IV applications in
:mod:`.lqcd`.

Samplers returned here are plain picklable objects (no closures), and
fixed-list samplers hand out :func:`~repro.ir.ops.clone_func` copies —
episodes never share live op objects, so per-op caches (feature memos,
schedule state) cannot leak across episodes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..ir.ops import FuncOp, clone_func
from . import dnn_ops, lqcd, sequences
from .generator import (
    DEFAULT_CURRICULUM,
    FULL_STAGE,
    CurriculumSampler,
    GeneratedSampler,
    Stage,
)

#: Paper §VI: total dataset composition at full scale.
FULL_DATASET_SIZES = {
    "dnn-singles": 1135,
    "dnn-sequences": 2133,   # 3959 total - 1135 singles - 691 LQCD
    "lqcd-nests": 691,
}


def training_dataset(
    scale: float = 1.0, seed: int = 0
) -> list[FuncOp]:
    """The §VI training set, optionally scaled down."""
    rng = np.random.default_rng(seed)
    suite = dnn_ops.training_suite(rng, scale=scale)
    suite += sequences.sequence_suite(
        max(1, round(FULL_DATASET_SIZES["dnn-sequences"] * scale)), rng
    )
    suite += lqcd.training_nests(
        max(1, round(FULL_DATASET_SIZES["lqcd-nests"] * scale)), rng
    )
    return suite


class FixedDatasetSampler:
    """Uniform sampling over a fixed function list, with isolation.

    Each draw returns a *defensive copy* of the stored function:
    the incremental observation path memoizes per-op feature blocks on
    the op objects themselves, so handing the same ``FuncOp`` to
    concurrent episodes would share mutable state across them.  Cloning
    per draw makes every episode's IR private.
    Picklable: holds only the dataset list and no closures.
    """

    def __init__(self, dataset: list[FuncOp]):
        if not dataset:
            raise ValueError("cannot sample from an empty dataset")
        self.dataset = dataset

    def __len__(self) -> int:
        return len(self.dataset)

    def __call__(self, rng: np.random.Generator) -> FuncOp:
        return clone_func(self.dataset[int(rng.integers(len(self.dataset)))])


class MixedSampler:
    """The §VI fixed mixture blended with freshly generated programs.

    With probability ``generated_fraction`` a draw comes from the
    (curriculum) generator, otherwise from the fixed training set.  One
    uniform draw decides the branch, so the sampler consumes trainer
    RNG deterministically regardless of the mix.
    """

    def __init__(
        self,
        fixed: FixedDatasetSampler,
        generated: Callable[[np.random.Generator], FuncOp],
        generated_fraction: float = 0.5,
    ):
        if not 0.0 <= generated_fraction <= 1.0:
            raise ValueError(
                f"generated_fraction must be in [0, 1], got "
                f"{generated_fraction}"
            )
        self.fixed = fixed
        self.generated = generated
        self.generated_fraction = generated_fraction

    def __call__(self, rng: np.random.Generator) -> FuncOp:
        if rng.random() < self.generated_fraction:
            return self.generated(rng)
        return self.fixed(rng)

    def state_dict(self) -> dict:
        """Curriculum position of the generated branch, if it has one —
        forwarded so training-state checkpoints survive the mix.
        Stateless branches yield an empty dict, which
        ``save_training_state`` omits from the checkpoint."""
        inner = getattr(self.generated, "state_dict", None)
        return {"generated": inner()} if callable(inner) else {}

    def load_state_dict(self, state: dict) -> None:
        """Restore the generated branch's position.

        The checkpoint and the current sampler must agree on whether
        the generated branch is stateful: restoring a curriculum
        position into a stateless branch *or* resuming a stateless
        checkpoint with a curriculum both silently change the corpus,
        so each direction fails loudly instead.
        """
        inner_state = state.get("generated")
        load = getattr(self.generated, "load_state_dict", None)
        if inner_state is None:
            if callable(load):
                raise ValueError(
                    "checkpoint was saved with a stateless generated "
                    "branch, but the mixed sampler now has a "
                    f"{type(self.generated).__name__} curriculum — "
                    "resume with the same --curriculum setting the run "
                    "was saved with"
                )
            return
        if not callable(load):
            raise ValueError(
                "checkpoint carries curriculum state for the mixed "
                "sampler's generated branch, but the current branch "
                f"({type(self.generated).__name__}) has none — resume "
                "with the same --curriculum setting the run was saved "
                "with"
            )
        load(inner_state)


def training_sampler(
    scale: float = 0.02,
    seed: int = 0,
    kind: str = "table2",
    curriculum: int = 0,
    stage: Stage = FULL_STAGE,
    generated_fraction: float = 0.5,
) -> Callable[[np.random.Generator], FuncOp]:
    """A training sampler for the PPO trainer.

    ``kind`` selects the corpus:

    * ``"table2"``    — the paper's fixed §VI mixture (scaled by
      ``scale``), defensively copied per draw;
    * ``"generated"`` — fresh random programs every draw; with
      ``curriculum`` > 0, a :class:`CurriculumSampler` advancing one
      stage every ``curriculum`` episodes, else single-``stage``;
    * ``"mixed"``     — a ``generated_fraction`` blend of both.

    All returned samplers are picklable callables taking the trainer's
    generator.
    """
    if kind == "table2":
        return FixedDatasetSampler(training_dataset(scale=scale, seed=seed))
    if kind not in ("generated", "mixed"):
        raise ValueError(
            f"unknown training-sampler kind {kind!r}; "
            "pick from 'table2', 'generated', 'mixed'"
        )
    generated: Callable[[np.random.Generator], FuncOp]
    if curriculum > 0:
        generated = CurriculumSampler(
            DEFAULT_CURRICULUM, episodes_per_stage=curriculum
        )
    else:
        generated = GeneratedSampler(stage)
    if kind == "generated":
        return generated
    return MixedSampler(
        FixedDatasetSampler(training_dataset(scale=scale, seed=seed)),
        generated,
        generated_fraction,
    )
