"""Actor-critic agent: sampling and differentiable re-evaluation.

The agent samples the transformation head first, then the parameter
head of the chosen transformation (paper §V-A): per-level rows for
tile-style heads, one categorical for choice heads (enumerated
interchange candidates, level pointers, plugin factors).  Which head a
transformation samples — and how the result becomes an
:class:`~repro.env.actions.EnvAction` — comes from the transform
registry, so the agent contains no per-transform code.  The per-step
log-probability is the sum over the heads actually sampled; PPO's
importance ratios recompute the same sum differentiably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..env.actions import EnvAction, flat_action_table
from ..env.config import EnvConfig
from ..env.environment import Observation
from ..env.masking import ActionMask
from ..nn.distributions import MaskedCategorical
from ..nn.tensor import Tensor
from ..transforms.registry import view_for
from .policy import FlatPolicyNetwork, PolicyNetwork, ValueNetwork


@dataclass
class SampledStep:
    """Everything PPO needs to replay one decision.

    ``head_name`` is the parameter head sampled for this step ("" when
    the chosen transformation has none); ``tile_indices`` holds the
    per-level samples of a row-style head, ``choice_index`` the sample
    of a choice-style head (-1 when unused), ``mask_param`` the
    sub-action mask the sample was drawn under.
    """

    consumer: np.ndarray
    producer: np.ndarray
    transformation: int
    tile_indices: np.ndarray | None
    choice_index: int
    head_name: str
    mask_transformation: np.ndarray
    mask_param: np.ndarray | None
    log_prob: float
    value: float


class _Agent:
    """The acting protocol both agents share.

    :meth:`act` and :meth:`act_batch` return ``(EnvAction, step)``
    pairs: one network forward over the batch, then each row sampled
    from its own generator by the agent's ``_sample_row``.
    """

    def _forward(self, producer: Tensor, consumer: Tensor):
        """(per-row policy outputs, values) of one batched forward."""
        raise NotImplementedError

    def _sample_row(self, row, value, observation, rng, greedy):
        raise NotImplementedError

    def act(
        self, observation: Observation, rng: np.random.Generator,
        greedy: bool = False,
    ) -> tuple[EnvAction, "SampledStep | FlatSampledStep"]:
        producer = Tensor(observation.producer[None, :])
        consumer = Tensor(observation.consumer[None, :])
        rows, values = self._forward(producer, consumer)
        return self._sample_row(
            rows[0], float(values[0]), observation, rng, greedy
        )

    def act_batch(
        self,
        observations: "Sequence[Observation]",
        rngs: "Sequence[np.random.Generator]",
        greedy: bool = False,
    ) -> list[tuple[EnvAction, "SampledStep | FlatSampledStep"]]:
        """Act on a batch of observations with ONE network forward pass.

        Each row samples from its own generator (``rngs[i]``), consuming
        it exactly as a single-observation :meth:`act` call would — so a
        vectorized rollout with per-env generators reproduces N
        sequential single-env rollouts.
        """
        if len(observations) != len(rngs):
            raise ValueError("need one rng per observation")
        if not observations:
            return []
        producer = Tensor(np.stack([o.producer for o in observations]))
        consumer = Tensor(np.stack([o.consumer for o in observations]))
        rows, values = self._forward(producer, consumer)
        return [
            self._sample_row(
                rows[index], float(values[index]), observation, rng, greedy
            )
            for index, (observation, rng) in enumerate(
                zip(observations, rngs)
            )
        ]


class ActorCritic(_Agent):
    """Multi-discrete actor + critic over the MLIR RL environment."""

    def __init__(
        self,
        config: EnvConfig,
        rng: np.random.Generator,
        hidden_size: int = 512,
    ):
        self.config = config
        self.view = view_for(config)
        self.policy = PolicyNetwork(config, rng, hidden_size)
        self.value = ValueNetwork(config, rng, hidden_size)

    # -- acting -----------------------------------------------------------------

    def _forward(self, producer: Tensor, consumer: Tensor):
        heads = self.policy(producer, consumer)
        values = np.asarray(self.value(producer, consumer).data)
        head_data = {name: np.asarray(t.data) for name, t in heads.items()}
        rows = [
            {name: data[index] for name, data in head_data.items()}
            for index in range(len(values))
        ]
        return rows, values

    def _sample_row(
        self,
        heads: dict[str, np.ndarray],
        value: float,
        observation: Observation,
        rng: np.random.Generator,
        greedy: bool,
    ) -> tuple[EnvAction, SampledStep]:
        """Sample one decision from per-row head logits (no batch axis)."""
        mask = observation.mask

        trans_dist = MaskedCategorical(
            Tensor(heads["transformation"][None, :]),
            mask.transformation[None, :],
        )
        if greedy:
            trans = int(trans_dist.mode()[0])
        else:
            trans = int(trans_dist.sample(rng)[0])
        log_prob = float(trans_dist.log_prob(np.array([trans])).data[0])
        spec, kind = self.view.item(trans)
        head = spec.head(self.config)

        tile_indices: np.ndarray | None = None
        choice = -1
        head_name = ""
        param_mask: np.ndarray | None = None
        if head is not None:
            head_name = head.name
            param_mask = mask.params[head.mask_key]
            if head.rows:
                dist = MaskedCategorical(
                    Tensor(heads[head.name][None, :, :]),
                    param_mask[None, :, :],
                )
                sampled = dist.mode()[0] if greedy else dist.sample(rng)[0]
                tile_indices = sampled.astype(np.int64)
                log_prob += float(
                    dist.log_prob(tile_indices[None, :]).sum().data
                )
            else:
                dist = MaskedCategorical(
                    Tensor(heads[head.name][None, :]),
                    param_mask[None, :],
                )
                choice = int(
                    dist.mode()[0] if greedy else dist.sample(rng)[0]
                )
                log_prob += float(
                    dist.log_prob(np.array([choice])).data[0]
                )

        action = spec.to_env_action(
            kind, self.config, tile_indices=tile_indices, choice=choice
        )
        step = SampledStep(
            consumer=observation.consumer,
            producer=observation.producer,
            transformation=trans,
            tile_indices=tile_indices,
            choice_index=choice,
            head_name=head_name,
            mask_transformation=mask.transformation.copy(),
            mask_param=param_mask.copy() if param_mask is not None else None,
            log_prob=log_prob,
            value=value,
        )
        return action, step

    # -- PPO re-evaluation ---------------------------------------------------------

    def evaluate(
        self, steps: list[SampledStep]
    ) -> tuple[Tensor, Tensor, Tensor]:
        """(log_probs, entropies, values) for a minibatch, differentiable.

        For each registered head, rows that sampled it contribute their
        re-evaluated log-prob/entropy; the other rows enter the batched
        distribution under a trivial single-option mask and are zeroed
        by the indicator, leaving values and gradients untouched.
        """
        producer = Tensor(np.stack([s.producer for s in steps]))
        consumer = Tensor(np.stack([s.consumer for s in steps]))
        heads = self.policy(producer, consumer)
        values = self.value(producer, consumer)

        trans_actions = np.array([s.transformation for s in steps])
        trans_mask = np.stack([s.mask_transformation for s in steps])
        trans_dist = MaskedCategorical(heads["transformation"], trans_mask)
        log_probs = trans_dist.log_prob(trans_actions)
        entropies = trans_dist.entropy()

        for index, spec in enumerate(self.view.specs):
            head = spec.head(self.config)
            if head is None:
                continue
            used = np.array(
                [
                    1.0
                    if s.transformation == index and s.head_name == head.name
                    else 0.0
                    for s in steps
                ]
            )
            if not used.any():
                continue
            if head.rows:
                trivial = np.zeros((head.rows, head.cols), dtype=bool)
                trivial[:, 0] = True
                masks = np.stack(
                    [
                        s.mask_param if u else trivial
                        for s, u in zip(steps, used)
                    ]
                )
                actions = np.stack(
                    [
                        s.tile_indices
                        if u
                        else np.zeros(head.rows, dtype=np.int64)
                        for s, u in zip(steps, used)
                    ]
                )
                dist = MaskedCategorical(heads[head.name], masks)
                per_level = dist.log_prob(actions)      # (B, rows)
                indicator = Tensor(used)
                log_probs = log_probs + per_level.sum(axis=1) * indicator
                entropies = entropies + dist.entropy().sum(
                    axis=1
                ) * indicator
            else:
                trivial = np.zeros(head.cols, dtype=bool)
                trivial[0] = True
                masks = np.stack(
                    [
                        s.mask_param if u else trivial
                        for s, u in zip(steps, used)
                    ]
                )
                actions = np.array(
                    [
                        s.choice_index if u else 0
                        for s, u in zip(steps, used)
                    ]
                )
                dist = MaskedCategorical(heads[head.name], masks)
                indicator = Tensor(used)
                log_probs = log_probs + dist.log_prob(actions) * indicator
                entropies = entropies + dist.entropy() * indicator

        return log_probs, entropies, values


class FlatActorCritic(_Agent):
    """Ablation agent over the flat action space (§VII-D2)."""

    def __init__(
        self,
        config: EnvConfig,
        rng: np.random.Generator,
        hidden_size: int = 512,
    ):
        self.config = config
        self.view = view_for(config)
        self.table = flat_action_table(config)
        self.policy = FlatPolicyNetwork(config, len(self.table), rng, hidden_size)
        self.value = ValueNetwork(config, rng, hidden_size)
        #: flat-mask fallback: the stop spec's (single) entry
        stop_indices = [
            i
            for i, flat in enumerate(self.table)
            if self.view.spec_at(int(flat.kind)).is_stop
        ]
        self._fallback = stop_indices[-1] if stop_indices else len(self.table) - 1

    def flat_mask(self, mask: ActionMask, num_loops: int) -> np.ndarray:
        """Legality of each flat table entry under the current masks."""
        legal = np.zeros(len(self.table), dtype=bool)
        for index, flat in enumerate(self.table):
            kind = int(flat.kind)
            if not mask.transformation[kind]:
                continue
            spec = self.view.spec_at(kind)
            legal[index] = spec.flat_legal(
                flat, mask, num_loops, self.config
            )
        if not legal.any():
            legal[self._fallback] = True  # no-transformation fallback
        return legal

    def _forward(self, producer: Tensor, consumer: Tensor):
        logits = np.asarray(self.policy(producer, consumer).data)
        values = np.asarray(self.value(producer, consumer).data)
        return logits, values

    def _sample_row(
        self,
        logits: np.ndarray,
        value: float,
        observation: Observation,
        rng: np.random.Generator,
        greedy: bool,
    ) -> tuple[EnvAction, "FlatSampledStep"]:
        """Sample one table entry; its decoded record is the action."""
        legal = self.flat_mask(observation.mask, observation.num_loops)
        dist = MaskedCategorical(Tensor(logits[None, :]), legal[None, :])
        choice = int(dist.mode()[0] if greedy else dist.sample(rng)[0])
        log_prob = float(dist.log_prob(np.array([choice])).data[0])
        flat = self.table[choice]
        action = EnvAction(
            flat.kind, record=flat.to_record(observation.num_loops)
        )
        step = FlatSampledStep(
            consumer=observation.consumer,
            producer=observation.producer,
            action=choice,
            mask=legal,
            log_prob=log_prob,
            value=value,
        )
        return action, step

    def evaluate(
        self, steps: list["FlatSampledStep"]
    ) -> tuple[Tensor, Tensor, Tensor]:
        producer = Tensor(np.stack([s.producer for s in steps]))
        consumer = Tensor(np.stack([s.consumer for s in steps]))
        logits = self.policy(producer, consumer)
        values = self.value(producer, consumer)
        masks = np.stack([s.mask for s in steps])
        dist = MaskedCategorical(logits, masks)
        actions = np.array([s.action for s in steps])
        return dist.log_prob(actions), dist.entropy(), values


@dataclass
class FlatSampledStep:
    """Replay record for the flat agent."""

    consumer: np.ndarray
    producer: np.ndarray
    action: int
    mask: np.ndarray
    log_prob: float
    value: float
