"""Masked categorical distributions.

The policy's heads are categorical distributions over transformation
options, tile-size candidates, interchange candidates or level pointers.
Action masks (paper §IV-A2) zero out illegal choices: masked logits are
driven to -inf before the softmax, so probability mass renormalizes over
the legal subset and log-probs/entropy are computed on the masked
distribution.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, log_softmax

_MASK_VALUE = -1.0e9


class MaskedCategorical:
    """A categorical distribution over the last axis with a legality mask.

    ``logits``: Tensor of shape (..., K).  ``mask``: boolean ndarray of
    the same shape (or broadcastable); True marks legal choices.  A row
    with no legal choice raises ``ValueError``.
    """

    def __init__(self, logits: Tensor, mask: np.ndarray | None = None):
        if mask is not None:
            mask = np.broadcast_to(mask, logits.shape)
            if not mask.any(axis=-1).all():
                raise ValueError("mask leaves a row with no legal action")
            penalty = np.where(mask, 0.0, _MASK_VALUE)
            logits = logits + Tensor(penalty)
        self.logits = logits
        self.mask = mask
        self.log_probs = log_softmax(logits, axis=-1)

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs.data)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Sample indices; shape = logits.shape[:-1]."""
        probs = self.probs
        flat = probs.reshape(-1, probs.shape[-1])
        choices = np.array(
            [rng.choice(flat.shape[-1], p=row / row.sum()) for row in flat]
        )
        return choices.reshape(probs.shape[:-1])

    def mode(self) -> np.ndarray:
        return np.argmax(self.log_probs.data, axis=-1)

    def log_prob(self, actions: np.ndarray) -> Tensor:
        """Log-probability of the given indices (differentiable)."""
        actions = np.asarray(actions)
        flat_lp = self.log_probs.reshape(-1, self.logits.shape[-1])
        rows = np.arange(flat_lp.shape[0])
        picked = flat_lp[rows, actions.reshape(-1)]
        return picked.reshape(actions.shape)

    def entropy(self) -> Tensor:
        """Shannon entropy per distribution (differentiable).

        Masked entries contribute 0 (p log p -> 0 in the limit; the huge
        negative logit makes p exactly 0 up to float rounding).

        One fused node for ``-(exp(lp) * lp).sum(-1)``: its backward adds
        the gradient through the ``lp`` factor and the one through
        ``exp(lp)`` in the order the tape adds them.
        """
        log_probs = self.log_probs
        probs = np.exp(log_probs.data)
        data = -(probs * log_probs.data).sum(axis=-1)

        def backward(grad: np.ndarray):
            grad_plogp = np.expand_dims(-grad, -1)
            grad_probs = grad_plogp * log_probs.data
            out._send(log_probs, grad_plogp * probs + grad_probs * probs)

        out = Tensor._from_op(data, (log_probs,), backward)
        return out
