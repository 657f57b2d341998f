"""Optimizers: Adam (the paper's choice for PPO) and SGD, plus global
gradient-norm clipping.

Adam works in place, over cache-sized chunks of each parameter, and
the clipping norm squares each gradient into the per-thread scratch
(:func:`.tensor.scratch`), instead of allocating a fresh
parameter-sized temporary per operation.  Both run the same elementwise
operations as the plain whole-array expressions, so results are
bit-identical to them.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .tensor import Tensor, scratch

#: Adam's elements per chunk: six chunk-sized float64 arrays (parameter,
#: gradient, two moments, two scratch) stay within a 1 MiB L2 cache.
CHUNK = 16384


def _flat(array: np.ndarray, what: str) -> np.ndarray:
    """A 1-D view of a C-contiguous array (never a copy)."""
    if not array.flags.c_contiguous:
        raise ValueError(
            f"{what} is not C-contiguous; in-place optimizer updates need "
            "contiguous parameters, gradients and moments"
        )
    return array.reshape(-1)


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    params = [p for p in parameters if p.grad is not None]
    total = math.sqrt(
        sum(
            float(np.square(p.grad, out=scratch(p.shape, p.dtype)).sum())
            for p in params
        )
    )
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for parameter in params:
            parameter.grad *= scale
    return total


class Adam:
    """Adam with bias correction (Kingma & Ba)."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        """One update of every parameter with a gradient.

        Per element this is ``m = b1 m + (1 - b1) g``,
        ``v = b2 v + (1 - b2) g**2`` and
        ``p -= lr (m / c1) / (sqrt(v / c2) + eps)``, evaluated in that
        operation order chunk by chunk.  A non-contiguous parameter,
        gradient or moment raises instead of updating a copy.
        """
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            if parameter.grad is None:
                continue
            work = scratch(2 * CHUNK, parameter.dtype)
            data = _flat(parameter.data, "parameter")
            grad = _flat(parameter.grad, "gradient")
            m_flat = _flat(m, "Adam moment")
            v_flat = _flat(v, "Adam moment")
            for start in range(0, data.size, CHUNK):
                stop = min(start + CHUNK, data.size)
                self._update(
                    data[start:stop],
                    grad[start:stop],
                    m_flat[start:stop],
                    v_flat[start:stop],
                    work[: stop - start],
                    work[CHUNK : CHUNK + stop - start],
                    bias1,
                    bias2,
                )

    def _update(self, data, grad, m, v, delta, denom, bias1, bias2) -> None:
        m *= self.beta1
        m += np.multiply(grad, 1.0 - self.beta1, out=delta)
        v *= self.beta2
        np.square(grad, out=delta)
        v += np.multiply(delta, 1.0 - self.beta2, out=delta)
        np.divide(m, bias1, out=delta)
        delta *= self.lr
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        delta /= denom
        data -= delta

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.grad = None


class SGD:
    """Plain SGD with optional momentum."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-2,
        momentum: float = 0.0,
    ):
        self.parameters = list(parameters)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for parameter, velocity in zip(self.parameters, self._velocity):
            if parameter.grad is None:
                continue
            if self.momentum:
                velocity *= self.momentum
                velocity += parameter.grad
                parameter.data -= self.lr * velocity
            else:
                parameter.data -= self.lr * parameter.grad

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.grad = None
