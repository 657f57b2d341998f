"""Test-only oracle: the per-primitive tape compositions the fused layers
replaced, and the allocating optimizer steps.

``Linear``, ``MLP`` and ``LSTMEncoder`` calls, ``log_softmax``,
``MaskedCategorical.entropy``, ``Adam.step`` and ``clip_grad_norm`` are
written here as the elementary ``Tensor`` / numpy operations they used
to be, one tape node per primitive and one fresh array per temporary.
:func:`oracle` swaps them in for the fused code, so a run under it
computes what the per-primitive implementation computed; the fused code
must match it bit for bit.
"""

from __future__ import annotations

import contextlib
import math
from unittest import mock

import numpy as np

from repro.nn import cost_model, distributions, layers, optim, tensor
from repro.nn.tensor import Tensor
from repro.rl import ppo


def linear(layer, x: Tensor) -> Tensor:
    out = x @ layer.weight
    if layer.bias is not None:
        out = out + layer.bias
    return out


def mlp(network, x: Tensor) -> Tensor:
    for index, layer in enumerate(network.layers):
        x = linear(layer, x)
        if network.final_activation or index + 1 < len(network.layers):
            x = x.relu()
    return x


def initial_state(cell, batch: int) -> tuple[Tensor, Tensor]:
    zeros = Tensor(np.zeros((batch, cell.hidden_size)))
    return zeros, Tensor(np.zeros((batch, cell.hidden_size)))


def cell_step(cell, x: Tensor, state: tuple[Tensor, Tensor]):
    h, c = state
    gates = x @ cell.weight_ih + h @ cell.weight_hh + cell.bias
    size = cell.hidden_size
    i = gates[:, 0 * size : 1 * size].sigmoid()
    f = gates[:, 1 * size : 2 * size].sigmoid()
    g = gates[:, 2 * size : 3 * size].tanh()
    o = gates[:, 3 * size : 4 * size].sigmoid()
    c_next = f * c + i * g
    h_next = o * c_next.tanh()
    return h_next, c_next


def encoder(module, steps: list[Tensor]) -> Tensor:
    if not steps:
        raise ValueError("LSTMEncoder needs at least one step")
    state = initial_state(module.cell, steps[0].shape[0])
    for step in steps:
        state = cell_step(module.cell, step, state)
    return state[0]


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    shift = Tensor(logits.data.max(axis=axis, keepdims=True))
    shifted = logits - shift
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def entropy(dist) -> Tensor:
    probs = dist.log_probs.exp()
    plogp = probs * dist.log_probs
    return -plogp.sum(axis=-1)


def clip_grad_norm(parameters, max_norm: float) -> float:
    params = [p for p in parameters if p.grad is not None]
    total = math.sqrt(sum(float((p.grad**2).sum()) for p in params))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for parameter in params:
            parameter.grad *= scale
    return total


def adam_step(adam) -> None:
    adam._t += 1
    bias1 = 1.0 - adam.beta1**adam._t
    bias2 = 1.0 - adam.beta2**adam._t
    for parameter, m, v in zip(adam.parameters, adam._m, adam._v):
        if parameter.grad is None:
            continue
        grad = parameter.grad
        m *= adam.beta1
        m += (1.0 - adam.beta1) * grad
        v *= adam.beta2
        v += (1.0 - adam.beta2) * grad**2
        m_hat = m / bias1
        v_hat = v / bias2
        parameter.data -= adam.lr * m_hat / (np.sqrt(v_hat) + adam.eps)


@contextlib.contextmanager
def oracle():
    """Run the per-primitive compositions in place of the fused code."""
    patches = [
        (layers.Linear, "__call__", linear),
        (layers.MLP, "__call__", mlp),
        (layers.LSTMEncoder, "__call__", encoder),
        (tensor, "log_softmax", log_softmax),
        (distributions, "log_softmax", log_softmax),
        (distributions.MaskedCategorical, "entropy", entropy),
        (optim.Adam, "step", adam_step),
        (optim, "clip_grad_norm", clip_grad_norm),
        (ppo, "clip_grad_norm", clip_grad_norm),
        (cost_model, "clip_grad_norm", clip_grad_norm),
    ]
    with contextlib.ExitStack() as stack:
        for owner, name, replacement in patches:
            stack.enter_context(mock.patch.object(owner, name, replacement))
        yield
