"""Neural-network layers over the autograd tensor.

Implements exactly what the paper's actor-critic networks need
(Fig. 3/4): dense layers with ReLU, an LSTM cell for the
producer-consumer embedding, and a module system with parameter
collection for the optimizer.

Each :class:`Linear`, :class:`MLP` and :class:`LSTMEncoder` call
records **one** tape node.  Its forward and hand-written backward
repeat the operations the tape would run for the per-primitive
composition (``x @ W + b``, ``relu``, the LSTM gate arithmetic) in the
tape's order, including the order in which a parameter's per-step
gradients are added.  Gradients are therefore bit-identical to the
composition; inputs that do not require a gradient get none computed.

Weight and bias gradients land in a buffer each parameter keeps across
steps (:meth:`~.tensor.Tensor.accumulate_with`), so ``parameter.grad``
is only valid until the next backward after ``zero_grad``: copy it to
keep it longer.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .tensor import Tensor


class Module:
    """Base class: parameter registration via attribute scanning."""

    def parameters(self) -> Iterator[Tensor]:
        seen: set[int] = set()
        for value in self.__dict__.values():
            yield from _parameters_of(value, seen)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.grad = None

    def state_dict(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.parameters()]

    def load_state_dict(self, state: list[np.ndarray]) -> None:
        parameters = list(self.parameters())
        if len(parameters) != len(state):
            raise ValueError(
                f"state has {len(state)} arrays, model has {len(parameters)}"
            )
        for parameter, array in zip(parameters, state):
            if parameter.data.shape != array.shape:
                raise ValueError(
                    f"shape mismatch {parameter.data.shape} vs {array.shape}"
                )
            parameter.data = array.copy()


def _parameters_of(value, seen: set[int]) -> Iterator[Tensor]:
    if isinstance(value, Tensor):
        if value.requires_grad and id(value) not in seen:
            seen.add(id(value))
            yield value
    elif isinstance(value, Module):
        for parameter in value.parameters():
            if id(parameter) not in seen:
                seen.add(id(parameter))
                yield parameter
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _parameters_of(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _parameters_of(item, seen)


class Linear(Module):
    """A dense layer ``y = x W + b`` with Kaiming-uniform init."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ):
        self.in_features = in_features
        self.out_features = out_features
        bound = math.sqrt(6.0 / in_features)
        self.weight = Tensor(
            rng.uniform(-bound, bound, size=(in_features, out_features)),
            requires_grad=True,
        )
        self.bias = (
            Tensor(np.zeros(out_features), requires_grad=True) if bias else None
        )

    def __call__(self, x: Tensor) -> Tensor:
        return _dense_node(x, (self,), (False,))


class MLP(Module):
    """A stack of Linear + ReLU layers (the paper's backbone: 3 x 512)."""

    def __init__(
        self,
        sizes: list[int],
        rng: np.random.Generator,
        final_activation: bool = True,
    ):
        self.layers = [
            Linear(fan_in, fan_out, rng)
            for fan_in, fan_out in zip(sizes, sizes[1:])
        ]
        self.final_activation = final_activation

    def __call__(self, x: Tensor) -> Tensor:
        last = len(self.layers) - 1
        relus = [
            self.final_activation or index < last
            for index in range(len(self.layers))
        ]
        return _dense_node(x, self.layers, relus)


def _dense_node(
    x: Tensor, layers: Sequence[Linear], relus: Sequence[bool]
) -> Tensor:
    """One tape node for a chain of Linear layers on ``(batch, features)``,
    each followed by a ReLU where ``relus`` says so."""
    if x.ndim != 2:
        raise ValueError(
            f"dense layers take (batch, features) inputs, got shape {x.shape}"
        )
    activations = [x.data]
    for layer, relu in zip(layers, relus):
        y = activations[-1] @ layer.weight.data
        if layer.bias is not None:
            y += layer.bias.data
        if relu:
            np.maximum(y, 0.0, out=y)
        activations.append(y)
    parameters = [
        p for layer in layers for p in (layer.weight, layer.bias) if p is not None
    ]

    def backward(grad: np.ndarray):
        for index in reversed(range(len(layers))):
            layer = layers[index]
            if relus[index]:
                grad = grad * (activations[index + 1] > 0)
            if layer.bias is not None:
                layer.bias.accumulate_with(np.sum, grad, axis=0)
            layer.weight.accumulate_with(np.matmul, activations[index].T, grad)
            if index == 0 and not x.requires_grad:
                return
            grad = grad @ layer.weight.data.T
        out._send(x, grad)

    out = Tensor._from_op(activations[-1], (x, *parameters), backward)
    return out


class LSTMCell(Module):
    """The parameters of a standard LSTM cell (input/forget/cell/output
    gates, in that order along the gate axis); :class:`LSTMEncoder` runs
    the steps."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        bound = math.sqrt(1.0 / hidden_size)
        self.weight_ih = Tensor(
            rng.uniform(-bound, bound, size=(input_size, 4 * hidden_size)),
            requires_grad=True,
        )
        self.weight_hh = Tensor(
            rng.uniform(-bound, bound, size=(hidden_size, 4 * hidden_size)),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(4 * hidden_size), requires_grad=True)


class LSTMEncoder(Module):
    """Runs an LSTM cell over a short sequence; returns the final hidden
    state — the producer-consumer embedding of §V-A."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.cell = LSTMCell(input_size, hidden_size, rng)

    def __call__(self, steps: list[Tensor]) -> Tensor:
        """One tape node over all steps; returns the final hidden state.

        The forward is the per-primitive cell's gate arithmetic, op for
        op: ``(x Wih + h Whh) + b``, sigmoid as ``1 / (1 + exp(-z))`` on
        the input, forget and output gates, ``c' = f c + i g`` and
        ``h' = o tanh(c')``.

        Backward walks the steps last to first.  The tape adds the
        per-step gradients of ``weight_hh`` and ``bias`` last step
        first, but those of ``weight_ih`` (and the step inputs) first
        step first, so the ``weight_ih`` products wait for the walk to
        finish.  The tape also reached the steps' own graphs last step
        first, so the node lists them in that order.
        """
        if not steps:
            raise ValueError("LSTMEncoder needs at least one step")
        cell = self.cell
        size = cell.hidden_size
        h = np.zeros((steps[0].shape[0], size))
        c = np.zeros((steps[0].shape[0], size))
        records = []  # per step: (x, h_prev, c_prev, i, f, g, o, tanh_c)
        for step in steps:
            x = step.data
            gates = x @ cell.weight_ih.data
            gates += h @ cell.weight_hh.data
            gates += cell.bias.data
            input_forget = 1.0 / (1.0 + np.exp(-gates[:, 0 * size : 2 * size]))
            i = input_forget[:, :size]
            f = input_forget[:, size:]
            g = np.tanh(gates[:, 2 * size : 3 * size])
            o = 1.0 / (1.0 + np.exp(-gates[:, 3 * size : 4 * size]))
            c_next = f * c + i * g
            tanh_c = np.tanh(c_next)
            records.append((x, h, c, i, f, g, o, tanh_c))
            h, c = o * tanh_c, c_next

        def backward(grad: np.ndarray):
            grad_h, grad_c = grad, None
            grad_gates = []
            for t in reversed(range(len(records))):
                x, h, c, i, f, g, o, tanh_c = records[t]
                grad_o = grad_h * tanh_c
                dc = grad_h * o * (1.0 - tanh_c**2)
                if grad_c is not None:
                    dc = dc + grad_c
                dgates = np.empty((x.shape[0], 4 * size))
                dgates[:, 0 * size : 1 * size] = dc * g * i * (1.0 - i)
                dgates[:, 1 * size : 2 * size] = dc * c * f * (1.0 - f)
                dgates[:, 2 * size : 3 * size] = dc * i * (1.0 - g**2)
                dgates[:, 3 * size : 4 * size] = grad_o * o * (1.0 - o)
                grad_gates.append(dgates)
                cell.bias.accumulate_with(np.sum, dgates, axis=0)
                cell.weight_hh.accumulate_with(np.matmul, h.T, dgates)
                if t:
                    grad_h = dgates @ cell.weight_hh.data.T
                    grad_c = dc * f
            for step, (x, *_), dgates in zip(
                steps, records, reversed(grad_gates)
            ):
                cell.weight_ih.accumulate_with(np.matmul, x.T, dgates)
                if step.requires_grad:
                    out._send(step, dgates @ cell.weight_ih.data.T)

        parents = (*reversed(steps), cell.weight_ih, cell.weight_hh, cell.bias)
        out = Tensor._from_op(h, parents, backward)
        return out
