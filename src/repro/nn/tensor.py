"""A small reverse-mode autograd engine over numpy arrays.

The paper trains its actor-critic networks with PyTorch; this module is
the from-scratch substrate replacement: a :class:`Tensor` records the
operations applied to it and :meth:`Tensor.backward` accumulates
gradients by reverse topological traversal.  Broadcasting follows numpy
semantics, with gradients summed back over broadcast axes.

Supported primitives cover what the policy/value networks need: +, -,
*, /, matmul, exp, log, tanh, sigmoid, relu, power, sum/mean, max,
reshape, transpose, concatenate, stack, slicing and row gathering.

**Fused nodes.**  :func:`log_softmax` here, and the layers in
:mod:`.layers`, record one tape node each instead of one node per
primitive.  A fused node's forward and hand-written backward repeat the
primitives' numpy operations in the tape's order, and add gradient
contributions in the order the tape would, so every value and gradient
is bit-identical to the primitive composition.  A fused node computes no
gradient for an input that does not require one.

**Gradient buffers.**  A fused node writes a parameter's gradient into
a buffer that the parameter keeps across steps (see
:meth:`Tensor.accumulate_with`); ``grad is None`` still means "no
gradient since the last ``zero_grad``".  The next backward after a
``zero_grad`` overwrites the buffer, so a caller that needs a gradient
past that point must copy it.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

ArrayLike = "np.ndarray | float | int | list"


def _as_array(value, dtype) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value.astype(dtype, copy=False)
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


_scratch = threading.local()


def scratch(shape, dtype=np.float64) -> np.ndarray:
    """A per-thread scratch array of ``shape``, reused across calls.

    One buffer per dtype and thread, grown to the largest size asked
    for; the contents are garbage and only valid until the next call.
    """
    buffers = getattr(_scratch, "buffers", None)
    if buffers is None:
        buffers = _scratch.buffers = {}
    dtype = np.dtype(dtype)
    size = math.prod(shape) if isinstance(shape, tuple) else shape
    buffer = buffers.get(dtype)
    if buffer is None or buffer.size < size:
        buffer = buffers[dtype] = np.empty(size, dtype=dtype)
    return buffer[:size].reshape(shape)


class Tensor:
    """A numpy array with reverse-mode gradient tracking."""

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_sideband",
        "_grad_buffer",
    )
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        dtype=np.float64,
    ):
        self.data = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_buffer: np.ndarray | None = None

    # -- construction -----------------------------------------------------------

    @staticmethod
    def zeros(shape, requires_grad: bool = False, dtype=np.float64) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad, dtype)

    @staticmethod
    def _from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data, dtype=data.dtype)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- basics -----------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, dtype=self.dtype)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def accumulate_with(self, op, *args, **kwargs) -> None:
        """Add ``op(*args, out=..., **kwargs)`` into this leaf's gradient.

        The first contribution since ``zero_grad`` is written straight
        into the leaf's reused gradient buffer; later ones go through
        per-thread scratch and are added, as the tape's ``_accumulate``
        adds them, so no weight-sized array is allocated per step.  A
        leaf that does not require a gradient gets none.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            buffer = self._grad_buffer
            if buffer is None or buffer.shape != self.data.shape:
                buffer = self._grad_buffer = np.empty_like(self.data)
            self.grad = op(*args, out=buffer, **kwargs)
        else:
            self.grad += op(*args, out=scratch(self.shape, self.dtype), **kwargs)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-mode accumulation from this tensor."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor without grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() without grad on non-scalar")
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()

        def visit(node: "Tensor") -> None:
            if id(node) in seen or not node.requires_grad:
                return
            seen.add(id(node))
            for parent in node._parents:
                visit(parent)
            order.append(node)

        visit(self)
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node._accumulate(node_grad)
                continue
            node._sideband = grads  # type: ignore[attr-defined]
            node._backward(node_grad)
            del node._sideband  # type: ignore[attr-defined]

    def _send(self, parent: "Tensor", grad: np.ndarray) -> None:
        """Route gradient to a parent inside backward()."""
        if not parent.requires_grad:
            return
        if parent._backward is None and not parent._parents:
            parent._accumulate(grad)
            return
        sideband: dict[int, np.ndarray] = self._sideband  # type: ignore[attr-defined]
        if id(parent) in sideband:
            sideband[id(parent)] = sideband[id(parent)] + grad
        else:
            sideband[id(parent)] = grad

    # -- arithmetic ----------------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other, dtype=self.dtype)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data + other.data

        def backward(grad: np.ndarray, a=self, b=other, out_shape=data.shape):
            self_out._send(a, _unbroadcast(grad, a.shape))
            self_out._send(b, _unbroadcast(grad, b.shape))

        self_out = Tensor._from_op(data, (self, other), backward)
        return self_out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray, a=self):
            out._send(a, -grad)

        out = Tensor._from_op(data, (self,), backward)
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data * other.data

        def backward(grad: np.ndarray, a=self, b=other):
            out._send(a, _unbroadcast(grad * b.data, a.shape))
            out._send(b, _unbroadcast(grad * a.data, b.shape))

        out = Tensor._from_op(data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data / other.data

        def backward(grad: np.ndarray, a=self, b=other):
            out._send(a, _unbroadcast(grad / b.data, a.shape))
            out._send(
                b, _unbroadcast(-grad * a.data / (b.data**2), b.shape)
            )

        out = Tensor._from_op(data, (self, other), backward)
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data**exponent

        def backward(grad: np.ndarray, a=self, e=exponent):
            out._send(a, grad * e * a.data ** (e - 1))

        out = Tensor._from_op(data, (self,), backward)
        return out

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray, a=self, b=other):
            if b.data.ndim >= 2:
                out._send(a, _unbroadcast(grad @ np.swapaxes(b.data, -1, -2), a.shape))
            else:
                out._send(a, _unbroadcast(np.outer(grad, b.data), a.shape))
            if a.data.ndim >= 2:
                out._send(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ grad, b.shape))
            else:
                out._send(b, _unbroadcast(np.outer(a.data, grad), b.shape))

        out = Tensor._from_op(data, (self, other), backward)
        return out

    # -- elementwise functions ---------------------------------------------------------

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray, a=self, d=data):
            out._send(a, grad * d)

        out = Tensor._from_op(data, (self,), backward)
        return out

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray, a=self):
            out._send(a, grad / a.data)

        out = Tensor._from_op(data, (self,), backward)
        return out

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray, a=self, d=data):
            out._send(a, grad * (1.0 - d**2))

        out = Tensor._from_op(data, (self,), backward)
        return out

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray, a=self, d=data):
            out._send(a, grad * d * (1.0 - d))

        out = Tensor._from_op(data, (self,), backward)
        return out

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray, a=self):
            out._send(a, grad * (a.data > 0))

        out = Tensor._from_op(data, (self,), backward)
        return out

    def clip_value(self, low: float, high: float) -> "Tensor":
        """Clamp with straight-through gradient inside the bounds."""
        data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray, a=self):
            inside = (a.data >= low) & (a.data <= high)
            out._send(a, grad * inside)

        out = Tensor._from_op(data, (self,), backward)
        return out

    # -- reductions --------------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, a=self):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            out._send(a, np.broadcast_to(g, a.shape).copy())

        out = Tensor._from_op(np.asarray(data), (self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = math.prod(self.shape[a] for a in axes)
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, a=self):
            expanded = data if keepdims else np.expand_dims(data, axis)
            g = grad if keepdims else np.expand_dims(grad, axis)
            hit = a.data == expanded
            counts = hit.sum(axis=axis, keepdims=True)
            out._send(a, g * hit / counts)

        out = Tensor._from_op(np.asarray(data), (self,), backward)
        return out

    # -- shape ops ---------------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray, a=self):
            out._send(a, grad.reshape(a.shape))

        out = Tensor._from_op(data, (self,), backward)
        return out

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray, a=self):
            out._send(a, grad.transpose(inverse))

        out = Tensor._from_op(data, (self,), backward)
        return out

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]

        def backward(grad: np.ndarray, a=self):
            full = np.zeros_like(a.data)
            np.add.at(full, key, grad)
            out._send(a, full)

        out = Tensor._from_op(np.asarray(data), (self,), backward)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


# ---------------------------------------------------------------------------
# Free functions
# ---------------------------------------------------------------------------


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            out._send(tensor, grad[tuple(slicer)])

    out = Tensor._from_op(data, tuple(tensors), backward)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray):
        parts = np.moveaxis(grad, axis, 0)
        for tensor, part in zip(tensors, parts):
            out._send(tensor, part)

    out = Tensor._from_op(data, tuple(tensors), backward)
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray):
        out._send(a, _unbroadcast(grad * condition, a.shape))
        out._send(b, _unbroadcast(grad * (~condition), b.shape))

    out = Tensor._from_op(data, (a, b), backward)
    return out


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax (max-shift is detached).

    One fused node for ``shifted - log(exp(shifted).sum(axis))`` with
    ``shifted = logits - max``.  Its backward adds the direct gradient
    and the one through ``exp``, as the tape adds the two uses of
    ``shifted``.
    """
    shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=axis, keepdims=True)
    data = shifted - np.log(total)

    def backward(grad: np.ndarray):
        grad_total = -grad.sum(axis=axis, keepdims=True) / total
        out._send(logits, grad + grad_total * exp)

    out = Tensor._from_op(data, (logits,), backward)
    return out


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(logits, axis=axis).exp()
