"""Builders for the named linalg operations used by the paper's workloads.

Each builder creates a :class:`~repro.ir.ops.LinalgOp` with the same
iteration space, indexing maps, iterator types, and scalar body as the
corresponding MLIR named op (``linalg.matmul``,
``linalg.conv_2d_nhwc_hwcf``, ``linalg.pooling_nhwc_max``, elementwise
``linalg.add`` / generic ReLU / sigmoid / softmax pieces).

Shapes follow MLIR conventions: NHWC images with HWCF filters for
convolutions, NHWC with an HW window for pooling.
"""

from __future__ import annotations

from typing import Sequence

from .affine import AffineMap, dim
from .ops import (
    ArithKind,
    Body,
    BodyArg,
    BodyConst,
    BodyOp,
    IRError,
    IteratorType,
    LinalgOp,
    OpKind,
    Value,
    body_from_ops,
)
from .types import F32, ElementType, TensorType

_P = IteratorType.PARALLEL
_R = IteratorType.REDUCTION


def tensor(shape: Sequence[int], element: ElementType = F32, name: str = "") -> Value:
    """Create a fresh SSA tensor value (typically a function argument)."""
    return Value(TensorType.get(shape, element), name)


def empty(shape: Sequence[int], element: ElementType = F32) -> Value:
    """An inline-materialized init tensor (MLIR's ``tensor.empty``)."""
    return Value(TensorType.get(shape, element), synthetic=True)


# ---------------------------------------------------------------------------
# Shared scalar bodies
# ---------------------------------------------------------------------------


def _mac_body(num_args: int = 3) -> Body:
    """out += in0 * in1 — matmul / convolution body."""
    return body_from_ops(
        num_args,
        [
            (ArithKind.MULF, (0, 1)),
            (ArithKind.ADDF, (num_args - 1, num_args)),
        ],
    )


def _add_body() -> Body:
    """out = in0 + in1."""
    return body_from_ops(3, [(ArithKind.ADDF, (0, 1))])


def _relu_body() -> Body:
    """out = max(in, 0)."""
    return Body(
        leaves=(BodyArg(0), BodyArg(1), BodyConst(0.0)),
        ops=(BodyOp(ArithKind.MAXF, (0, 2)),),
        yield_index=3,
    )


def _sigmoid_body() -> Body:
    """out = 1 / (1 + exp(-x)), expanded into counted arith ops."""
    return Body(
        leaves=(BodyArg(0), BodyArg(1), BodyConst(0.0), BodyConst(1.0)),
        ops=(
            BodyOp(ArithKind.SUBF, (2, 0)),   # -x
            BodyOp(ArithKind.EXP, (4,)),      # exp(-x)
            BodyOp(ArithKind.ADDF, (3, 5)),   # 1 + exp(-x)
            BodyOp(ArithKind.DIVF, (3, 6)),   # 1 / (1 + exp(-x))
        ),
        yield_index=7,
    )


def _exp_body() -> Body:
    return body_from_ops(2, [(ArithKind.EXP, (0,))])


def _mul_body() -> Body:
    return body_from_ops(3, [(ArithKind.MULF, (0, 1))])


# ---------------------------------------------------------------------------
# Named operations
# ---------------------------------------------------------------------------


def matmul(lhs: Value, rhs: Value, out: Value) -> LinalgOp:
    """``linalg.matmul``: C[m, n] += A[m, k] * B[k, n]."""
    m, k = lhs.type.shape
    k2, n = rhs.type.shape
    if k != k2 or out.type.shape != (m, n):
        raise IRError(
            f"matmul shape mismatch: {lhs.type} x {rhs.type} -> {out.type}"
        )
    d0, d1, d2 = dim(0), dim(1), dim(2)
    return LinalgOp(
        name="linalg.matmul",
        kind=OpKind.MATMUL,
        inputs=[lhs, rhs],
        outputs=[out],
        indexing_maps=[
            AffineMap.get(3, 0, [d0, d2]),
            AffineMap.get(3, 0, [d2, d1]),
            AffineMap.get(3, 0, [d0, d1]),
        ],
        iterator_types=[_P, _P, _R],
        body=_mac_body(),
    )


def batch_matmul(lhs: Value, rhs: Value, out: Value) -> LinalgOp:
    """``linalg.batch_matmul``: C[b, m, n] += A[b, m, k] * B[b, k, n]."""
    b, m, k = lhs.type.shape
    b2, k2, n = rhs.type.shape
    if (b, k) != (b2, k2) or out.type.shape != (b, m, n):
        raise IRError(
            f"batch_matmul shape mismatch: {lhs.type} x {rhs.type} -> {out.type}"
        )
    d0, d1, d2, d3 = dim(0), dim(1), dim(2), dim(3)
    return LinalgOp(
        name="linalg.batch_matmul",
        kind=OpKind.MATMUL,
        inputs=[lhs, rhs],
        outputs=[out],
        indexing_maps=[
            AffineMap.get(4, 0, [d0, d1, d3]),
            AffineMap.get(4, 0, [d0, d3, d2]),
            AffineMap.get(4, 0, [d0, d1, d2]),
        ],
        iterator_types=[_P, _P, _P, _R],
        body=_mac_body(),
    )


def conv_2d_nhwc_hwcf(
    image: Value, filter_: Value, out: Value, strides: tuple[int, int] = (1, 1)
) -> LinalgOp:
    """``linalg.conv_2d_nhwc_hwcf``.

    O[n, oh, ow, f] += I[n, oh*sh + kh, ow*sw + kw, c] * K[kh, kw, c, f]
    Iteration space: (n, oh, ow, f, kh, kw, c) — 7 loops, last 3 reductions.
    """
    n, ih, iw, c = image.type.shape
    kh, kw, c2, f = filter_.type.shape
    sh, sw = strides
    oh = (ih - kh) // sh + 1
    ow = (iw - kw) // sw + 1
    if c != c2 or out.type.shape != (n, oh, ow, f):
        raise IRError(
            f"conv_2d shape mismatch: {image.type} * {filter_.type} "
            f"-> {out.type} (expected {(n, oh, ow, f)})"
        )
    d = [dim(i) for i in range(7)]  # n, oh, ow, f, kh, kw, c
    return LinalgOp(
        name="linalg.conv_2d_nhwc_hwcf",
        kind=OpKind.CONV,
        inputs=[image, filter_],
        outputs=[out],
        indexing_maps=[
            AffineMap.get(7, 0, [d[0], d[1] * sh + d[4], d[2] * sw + d[5], d[6]]),
            AffineMap.get(7, 0, [d[4], d[5], d[6], d[3]]),
            AffineMap.get(7, 0, [d[0], d[1], d[2], d[3]]),
        ],
        iterator_types=[_P, _P, _P, _P, _R, _R, _R],
        body=_mac_body(),
    )


def pooling_nhwc_max(
    image: Value, out: Value, window: tuple[int, int], strides: tuple[int, int] = (1, 1)
) -> LinalgOp:
    """``linalg.pooling_nhwc_max``.

    O[n, oh, ow, c] = max(O[n, oh, ow, c], I[n, oh*sh + kh, ow*sw + kw, c])
    Iteration space: (n, oh, ow, c, kh, kw) — 6 loops, last 2 reductions.
    As in MLIR, a shape-only window operand pins the kh/kw extents.
    """
    n, ih, iw, c = image.type.shape
    kh, kw = window
    sh, sw = strides
    oh = (ih - kh) // sh + 1
    ow = (iw - kw) // sw + 1
    if out.type.shape != (n, oh, ow, c):
        raise IRError(
            f"pooling shape mismatch: {image.type} window {window} "
            f"-> {out.type} (expected {(n, oh, ow, c)})"
        )
    window_operand = Value(
        TensorType.get((kh, kw), image.type.element), "window", synthetic=True
    )
    d = [dim(i) for i in range(6)]  # n, oh, ow, c, kh, kw
    # Body: out = max(out, image); the window operand is shape-only.
    body = body_from_ops(3, [(ArithKind.MAXF, (0, 2))])
    return LinalgOp(
        name="linalg.pooling_nhwc_max",
        kind=OpKind.POOLING,
        inputs=[image, window_operand],
        outputs=[out],
        indexing_maps=[
            AffineMap.get(6, 0, [d[0], d[1] * sh + d[4], d[2] * sw + d[5], d[3]]),
            AffineMap.get(6, 0, [d[4], d[5]]),
            AffineMap.get(6, 0, [d[0], d[1], d[2], d[3]]),
        ],
        iterator_types=[_P, _P, _P, _P, _R, _R],
        body=body,
    )


def _elementwise(
    name: str,
    kind: OpKind,
    inputs: list[Value],
    out: Value,
    body: Body,
) -> LinalgOp:
    rank = out.type.rank
    identity = AffineMap.identity(rank)
    for value in inputs:
        if value.type.shape != out.type.shape:
            raise IRError(
                f"{name}: operand {value.type} does not match output "
                f"{out.type}"
            )
    return LinalgOp(
        name=name,
        kind=kind,
        inputs=inputs,
        outputs=[out],
        indexing_maps=[identity] * (len(inputs) + 1),
        iterator_types=[_P] * rank,
        body=body,
    )


def add(lhs: Value, rhs: Value, out: Value) -> LinalgOp:
    """``linalg.add``: elementwise addition."""
    return _elementwise("linalg.add", OpKind.ADD, [lhs, rhs], out, _add_body())


def mul(lhs: Value, rhs: Value, out: Value) -> LinalgOp:
    """Elementwise multiplication (a ``linalg.generic``)."""
    return _elementwise("linalg.generic", OpKind.GENERIC, [lhs, rhs], out, _mul_body())


def relu(input_: Value, out: Value) -> LinalgOp:
    """ReLU as a ``linalg.generic`` (no named op exists; see paper §IV-B)."""
    return _elementwise(
        "linalg.generic", OpKind.GENERIC, [input_], out, _relu_body()
    )


def sigmoid(input_: Value, out: Value) -> LinalgOp:
    """Sigmoid as a ``linalg.generic``."""
    return _elementwise(
        "linalg.generic", OpKind.GENERIC, [input_], out, _sigmoid_body()
    )


def exp(input_: Value, out: Value) -> LinalgOp:
    """Elementwise exponential as a ``linalg.generic``."""
    return _elementwise("linalg.generic", OpKind.GENERIC, [input_], out, _exp_body())


def softmax_2d(input_: Value, out: Value) -> LinalgOp:
    """Row softmax collapsed into one generic.

    The true lowering is a 3-op pipeline (row max, exp-sum, normalize);
    for single-op datasets the paper's ``softmax_2d`` entry corresponds to
    the dominant exp/normalize generic over (rows, cols) with a row
    reduction.  We model it as a 3-loop generic: out[i, j] = exp(x[i, j]) /
    sum_k exp(x[i, k]) folded to a MAC-like nest with exp and div bodies.
    """
    rows, cols = input_.type.shape
    if out.type.shape != (rows, cols):
        raise IRError(f"softmax shape mismatch: {input_.type} -> {out.type}")
    d0, d1, d2 = dim(0), dim(1), dim(2)
    body = Body(
        leaves=(BodyArg(0), BodyArg(1)),
        ops=(
            BodyOp(ArithKind.EXP, (0,)),
            BodyOp(ArithKind.ADDF, (1, 2)),
            BodyOp(ArithKind.DIVF, (2, 3)),
        ),
        yield_index=4,
    )
    return LinalgOp(
        name="linalg.generic",
        kind=OpKind.GENERIC,
        inputs=[input_],
        outputs=[out],
        indexing_maps=[
            AffineMap.get(3, 0, [d0, d2]),
            AffineMap.get(3, 0, [d0, d1]),
        ],
        iterator_types=[_P, _P, _R],
        body=body,
    )


def generic(
    inputs: list[Value],
    outputs: list[Value],
    indexing_maps: list[AffineMap],
    iterator_types: list[IteratorType],
    body: Body,
    kind: OpKind = OpKind.GENERIC,
) -> LinalgOp:
    """Build a ``linalg.generic`` with fully explicit structure."""
    return LinalgOp(
        name="linalg.generic",
        kind=kind,
        inputs=inputs,
        outputs=outputs,
        indexing_maps=indexing_maps,
        iterator_types=iterator_types,
        body=body,
    )
