"""Core IR objects: SSA values, scalar bodies, linalg operations, functions.

The IR is deliberately shaped like MLIR's ``linalg``-on-tensors level:

* a :class:`Value` is an SSA tensor value produced by a function argument or
  by an operation;
* a :class:`LinalgOp` is a structured operation over an explicit iteration
  space: per-operand indexing maps, per-loop iterator types, and a scalar
  :class:`Body` (a small DAG of ``arith`` ops) applied at every point;
* a :class:`FuncOp` is a straight-line sequence of linalg ops over SSA
  tensors, and a :class:`ModuleOp` holds functions.

Producer/consumer relations — which drive the environment's operation walk
and the fusion transformation — fall out of SSA use-def chains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence

from .affine import AffineMap
from .types import TensorType


class IRError(ValueError):
    """Raised on malformed IR construction."""


class IteratorType(Enum):
    """Loop iterator kinds, as in linalg's ``iterator_types``."""

    PARALLEL = "parallel"
    REDUCTION = "reduction"

    def __str__(self) -> str:
        return self.value


class OpKind(Enum):
    """Operation classes used by the feature extractor (Fig. 1).

    Mirrors the paper's one-hot encoding: named matmul / conv / pooling /
    add, fully generic loop nests, and an ``unknown`` catch-all for op
    types never seen in training.
    """

    MATMUL = "matmul"
    CONV = "conv"
    POOLING = "pooling"
    ADD = "add"
    GENERIC = "generic"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# SSA values
# ---------------------------------------------------------------------------

_value_counter = itertools.count()


@dataclass(eq=False)
class Value:
    """An SSA tensor value.

    ``synthetic`` marks values materialized inline (like ``tensor.empty``
    window operands) rather than defined by an op or function argument.
    """

    type: TensorType
    name: str = ""
    defining_op: "LinalgOp | None" = None
    synthetic: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"%{next(_value_counter)}"
        elif not self.name.startswith("%"):
            self.name = f"%{self.name}"

    def __repr__(self) -> str:
        return f"{self.name}: {self.type}"


# ---------------------------------------------------------------------------
# Scalar bodies
# ---------------------------------------------------------------------------


class ArithKind(Enum):
    """Scalar arithmetic ops appearing in linalg bodies.

    The feature extractor counts ``+ - * / exp`` (Fig. 1); comparison and
    select are carried for max-style bodies (ReLU, max-pooling) and counted
    as zero-cost control in the operations-count feature.
    """

    ADDF = "arith.addf"
    SUBF = "arith.subf"
    MULF = "arith.mulf"
    DIVF = "arith.divf"
    EXP = "math.exp"
    MAXF = "arith.maximumf"
    CMPF = "arith.cmpf"
    SELECT = "arith.select"

    def __str__(self) -> str:
        return self.value


#: ArithKinds included in the operations-count feature vector, in order.
COUNTED_ARITH_KINDS: tuple[ArithKind, ...] = (
    ArithKind.ADDF,
    ArithKind.SUBF,
    ArithKind.MULF,
    ArithKind.DIVF,
    ArithKind.EXP,
)


@dataclass(frozen=True)
class BodyArg:
    """Reference to a block argument of the linalg body (one per operand)."""

    index: int

    def __str__(self) -> str:
        return f"%arg{self.index}"


@dataclass(frozen=True)
class BodyConst:
    """A floating-point constant used inside a body."""

    value: float

    def __str__(self) -> str:
        return f"cst({self.value})"


@dataclass(frozen=True)
class BodyOp:
    """One scalar op inside a linalg body; operands index prior nodes."""

    kind: ArithKind
    operands: tuple[int, ...]


@dataclass(frozen=True)
class Body:
    """Scalar computation applied at every point of the iteration space.

    ``leaves`` are the block arguments / constants; ``ops`` is a DAG in
    topological order whose operand indices address ``leaves + ops`` in
    sequence (leaves first).  ``yield_index`` selects the yielded node.
    """

    leaves: tuple[BodyArg | BodyConst, ...]
    ops: tuple[BodyOp, ...]
    yield_index: int

    def __post_init__(self) -> None:
        total = len(self.leaves) + len(self.ops)
        for position, op in enumerate(self.ops):
            limit = len(self.leaves) + position
            for operand in op.operands:
                if not 0 <= operand < limit:
                    raise IRError(
                        f"body op {position} references node {operand} "
                        f"outside [0, {limit})"
                    )
        if not 0 <= self.yield_index < total:
            raise IRError(f"yield index {self.yield_index} out of range")

    def arith_counts(self) -> dict[ArithKind, int]:
        """Histogram of scalar ops, for the operations-count feature."""
        counts: dict[ArithKind, int] = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    def flops_per_point(self) -> int:
        """Floating-point operations per iteration-space point."""
        expensive = {ArithKind.EXP: 8, ArithKind.DIVF: 4}
        total = 0
        for op in self.ops:
            if op.kind in (ArithKind.CMPF, ArithKind.SELECT):
                continue
            total += expensive.get(op.kind, 1)
        return total

    def arith_uops_per_point(self) -> float:
        """Arithmetic micro-ops per point, with mul+add fused to one FMA.

        Division and exp are microcoded multi-cycle sequences; a multiply
        whose only use is a following add issues as a single FMA.
        """
        weights = {ArithKind.DIVF: 8.0, ArithKind.EXP: 12.0}
        total = 0.0
        mul_results: set[int] = set()
        fused = 0
        base = len(self.leaves)
        for position, op in enumerate(self.ops):
            total += weights.get(op.kind, 1.0)
            if op.kind is ArithKind.MULF:
                mul_results.add(base + position)
            elif op.kind is ArithKind.ADDF:
                if any(operand in mul_results for operand in op.operands):
                    fused += 1
                    mul_results -= set(op.operands)
        return max(total - fused, 0.5)


def body_from_ops(
    num_args: int,
    ops: Sequence[tuple[ArithKind, tuple[int, ...]]],
    yield_index: int | None = None,
    constants: Sequence[float] = (),
) -> Body:
    """Convenience constructor: block args, then constants, then op list."""
    leaves: list[BodyArg | BodyConst] = [BodyArg(i) for i in range(num_args)]
    leaves.extend(BodyConst(c) for c in constants)
    body_ops = tuple(BodyOp(kind, tuple(operands)) for kind, operands in ops)
    if yield_index is None:
        yield_index = len(leaves) + len(body_ops) - 1
    return Body(tuple(leaves), body_ops, yield_index)


# ---------------------------------------------------------------------------
# Linalg operations
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LinalgOp:
    """A structured linalg operation over tensors.

    ``indexing_maps`` has one map per operand (inputs then outputs), each
    mapping the shared iteration space to that operand's tensor indices.
    ``iterator_types`` classifies each iteration-space dimension.
    """

    name: str
    kind: OpKind
    inputs: list[Value]
    outputs: list[Value]
    indexing_maps: list[AffineMap]
    iterator_types: list[IteratorType]
    body: Body
    results: list[Value] = field(default_factory=list)

    def __post_init__(self) -> None:
        operands = self.inputs + self.outputs
        if len(self.indexing_maps) != len(operands):
            raise IRError(
                f"{self.name}: {len(operands)} operands but "
                f"{len(self.indexing_maps)} indexing maps"
            )
        for operand, map_ in zip(operands, self.indexing_maps):
            if map_.num_dims != self.num_loops:
                raise IRError(
                    f"{self.name}: map {map_} over {map_.num_dims} dims "
                    f"but op has {self.num_loops} loops"
                )
            if map_.num_results != operand.type.rank:
                raise IRError(
                    f"{self.name}: map {map_} yields {map_.num_results} "
                    f"indices for rank-{operand.type.rank} operand"
                )
        if len(self.body.leaves) < len(operands):
            raise IRError(
                f"{self.name}: body has {len(self.body.leaves)} leaves for "
                f"{len(operands)} operands"
            )
        if not self.results:
            self.results = [
                Value(out.type, defining_op=self) for out in self.outputs
            ]
        else:
            for value in self.results:
                value.defining_op = self

    # -- iteration-space queries -------------------------------------------

    @property
    def num_loops(self) -> int:
        return len(self.iterator_types)

    @property
    def operands(self) -> list[Value]:
        return self.inputs + self.outputs

    def loop_bounds(self) -> list[int]:
        """Extent of each iteration-space dimension, inferred from shapes.

        Follows linalg semantics: each loop's extent is determined by the
        operand dimensions it indexes (via plain ``d<i>`` results).
        """
        bounds: list[int | None] = [None] * self.num_loops
        for operand, map_ in zip(self.operands, self.indexing_maps):
            for result, extent in zip(map_.results, operand.type.shape):
                coeffs = result.linear_coefficients(map_.num_dims)
                if coeffs is None:
                    continue
                used = [
                    (position, coeff)
                    for position, coeff in enumerate(coeffs[:-1])
                    if coeff != 0
                ]
                if len(used) != 1:
                    continue
                position, coeff = used[0]
                if coeff != 1:
                    continue
                # extent covers `d + const` windows conservatively: the loop
                # ranges over extent - const when a positive offset exists.
                inferred = extent - coeffs[-1]
                if bounds[position] is None or inferred < bounds[position]:
                    bounds[position] = inferred
        resolved: list[int] = []
        for position, bound in enumerate(bounds):
            if bound is None or bound <= 0:
                raise IRError(
                    f"{self.name}: cannot infer extent of loop d{position}"
                )
            resolved.append(bound)
        return resolved

    def reduction_dims(self) -> list[int]:
        return [
            i
            for i, it in enumerate(self.iterator_types)
            if it is IteratorType.REDUCTION
        ]

    def parallel_dims(self) -> list[int]:
        return [
            i
            for i, it in enumerate(self.iterator_types)
            if it is IteratorType.PARALLEL
        ]

    def result(self) -> Value:
        if len(self.results) != 1:
            raise IRError(f"{self.name} has {len(self.results)} results")
        return self.results[0]

    def __repr__(self) -> str:
        return (
            f"<{self.name} loops={self.num_loops} "
            f"kind={self.kind.value}>"
        )


# ---------------------------------------------------------------------------
# Functions and modules
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FuncOp:
    """A function: tensor arguments, a linalg op sequence, returned values."""

    name: str
    arguments: list[Value]
    body: list[LinalgOp] = field(default_factory=list)
    returns: list[Value] = field(default_factory=list)

    def append(self, op: LinalgOp) -> LinalgOp:
        self.body.append(op)
        return op

    def verify_ssa(self) -> None:
        """Check that every operand is defined before use."""
        defined = {id(v) for v in self.arguments}
        for op in self.body:
            for operand in op.operands:
                if operand.synthetic:
                    continue
                if id(operand) not in defined:
                    raise IRError(
                        f"{self.name}: {operand.name} used before definition "
                        f"in {op.name}"
                    )
            for result in op.results:
                defined.add(id(result))
        for value in self.returns:
            if id(value) not in defined:
                raise IRError(f"{self.name}: returns undefined {value.name}")

    def producers_of(self, op: LinalgOp) -> list[LinalgOp]:
        """Ops in this function whose results feed ``op``, in body order."""
        producer_ids = {id(v.defining_op) for v in op.inputs if v.defining_op}
        return [p for p in self.body if id(p) in producer_ids]

    def consumers_of(self, op: LinalgOp) -> list[LinalgOp]:
        result_ids = {id(r) for r in op.results}
        return [
            c
            for c in self.body
            if any(id(v) in result_ids for v in c.inputs)
        ]

    def walk_consumers_first(self) -> Iterator[LinalgOp]:
        """Operations from last to first — the paper's traversal order."""
        return iter(reversed(self.body))

    def next_to_schedule(
        self, current: LinalgOp, visited: set[int]
    ) -> LinalgOp | None:
        """The op to schedule after ``current`` (paper §III): the
        textually last producer of ``current`` not yet visited, else the
        next unvisited op consumers-first; None once every op is.
        ``visited`` holds the ids of the ops already scheduled."""
        for producer in reversed(self.producers_of(current)):
            if id(producer) not in visited:
                return producer
        for op in self.walk_consumers_first():
            if id(op) not in visited:
                return op
        return None

    def last_producer(self, op: LinalgOp) -> LinalgOp | None:
        """The textually closest preceding producer (paper §III)."""
        producers = self.producers_of(op)
        if not producers:
            return None
        return producers[-1]


def clone_func(func: FuncOp) -> FuncOp:
    """A structurally identical, object-identity-fresh copy of ``func``.

    Every :class:`Value` and :class:`LinalgOp` is a new object; the
    immutable pieces (tensor types, affine maps, iterator types, scalar
    bodies) are shared.  Use-def relations are remapped so the clone's
    SSA graph is isolated: schedules, caches, and memo attributes
    attached to one copy can never leak into another.  Value names are
    preserved, so the clone prints identically to the original.
    """
    mapping: dict[int, Value] = {}

    def remap(value: Value) -> Value:
        mapped = mapping.get(id(value))
        if mapped is None:
            mapped = Value(value.type, value.name, synthetic=value.synthetic)
            mapping[id(value)] = mapped
        return mapped

    clone = FuncOp(func.name, [remap(a) for a in func.arguments])
    for op in func.body:
        copied = LinalgOp(
            name=op.name,
            kind=op.kind,
            inputs=[remap(v) for v in op.inputs],
            outputs=[remap(v) for v in op.outputs],
            indexing_maps=list(op.indexing_maps),
            iterator_types=list(op.iterator_types),
            body=op.body,
        )
        for original, fresh in zip(op.results, copied.results):
            fresh.name = original.name
            mapping[id(original)] = fresh
        clone.append(copied)
    clone.returns = [remap(v) for v in func.returns]
    return clone


@dataclass(eq=False)
class ModuleOp:
    """A module: a named collection of functions."""

    functions: list[FuncOp] = field(default_factory=list)
    name: str = "module"

    def append(self, func: FuncOp) -> FuncOp:
        self.functions.append(func)
        return func

    def function(self, name: str) -> FuncOp:
        for func in self.functions:
            if func.name == name:
                return func
        raise IRError(f"no function named {name!r} in module")

    def verify(self) -> None:
        names = [f.name for f in self.functions]
        if len(set(names)) != len(names):
            raise IRError(f"duplicate function names in module: {names}")
        for func in self.functions:
            func.verify_ssa()
