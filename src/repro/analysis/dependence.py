"""Affine dependence analysis over the mini-MLIR IR.

Each linalg op applies a scalar body at every point of an iteration
space; two iteration points conflict when they touch the same tensor
element and at least one of them writes it.  Because every access is an
affine function of the loop iterators, the set of conflicting iteration
pairs is exactly the integer kernel of the access matrix: points ``p``
and ``q`` hit the same element of an operand accessed through matrix
``A`` iff ``A (p - q) = 0``, i.e. ``p - q`` lies in ``ker A``.

:func:`analyze_op` computes a primitive integer basis of that kernel for
every written operand and folds each basis vector into a classic
distance/direction vector (Allen & Kennedy):

* a basis vector supported on a single dimension ``d`` with coefficient
  ``k`` means iterations ``k`` apart along ``d`` (and equal elsewhere)
  collide — direction ``<`` at ``d``, ``=`` elsewhere, uniform distance
  ``k``;
* a basis vector touching several dimensions describes a non-uniform
  family of collisions (e.g. ``A[i+j]``); those dimensions get direction
  ``*`` with unknown distance and are reported as *coupled* —
  transformations treat them maximally conservatively.

Whether the collision is a flow/anti dependence (the body *reads* the
output element it overwrites, as every accumulator does) or only an
output dependence (blind overwrite) is decided by walking the body DAG
from the yielded node.

:class:`DependenceGraph` adds the inter-op view: a flow edge per tensor
produced by one op and consumed by another, which is what fusion
legality reasons about.

Everything here is pure IR-level analysis — no imports from ``env`` or
``transforms`` — so the transform registry can depend on it without
cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence

from ..ir.affine import AffineError, AffineMap
from ..ir.ops import Body, BodyArg, FuncOp, LinalgOp

#: direction-vector components
LT, EQ, ANY = "<", "=", "*"


class DependenceKind(enum.Enum):
    """Classic dependence classes (Allen & Kennedy)."""

    FLOW = "flow"      # read-after-write
    ANTI = "anti"      # write-after-read
    OUTPUT = "output"  # write-after-write

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Dependence:
    """One dependence of an op on itself, as a distance/direction vector.

    ``directions[d]`` ∈ {``<``, ``=``, ``*``} and ``distance[d]`` give the
    relation between the source and sink iteration along *original*
    dimension ``d``; ``distance[d] is None`` exactly when the direction is
    ``*`` (non-uniform).  ``tensor`` names the operand both endpoints
    touch.
    """

    kind: DependenceKind
    tensor: str
    directions: tuple[str, ...]
    distance: tuple[int | None, ...]

    @property
    def carried_dims(self) -> frozenset[int]:
        """Dimensions along which source and sink iterations differ."""
        return frozenset(
            d for d, direction in enumerate(self.directions) if direction != EQ
        )

    def render(self) -> str:
        parts = []
        for direction, dist in zip(self.directions, self.distance):
            if direction == EQ:
                parts.append("=")
            elif dist is not None:
                parts.append(f"<{dist}" if dist != 1 else "<")
            else:
                parts.append("*")
        return f"{self.kind}({self.tensor}) [{' '.join(parts)}]"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class OpDependences:
    """All self-dependences of one linalg op, plus derived summaries.

    ``carried`` is the union of carried dimensions over all dependences —
    a dimension not in it may be executed in parallel.  ``coupled`` holds
    dimensions entangled by a non-uniform (multi-dimensional) kernel
    vector; none of the builder/generator ops produce any, but arbitrary
    IR can, and every consumer treats them conservatively.
    """

    op: LinalgOp
    dependences: tuple[Dependence, ...]
    carried: frozenset[int]
    coupled: frozenset[int]
    reads_output: bool

    @property
    def num_loops(self) -> int:
        return self.op.num_loops

    def parallelizable_dims(self) -> frozenset[int]:
        """Dimensions safe to execute in parallel: carrying no dependence."""
        return frozenset(range(self.num_loops)) - self.carried

    def fingerprint(self) -> tuple:
        """Hashable summary for invariance tests.

        Stable across :func:`repro.ir.ops.clone_func` (depends only on
        structure, never on object identity or auto-assigned tensor
        names) and invariant under legal schedule transformations, which
        never touch the underlying op.
        """
        return (
            tuple(
                (dep.kind.value, dep.directions, dep.distance)
                for dep in self.dependences
            ),
            tuple(sorted(self.carried)),
            tuple(sorted(self.coupled)),
            self.reads_output,
        )

    def render(self) -> str:
        lines = [f"{self.op.name}: {len(self.dependences)} dependence(s)"]
        for dep in self.dependences:
            lines.append(f"  {dep.render()}")
        carried = ", ".join(f"d{d}" for d in sorted(self.carried)) or "none"
        par = ", ".join(f"d{d}" for d in sorted(self.parallelizable_dims()))
        lines.append(f"  carried: {carried}")
        lines.append(f"  parallelizable: {par or 'none'}")
        if self.coupled:
            coupled = ", ".join(f"d{d}" for d in sorted(self.coupled))
            lines.append(f"  coupled (non-uniform): {coupled}")
        return "\n".join(lines)


@dataclass(frozen=True)
class FlowEdge:
    """A producer→consumer flow dependence through a tensor value."""

    producer: LinalgOp
    consumer: LinalgOp
    tensor: str

    def render(self) -> str:
        return f"{self.producer.name} -> {self.consumer.name} via {self.tensor}"


# ---------------------------------------------------------------------------
# Integer kernel of an access matrix
# ---------------------------------------------------------------------------


def _primitive(vector: list[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to primitive integers, first nonzero > 0."""
    lcm = 1
    for component in vector:
        if component.denominator != 1:
            lcm = lcm * component.denominator // gcd(lcm, component.denominator)
    ints = [int(component * lcm) for component in vector]
    divisor = 0
    for component in ints:
        divisor = gcd(divisor, abs(component))
    if divisor > 1:
        ints = [component // divisor for component in ints]
    for component in ints:
        if component != 0:
            if component < 0:
                ints = [-c for c in ints]
            break
    return tuple(ints)


def integer_kernel(
    rows: Sequence[Sequence[int]], num_cols: int
) -> list[tuple[int, ...]]:
    """A primitive integer basis of ``{v : M v = 0}`` for integer ``M``.

    Gaussian elimination over the rationals; each free column yields one
    basis vector, scaled to primitive integers with its first nonzero
    component positive so the basis is canonical for a given ``M``.
    Memoized by value: generated ops repeat a few small access matrices,
    and every fresh op is analysed on its first action mask.
    """
    return list(_integer_kernel(tuple(map(tuple, rows)), num_cols))


@lru_cache(maxsize=4096)
def _integer_kernel(
    rows: tuple[tuple[int, ...], ...], num_cols: int
) -> tuple[tuple[int, ...], ...]:
    matrix = [[Fraction(entry) for entry in row] for row in rows]
    pivot_of_col: dict[int, int] = {}
    pivot_row = 0
    for col in range(num_cols):
        pivot = next(
            (r for r in range(pivot_row, len(matrix)) if matrix[r][col] != 0),
            None,
        )
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        lead = matrix[pivot_row][col]
        matrix[pivot_row] = [entry / lead for entry in matrix[pivot_row]]
        for r in range(len(matrix)):
            if r != pivot_row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [
                    entry - factor * lead_entry
                    for entry, lead_entry in zip(matrix[r], matrix[pivot_row])
                ]
        pivot_of_col[col] = pivot_row
        pivot_row += 1
    basis: list[tuple[int, ...]] = []
    for free in range(num_cols):
        if free in pivot_of_col:
            continue
        vector = [Fraction(0)] * num_cols
        vector[free] = Fraction(1)
        for col, row in pivot_of_col.items():
            vector[col] = -matrix[row][free]
        basis.append(_primitive(vector))
    return tuple(basis)


# ---------------------------------------------------------------------------
# Per-op analysis
# ---------------------------------------------------------------------------


def _body_reads_operand(body: Body, operand_index: int) -> bool:
    """Does the yielded computation read block argument ``operand_index``?"""
    stack = [body.yield_index]
    seen: set[int] = set()
    num_leaves = len(body.leaves)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node < num_leaves:
            leaf = body.leaves[node]
            if isinstance(leaf, BodyArg) and leaf.index == operand_index:
                return True
        else:
            stack.extend(body.ops[node - num_leaves].operands)
    return False


def _dim_columns(map_: AffineMap) -> list[list[int]] | None:
    """Access-matrix rows restricted to dim columns, or None if non-linear."""
    try:
        matrix = map_.access_matrix()
    except AffineError:
        return None
    return [row[:-1] for row in matrix]


def _conservative_dependences(
    op: LinalgOp, tensor: str, kinds: Sequence[DependenceKind]
) -> list[Dependence]:
    """An all-``*`` vector per kind — the 'anything may conflict' fallback."""
    directions = tuple(ANY for _ in range(op.num_loops))
    distance: tuple[int | None, ...] = tuple(None for _ in range(op.num_loops))
    return [Dependence(kind, tensor, directions, distance) for kind in kinds]


def _vector_dependences(
    op: LinalgOp,
    tensor: str,
    kinds: Sequence[DependenceKind],
    basis: list[tuple[int, ...]],
    coupled: set[int],
) -> list[Dependence]:
    """Fold kernel basis vectors into distance/direction vectors."""
    dependences: list[Dependence] = []
    for vector in basis:
        support = [d for d, component in enumerate(vector) if component != 0]
        directions = [EQ] * op.num_loops
        distance: list[int | None] = [0] * op.num_loops
        if len(support) == 1:
            d = support[0]
            directions[d] = LT
            distance[d] = abs(vector[d])
        else:
            for d in support:
                directions[d] = ANY
                distance[d] = None
            coupled.update(support)
        dependences.extend(
            Dependence(kind, tensor, tuple(directions), tuple(distance))
            for kind in kinds
        )
    return dependences


def analyze_op(op: LinalgOp) -> OpDependences:
    """Dependence analysis of one linalg op (memoized on the op object).

    The memo rides on the ``LinalgOp`` instance itself, so re-analysis
    on every mask and verification is a dict-free attribute read;
    :func:`repro.ir.ops.clone_func` creates fresh op objects, so memos
    never leak across clones.
    """
    memo: OpDependences | None = getattr(op, "_dependence_memo", None)
    if memo is not None:
        return memo

    num_inputs = len(op.inputs)
    dependences: list[Dependence] = []
    carried: set[int] = set()
    coupled: set[int] = set()
    any_reads_output = False

    output_ids = {id(value) for value in op.outputs}
    for out_index, output in enumerate(op.outputs):
        operand_index = num_inputs + out_index
        map_ = op.indexing_maps[operand_index]
        tensor = output.name or f"out{out_index}"
        reads = _body_reads_operand(op.body, operand_index)
        any_reads_output = any_reads_output or reads
        kinds = (
            (DependenceKind.FLOW, DependenceKind.ANTI, DependenceKind.OUTPUT)
            if reads
            else (DependenceKind.OUTPUT,)
        )
        columns = _dim_columns(map_)
        if columns is None:
            new = _conservative_dependences(op, tensor, kinds)
        else:
            basis = integer_kernel(columns, op.num_loops)
            new = _vector_dependences(op, tensor, kinds, basis, coupled)
        dependences.extend(new)
        for dep in new:
            carried.update(dep.carried_dims)

    # An input operand aliasing an output through a *different* access
    # pattern reads elements other iterations write — beyond what the
    # output map's kernel covers, so fall back to the all-``*`` vector.
    # (Never emitted by the builders: accumulators read outputs through
    # the body, not through aliased inputs.)
    for in_index, input_ in enumerate(op.inputs):
        if id(input_) not in output_ids:
            continue
        out_index = next(
            i for i, value in enumerate(op.outputs) if value is input_
        )
        in_map = op.indexing_maps[in_index]
        out_map = op.indexing_maps[num_inputs + out_index]
        if in_map == out_map:
            continue
        tensor = input_.name or f"in{in_index}"
        new = _conservative_dependences(
            op, tensor, (DependenceKind.FLOW, DependenceKind.ANTI)
        )
        dependences.extend(new)
        carried.update(range(op.num_loops))
        coupled.update(range(op.num_loops))

    result = OpDependences(
        op=op,
        dependences=tuple(dependences),
        carried=frozenset(carried),
        coupled=frozenset(coupled),
        reads_output=any_reads_output,
    )
    op._dependence_memo = result  # type: ignore[attr-defined]
    return result


# ---------------------------------------------------------------------------
# Per-function graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DependenceGraph:
    """Per-op dependences plus inter-op flow edges for one function."""

    func: FuncOp
    nodes: tuple[OpDependences, ...]
    edges: tuple[FlowEdge, ...]

    @staticmethod
    def analyze(func: FuncOp) -> "DependenceGraph":
        """Analyze ``func`` (memoized; invalidated if the body changes)."""
        body_ids = tuple(id(op) for op in func.body)
        memo = getattr(func, "_dependence_graph_memo", None)
        if memo is not None and memo[0] == body_ids:
            graph: DependenceGraph = memo[1]
            return graph
        nodes = tuple(analyze_op(op) for op in func.body)
        edges: list[FlowEdge] = []
        for consumer in func.body:
            for producer in func.producers_of(consumer):
                produced = {id(r): r for r in producer.results}
                for value in consumer.inputs:
                    if id(value) in produced:
                        edges.append(
                            FlowEdge(producer, consumer, value.name or "?")
                        )
        graph = DependenceGraph(func=func, nodes=nodes, edges=tuple(edges))
        func._dependence_graph_memo = (  # type: ignore[attr-defined]
            body_ids,
            graph,
        )
        return graph

    def node(self, op: LinalgOp) -> OpDependences:
        for node in self.nodes:
            if node.op is op:
                return node
        raise KeyError(f"{op.name} is not in {self.func.name}")

    def flow_producers_of(self, op: LinalgOp) -> list[LinalgOp]:
        """Producers feeding ``op`` through a flow edge, in body order."""
        producers = []
        for edge in self.edges:
            if edge.consumer is op and edge.producer not in producers:
                producers.append(edge.producer)
        return producers

    def fingerprint(self) -> tuple:
        return (
            tuple(node.fingerprint() for node in self.nodes),
            tuple(
                (edge.producer.name, edge.consumer.name, edge.tensor)
                for edge in self.edges
            ),
        )

    def render(self) -> str:
        lines = [f"function @{self.func.name}: {len(self.nodes)} op(s)"]
        for node in self.nodes:
            lines.append("")
            lines.append(node.render())
        lines.append("")
        if self.edges:
            lines.append("flow edges:")
            for edge in self.edges:
                lines.append(f"  {edge.render()}")
        else:
            lines.append("flow edges: none")
        return "\n".join(lines)
