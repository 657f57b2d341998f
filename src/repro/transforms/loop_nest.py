"""Lowered loop-nest IR — what scheduled linalg ops become.

This is the ``scf``-level view the machine model consumes: an ordered
list of loops (outermost first) with trip counts, parallel/vector flags
and the original iteration-space dimension each one walks, plus the
affine access pattern of every tensor operand and the scalar work per
iteration point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import mul
from typing import Sequence


@dataclass(frozen=True)
class Loop:
    """One loop of the lowered nest.

    ``span`` is the number of points of ``dim`` that one iteration covers
    (the tile size for tile loops, 1 for point loops).  ``unroll`` is the
    number of body replicas per control iteration: a fully-unrolled
    chunk loop carries ``unroll == trip`` (straight-line code, no branch
    per point); 1 means a regular loop.
    """

    dim: int
    trip: int
    span: int = 1
    parallel: bool = False
    vector: bool = False
    unroll: int = 1


@dataclass(frozen=True)
class Access:
    """An affine tensor access within the nest body.

    ``matrix`` is the polyhedral access matrix over the *original*
    iteration dims: one row per tensor dimension, columns are loop-dim
    coefficients plus a trailing constant (Fig. 2 of the paper).
    """

    tensor_shape: tuple[int, ...]
    element_bytes: int
    matrix: tuple[tuple[int, ...], ...]
    is_write: bool
    tensor_id: int = -1

    @property
    def tensor_bytes(self) -> int:
        return reduce(mul, self.tensor_shape, 1) * self.element_bytes

    @cached_property
    def span_terms(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """Per tensor dim: its extent and the ``(loop dim, |coeff|)``
        pairs of its nonzero coefficients (computed once per access)."""
        # List comprehensions, not generators: this runs for every
        # access of every nest the timing model prices.
        return tuple([
            (
                extent,
                tuple([
                    (dim, abs(coeff))
                    for dim, coeff in enumerate(row[:-1])
                    if coeff != 0
                ]),
            )
            for row, extent in zip(self.matrix, self.tensor_shape)
        ])

    @cached_property
    def used_dims(self) -> frozenset[int]:
        """Loop dims with a nonzero coefficient in some row."""
        return frozenset(
            {dim for _, terms in self.span_terms for dim, _ in terms}
        )

    def innermost_stride_elems(self, dim: int) -> int:
        """Element stride when loop dimension ``dim`` advances by one."""
        stride = 0
        row_stride = 1
        for row, extent in zip(
            reversed(self.matrix), reversed(self.tensor_shape)
        ):
            stride += row[dim] * row_stride
            row_stride *= extent
        return abs(stride)


@dataclass
class LoweredNest:
    """A lowered loop nest plus any producer nests fused inside it."""

    loops: list[Loop]
    accesses: list[Access]
    flops_per_point: int
    arith_uops: float = 1.0
    reduction_dims: frozenset[int] = frozenset()
    vectorized: bool = False
    #: (producer nest, recompute factor, intermediate tensor ids)
    fused: list["FusedNest"] = field(default_factory=list)
    label: str = ""

    # -- aggregate queries ---------------------------------------------------

    def total_points(self) -> int:
        return reduce(mul, (l.trip for l in self.loops), 1)

    def total_flops(self) -> int:
        return self.total_points() * self.flops_per_point

    def parallel_band(self) -> tuple[int, int]:
        """(band trip count, outer sequential iterations).

        Finds the first contiguous run of parallel loops.  The parallel
        region forks once per iteration of every loop outside the band
        (the OpenMP cost of a non-outermost ``omp parallel for``).
        Returns (1, 1) for fully serial nests.
        """
        outer = 1
        index = 0
        while index < len(self.loops):
            loop = self.loops[index]
            if loop.parallel:
                trip = 1
                while index < len(self.loops) and self.loops[index].parallel:
                    trip *= self.loops[index].trip
                    index += 1
                return trip, outer
            outer *= loop.trip
            index += 1
        return 1, 1

    def parallel_trip(self) -> int:
        """Combined trip count of the first parallel band, 1 if serial."""
        return self.parallel_band()[0]

    def has_parallel_band(self) -> bool:
        return any(loop.parallel for loop in self.loops)

    def innermost(self) -> Loop:
        if not self.loops:
            raise ValueError("empty loop nest")
        return self.loops[-1]

    def fused_skip_ids(self) -> frozenset[int]:
        """Tensor ids of intermediates absorbed by this nest's fusions.

        The traffic model skips these when timing the nest: the fused
        producer's output never round-trips through memory.  Shared by
        every timing consumer so cached and uncached paths cannot
        diverge.
        """
        if not self.fused:
            return frozenset()
        return frozenset().union(
            *(child.intermediate_ids for child in self.fused)
        )

    def loop_iterations_total(self, include_innermost: bool = False) -> int:
        """Sum over loops of their cumulative iteration counts.

        Used to charge loop-control overhead: each loop executes once per
        iteration of everything outside it.  The innermost loop's control
        is excluded by default — the issue model already accounts for it
        inside the body cost.
        """
        loops = self.loops if include_innermost else self.loops[:-1]
        total = 0
        outer = 1
        for loop in loops:
            outer *= loop.trip
            total += outer
        return total


@dataclass
class FusedNest:
    """A producer nest fused into a consumer's tile band."""

    nest: LoweredNest
    recompute: float
    intermediate_ids: frozenset[int]


def coverage_per_dim(
    loops: Sequence[Loop], start: int, num_dims: int
) -> list[int]:
    """Points of each original dim covered by loops at depth >= ``start``.

    For each dimension, multiplies the trips of its loops inside the
    block; tile loops contribute their trip (the inner loops contribute
    the span).  Dimensions untouched inside the block have coverage 1.
    """
    cover = [1] * num_dims
    for loop in loops[start:]:
        cover[loop.dim] *= loop.trip
    return cover
