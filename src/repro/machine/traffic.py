"""Analytical cache-traffic model for lowered loop nests.

Classic footprint-based reuse analysis (as used in the Tiramisu and
Halide cost models): for each cache level, find the outermost loop depth
whose *block* — one complete execution of all loops at that depth and
inward — has a total data footprint that fits in the cache.  Data is then
reused inside the block, and the traffic an operand induces from the
level above equals its per-block footprint times the number of block
executions that actually change the data it touches (outer loops that do
not index the operand reuse the cached block for free).

Footprints are counted at cache-line granularity, so a column walk
through a row-major tensor pays a full line per element — which is
exactly the locality signal tiling and interchange exist to fix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..transforms.loop_nest import Access, LoweredNest, coverage_per_dim
from .spec import MachineSpec

#: Fraction of a cache's capacity the model lets a working set use
#: (conflict misses, other residents).
_CACHE_UTILIZATION = 0.8


def access_lines(
    access: Access, cover: list[int], line_bytes: int
) -> int:
    """Cache lines touched by ``access`` over a block covering ``cover``.

    The rectangle footprint per tensor dimension; the last (fastest
    varying) dimension is line-contiguous, every other dimension pays a
    line per distinct index in the worst case (true for row-major layouts
    whenever the trailing span doesn't cover whole lines — a conservative
    but monotone approximation).
    """
    spans: list[int] = []
    for extent, terms in access.span_terms:
        span = 1
        for dim, coeff in terms:
            span += coeff * (cover[dim] - 1)
        spans.append(min(span, extent))
    if not spans:
        return 1
    # Trailing dimensions whose span covers the whole extent are
    # contiguous with their predecessor in a row-major layout: fold them
    # into one contiguous run, then charge a line per residual outer index.
    contiguous = spans[-1]
    index = len(spans) - 2
    if spans[-1] == access.tensor_shape[-1]:
        while index >= 0 and spans[index] == access.tensor_shape[index]:
            contiguous *= spans[index]
            index -= 1
    outer = 1
    for position in range(index + 1):
        outer *= spans[position]
    run_lines = math.ceil(contiguous * access.element_bytes / line_bytes)
    return outer * run_lines


def _num_dims(nest: LoweredNest) -> int:
    return 1 + max((loop.dim for loop in nest.loops), default=0)


def _block_lines(
    nest: LoweredNest, depth: int, num_dims: int, line_bytes: int
) -> list[int]:
    """Lines each access touches over one execution of the block at
    ``depth``, in ``nest.accesses`` order."""
    cover = coverage_per_dim(nest.loops, depth, num_dims)
    return [
        access_lines(access, cover, line_bytes) for access in nest.accesses
    ]


def block_footprint_bytes(
    nest: LoweredNest, depth: int, line_bytes: int
) -> int:
    """Total line-granular footprint of the block at ``depth``.

    The figure :func:`nest_traffic` compares with each level's capacity,
    computed the same way for one depth: it explains a reported reuse
    depth (the block there fits, the one just outside it does not)
    without rebuilding the whole table.
    """
    lines = _block_lines(nest, depth, _num_dims(nest), line_bytes)
    return sum(lines) * line_bytes


@dataclass
class TrafficReport:
    """Bytes moved into each cache level over the nest's execution."""

    bytes_per_level: dict[str, float]
    reuse_depths: dict[str, int]

    def into(self, level_name: str) -> float:
        return self.bytes_per_level.get(level_name, 0.0)


def nest_traffic(
    nest: LoweredNest,
    spec: MachineSpec,
    skip_tensor_ids: frozenset[int] = frozenset(),
) -> TrafficReport:
    """Traffic into each cache level for one nest execution.

    ``skip_tensor_ids`` removes accesses whose data is guaranteed
    cache-resident (fused intermediates) from the DRAM/L3 traffic.

    Each level's reuse depth is the outermost depth whose block
    footprint fits in the level.  The per-access line counts of a depth
    do not depend on the level, so one lazily filled table of them
    serves every level: the depth scan and the chosen depth's traffic
    sum both read it.
    """
    num_dims = _num_dims(nest)
    line_bytes = spec.line_bytes
    innermost = len(nest.loops)
    #: table[depth] = (footprint bytes, lines per access) of its block
    table: list[tuple[int, list[int]]] = []

    def block(depth: int) -> tuple[int, list[int]]:
        while len(table) <= depth:
            lines = _block_lines(nest, len(table), num_dims, line_bytes)
            table.append((sum(lines) * line_bytes, lines))
        return table[depth]

    last_level = spec.caches[-1].name
    bytes_per_level: dict[str, float] = {}
    reuse_depths: dict[str, int] = {}
    for level in spec.caches:
        capacity = level.capacity * _CACHE_UTILIZATION
        depth = 0
        while depth < innermost and block(depth)[0] > capacity:
            depth += 1
        reuse_depths[level.name] = depth
        outer_loops = nest.loops[:depth]
        total = 0.0
        for access, lines in zip(nest.accesses, block(depth)[1]):
            if (
                access.tensor_id in skip_tensor_ids
                and level.name == last_level
            ):
                continue
            executions = 1
            used = access.used_dims
            for loop in outer_loops:
                if loop.dim in used:
                    executions *= loop.trip
            weight = 2.0 if access.is_write else 1.0
            total += executions * lines * line_bytes * weight
        bytes_per_level[level.name] = total
    return TrafficReport(bytes_per_level, reuse_depths)


def compulsory_bytes(nest: LoweredNest) -> int:
    """Lower bound: every distinct tensor moved once."""
    seen: set[int] = set()
    total = 0
    for access in nest.accesses:
        if access.tensor_id in seen:
            continue
        seen.add(access.tensor_id)
        total += access.tensor_bytes
    return total
