"""Trace-driven set-associative cache simulator.

Used at validation scale (small loop nests) to sanity-check the
analytical footprint model in :mod:`repro.machine.traffic`: the tests
drive the *same* lowered nest through both and require the analytical
DRAM traffic to stay within a constant factor of the simulated misses.

The simulator walks the nest's iteration space in loop order, computes
concrete addresses from the affine access matrices, and feeds them
through an LRU set-associative hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..transforms.loop_nest import Access, Loop, LoweredNest


class SetAssociativeCache:
    """An LRU set-associative cache over line addresses."""

    def __init__(self, capacity: int, line_bytes: int = 64, ways: int = 8):
        if capacity % (line_bytes * ways) != 0:
            raise ValueError(
                f"capacity {capacity} not divisible into {ways}-way sets "
                f"of {line_bytes}-byte lines"
            )
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = capacity // (line_bytes * ways)
        # Per-set ordered dict emulation: line tag -> recency counter.
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Access a byte address.  Returns True on hit."""
        line = address // self.line_bytes
        set_index = line % self.num_sets
        tag = line // self.num_sets
        entries = self._sets[set_index]
        self._clock += 1
        if tag in entries:
            entries[tag] = self._clock
            self.hits += 1
            return True
        self.misses += 1
        if len(entries) >= self.ways:
            victim = min(entries, key=entries.get)
            del entries[victim]
        entries[tag] = self._clock
        return False

    @property
    def miss_bytes(self) -> int:
        return self.misses * self.line_bytes


@dataclass
class CacheHierarchy:
    """A stack of caches; an access filters down on every miss."""

    levels: list[SetAssociativeCache] = field(default_factory=list)

    def access(self, address: int) -> int:
        """Returns the level index that hit (len(levels) = memory)."""
        for index, cache in enumerate(self.levels):
            if cache.access(address):
                return index
        return len(self.levels)

    def dram_bytes(self) -> int:
        if not self.levels:
            return 0
        return self.levels[-1].miss_bytes


def _tensor_base_addresses(accesses: list[Access]) -> dict[int, int]:
    """Assign disjoint base addresses to each distinct tensor."""
    bases: dict[int, int] = {}
    cursor = 0
    for access in accesses:
        if access.tensor_id in bases:
            continue
        bases[access.tensor_id] = cursor
        # Pad to line alignment between tensors.
        cursor += ((access.tensor_bytes + 63) // 64 + 1) * 64
    return bases


def _row_strides(shape: tuple[int, ...]) -> list[int]:
    strides = [1] * len(shape)
    for index in range(len(shape) - 2, -1, -1):
        strides[index] = strides[index + 1] * shape[index + 1]
    return strides


def iterate_points(loops: list[Loop]) -> Iterator[list[int]]:
    """Yield the per-dim coordinates of every nest point, in loop order.

    Tile loops contribute ``iteration * span``; point loops add their
    index — reproducing the tiled traversal order of the lowered code.
    """
    num_dims = 1 + max((loop.dim for loop in loops), default=0)

    def walk(depth: int, coords: list[int]) -> Iterator[list[int]]:
        if depth == len(loops):
            yield coords
            return
        loop = loops[depth]
        for iteration in range(loop.trip):
            coords[loop.dim] += iteration * loop.span
            yield from walk(depth + 1, coords)
            coords[loop.dim] -= iteration * loop.span

    yield from walk(0, [0] * num_dims)


def simulate_nest(
    nest: LoweredNest, hierarchy: CacheHierarchy, max_points: int = 2_000_000
) -> int:
    """Run the nest's address trace through ``hierarchy``.

    Returns the number of points simulated.  Raises ``ValueError`` when
    the nest exceeds ``max_points`` — the simulator is for validation
    scale only; big nests use the analytical model.
    """
    total = nest.total_points()
    if total > max_points:
        raise ValueError(
            f"nest has {total} points; trace simulation capped at "
            f"{max_points}"
        )
    bases = _tensor_base_addresses(nest.accesses)
    strides = {
        id(access): _row_strides(access.tensor_shape)
        for access in nest.accesses
    }
    points = 0
    for coords in iterate_points(nest.loops):
        for access in nest.accesses:
            offset = 0
            for row, stride in zip(access.matrix, strides[id(access)]):
                index = row[-1]
                for dim, coeff in enumerate(row[:-1]):
                    if coeff != 0:
                        index += coeff * coords[dim]
                offset += index * stride
            address = bases[access.tensor_id] + offset * access.element_bytes
            hierarchy.access(address)
        points += 1
    return points
