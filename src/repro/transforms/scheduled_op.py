"""Mutable schedule state for one linalg operation.

A :class:`ScheduledOp` tracks how a linalg op has been transformed so far,
following MLIR's structured-transform semantics:

* **tiling** materializes a *band* of outer tile loops (``scf.for`` /
  ``scf.forall``) around a shrunken inner linalg op whose extents are the
  tile sizes;
* **interchange** permutes the iteration space of the (current, inner) op;
* **tiled fusion** records a producer cloned inside the most recent tile
  band;
* **vectorization** replaces the inner op body by vector ops — terminal.

Loop *positions* (what the agent sees and the paper's actions index) are
the current order of the inner op's dimensions; *dims* are the original
iteration-space dimension indices.
"""

from __future__ import annotations

import copy as copy_module
import math
from dataclasses import dataclass, field

from ..ir.ops import IteratorType, LinalgOp
from .records import Transformation


class TransformError(ValueError):
    """Raised when a transformation cannot be applied."""


def freeze_annotations(value: object) -> object:
    """A hashable canonical form of plugin annotation state.

    Dicts/sets are sorted, lists become tuples, primitives pass through;
    anything else falls back to ``repr`` (stable for dataclasses)."""
    if isinstance(value, dict):
        return tuple(
            (freeze_annotations(k), freeze_annotations(v))
            for k, v in sorted(value.items(), key=lambda item: repr(item[0]))
        )
    if isinstance(value, (list, tuple)):
        return tuple(freeze_annotations(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(freeze_annotations(item) for item in value))
    if isinstance(value, (int, float, bool, str, bytes)) or value is None:
        return value
    return repr(value)


@dataclass
class BandLoop:
    """One materialized tile loop: iterates ``trip`` tiles of ``tile`` points
    of original dimension ``dim``."""

    dim: int
    trip: int
    tile: int
    parallel: bool


@dataclass
class Band:
    """A band of tile loops produced by a single tiling action."""

    loops: list[BandLoop] = field(default_factory=list)
    parallel: bool = False


@dataclass
class FusedProducer:
    """A producer fused inside the consumer's most recent tile band."""

    producer: "ScheduledOp"
    band_index: int


class ScheduledOp:
    """Schedule state of one linalg op (see module docstring)."""

    def __init__(self, op: LinalgOp):
        self.op = op
        bounds = op.loop_bounds()
        #: current inner-op extent of each original dimension
        self.extents: list[int] = list(bounds)
        #: original extents, before any tiling
        self.original_extents: tuple[int, ...] = tuple(bounds)
        #: order[i] = original dim at loop position i
        self.order: list[int] = list(range(op.num_loops))
        #: materialized tile-loop bands, outermost first
        self.bands: list[Band] = []
        #: producers fused into this op's tile bands
        self.fused: list[FusedProducer] = []
        self.vectorized: bool = False
        #: applied transformation records, in order
        self.history: list[Transformation] = []
        #: set once this op has been fused into a consumer
        self.fused_into: "ScheduledOp | None" = None
        #: registry-plugin schedule state (e.g. the unroll plugin's
        #: per-dim factors); specs own their keys, core code never reads
        #: them — lowering hooks consume them instead
        self.annotations: dict[str, object] = {}
        #: memo of the function-level state key, set by
        #: ScheduledFunction.schedule_key once this state is shared
        #: between copy-on-write clones (and hence never mutated again)
        self.shared_key: tuple | None = None

    # -- queries -------------------------------------------------------------

    @property
    def num_loops(self) -> int:
        return self.op.num_loops

    def iterator_type_at(self, position: int) -> IteratorType:
        """Iterator type of the loop currently at ``position``."""
        return self.op.iterator_types[self.order[position]]

    def extent_at(self, position: int) -> int:
        """Current inner extent of the loop at ``position``."""
        return self.extents[self.order[position]]

    def innermost_extent(self) -> int:
        return self.extent_at(self.num_loops - 1)

    def is_terminal(self) -> bool:
        """True once no further linalg transformation may be applied."""
        return self.vectorized

    def num_transformations(self) -> int:
        return len(self.history)

    def tile_trip(self, dim: int) -> int:
        """Tiles of ``dim`` across all bands (1 when untiled)."""
        trips = 1
        for band in self.bands:
            for loop in band.loops:
                if loop.dim == dim:
                    trips *= loop.trip
        return trips

    def total_points(self) -> int:
        """Iteration points executed, including tile-boundary rounding."""
        points = 1
        for dim in range(self.num_loops):
            points *= self.tile_trip(dim) * self.extents[dim]
        return points

    def state_key(self, op_index: dict[int, int] | None = None) -> tuple:
        """A hashable snapshot of everything lowering/masking reads.

        Two ``ScheduledOp`` instances over structurally identical ops
        with equal state keys lower to structurally identical nests (the
        basis of the schedule-keyed execution cache) and expose the same
        action masks.  ``op_index`` maps ``id(op)`` to the op's position
        in its function body so fused-producer links are identity-free;
        pass None for the per-op variant used by mask caching (fused
        producers then contribute only their count — masks never read
        producer identity).  Raises ``KeyError`` when a fused producer is
        not in ``op_index`` (callers fall back to the uncached path).
        """
        bands = tuple(
            (
                band.parallel,
                tuple(
                    (loop.dim, loop.trip, loop.tile, loop.parallel)
                    for loop in band.loops
                ),
            )
            for band in self.bands
        )
        if op_index is None:
            fused: object = len(self.fused)
        else:
            fused = tuple(
                (op_index[id(entry.producer.op)], entry.band_index)
                for entry in self.fused
            )
        return (
            tuple(self.extents),
            tuple(self.order),
            bands,
            self.vectorized,
            self.fused_into is not None,
            fused,
            freeze_annotations(self.annotations),
        )

    def clone_state(self) -> "ScheduledOp":
        """Deep-ish copy (shares the immutable op and the fusion links;
        :class:`~repro.transforms.pipeline.ScheduledFunction` remaps the
        links when it copies a component)."""
        copy = ScheduledOp.__new__(ScheduledOp)
        copy.op = self.op
        copy.extents = list(self.extents)
        copy.original_extents = self.original_extents
        copy.order = list(self.order)
        copy.bands = [
            Band([BandLoop(l.dim, l.trip, l.tile, l.parallel) for l in b.loops],
                 b.parallel)
            for b in self.bands
        ]
        copy.fused = list(self.fused)
        copy.vectorized = self.vectorized
        copy.history = list(self.history)
        copy.fused_into = self.fused_into
        copy.annotations = copy_module.deepcopy(self.annotations)
        copy.shared_key = None
        return copy

    # -- shared tiling machinery ----------------------------------------------

    def materialize_band(
        self, sizes: tuple[int, ...], parallel: bool
    ) -> Band:
        """Tile the current loops by per-position ``sizes`` (0 = skip).

        Returns the created band.  Raises :class:`TransformError` when no
        position is tiled or the op was already vectorized.
        """
        if self.vectorized:
            raise TransformError("cannot tile a vectorized op")
        if len(sizes) != self.num_loops:
            raise TransformError(
                f"{len(sizes)} tile sizes for {self.num_loops} loops"
            )
        band = Band(parallel=parallel)
        for position, size in enumerate(sizes):
            if size <= 0:
                continue
            dim = self.order[position]
            extent = self.extents[dim]
            tile = min(size, extent)
            trip = math.ceil(extent / tile)
            band.loops.append(BandLoop(dim, trip, tile, parallel))
            self.extents[dim] = tile
        if not band.loops:
            raise TransformError("tiling with all-zero sizes is a no-op")
        self.bands.append(band)
        return band

    def __repr__(self) -> str:
        schedule = "; ".join(str(t) for t in self.history) or "<empty>"
        return f"<ScheduledOp {self.op.name} [{schedule}]>"
