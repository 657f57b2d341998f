"""Tiled producer→consumer fusion (paper §IV-A).

In linalg, a consumer must be tiled before fusion: tiling creates explicit
outer tile loops, and only then can the producer be cloned inside them so
that each tile computes the slice of the producer result it needs.
``Tiled Fusion`` therefore bundles both steps: tile the consumer, then
fuse its *last* producer (the textually closest one, paper §III) into the
generated band.

The cost consequences captured for the machine model:

* the intermediate tensor no longer makes a main-memory round trip when a
  tile's slice fits in cache;
* the producer may be *recomputed* across consumer tiles whenever the
  consumer reads each intermediate element from several tiles (the
  recompute factor is the number of tile-band iterations whose dims do not
  index the intermediate tensor).
"""

from __future__ import annotations

from .multi_fusion import MultiTiledFusion
from .records import TiledFusion
from .scheduled_op import FusedProducer, ScheduledOp


def is_fusable(producer: ScheduledOp) -> bool:
    """Whether a consumer may still fuse ``producer``: it is not fused
    elsewhere, and not vectorized — a vectorized producer is already
    rewritten into vector ops and can no longer be cloned into tile
    loops (paper appendix A)."""
    return producer.fused_into is None and not producer.vectorized


def fuse_producers(
    consumer: ScheduledOp,
    producers: list[ScheduledOp],
    transform: TiledFusion | MultiTiledFusion,
) -> None:
    """Tile ``consumer`` by ``transform.sizes`` and fuse ``producers``
    into the new band (one producer for TiledFusion, every fusable one
    for MultiTiledFusion).  Both sides must be owned by the caller's
    :class:`~repro.transforms.pipeline.ScheduledFunction`."""
    consumer.materialize_band(transform.sizes, parallel=False)
    band_index = len(consumer.bands) - 1
    for producer in producers:
        producer.fused_into = consumer
        consumer.fused.append(FusedProducer(producer, band_index))
    consumer.history.append(transform)


def intermediate_value_dims(
    consumer: ScheduledOp, producer: ScheduledOp
) -> set[int]:
    """Consumer iteration dims that index the fused intermediate tensor.

    Band loops over dims *outside* this set re-read (and hence recompute)
    the same intermediate elements — the source of the recompute factor.
    """
    producer_results = {id(r) for r in producer.op.results}
    dims: set[int] = set()
    for value, map_ in zip(consumer.op.operands, consumer.op.indexing_maps):
        if id(value) in producer_results:
            dims |= map_.dims_used()
    return dims


def recompute_factor(consumer: ScheduledOp, producer: ScheduledOp) -> float:
    """How many times each producer point executes after fusion (>= 1)."""
    dims = intermediate_value_dims(consumer, producer)
    factor = 1.0
    fused_bands = {
        fp.band_index for fp in consumer.fused if fp.producer is producer
    }
    for band_index in fused_bands:
        for loop in consumer.bands[band_index].loops:
            if loop.dim not in dims:
                factor *= loop.trip
    return factor
