"""Tests for the analytical traffic model, validated against the
trace-driven cache simulator."""

import pytest

from repro.ir import matmul, tensor
from repro.machine import (
    CacheHierarchy,
    MachineSpec,
    SetAssociativeCache,
    access_lines,
    block_footprint_bytes,
    compulsory_bytes,
    nest_traffic,
    simulate_nest,
)
from repro.machine.spec import CacheLevel
from repro.transforms import (
    Interchange,
    ScheduledOp,
    Tiling,
    apply_interchange,
    apply_tiling,
    lower_baseline,
    lower_scheduled_op,
)
from repro.transforms.loop_nest import Access


def _matmul_nest(m, n, k):
    return lower_baseline(
        matmul(tensor([m, k]), tensor([k, n]), tensor([m, n]))
    )


class TestAccessLines:
    def _row_access(self):
        # A[d0, d1] over 2 loops, f32, 64x64 tensor
        return Access(
            tensor_shape=(64, 64),
            element_bytes=4,
            matrix=((1, 0, 0), (0, 1, 0)),
            is_write=False,
            tensor_id=1,
        )

    def test_row_walk_is_line_efficient(self):
        access = self._row_access()
        # one full row: 64 elements x 4B = 256B = 4 lines
        assert access_lines(access, [1, 64], 64) == 4

    def test_column_walk_pays_line_per_element(self):
        access = self._row_access()
        # one full column: 64 separate rows -> 64 lines
        assert access_lines(access, [64, 1], 64) == 64

    def test_full_tensor_contiguous(self):
        access = self._row_access()
        # whole 64x64 f32 tensor = 16KB = 256 lines
        assert access_lines(access, [64, 64], 64) == 256

    def test_partial_tile(self):
        access = self._row_access()
        # 8x8 tile: 8 rows of 32B -> 1 line each (ceil(32/64)=1)
        assert access_lines(access, [8, 8], 64) == 8

    def test_invariant_dim(self):
        access = Access(
            tensor_shape=(64,),
            element_bytes=4,
            matrix=((0, 1, 0),),
            is_write=False,
            tensor_id=2,
        )
        # covering dim 0 doesn't grow the footprint
        assert access_lines(access, [100, 1], 64) == 1


class TestFootprints:
    def test_footprint_shrinks_with_depth(self):
        nest = _matmul_nest(64, 64, 64)
        sizes = [
            block_footprint_bytes(nest, depth, 64)
            for depth in range(len(nest.loops) + 1)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_whole_nest_footprint_at_least_compulsory(self):
        nest = _matmul_nest(32, 32, 32)
        assert block_footprint_bytes(nest, 0, 64) >= compulsory_bytes(nest)


def _tiny_spec():
    return MachineSpec(
        cores=4,
        caches=(
            CacheLevel("L1", 4 * 1024, False, 1e11, 4e11),
            CacheLevel("L2", 32 * 1024, False, 5e10, 2e11),
            CacheLevel("L3", 256 * 1024, True, 2e10, 8e10),
        ),
    )


class TestTrafficModel:
    def test_small_tensors_move_once(self):
        nest = _matmul_nest(16, 16, 16)
        report = nest_traffic(nest, _tiny_spec())
        # everything fits in L3: DRAM traffic ~ compulsory (writes 2x)
        dram = report.into("L3")
        assert dram <= compulsory_bytes(nest) * 3

    def test_tiling_reduces_l2_traffic(self):
        op = matmul(tensor([128, 128]), tensor([128, 128]), tensor([128, 128]))
        untiled = lower_baseline(op)
        schedule = ScheduledOp(op)
        apply_tiling(schedule, Tiling((32, 32, 32)))
        tiled = lower_scheduled_op(schedule)
        spec = _tiny_spec()
        untiled_l2 = nest_traffic(untiled, spec).into("L2")
        tiled_l2 = nest_traffic(tiled, spec).into("L2")
        assert tiled_l2 < untiled_l2

    def test_interchange_changes_traffic(self):
        op = matmul(tensor([64, 64]), tensor([64, 64]), tensor([64, 64]))
        schedule = ScheduledOp(op)
        apply_interchange(schedule, Interchange((2, 0, 1)))
        spec = _tiny_spec()
        base = nest_traffic(lower_baseline(op), spec).into("L2")
        swapped = nest_traffic(lower_scheduled_op(schedule), spec).into("L2")
        assert base != swapped


class TestCacheSimulator:
    def test_lru_eviction(self):
        cache = SetAssociativeCache(capacity=1024, line_bytes=64, ways=2)
        # 2-way, 8 sets; three lines in the same set evict LRU
        stride = 8 * 64
        assert not cache.access(0)
        assert not cache.access(stride)
        assert cache.access(0)             # hit, refreshes 0
        assert not cache.access(2 * stride)  # evicts `stride`
        assert not cache.access(stride)      # miss again

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity=1000, line_bytes=64, ways=8)

    def test_hierarchy_filters_misses(self):
        hierarchy = CacheHierarchy(
            [SetAssociativeCache(1024), SetAssociativeCache(4096)]
        )
        assert hierarchy.access(0) == 2     # cold: misses both
        assert hierarchy.access(0) == 0     # L1 hit

    def test_simulator_rejects_big_nests(self):
        nest = _matmul_nest(256, 256, 256)
        with pytest.raises(ValueError):
            simulate_nest(nest, CacheHierarchy([SetAssociativeCache(1024)]),
                          max_points=1000)


class TestAnalyticalVsSimulated:
    """The analytical model should track the simulator within a small
    constant factor at validation scale."""

    @pytest.mark.parametrize(
        "shape,tiles",
        [
            ((24, 24, 24), None),
            ((32, 32, 32), (8, 8, 8)),
            ((48, 16, 16), (8, 8, 0)),
        ],
    )
    def test_dram_traffic_within_factor(self, shape, tiles):
        m, n, k = shape
        op = matmul(tensor([m, k]), tensor([k, n]), tensor([m, n]))
        if tiles is None:
            nest = lower_baseline(op)
        else:
            schedule = ScheduledOp(op)
            apply_tiling(schedule, Tiling(tiles))
            nest = lower_scheduled_op(schedule)
        spec = _tiny_spec()
        hierarchy = CacheHierarchy(
            [
                SetAssociativeCache(level.capacity)
                for level in spec.caches
            ]
        )
        simulate_nest(nest, hierarchy)
        simulated = hierarchy.dram_bytes()
        analytical = nest_traffic(nest, spec).into("L3")
        assert analytical >= simulated * 0.2
        assert analytical <= max(simulated * 8, compulsory_bytes(nest) * 4)


class TestAccessLinesEdges:
    """Regression coverage for access_lines corner cases that
    nest_traffic leans on."""

    def _cube_access(self):
        # B[d0, d1, d2] over 3 loops, f32, 4x8x4 tensor
        return Access(
            tensor_shape=(4, 8, 4),
            element_bytes=4,
            matrix=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
            is_write=False,
            tensor_id=2,
        )

    def test_rank_zero_operand_is_one_line(self):
        """A scalar (rank-0) operand touches exactly one line, for any
        cover."""
        scalar = Access(
            tensor_shape=(),
            element_bytes=4,
            matrix=(),
            is_write=False,
            tensor_id=0,
        )
        for cover in ([1, 1], [64, 64], [128, 1]):
            assert access_lines(scalar, cover, 64) == 1

    def test_cover_exceeding_extents_clamps(self):
        """Spans clamp to the tensor extent: an overshooting cover (as
        tiling 33 by 32 produces) never counts phantom lines."""
        access = Access(
            tensor_shape=(64, 64),
            element_bytes=4,
            matrix=((1, 0, 0), (0, 1, 0)),
            is_write=False,
            tensor_id=1,
        )
        full = access_lines(access, [64, 64], 64)
        assert access_lines(access, [128, 128], 64) == full == 256

    def test_trailing_full_extents_fold_contiguously(self):
        """Full trailing dims merge into one run: 8x4 f32 = 128B = 2
        lines, not a line per middle-dim index."""
        access = self._cube_access()
        assert access_lines(access, [1, 8, 4], 64) == 2

    def test_partial_trailing_span_pays_line_per_row(self):
        """A partial last dim breaks contiguity: each of the 8 rows
        pays its own (partially filled) line."""
        access = self._cube_access()
        assert access_lines(access, [1, 8, 2], 64) == 8

    def test_monotone_under_cover_growth(self):
        """Growing any cover dimension never shrinks the line count —
        the property the traffic lower bound's maximization relies on."""
        access = Access(
            tensor_shape=(64, 64),
            element_bytes=4,
            matrix=((1, 0, 0), (0, 1, 0)),
            is_write=False,
            tensor_id=1,
        )
        covers = [[1, 1], [2, 2], [4, 8], [16, 16], [64, 64], [128, 128]]
        counts = [access_lines(access, cover, 64) for cover in covers]
        assert counts == sorted(counts)
        assert counts[0] == 1 and counts[-1] == 256
