"""Tests for the analytical traffic model, validated against the
trace-driven cache simulator and against a restatement of the
per-level rescan it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import generate_program
from repro.env.actions import flat_action_table
from repro.env.config import small_config
from repro.env.masking import compute_mask
from repro.ir import matmul, tensor
from repro.machine import (
    CacheHierarchy,
    MachineSpec,
    SetAssociativeCache,
    access_lines,
    block_footprint_bytes,
    compulsory_bytes,
    machine_names,
    nest_traffic,
    simulate_nest,
    spec,
)
from repro.machine.spec import CacheLevel
from repro.machine.traffic import _CACHE_UTILIZATION
from repro.transforms import (
    Interchange,
    ScheduledFunction,
    ScheduledOp,
    Tiling,
    TransformKind,
    apply_interchange,
    apply_tiling,
    lower_baseline,
    lower_scheduled_op,
    view_for,
)
from repro.transforms.loop_nest import Access, Loop, LoweredNest


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


# -- exact oracle: the per-level rescan the footprint table replaced ----------


def _rescan_lines(access, cover, line_bytes):
    """``access_lines`` as it walked the access matrix on every call."""
    spans = []
    for row, extent in zip(access.matrix, access.tensor_shape):
        span = 1
        for dim, coeff in enumerate(row[:-1]):
            if coeff != 0:
                span += abs(coeff) * (cover[dim] - 1)
        spans.append(min(span, extent))
    if not spans:
        return 1
    contiguous = spans[-1]
    index = len(spans) - 2
    if spans[-1] == access.tensor_shape[-1]:
        while index >= 0 and spans[index] == access.tensor_shape[index]:
            contiguous *= spans[index]
            index -= 1
    outer = 1
    for position in range(index + 1):
        outer *= spans[position]
    return outer * math.ceil(contiguous * access.element_bytes / line_bytes)


def _cover(nest, depth):
    points = [1] * (1 + max((loop.dim for loop in nest.loops), default=0))
    for loop in nest.loops[depth:]:
        points[loop.dim] *= loop.trip
    return points


def _footprint(nest, depth, line_bytes):
    return sum(
        _rescan_lines(access, _cover(nest, depth), line_bytes) * line_bytes
        for access in nest.accesses
    )


def _rescan_traffic(nest, machine, skip_tensor_ids=frozenset()):
    """Every cache level rescans block footprints from depth 0, then
    recounts the chosen block's lines and each access's used dims."""
    line_bytes = machine.line_bytes
    bytes_per_level, reuse_depths = {}, {}
    for level in machine.caches:
        capacity = level.capacity * _CACHE_UTILIZATION
        depth = len(nest.loops)
        for candidate in range(len(nest.loops) + 1):
            if _footprint(nest, candidate, line_bytes) <= capacity:
                depth = candidate
                break
        reuse_depths[level.name] = depth
        total = 0.0
        for access in nest.accesses:
            if (
                access.tensor_id in skip_tensor_ids
                and level.name == machine.caches[-1].name
            ):
                continue
            lines = _rescan_lines(access, _cover(nest, depth), line_bytes)
            used = {
                position
                for row in access.matrix
                for position, coeff in enumerate(row[:-1])
                if coeff != 0
            }
            executions = 1
            for loop in nest.loops[:depth]:
                if loop.dim in used:
                    executions *= loop.trip
            weight = 2.0 if access.is_write else 1.0
            total += executions * lines * line_bytes * weight
        bytes_per_level[level.name] = total
    return bytes_per_level, reuse_depths


MACHINES = [spec(name) for name in machine_names()]


def _assert_matches_rescan(nest, skip_tensor_ids=frozenset()):
    for machine in MACHINES:
        report = nest_traffic(nest, machine, skip_tensor_ids)
        expected_bytes, expected_depths = _rescan_traffic(
            nest, machine, skip_tensor_ids
        )
        # == on floats: bit-identical, not approximately equal
        assert report.bytes_per_level == expected_bytes, machine
        assert report.reuse_depths == expected_depths, machine
        for depth in range(len(nest.loops) + 1):
            assert block_footprint_bytes(
                nest, depth, machine.line_bytes
            ) == _footprint(nest, depth, machine.line_bytes)


def _timed_nests(nest, skip_tensor_ids):
    """(nest, skip ids) pairs in the order ``nest_time`` prices them."""
    yield nest, skip_tensor_ids
    for fused in nest.fused:
        yield from _timed_nests(fused.nest, fused.intermediate_ids)


def _random_legal_schedule(func, rng, steps_per_op=4):
    """Random mask-legal actions per op, consumers first, taking tiled
    fusion whenever the mask offers it and a coin lands heads."""
    config = small_config()
    table = flat_action_table(config)
    view = view_for(config)
    scheduled = ScheduledFunction(func)
    for op in func.walk_consumers_first():
        for _ in range(steps_per_op):
            schedule = scheduled.schedule_of(op)
            if schedule.is_terminal():
                break
            has_producer = scheduled.fusable_producer_of(op) is not None
            mask = compute_mask(schedule, config, has_producer)
            n = schedule.num_loops
            pool = [
                flat
                for flat in table
                if mask.transformation[int(flat.kind)]
                and not view.spec_at(int(flat.kind)).is_stop
                and flat._spec().flat_legal(flat, mask, n, config)
            ]
            if not pool:
                break
            fusions = [
                flat
                for flat in pool
                if flat.kind == TransformKind.TILED_FUSION
            ]
            if fusions and rng.random() < 0.5:
                pool = fusions
            flat = pool[int(rng.integers(len(pool)))]
            scheduled.apply(op, flat.to_record(n))
    return scheduled


class TestFootprintTableMatchesRescan:
    """``nest_traffic`` fills one per-depth footprint table per call and
    shares it across cache levels; its floats and reuse depths must
    equal the per-level rescan's exactly, on every registry machine
    (the two-level ``edge-cortex-a72`` included)."""

    def test_registry_covers_two_level_machine(self):
        assert sorted({len(machine.caches) for machine in MACHINES}) == [2, 3]

    def test_generated_programs_under_random_legal_schedules(self):
        rng = np.random.default_rng(0)
        nests = fused = 0
        for _ in range(40):
            func = generate_program(rng)
            for top in ScheduledFunction(func).lower():
                for nest, skip in _timed_nests(top, frozenset()):
                    _assert_matches_rescan(nest, skip)
            for top in _random_legal_schedule(func, rng).lower():
                for nest, skip in _timed_nests(top, top.fused_skip_ids()):
                    _assert_matches_rescan(nest, skip)
                    nests += 1
                    fused += bool(skip)
        # tiled fusion ran: fused producers were priced with skip ids
        assert nests > 100 and fused > 5, (nests, fused)

    def test_tiled_fusion_skips_intermediate_at_last_level(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            func = generate_program(rng)
            for top in _random_legal_schedule(func, rng).lower():
                skip = top.fused_skip_ids()
                if not skip:
                    continue
                _assert_matches_rescan(top, skip)
                for machine in MACHINES:
                    last = machine.caches[-1].name
                    kept = nest_traffic(top, machine).into(last)
                    skipped = nest_traffic(top, machine, skip).into(last)
                    assert skipped <= kept
                return
        pytest.fail("no tiled fusion in 40 generated programs")

    def test_negative_and_constant_only_rows(self):
        # out[i - j + 8] += w[j] * x[2i + j, 3]: a negative coefficient,
        # a stride-2 row and a constant-only row, over a tiled i loop
        loops = [
            Loop(dim=0, trip=4, span=16),
            Loop(dim=1, trip=9),
            Loop(dim=0, trip=16),
        ]
        accesses = [
            Access((80,), 4, ((1, -1, 8),), True, tensor_id=0),
            Access((9,), 4, ((0, 1, 0),), False, tensor_id=1),
            Access((140, 4), 8, ((2, 1, 0), (0, 0, 3)), False, tensor_id=2),
            Access((), 4, (), False, tensor_id=3),
        ]
        nest = LoweredNest(loops=loops, accesses=accesses, flops_per_point=2)
        _assert_matches_rescan(nest)
        _assert_matches_rescan(nest, frozenset({2}))
        assert accesses[0].span_terms == ((80, ((0, 1), (1, 1))),)
        assert accesses[2].span_terms[1] == (4, ())
        assert accesses[2].used_dims == {0, 1}


_COEFF = st.integers(min_value=-3, max_value=3)


@st.composite
def _hand_built_nests(draw):
    num_dims = draw(st.integers(min_value=1, max_value=3))
    # every dim gets a point loop; tile loops repeat some dims
    tile_dims = draw(
        st.lists(st.integers(min_value=0, max_value=num_dims - 1), max_size=3)
    )
    dims = draw(st.permutations(tile_dims + list(range(num_dims))))
    loops = [
        Loop(dim=d, trip=draw(st.integers(min_value=1, max_value=40)))
        for d in dims
    ]
    accesses = []
    for tensor_id in range(draw(st.integers(min_value=1, max_value=4))):
        rank = draw(st.integers(min_value=0, max_value=3))
        # constant-only rows (all coefficients zero) come up often
        matrix = tuple(
            tuple(draw(st.lists(_COEFF, min_size=num_dims, max_size=num_dims)))
            + (draw(st.integers(min_value=0, max_value=4)),)
            for _ in range(rank)
        )
        shape = tuple(
            draw(st.integers(min_value=1, max_value=300)) for _ in range(rank)
        )
        accesses.append(
            Access(
                tensor_shape=shape,
                element_bytes=draw(st.sampled_from((1, 2, 4, 8))),
                matrix=matrix,
                is_write=draw(st.booleans()),
                tensor_id=tensor_id,
            )
        )
    skip = frozenset(
        draw(st.sets(st.integers(min_value=0, max_value=len(accesses) - 1)))
    )
    return LoweredNest(loops=loops, accesses=accesses, flops_per_point=1), skip


@settings(max_examples=200, deadline=None)
@given(_hand_built_nests())
def test_hand_built_nests_match_rescan(nest_and_skip):
    nest, skip = nest_and_skip
    _assert_matches_rescan(nest, skip)
