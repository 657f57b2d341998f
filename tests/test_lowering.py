"""Tests for lowering scheduled ops to the loop-nest IR."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import add, empty, matmul, relu, tensor, FuncOp
from repro.transforms import (
    Interchange,
    ScheduledFunction,
    ScheduledOp,
    TiledFusion,
    TiledParallelization,
    Tiling,
    Vectorization,
    lower_baseline,
    lower_scheduled_op,
)


def _matmul_op(m=64, n=32, k=16):
    return matmul(tensor([m, k]), tensor([k, n]), tensor([m, n]))


class TestBaselineLowering:
    def test_loop_order_is_original(self):
        nest = lower_baseline(_matmul_op())
        assert [l.dim for l in nest.loops] == [0, 1, 2]
        assert [l.trip for l in nest.loops] == [64, 32, 16]

    def test_no_parallel_no_vector(self):
        nest = lower_baseline(_matmul_op())
        assert not nest.has_parallel_band()
        assert not nest.innermost().vector
        assert nest.parallel_trip() == 1

    def test_accesses(self):
        nest = lower_baseline(_matmul_op())
        assert len(nest.accesses) == 3
        assert [a.is_write for a in nest.accesses] == [False, False, True]

    def test_total_points(self):
        nest = lower_baseline(_matmul_op(4, 5, 6))
        assert nest.total_points() == 4 * 5 * 6

    def test_flops(self):
        nest = lower_baseline(_matmul_op(4, 5, 6))
        assert nest.total_flops() == 2 * 4 * 5 * 6

    def test_reduction_dims(self):
        nest = lower_baseline(_matmul_op())
        assert nest.reduction_dims == frozenset({2})


class TestScheduledLowering:
    def test_tiling_produces_band_plus_point_loops(self):
        schedule = ScheduledOp(_matmul_op(64, 32, 16))
        from repro.transforms import apply_tiling

        apply_tiling(schedule, Tiling((8, 8, 0)))
        nest = lower_scheduled_op(schedule)
        dims = [(l.dim, l.trip, l.span) for l in nest.loops]
        assert dims == [
            (0, 8, 8),   # tile loop i
            (1, 4, 8),   # tile loop j
            (0, 8, 1),   # point i
            (1, 8, 1),   # point j
            (2, 16, 1),  # point k
        ]

    def test_parallel_flag_propagates(self):
        schedule = ScheduledOp(_matmul_op())
        from repro.transforms import apply_tiled_parallelization

        apply_tiled_parallelization(schedule, TiledParallelization((8, 8, 0)))
        nest = lower_scheduled_op(schedule)
        assert nest.loops[0].parallel and nest.loops[1].parallel
        assert nest.parallel_trip() == 8 * 4

    def test_interchange_changes_point_order(self):
        schedule = ScheduledOp(_matmul_op())
        from repro.transforms import apply_interchange

        apply_interchange(schedule, Interchange((0, 2, 1)))
        nest = lower_scheduled_op(schedule)
        assert [l.dim for l in nest.loops] == [0, 2, 1]

    def test_vector_flag_on_innermost_only(self):
        schedule = ScheduledOp(_matmul_op(8, 8, 8))
        from repro.transforms import apply_vectorization

        apply_vectorization(schedule, Vectorization())
        nest = lower_scheduled_op(schedule)
        assert nest.innermost().vector
        assert not any(l.vector for l in nest.loops[:-1])

    def test_points_preserved_with_divisible_tiles(self):
        schedule = ScheduledOp(_matmul_op(64, 32, 16))
        from repro.transforms import apply_tiling

        apply_tiling(schedule, Tiling((8, 8, 8)))
        nest = lower_scheduled_op(schedule)
        assert nest.total_points() == 64 * 32 * 16

    def test_fused_producer_attached(self):
        x, y = tensor([64, 64]), tensor([64, 64])
        first = add(x, y, empty([64, 64]))
        second = relu(first.result(), empty([64, 64]))
        func = FuncOp("chain", [x, y])
        func.append(first)
        func.append(second)
        scheduled = ScheduledFunction(func)
        scheduled.apply(second, TiledFusion((8, 8)))
        nests = scheduled.lower()
        assert len(nests) == 1  # producer folded into consumer
        assert len(nests[0].fused) == 1
        assert nests[0].fused[0].recompute == 1.0

    def test_unscheduled_func_lowering_matches_baseline(self):
        op = _matmul_op()
        func = FuncOp("f", list(op.inputs) + list(op.outputs))
        func.append(op)
        scheduled = ScheduledFunction(func)
        nests = scheduled.lower()
        baseline = lower_baseline(op)
        assert [l.trip for l in nests[0].loops] == [
            l.trip for l in baseline.loops
        ]


class TestAccessHelpers:
    def test_innermost_stride(self):
        nest = lower_baseline(_matmul_op(4, 6, 8))
        a, b, c = nest.accesses
        # A[m, k]: stride 1 in k, stride k(8) in m, 0 in n
        assert a.innermost_stride_elems(2) == 1
        assert a.innermost_stride_elems(0) == 8
        assert a.innermost_stride_elems(1) == 0
        # B[k, n]: stride n(6) in k, 1 in n
        assert b.innermost_stride_elems(2) == 6
        assert b.innermost_stride_elems(1) == 1

    def test_dims_used(self):
        nest = lower_baseline(_matmul_op())
        a, b, c = nest.accesses
        assert a.used_dims == {0, 2}
        assert b.used_dims == {1, 2}
        assert c.used_dims == {0, 1}
        # the span terms pair each tensor dim's extent with its nonzero
        # (loop dim, |coeff|) columns: A[m, k] with m = 64, k = 16
        assert a.span_terms == ((64, ((0, 1),)), (16, ((2, 1),)))


@settings(max_examples=25, deadline=None)
@given(
    m=st.sampled_from([8, 24, 64]),
    n=st.sampled_from([8, 32]),
    k=st.sampled_from([16, 48]),
    t0=st.sampled_from([0, 4, 8]),
    t1=st.sampled_from([0, 4, 8]),
)
def test_tiling_never_loses_points(m, n, k, t0, t1):
    """Property: tiled total points >= original (rounding only adds)."""
    schedule = ScheduledOp(_matmul_op(m, n, k))
    if t0 == 0 and t1 == 0:
        return
    from repro.transforms import apply_tiling

    apply_tiling(schedule, Tiling((t0, t1, 0)))
    nest = lower_scheduled_op(schedule)
    assert nest.total_points() >= m * n * k
