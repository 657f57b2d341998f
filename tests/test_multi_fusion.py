"""Tests for the multi-producer fusion extension (§V-A1 future work)."""

import numpy as np
import pytest

from repro.ir import FuncOp, add, empty, mul, relu, tensor
from repro.machine import Executor, nest_time, XEON_E5_2680_V4
from repro.transforms import ScheduledFunction, TransformError
from repro.transforms.lowering import lower_scheduled_op
from repro.transforms.multi_fusion import MultiTiledFusion


def _diamond(size=256):
    """Two independent producers feeding one consumer:
    left = x + y; right = relu(x); out = left * right."""
    x, y = tensor([size, size]), tensor([size, size])
    func = FuncOp("diamond", [x, y])
    left = func.append(add(x, y, empty([size, size])))
    right = func.append(relu(x, empty([size, size])))
    out = func.append(
        mul(left.result(), right.result(), empty([size, size]))
    )
    func.returns = [out.result()]
    return func, left, right, out


class TestMultiFusion:
    def test_fuses_both_producers(self):
        func, left, right, out = _diamond()
        scheduled = ScheduledFunction(func)
        assert len(scheduled.fusable_producers_of(out)) == 2
        scheduled.apply(out, MultiTiledFusion((8, 8)))
        schedule = scheduled.schedule_of(out)
        assert scheduled.schedule_of(left).fused_into is schedule
        assert scheduled.schedule_of(right).fused_into is schedule
        assert len(schedule.fused) == 2

    def test_single_nest_after_fusion(self):
        func, left, right, out = _diamond()
        scheduled = ScheduledFunction(func)
        scheduled.apply(out, MultiTiledFusion((8, 8)))
        nests = scheduled.lower()
        assert len(nests) == 1
        assert len(nests[0].fused) == 2

    def test_no_producers_raises(self):
        func, left, right, out = _diamond()
        scheduled = ScheduledFunction(func)
        with pytest.raises(TransformError):
            scheduled.apply(left, MultiTiledFusion((8, 8)))

    def test_already_fused_producer_excluded(self):
        from repro.transforms import TiledFusion

        func, left, right, out = _diamond()
        scheduled = ScheduledFunction(func)
        scheduled.apply(out, TiledFusion((8, 8)))  # fuses `right` (last)
        remaining = scheduled.fusable_producers_of(out)
        assert [p.op for p in remaining] == [left]

    def test_multi_fusion_beats_single_on_memory_bound_diamond(self):
        """Fusing both producers removes two intermediate round trips;
        fusing one removes one — the extension should not lose."""
        from repro.transforms import TiledFusion

        func1, *_ , out1 = _diamond(2048)
        single = ScheduledFunction(func1)
        single.apply(out1, TiledFusion((32, 32)))
        executor = Executor()
        single_seconds = executor.run_scheduled(single).seconds

        func2, *_, out2 = _diamond(2048)
        multi = ScheduledFunction(func2)
        multi.apply(out2, MultiTiledFusion((32, 32)))
        multi_seconds = executor.run_scheduled(multi).seconds
        assert multi_seconds <= single_seconds * 1.01

    def test_recompute_accounted_per_producer(self):
        func, left, right, out = _diamond()
        scheduled = ScheduledFunction(func)
        scheduled.apply(out, MultiTiledFusion((8, 8)))
        nest = lower_scheduled_op(scheduled.schedule_of(out))
        for fused in nest.fused:
            assert fused.recompute == 1.0  # elementwise: no recompute


class TestLstmSupportsManyProducers:
    def test_encoder_accepts_three_steps(self):
        """The §V-A1 rationale: the LSTM embedding extends to multiple
        producers without architecture changes."""
        from repro.nn import LSTMEncoder, Tensor

        rng = np.random.default_rng(0)
        encoder = LSTMEncoder(16, 8, rng)
        steps = [Tensor(rng.normal(size=(2, 16))) for _ in range(3)]
        out = encoder(steps)
        assert out.shape == (2, 8)
