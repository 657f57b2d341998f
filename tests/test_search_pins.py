"""Search results pinned before search states became copy-on-write.

Greedy and beam search must pick exactly the schedules, scores and
candidate counts they picked with deep-copied states.  None of the
pinned searches prices a fusable producer that carries fusions of its
own, the one scoring case the producer-term fix below changed.
"""

import hashlib

from repro.baselines.reference_agent import BeamSearchAgent, GreedyAgent
from repro.datasets.dnn_ops import make_conv_2d
from repro.datasets.lqcd import dibaryon_hexaquark
from repro.ir import FuncOp, add, empty, mul, relu, tensor
from repro.machine.timing import nest_time
from repro.transforms import ScheduledFunction, TiledFusion
from repro.transforms.lowering import lower_scheduled_op


def _chain(size=256):
    x, y = tensor([size, size]), tensor([size, size])
    func = FuncOp("chain3", [x, y])
    first = func.append(add(x, y, empty([size, size])))
    second = func.append(mul(first.result(), x, empty([size, size])))
    third = func.append(relu(second.result(), empty([size, size])))
    func.returns = [third.result()]
    return func, first, second, third


class TestPinnedSearchResults:
    def test_greedy_dibaryon_hexaquark(self):
        agent = GreedyAgent()
        result = agent.run(dibaryon_hexaquark(5))
        assert result.seconds == 0.3895887794666664
        assert agent.candidates_scored == 1138
        key = repr(result.schedule.schedule_key()).encode()
        assert hashlib.sha256(key).hexdigest() == (
            "de49f95d517c1c8d86c731477f75c2d695ac787c5859b0e35b6610d45b1ec3ec"
        )

    def test_greedy_fused_chain(self):
        agent = GreedyAgent()
        result = agent.run(_chain()[0])
        assert result.seconds == 4.0806785714285716e-05
        assert agent.candidates_scored == 128
        assert result.schedule.schedule_key() == (
            ((256, 256), (0, 1), (), False, True, (), ()),
            (
                (32, 32),
                (0, 1),
                ((False, ((0, 8, 32, False), (1, 8, 32, False))),),
                False,
                True,
                ((0, 0),),
                (),
            ),
            (
                (8, 8),
                (0, 1),
                (
                    (True, ((0, 32, 8, True),)),
                    (False, ((0, 1, 8, False), (1, 32, 8, False))),
                ),
                False,
                False,
                ((1, 1),),
                (),
            ),
        )

    def test_beam_table2_conv(self):
        agent = BeamSearchAgent(beam_width=4)
        result = agent.run(make_conv_2d(28, 32, 48, 3))
        assert result.seconds == 0.00018799610119047617
        assert agent.candidates_scored == 347
        assert result.schedule.schedule_key() == (
            (
                (1, 1, 26, 1, 3, 3, 32),
                (0, 1, 3, 4, 5, 6, 2),
                ((True, ((1, 26, 1, True), (3, 48, 1, True))),),
                False,
                False,
                (),
                (),
            ),
        )


class TestProducerTerm:
    def test_fused_producer_skips_its_intermediates(self):
        """An unfused producer that already fused its own producer is
        priced like every other timing consumer prices it: without the
        memory round trip of the intermediate it absorbed."""
        func, first, second, third = _chain(512)
        scheduled = ScheduledFunction(func)
        scheduled.apply(second, TiledFusion((32, 32)))
        agent = BeamSearchAgent()
        producer = lower_scheduled_op(scheduled.schedule_of(second))
        consumer = lower_scheduled_op(scheduled.schedule_of(third))
        consumer_seconds = nest_time(consumer, agent.spec).total
        expected = consumer_seconds + nest_time(
            producer, agent.spec, skip_tensor_ids=producer.fused_skip_ids()
        ).total
        unskipped = consumer_seconds + nest_time(producer, agent.spec).total
        assert expected != unskipped
        assert agent._local_seconds(scheduled, third) == expected
