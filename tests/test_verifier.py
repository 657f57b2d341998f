"""Schedule-legality verifier tests.

Three layers: (1) regression pins — one known-legal and one
known-illegal case per transformation, including an op whose iterator
types are *mislabeled* (the case where only the dependence facts are
right); (2) the semantic property behind the verifier —
analyzer-accepted schedules are interpreter-equivalent to the
unscheduled op (bit-identical when the reduction visit order is
preserved), and analyzer-rejected ones either raise or observably
diverge under racy parallel execution; (3) soundness — every action
the masks allow on a coupled op, a mislabeled matmul and a copy
declared a reduction respects the dependences (restated in the test,
apart from the specs' rules), applies, and passes the verifier.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    analyze_op,
    evaluate_scheduled_op_racy,
    reduction_order_preserved,
    verify_schedule,
)
from repro.ir import (
    AffineMap,
    ArithKind,
    FuncOp,
    IteratorType,
    add,
    body_from_ops,
    conv_2d_nhwc_hwcf,
    dim,
    empty,
    generic,
    matmul,
    relu,
    tensor,
)
from repro.ir.interpreter import evaluate_op, random_operands
from repro.transforms import (
    Interchange,
    Parallelize,
    ScheduledFunction,
    TiledFusion,
    TiledParallelization,
    Tiling,
    TransformError,
    Vectorization,
    get_spec,
)
from repro.env.actions import flat_action_table
from repro.env.config import (
    PAPER_CONFIG,
    InterchangeMode,
    extended_config,
    small_config,
)
from repro.env.masking import compute_mask
from repro.rl.agent import FlatActorCritic


def _single_op_func(op):
    func = FuncOp("f", list(op.inputs) + list(op.outputs))
    func.append(op)
    func.returns = [op.result()]
    return func


def _matmul_func(m=8, n=8, k=8):
    op = matmul(tensor([m, k]), tensor([k, n]), tensor([m, n]))
    return _single_op_func(op), op


def _coupled_func():
    """out[i+j] += in[i, j] — a non-uniform (coupled) dependence.

    The output map d0+d1 is not a projected permutation: iterations
    (1, 0) and (0, 1) collide, so neither dim can be reordered or run
    in parallel, which no iterator-type declaration can express.
    """
    in_ = tensor([6, 6])
    out = tensor([11])
    op = generic(
        inputs=[in_],
        outputs=[out],
        indexing_maps=[
            AffineMap.get(2, 0, [dim(0), dim(1)]),
            AffineMap.get(2, 0, [dim(0) + dim(1)]),
        ],
        iterator_types=[IteratorType.REDUCTION, IteratorType.REDUCTION],
        body=body_from_ops(2, [(ArithKind.ADDF, (0, 1))]),
    )
    return _single_op_func(op), op


def _mislabeled_matmul(m=8, n=8, k=8):
    """A matmul whose reduction loop is (wrongly) declared parallel."""
    lhs, rhs, out = tensor([m, k]), tensor([k, n]), tensor([m, n])
    op = generic(
        inputs=[lhs, rhs],
        outputs=[out],
        indexing_maps=[
            AffineMap.get(3, 0, [dim(0), dim(2)]),
            AffineMap.get(3, 0, [dim(2), dim(1)]),
            AffineMap.get(3, 0, [dim(0), dim(1)]),
        ],
        iterator_types=[IteratorType.PARALLEL] * 3,
        body=body_from_ops(
            3, [(ArithKind.MULF, (0, 1)), (ArithKind.ADDF, (2, 3))]
        ),
    )
    return _single_op_func(op), op


def _reduction_labeled_copy(m=8, n=8):
    """out[i, j] = in[i, j] with its first loop (wrongly) declared a
    reduction: no dependence is carried, so every dim may run parallel."""
    in_, out = tensor([m, n]), tensor([m, n])
    identity = AffineMap.get(2, 0, [dim(0), dim(1)])
    op = generic(
        inputs=[in_],
        outputs=[out],
        indexing_maps=[identity, identity],
        iterator_types=[IteratorType.REDUCTION, IteratorType.PARALLEL],
        body=body_from_ops(2, [], yield_index=0),
    )
    return _single_op_func(op), op


def _racy_band(scheduled, op, record):
    """Materialize ``record``'s parallel band without the apply layer's
    check, as a hand-built schedule would."""
    schedule = scheduled.schedule_of(op)
    schedule.materialize_band(record.sizes, parallel=True)
    schedule.history.append(record)
    return schedule


class TestCoupledAnalysis:
    def test_both_dims_coupled(self):
        _, op = _coupled_func()
        dep = analyze_op(op)
        assert dep.coupled == frozenset({0, 1})
        assert dep.parallelizable_dims() == frozenset()


class TestRegressionPerTransform:
    """One known-legal and one known-illegal case per transformation."""

    def test_tiling_legal(self):
        func, op = _matmul_func()
        scheduled = ScheduledFunction(func)
        scheduled.apply(op, Tiling((2, 2, 2)))
        assert verify_schedule(func, scheduled) == []

    def test_tiling_of_coupled_dim_flagged(self):
        func, op = _coupled_func()
        scheduled = ScheduledFunction(func)
        scheduled.apply(op, Tiling((2, 0)))
        violations = verify_schedule(func, scheduled)
        assert violations, "tiling a coupled dim must be flagged"
        assert "coupled" in violations[0].detail

    def test_interchange_legal(self):
        func, op = _matmul_func()
        scheduled = ScheduledFunction(func)
        scheduled.apply(op, Interchange((2, 0, 1)))
        assert verify_schedule(func, scheduled) == []

    def test_interchange_of_coupled_dims_flagged(self):
        func, op = _coupled_func()
        scheduled = ScheduledFunction(func)
        scheduled.apply(op, Interchange((1, 0)))
        violations = verify_schedule(func, scheduled)
        assert violations
        assert "coupled" in violations[0].detail

    def test_parallelization_legal(self):
        func, op = _matmul_func()
        scheduled = ScheduledFunction(func)
        scheduled.apply(op, Parallelize((0, 1)))
        assert verify_schedule(func, scheduled) == []

    def test_parallelization_of_reduction_raises(self):
        func, op = _matmul_func()
        scheduled = ScheduledFunction(func)
        with pytest.raises(TransformError, match="dependence-carried"):
            scheduled.apply(op, Parallelize((2,)))

    def test_mislabeled_parallel_caught_only_by_analyzer(self):
        # iterator types say parallel, but the apply layer reads the
        # dependence facts and rejects tiled parallelization of the
        # reduction loop, like the analyzer-backed plugin.
        func, op = _mislabeled_matmul()
        with pytest.raises(TransformError, match="dependence-carried"):
            ScheduledFunction(func).apply(op, TiledParallelization((0, 0, 2)))
        with pytest.raises(TransformError):
            ScheduledFunction(func).apply(op, Parallelize((2,)))
        # a band built without the apply layer is still flagged: the
        # verifier re-derives the truth from the indexing maps.
        scheduled = ScheduledFunction(func)
        _racy_band(scheduled, op, TiledParallelization((0, 0, 2)))
        violations = verify_schedule(func, scheduled)
        assert violations
        assert "dependence-carried" in violations[0].detail

    def test_fusion_legal(self):
        x, y = tensor([16, 16]), tensor([16, 16])
        first = add(x, y, empty([16, 16]))
        second = relu(first.result(), empty([16, 16]))
        func = FuncOp("chain", [x, y])
        func.append(first)
        func.append(second)
        func.returns = [second.result()]
        scheduled = ScheduledFunction(func)
        scheduled.apply(second, TiledFusion((4, 4)))
        assert verify_schedule(func, scheduled) == []

    def test_fusion_without_flow_producer_flagged(self):
        func, op = _matmul_func()
        spec = get_spec("tiled_fusion")
        issues = spec.violations(
            analyze_op(op),
            ScheduledFunction(func).schedule_of(op),
            TiledFusion((4, 4)),
            has_producer=False,
        )
        assert issues == ["no flow producer available to fuse"]

    def test_vectorization_neutral(self):
        func, op = _matmul_func()
        scheduled = ScheduledFunction(func)
        scheduled.apply(op, Vectorization())
        assert verify_schedule(func, scheduled) == []


class TestSemanticProperty:
    """Analyzer-accepted ⇒ interpreter-equivalent; rejected ⇒ diverges."""

    def _ops(self):
        return [
            matmul(tensor([6, 4]), tensor([4, 5]), tensor([6, 5])),
            conv_2d_nhwc_hwcf(
                tensor([1, 5, 5, 2]), tensor([2, 2, 2, 3]), tensor([1, 4, 4, 3])
            ),
            add(tensor([6, 6]), tensor([6, 6]), tensor([6, 6])),
        ]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_accepted_schedules_match_interpreter(self, seed):
        rng = np.random.default_rng(seed)
        config = extended_config("unrolling", "parallelization", max_loops=8)
        table = flat_action_table(config)
        op = self._ops()[int(rng.integers(3))]
        func = _single_op_func(op)
        scheduled = ScheduledFunction(func)
        schedule = scheduled.schedule_of(op)
        for _ in range(int(rng.integers(1, 4))):
            mask = compute_mask(schedule, config, has_producer=False)
            pool = [
                flat
                for flat in table
                if mask.transformation[int(flat.kind)]
                and flat._spec().flat_legal(flat, mask, schedule.num_loops, config)
                and not flat._spec().is_stop
            ]
            if not pool:
                break
            flat = pool[int(rng.integers(len(pool)))]
            scheduled.apply(op, flat.to_record(schedule.num_loops))
        assert verify_schedule(func, scheduled) == []
        operands = random_operands(op, rng)
        expected = evaluate_op(op, operands)[0]
        got = evaluate_scheduled_op_racy(schedule, operands)[0]
        if reduction_order_preserved(schedule):
            assert np.array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_rejected_parallelization_observably_races(self):
        # The schedule the verifier rejects must be *observably* wrong:
        # racy parallel execution of the mislabeled matmul's reduction
        # loop diverges from the reference result.
        func, op = _mislabeled_matmul()
        with pytest.raises(TransformError, match="dependence-carried"):
            ScheduledFunction(func).apply(op, TiledParallelization((0, 0, 2)))
        scheduled = ScheduledFunction(func)
        schedule = _racy_band(scheduled, op, TiledParallelization((0, 0, 2)))
        assert verify_schedule(func, scheduled)
        rng = np.random.default_rng(7)
        operands = random_operands(op, rng)
        expected = evaluate_op(op, operands)[0]
        got = evaluate_scheduled_op_racy(schedule, operands)[0]
        assert not np.allclose(got, expected)


def _mask_legal_moves(func, op, config):
    """Non-stop flat actions the fresh op's masks allow, as records.

    The flat agent's :meth:`FlatActorCritic.flat_mask` must allow
    exactly the entries that ``compute_mask`` plus each spec's
    ``flat_legal`` allow.
    """
    schedule = ScheduledFunction(func).schedule_of(op)
    mask = compute_mask(schedule, config, has_producer=False)
    n = schedule.num_loops
    table = flat_action_table(config)
    allowed = [
        bool(mask.transformation[int(flat.kind)])
        and flat._spec().flat_legal(flat, mask, n, config)
        for flat in table
    ]
    agent = FlatActorCritic(config, np.random.default_rng(0), hidden_size=8)
    assert agent.flat_mask(mask, n).tolist() == allowed
    return [
        flat.to_record(n)
        for flat, ok in zip(table, allowed)
        if ok and not flat._spec().is_stop
    ]


def _breaks_dependences(record, schedule, dep):
    """Dims ``record`` may not touch, from dependence theory alone.

    Stated apart from the specs' rules, so a wrong rule cannot vouch for
    itself: strip-mining or reordering a coupled dim cannot be proven
    order-preserving, and running a carried dim in parallel races.
    """
    order = schedule.order
    if isinstance(record, Interchange):
        dims = {order[p] for p, q in enumerate(record.permutation) if p != q}
    elif isinstance(record, Parallelize):
        dims = {order[p] for p in record.positions}
    else:
        sizes = getattr(record, "sizes", ())
        dims = {order[p] for p, size in enumerate(sizes) if size}
    if isinstance(record, (TiledParallelization, Parallelize)):
        return dims & (dep.carried | dep.coupled)
    return dims & dep.coupled


class TestMaskSoundness:
    """Every mask-legal action respects the dependences, applies and
    passes the verifier."""

    @pytest.mark.parametrize(
        "mode", list(InterchangeMode), ids=lambda mode: mode.value
    )
    @pytest.mark.parametrize(
        "base", [small_config(), PAPER_CONFIG], ids=["small", "paper"]
    )
    @pytest.mark.parametrize(
        "build",
        [_coupled_func, _mislabeled_matmul, _reduction_labeled_copy],
        ids=["coupled", "mislabeled", "copy"],
    )
    def test_mask_legal_actions_verify(self, build, base, mode):
        config = replace(base, interchange_mode=mode)
        func, op = build()
        records = _mask_legal_moves(func, op, config)
        assert records  # vectorization at least
        dep = analyze_op(op)
        for record in records:
            scheduled = ScheduledFunction(func)
            schedule = scheduled.schedule_of(op)
            assert not _breaks_dependences(record, schedule, dep), record
            scheduled.apply(op, record)
            assert verify_schedule(func, scheduled) == [], record


class TestEnvIntegration:
    def test_verifying_env_episode_clean(self):
        from repro.datasets.generator import generate_program
        from repro.env import MlirRlEnv
        from repro.env.actions import EnvAction

        config = extended_config("parallelization", max_loops=8)
        rng = np.random.default_rng(0)
        env = MlirRlEnv(config=config)
        table = flat_action_table(config)
        obs = env.reset(generate_program(rng))
        done = False
        while not done:
            mask = obs.mask
            n = env.current_schedule().num_loops
            pool = [
                flat
                for flat in table
                if mask.transformation[int(flat.kind)]
                and flat._spec().flat_legal(flat, mask, n, config)
            ]
            flat = pool[int(rng.integers(len(pool)))]
            result = env.step(
                EnvAction(flat.kind, record=flat.to_record(n))
            )
            done = result.done
            obs = result.observation
        assert verify_schedule(env.scheduled.func, env.scheduled) == []
