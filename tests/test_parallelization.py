"""The dependence-backed parallelization plugin.

Its legality comes from the analyzer, never from iterator-type
declarations — the masks, the apply layer, and the search candidates
must all agree with ``analyze_op``.  Also pins the mask-cache staleness
fix: a cache shared across configs must key on the config's transform
tuple.
"""

import numpy as np
import pytest

from repro.analysis import analyze_op
from repro.ir import FuncOp, add, matmul, tensor
from repro.ir.interpreter import evaluate_op, evaluate_scheduled_op, random_operands
from repro.transforms import (
    Parallelize,
    ScheduledFunction,
    ScheduledOp,
    TransformError,
    apply_parallelization,
    get_spec,
    legal_parallel_positions,
)
from repro.env.config import PAPER_CONFIG, extended_config, small_config
from repro.env.masking import MaskCache, compute_mask, mask_cache_key


def _matmul_op(m=8, n=8, k=8):
    return matmul(tensor([m, k]), tensor([k, n]), tensor([m, n]))


def _func_of(op):
    func = FuncOp("f", list(op.inputs) + list(op.outputs))
    func.append(op)
    func.returns = [op.result()]
    return func


class TestLegality:
    def test_positions_follow_the_analysis(self):
        schedule = ScheduledOp(_matmul_op())
        assert legal_parallel_positions(schedule) == [True, True, False]
        assert analyze_op(schedule.op).carried == frozenset({2})

    def test_elementwise_fully_parallel(self):
        op = add(tensor([8, 8]), tensor([8, 8]), tensor([8, 8]))
        assert legal_parallel_positions(ScheduledOp(op)) == [True, True]

    def test_apply_materializes_parallel_band(self):
        schedule = ScheduledOp(_matmul_op())
        apply_parallelization(schedule, Parallelize((0, 1)))
        band = schedule.bands[-1]
        assert band.parallel
        assert [(l.dim, l.tile) for l in band.loops] == [(0, 1), (1, 1)]
        assert schedule.history == [Parallelize((0, 1))]

    def test_apply_rejects_carried_dim(self):
        schedule = ScheduledOp(_matmul_op())
        with pytest.raises(TransformError, match="dependence-carried"):
            apply_parallelization(schedule, Parallelize((2,)))

    def test_apply_rejects_malformed(self):
        schedule = ScheduledOp(_matmul_op())
        with pytest.raises(TransformError):
            apply_parallelization(schedule, Parallelize(()))
        with pytest.raises(TransformError):
            apply_parallelization(schedule, Parallelize((0, 0)))
        with pytest.raises(TransformError):
            apply_parallelization(schedule, Parallelize((5,)))

    def test_semantics_unchanged(self):
        op = _matmul_op(6, 5, 4)
        schedule = ScheduledOp(op)
        apply_parallelization(schedule, Parallelize((0, 1)))
        rng = np.random.default_rng(0)
        operands = random_operands(op, rng)
        assert np.array_equal(
            evaluate_scheduled_op(schedule, operands)[0],
            evaluate_op(op, operands)[0],
        )


class TestSpecInRegistry:
    def test_mask_matches_analysis(self):
        config = extended_config("parallelization")
        op = _matmul_op()
        schedule = ScheduledOp(op)
        mask = compute_mask(schedule, config, has_producer=False)
        param = mask.params["parallelize"]
        assert param.tolist()[:3] == [True, True, False]
        assert not param[3:].any()
        index = config.transforms.index("parallelization")
        assert mask.transformation[index]

    def test_fused_op_cannot_parallelize(self):
        from repro.ir import empty, relu
        from repro.transforms import TiledFusion

        x, y = tensor([16, 16]), tensor([16, 16])
        first = add(x, y, empty([16, 16]))
        second = relu(first.result(), empty([16, 16]))
        func = FuncOp("chain", [x, y])
        func.append(first)
        func.append(second)
        scheduled = ScheduledFunction(func)
        scheduled.apply(second, TiledFusion((4, 4)))
        config = extended_config("parallelization")
        mask = compute_mask(
            scheduled.schedule_of(first), config, has_producer=False
        )
        index = config.transforms.index("parallelization")
        assert not mask.transformation[index]

    def test_search_candidates_come_from_analysis(self):
        spec = get_spec("parallelization")
        config = extended_config("parallelization")
        schedule = ScheduledOp(_matmul_op())
        candidates = spec.search_candidates(schedule, False, config)
        assert Parallelize((0,)) in candidates
        assert Parallelize((1,)) in candidates
        assert all(2 not in c.positions for c in candidates)


class TestMaskCacheKey:
    """Regression: a cache must never serve one config another's mask."""

    def test_seed_key_unchanged_without_config(self):
        schedule = ScheduledOp(_matmul_op())
        key = mask_cache_key(schedule, False, (), False)
        assert key == (
            schedule.op,
            schedule.state_key(),
            False,
            (),
            False,
        )

    def test_shared_cache_never_aliases_across_configs(self):
        # Each cache owns its config: small_config's (6, 6) tile mask
        # must not be served for the paper's (12, 8) one on the same
        # schedule, although both configs have the same transforms.
        schedule = ScheduledOp(_matmul_op())
        base = small_config()
        assert PAPER_CONFIG.transforms == base.transforms
        small_cache, paper_cache = MaskCache(base), MaskCache(PAPER_CONFIG)
        small_cache.lookup(schedule, has_producer=False)
        mask = paper_cache.lookup(schedule, has_producer=False)
        expected = compute_mask(schedule, PAPER_CONFIG, has_producer=False)
        assert mask.tile_tiling.shape == (12, 8)
        assert np.array_equal(mask.tile_tiling, expected.tile_tiling)


class TestEnvEpisode:
    def test_episode_with_plugin_active(self):
        from repro.env import MlirRlEnv
        from repro.env.actions import EnvAction

        config = extended_config("parallelization")
        env = MlirRlEnv(config=config)
        rng = np.random.default_rng(3)
        obs = env.reset(_func_of(_matmul_op(16, 16, 16)))
        kind = config.transforms.index("parallelization")
        assert obs.mask.transformation[kind]
        options = np.flatnonzero(obs.mask.params["parallelize"])
        choice = int(options[rng.integers(len(options))])
        result = env.step(EnvAction(kind, choice=choice))
        assert "illegal" not in result.info
        schedule = env.scheduled.schedule_of(env._func.body[-1])
        assert any(band.parallel for band in schedule.bands)
