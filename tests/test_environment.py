"""Integration tests for the MLIR RL environment."""

import math

import numpy as np
import pytest

from repro.baselines import BeamSearchAgent
from repro.env import (
    EnvAction,
    MlirRlEnv,
    RewardMode,
    small_config,
)
from repro.env.config import InterchangeMode
from repro.ir import FuncOp, add, empty, matmul, relu, tensor
from repro.machine import CachingExecutor, Executor
from repro.transforms import TransformKind, Tiling, Vectorization


def _matmul_func(m=64, n=64, k=64):
    a, b, c = tensor([m, k]), tensor([k, n]), tensor([m, n])
    func = FuncOp("mm", [a, b, c])
    op = func.append(matmul(a, b, c))
    func.returns = [op.result()]
    return func, op


def _chain_func():
    x, y = tensor([64, 64]), tensor([64, 64])
    func = FuncOp("chain", [x, y])
    first = func.append(add(x, y, empty([64, 64])))
    second = func.append(relu(first.result(), empty([64, 64])))
    func.returns = [second.result()]
    return func, first, second


class TestEpisodeFlow:
    def test_reset_returns_observation(self):
        env = MlirRlEnv(config=small_config())
        func, _ = _matmul_func()
        obs = env.reset(func)
        assert obs.consumer.shape == obs.producer.shape
        assert obs.producer.sum() == 0.0  # matmul has no producer

    def test_reset_empty_function_raises(self):
        env = MlirRlEnv(config=small_config())
        with pytest.raises(ValueError):
            env.reset(FuncOp("empty", []))

    def test_step_before_reset_raises(self):
        env = MlirRlEnv(config=small_config())
        with pytest.raises(RuntimeError):
            env.step(EnvAction(TransformKind.NO_TRANSFORMATION))

    def test_stop_ends_single_op_episode(self):
        env = MlirRlEnv(config=small_config())
        func, _ = _matmul_func()
        env.reset(func)
        result = env.step(EnvAction(TransformKind.NO_TRANSFORMATION))
        assert result.done
        assert result.observation is None

    def test_traversal_consumer_then_producer(self):
        env = MlirRlEnv(config=small_config())
        func, first, second = _chain_func()
        env.reset(func)
        assert env.current_op is second
        env.step(EnvAction(TransformKind.NO_TRANSFORMATION))
        assert env.current_op is first
        result = env.step(EnvAction(TransformKind.NO_TRANSFORMATION))
        assert result.done

    def test_env_and_beam_search_share_the_traversal_order(self):
        """Two producers and a side chain: the consumer's last producer
        comes before the rest of the reverse walk, and the env and beam
        search visit the ops in the helper's order."""
        x, y = tensor([16, 16]), tensor([16, 16])
        func = FuncOp("dag", [x, y])
        first = func.append(add(x, y, empty([16, 16])))
        second = func.append(relu(x, empty([16, 16])))
        side = func.append(add(y, y, empty([16, 16])))
        side_tail = func.append(relu(side.result(), empty([16, 16])))
        consumer = func.append(
            add(first.result(), second.result(), empty([16, 16]))
        )
        func.returns = [consumer.result(), side_tail.result()]

        helper, visited = [consumer], {id(consumer)}
        while (op := func.next_to_schedule(helper[-1], visited)) is not None:
            helper.append(op)
            visited.add(id(op))
        assert helper == [consumer, second, side_tail, side, first]

        env = MlirRlEnv(config=small_config())
        env.reset(func)
        stepped = []
        while env.current_op is not None:
            stepped.append(env.current_op)
            env.step(EnvAction(TransformKind.NO_TRANSFORMATION))
        assert stepped == helper

        agent = BeamSearchAgent(beam_width=1, config=small_config())
        searched = []

        def record(scheduled, op):
            searched.append(op)
            return scheduled

        agent._optimize_op = record
        agent.optimize(func)
        assert searched == helper

    def test_producer_features_nonzero_in_chain(self):
        env = MlirRlEnv(config=small_config())
        func, *_ = _chain_func()
        obs = env.reset(func)
        assert obs.producer.sum() != 0.0

    def test_schedule_budget_forces_advance(self):
        config = small_config(max_schedule_length=2)
        env = MlirRlEnv(config=config)
        func, _ = _matmul_func()
        env.reset(func)
        tile = EnvAction(
            TransformKind.TILING, tile_indices=(2, 2, 0, 0, 0, 0)
        )
        r1 = env.step(tile)
        assert not r1.done
        r2 = env.step(tile)
        assert r2.done  # budget of 2 exhausted on a single-op function

    def test_vectorization_is_terminal_for_op(self):
        env = MlirRlEnv(config=small_config())
        func, _ = _matmul_func(8, 8, 8)
        env.reset(func)
        result = env.step(EnvAction(TransformKind.VECTORIZATION))
        assert result.done

    def test_all_zero_tiling_consumes_step(self):
        config = small_config(max_schedule_length=1)
        env = MlirRlEnv(config=config)
        func, _ = _matmul_func()
        env.reset(func)
        result = env.step(
            EnvAction(TransformKind.TILING, tile_indices=(0,) * 6)
        )
        assert result.done  # budget 1 exhausted by the no-op


class TestLevelPointers:
    def test_full_pointer_sequence_applies_interchange(self):
        config = small_config(
            interchange_mode=InterchangeMode.LEVEL_POINTERS
        )
        env = MlirRlEnv(config=config)
        func, op = _matmul_func()
        env.reset(func)
        for loop in (2, 0, 1):
            result = env.step(
                EnvAction(TransformKind.INTERCHANGE, pointer_loop=loop)
            )
            assert not result.done
        schedule = env.scheduled.schedule_of(op)
        assert schedule.order == [2, 0, 1]

    def test_mask_forces_continuation(self):
        config = small_config(
            interchange_mode=InterchangeMode.LEVEL_POINTERS
        )
        env = MlirRlEnv(config=config)
        func, _ = _matmul_func()
        env.reset(func)
        result = env.step(
            EnvAction(TransformKind.INTERCHANGE, pointer_loop=0)
        )
        assert result.observation.mask.forced_interchange
        legal = result.observation.mask.legal_transformations()
        assert legal == [TransformKind.INTERCHANGE]

    def test_repeated_loop_is_illegal(self):
        config = small_config(
            interchange_mode=InterchangeMode.LEVEL_POINTERS
        )
        env = MlirRlEnv(config=config)
        func, _ = _matmul_func()
        env.reset(func)
        env.step(EnvAction(TransformKind.INTERCHANGE, pointer_loop=0))
        result = env.step(
            EnvAction(TransformKind.INTERCHANGE, pointer_loop=0)
        )
        assert result.info.get("illegal")
        assert result.reward < 0


class TestRewards:
    def test_final_reward_is_log_speedup(self):
        env = MlirRlEnv(config=small_config())
        func, _ = _matmul_func()
        env.reset(func)
        env.step(
            EnvAction(
                TransformKind.TILED_PARALLELIZATION,
                tile_indices=(3, 3, 0, 0, 0, 0),
            )
        )
        result = env.step(EnvAction(TransformKind.NO_TRANSFORMATION))
        assert result.done
        speedup = result.info["speedup"]
        assert result.reward == pytest.approx(math.log(speedup))
        assert speedup > 1.0

    def test_intermediate_steps_reward_zero_in_final_mode(self):
        env = MlirRlEnv(config=small_config())
        func, _ = _matmul_func()
        env.reset(func)
        result = env.step(
            EnvAction(TransformKind.TILING, tile_indices=(3, 3, 0, 0, 0, 0))
        )
        assert result.reward == 0.0

    def test_immediate_rewards_telescope(self):
        config = small_config(reward_mode=RewardMode.IMMEDIATE)
        env = MlirRlEnv(config=config)
        func, _ = _matmul_func()
        env.reset(func)
        total = 0.0
        total += env.step(
            EnvAction(
                TransformKind.TILED_PARALLELIZATION,
                tile_indices=(3, 3, 0, 0, 0, 0),
            )
        ).reward
        result = env.step(EnvAction(TransformKind.NO_TRANSFORMATION))
        total += result.reward
        assert total == pytest.approx(math.log(result.info["speedup"]))

    def test_immediate_mode_executes_every_step(self):
        config = small_config(reward_mode=RewardMode.IMMEDIATE)
        env = MlirRlEnv(config=config)
        func, _ = _matmul_func()
        env.reset(func)
        r1 = env.step(
            EnvAction(TransformKind.TILING, tile_indices=(3, 0, 0, 0, 0, 0))
        )
        r2 = env.step(EnvAction(TransformKind.NO_TRANSFORMATION))
        assert r2.info["executions"] > r1.info["executions"] >= 2


class TestEpisodeTruncation:
    """Regression: episodes used to run forever under illegal actions."""

    def test_illegal_action_loop_terminates(self):
        config = small_config(
            max_episode_steps=10,
            interchange_mode=InterchangeMode.LEVEL_POINTERS,
        )
        env = MlirRlEnv(config=config)
        env.reset(_matmul_func()[0])
        env.step(EnvAction(TransformKind.INTERCHANGE, pointer_loop=0))
        repeat = EnvAction(TransformKind.INTERCHANGE, pointer_loop=0)
        for _ in range(config.max_episode_steps + 1):
            result = env.step(repeat)  # always illegal: loop 0 placed
            if result.done:
                break
        else:
            pytest.fail("illegal-action episode never terminated")
        assert result.info["truncated"]
        assert result.info["illegal"]
        assert result.observation is None

    def test_truncation_delivers_terminal_reward(self):
        config = small_config(max_episode_steps=1)
        env = MlirRlEnv(config=config)
        env.reset(_matmul_func()[0])
        result = env.step(
            EnvAction(
                TransformKind.TILED_PARALLELIZATION,
                tile_indices=(3, 3, 0, 0, 0, 0),
            )
        )
        assert result.done
        assert result.info["truncated"]
        assert result.reward == pytest.approx(
            math.log(result.info["speedup"])
        )

    def test_step_after_truncation_raises(self):
        config = small_config(max_episode_steps=1)
        env = MlirRlEnv(config=config)
        env.reset(_matmul_func()[0])
        env.step(EnvAction(TransformKind.TILING, tile_indices=(2,) * 6))
        with pytest.raises(RuntimeError):
            env.step(EnvAction(TransformKind.NO_TRANSFORMATION))

    def test_zero_disables_truncation(self):
        config = small_config(
            max_episode_steps=0,
            interchange_mode=InterchangeMode.LEVEL_POINTERS,
        )
        env = MlirRlEnv(config=config)
        env.reset(_matmul_func()[0])
        env.step(EnvAction(TransformKind.INTERCHANGE, pointer_loop=0))
        repeat = EnvAction(TransformKind.INTERCHANGE, pointer_loop=0)
        for _ in range(20):
            result = env.step(repeat)
            assert not result.done

    def test_natural_episode_end_not_marked_truncated(self):
        env = MlirRlEnv(config=small_config())
        env.reset(_matmul_func()[0])
        result = env.step(EnvAction(TransformKind.NO_TRANSFORMATION))
        assert result.done
        assert "truncated" not in result.info

    def test_negative_max_episode_steps_rejected(self):
        with pytest.raises(ValueError):
            small_config(max_episode_steps=-1)


class TestPointerRollback:
    """Regression: a rejected permutation left stale history rows."""

    def _env(self):
        config = small_config(
            interchange_mode=InterchangeMode.LEVEL_POINTERS
        )
        env = MlirRlEnv(config=config)
        func, op = _matmul_func()
        env.reset(func)
        return env, op

    def test_rejected_permutation_rolls_back_history(self):
        env, op = self._env()
        history = env._history_of(op)
        before = history.interchange.copy()
        env.step(EnvAction(TransformKind.INTERCHANGE, pointer_loop=2))
        env.step(EnvAction(TransformKind.INTERCHANGE, pointer_loop=0))
        # Force the final application to fail: a vectorized op cannot be
        # interchanged (the only rejection a completed pointer sequence
        # can hit).
        env.scheduled.apply(op, Vectorization())
        result = env.step(
            EnvAction(TransformKind.INTERCHANGE, pointer_loop=1)
        )
        assert result.info["illegal"]
        assert np.array_equal(history.interchange, before)
        assert history.step == 0  # clock never advanced

    def test_non_pointer_action_mid_sequence_is_illegal(self):
        """Abandoning a pointer sequence with another (mask-ignoring)
        action must not corrupt pointer state or apply anything."""
        env, op = self._env()
        env.step(EnvAction(TransformKind.INTERCHANGE, pointer_loop=2))
        result = env.step(
            EnvAction(TransformKind.TILING, tile_indices=(3, 3, 0, 0, 0, 0))
        )
        assert result.info["illegal"]
        assert env.scheduled.schedule_of(op).bands == []  # nothing applied
        # The sequence is still in progress and can be completed.
        for loop in (0, 1):
            result = env.step(
                EnvAction(TransformKind.INTERCHANGE, pointer_loop=loop)
            )
            assert "illegal" not in result.info
        assert env.scheduled.schedule_of(op).order == [2, 0, 1]

    def test_partial_rows_visible_mid_sequence(self):
        """The incremental recording itself must keep working."""
        env, op = self._env()
        history = env._history_of(op)
        env.step(EnvAction(TransformKind.INTERCHANGE, pointer_loop=2))
        assert history.interchange[0, 0, 2] == 1.0

    def test_applied_permutation_keeps_history(self):
        env, op = self._env()
        history = env._history_of(op)
        for loop in (2, 0, 1):
            env.step(EnvAction(TransformKind.INTERCHANGE, pointer_loop=loop))
        assert history.interchange[0].sum() == 3.0
        assert history.step == 1


class TestTrueSpeedupInfo:
    """Regression: FINAL mode reported a stale speedup of 1.0 on every
    intermediate step."""

    def test_intermediate_speedup_is_live_in_final_mode(self):
        env = MlirRlEnv(config=small_config())
        func, _ = _matmul_func()
        env.reset(func)
        result = env.step(
            EnvAction(
                TransformKind.TILED_PARALLELIZATION,
                tile_indices=(3, 3, 0, 0, 0, 0),
            )
        )
        assert not result.done
        assert result.reward == 0.0  # FINAL mode: no intermediate reward
        expected = (
            env.executor.run_baseline(func).seconds
            / env.executor.run_scheduled(env.scheduled).seconds
        )
        assert result.info["speedup"] == pytest.approx(expected)
        assert result.info["speedup"] > 1.0

    def test_probe_does_not_count_as_execution(self):
        env = MlirRlEnv(config=small_config())
        env.reset(_matmul_func()[0])
        result = env.step(
            EnvAction(TransformKind.TILING, tile_indices=(3, 3, 0, 0, 0, 0))
        )
        # FINAL mode: only the baseline execution happened so far.
        assert result.info["executions"] == 1

    def test_cache_stats_surfaced_in_info(self):
        env = MlirRlEnv(config=small_config())
        assert isinstance(env.executor, CachingExecutor)
        env.reset(_matmul_func()[0])
        result = env.step(EnvAction(TransformKind.NO_TRANSFORMATION))
        assert "cache" in result.info
        assert result.info["cache"]["misses"] >= 1

    def test_plain_executor_still_supported(self):
        env = MlirRlEnv(config=small_config(), executor=Executor())
        env.reset(_matmul_func()[0])
        result = env.step(EnvAction(TransformKind.NO_TRANSFORMATION))
        assert result.done
        assert "cache" not in result.info


class TestFusionThroughEnv:
    def test_fusion_action(self):
        env = MlirRlEnv(config=small_config())
        func, first, second = _chain_func()
        env.reset(func)
        result = env.step(
            EnvAction(
                TransformKind.TILED_FUSION,
                tile_indices=(3, 3, 0, 0, 0, 0),
            )
        )
        assert "error" not in result.info
        assert env.scheduled.schedule_of(first).fused_into is not None

    def test_fused_chain_single_nest(self):
        env = MlirRlEnv(config=small_config())
        func, first, second = _chain_func()
        env.reset(func)
        env.step(
            EnvAction(
                TransformKind.TILED_FUSION,
                tile_indices=(3, 3, 0, 0, 0, 0),
            )
        )
        nests = env.scheduled.lower()
        assert len(nests) == 1
