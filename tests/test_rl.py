"""Tests for the RL stack: policy heads, agent sampling/evaluation
consistency, GAE, PPO, checkpoints."""

import numpy as np
import pytest

from repro.env import MlirRlEnv, small_config
from repro.env.config import InterchangeMode
from repro.ir import FuncOp, matmul, tensor
from repro.rl import (
    ActorCritic,
    FlatActorCritic,
    IterationStats,
    PPOConfig,
    PPOTrainer,
    collect_episode,
    compute_gae,
    load_agent,
    normalize_advantages,
    save_agent,
)
from repro.rl.policy import PolicyNetwork, ValueNetwork
from repro.nn import Tensor


def _matmul_func(rng=None):
    a, b, c = tensor([64, 32]), tensor([32, 16]), tensor([64, 16])
    func = FuncOp("mm", [a, b, c])
    op = func.append(matmul(a, b, c))
    func.returns = [op.result()]
    return func


CONFIG = small_config()


class TestPolicyNetwork:
    def test_head_shapes(self):
        rng = np.random.default_rng(0)
        net = PolicyNetwork(CONFIG, rng, hidden_size=32)
        from repro.env import feature_size

        size = feature_size(CONFIG)
        heads = net(Tensor(np.zeros((3, size))), Tensor(np.zeros((3, size))))
        n, m = CONFIG.max_loops, CONFIG.num_tile_sizes
        assert heads["transformation"].shape == (3, 6)
        assert heads["tiling"].shape == (3, n, m)
        assert heads["parallelization"].shape == (3, n, m)
        assert heads["fusion"].shape == (3, n, m)
        assert heads["interchange"].shape == (3, n)  # level pointers

    def test_enumerated_head_size(self):
        config = small_config(interchange_mode=InterchangeMode.ENUMERATED)
        rng = np.random.default_rng(0)
        net = PolicyNetwork(config, rng, hidden_size=32)
        from repro.env import feature_size

        size = feature_size(config)
        heads = net(Tensor(np.zeros((1, size))), Tensor(np.zeros((1, size))))
        assert heads["interchange"].shape == (1, 3 * config.max_loops - 6)

    def test_value_network_scalar(self):
        rng = np.random.default_rng(0)
        net = ValueNetwork(CONFIG, rng, hidden_size=32)
        from repro.env import feature_size

        size = feature_size(CONFIG)
        out = net(Tensor(np.zeros((5, size))), Tensor(np.zeros((5, size))))
        assert out.shape == (5,)


class TestAgentConsistency:
    def test_act_log_prob_matches_evaluate(self):
        """The log-prob recorded at sampling time must equal the one
        recomputed by evaluate() before any update."""
        rng = np.random.default_rng(0)
        agent = ActorCritic(CONFIG, rng, hidden_size=32)
        env = MlirRlEnv(config=CONFIG)
        trajectory = collect_episode(env, agent, _matmul_func(), rng)
        log_probs, entropy, values = agent.evaluate(trajectory.steps)
        recorded = np.array([s.log_prob for s in trajectory.steps])
        assert np.allclose(log_probs.numpy(), recorded, atol=1e-8)

    def test_values_match(self):
        rng = np.random.default_rng(1)
        agent = ActorCritic(CONFIG, rng, hidden_size=32)
        env = MlirRlEnv(config=CONFIG)
        trajectory = collect_episode(env, agent, _matmul_func(), rng)
        _, _, values = agent.evaluate(trajectory.steps)
        recorded = np.array([s.value for s in trajectory.steps])
        assert np.allclose(values.numpy(), recorded, atol=1e-8)

    def test_greedy_act_deterministic(self):
        rng = np.random.default_rng(0)
        agent = ActorCritic(CONFIG, rng, hidden_size=32)
        env = MlirRlEnv(config=CONFIG)
        obs = env.reset(_matmul_func())
        a1, _ = agent.act(obs, np.random.default_rng(1), greedy=True)
        a2, _ = agent.act(obs, np.random.default_rng(2), greedy=True)
        assert str(a1) == str(a2)

    def test_flat_agent_episode(self):
        config = small_config(interchange_mode=InterchangeMode.ENUMERATED)
        rng = np.random.default_rng(0)
        agent = FlatActorCritic(config, rng, hidden_size=32)
        env = MlirRlEnv(config=config)
        trajectory = collect_episode(env, agent, _matmul_func(), rng)
        assert len(trajectory) >= 1
        log_probs, _, _ = agent.evaluate(trajectory.steps)
        recorded = np.array([s.log_prob for s in trajectory.steps])
        assert np.allclose(log_probs.numpy(), recorded, atol=1e-8)


class TestGAE:
    def test_terminal_only_reward_gamma_one(self):
        rewards = [0.0, 0.0, 2.0]
        values = [0.5, 0.5, 0.5]
        advantages, returns = compute_gae(rewards, values, gamma=1.0, lam=1.0)
        # with lambda=1, advantage_t = sum(rewards[t:]) - V_t
        assert advantages[-1] == pytest.approx(1.5)
        assert advantages[0] == pytest.approx(1.5)
        assert returns[0] == pytest.approx(2.0)

    def test_lambda_decay(self):
        rewards = [0.0, 1.0]
        values = [0.0, 0.0]
        adv_low, _ = compute_gae(rewards, values, gamma=1.0, lam=0.0)
        adv_high, _ = compute_gae(rewards, values, gamma=1.0, lam=1.0)
        assert adv_low[0] == pytest.approx(0.0)
        assert adv_high[0] == pytest.approx(1.0)

    def test_normalize(self):
        adv = np.array([1.0, 2.0, 3.0])
        normalized = normalize_advantages(adv)
        assert normalized.mean() == pytest.approx(0.0)
        assert normalized.std() == pytest.approx(1.0)

    def test_normalize_degenerate(self):
        adv = np.array([2.0, 2.0])
        normalized = normalize_advantages(adv)
        assert np.allclose(normalized, 0.0)


class TestPPO:
    def test_training_loop_produces_learning_signal(self):
        rng = np.random.default_rng(0)
        agent = ActorCritic(CONFIG, rng, hidden_size=32)
        env = MlirRlEnv(config=CONFIG)
        config = PPOConfig(samples_per_iteration=4, minibatch_size=8)
        trainer = PPOTrainer(
            env, agent, lambda r: _matmul_func(), config, seed=0
        )
        history = trainer.train(3)
        assert len(history.iterations) == 3
        for stats in history.iterations:
            assert np.isfinite(stats.policy_loss)
            assert np.isfinite(stats.value_loss)
            assert stats.geomean_speedup > 0
            assert stats.entropy > 0
        # a trained agent run greedily must at least not hurt badly
        greedy = collect_episode(
            env, agent, _matmul_func(), rng, greedy=True
        )
        assert greedy.speedup > 0.5

    def test_flat_trainer_runs(self):
        config = small_config(interchange_mode=InterchangeMode.ENUMERATED)
        rng = np.random.default_rng(0)
        agent = FlatActorCritic(config, rng, hidden_size=32)
        env = MlirRlEnv(config=config)
        ppo = PPOConfig(samples_per_iteration=2, minibatch_size=8)
        trainer = PPOTrainer(
            env, agent, lambda r: _matmul_func(), ppo, seed=0
        )
        history = trainer.train(1)
        assert history.iterations[0].geomean_speedup > 0

    def test_wall_clock_accumulates(self):
        rng = np.random.default_rng(0)
        agent = ActorCritic(CONFIG, rng, hidden_size=32)
        env = MlirRlEnv(config=CONFIG)
        ppo = PPOConfig(samples_per_iteration=2, minibatch_size=8)
        trainer = PPOTrainer(env, agent, lambda r: _matmul_func(), ppo, 0)
        history = trainer.train(2)
        wall = history.wall_clock()
        assert wall[1] > wall[0] > 0

    def test_iteration_splits_collect_and_update_seconds(self):
        rng = np.random.default_rng(0)
        agent = ActorCritic(CONFIG, rng, hidden_size=32)
        env = MlirRlEnv(config=CONFIG)
        ppo = PPOConfig(samples_per_iteration=2, minibatch_size=8)
        trainer = PPOTrainer(env, agent, lambda r: _matmul_func(), ppo, 0)
        stats = trainer.train(1).iterations[0]
        assert stats.collect_seconds > 0 and stats.update_seconds > 0
        assert stats.collect_seconds + stats.update_seconds == pytest.approx(
            stats.wall_seconds
        )
        # Histories recorded before the split load with zero phase times.
        legacy = {
            key: value
            for key, value in vars(stats).items()
            if key not in ("collect_seconds", "update_seconds")
        }
        restored = IterationStats(**legacy)
        assert restored.collect_seconds == restored.update_seconds == 0.0
        assert restored.wall_seconds == stats.wall_seconds


class TestCheckpoint:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        agent = ActorCritic(CONFIG, rng, hidden_size=32)
        path = tmp_path / "agent.npz"
        save_agent(agent, path)
        other = ActorCritic(CONFIG, np.random.default_rng(99), hidden_size=32)
        load_agent(other, path)
        for a, b in zip(agent.policy.parameters(), other.policy.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_shape_mismatch_raises(self, tmp_path):
        rng = np.random.default_rng(0)
        agent = ActorCritic(CONFIG, rng, hidden_size=32)
        path = tmp_path / "agent.npz"
        save_agent(agent, path)
        bigger = ActorCritic(CONFIG, rng, hidden_size=64)
        with pytest.raises(ValueError):
            load_agent(bigger, path)

    def test_default_layout_archive_has_no_metadata(self, tmp_path):
        """Default checkpoints keep the exact pre-registry key set, so
        they stay interchangeable with old archives."""
        agent = ActorCritic(CONFIG, np.random.default_rng(0), hidden_size=32)
        path = tmp_path / "agent.npz"
        save_agent(agent, path)
        assert "metadata_json" not in np.load(path).files

    def test_legacy_checkpoint_zero_pads_into_conditioned_agent(
        self, tmp_path
    ):
        """A pre-registry (unconditioned) checkpoint loads into a
        machine-conditioned agent: the machine block's input weights
        start at zero, so the padded network reproduces the legacy
        network's outputs exactly."""
        conditioned_config = small_config(machine_features=True)
        legacy = ActorCritic(CONFIG, np.random.default_rng(0), hidden_size=32)
        path = tmp_path / "legacy.npz"
        save_agent(legacy, path)
        wide = ActorCritic(
            conditioned_config, np.random.default_rng(5), hidden_size=32
        )
        load_agent(wide, path)

        legacy_env = MlirRlEnv(config=CONFIG)
        conditioned_env = MlirRlEnv(config=conditioned_config)
        legacy_obs = legacy_env.reset(_matmul_func())
        conditioned_obs = conditioned_env.reset(_matmul_func())
        legacy_heads = legacy.policy(
            Tensor(legacy_obs.producer[None, :]),
            Tensor(legacy_obs.consumer[None, :]),
        )
        wide_heads = wide.policy(
            Tensor(conditioned_obs.producer[None, :]),
            Tensor(conditioned_obs.consumer[None, :]),
        )
        for name, tensor_ in legacy_heads.items():
            assert np.allclose(
                np.asarray(tensor_.data),
                np.asarray(wide_heads[name].data),
                atol=0,
            ), name

    def test_conditioned_checkpoint_records_layout_and_rejects_narrow(
        self, tmp_path
    ):
        conditioned_config = small_config(machine_features=True)
        wide = ActorCritic(
            conditioned_config, np.random.default_rng(0), hidden_size=32
        )
        path = tmp_path / "wide.npz"
        save_agent(wide, path)
        archive = np.load(path)
        assert "metadata_json" in archive.files
        import json

        layout = json.loads(str(archive["metadata_json"]))["observation"]
        assert layout["machine_features"] is True
        narrow = ActorCritic(CONFIG, np.random.default_rng(1), hidden_size=32)
        with pytest.raises(ValueError, match="machine-conditioned"):
            load_agent(narrow, path)

    def test_conditioned_roundtrip(self, tmp_path):
        conditioned_config = small_config(machine_features=True)
        agent = ActorCritic(
            conditioned_config, np.random.default_rng(0), hidden_size=32
        )
        path = tmp_path / "agent.npz"
        save_agent(agent, path)
        other = ActorCritic(
            conditioned_config, np.random.default_rng(9), hidden_size=32
        )
        load_agent(other, path)
        for a, b in zip(agent.policy.parameters(), other.policy.parameters()):
            assert np.array_equal(a.data, b.data)
