"""Resumable training and PPO update-loop correctness.

Covers the PR's trainer bugfixes: full training-state checkpoints
(weights + optimizer moments + RNG streams + iteration counter +
curriculum stage) whose resumed runs are bit-identical to uninterrupted
ones, and the minibatch split that consumes every transition instead of
dropping singleton tails.
"""

import numpy as np
import pytest

from repro.datasets import training_sampler
from repro.env import MlirRlEnv, small_config
from repro.ir import FuncOp, matmul, tensor
from repro.rl import (
    ActorCritic,
    PPOConfig,
    PPOTrainer,
    Trajectory,
    collect_episode,
    load_training_state,
    save_training_state,
)

CONFIG = small_config()
PPO = PPOConfig(samples_per_iteration=3, minibatch_size=4)

#: IterationStats fields that must match bit-for-bit between an
#: uninterrupted and a resumed run (wall_seconds is wall-clock noise).
DETERMINISTIC_FIELDS = (
    "iteration",
    "mean_reward",
    "geomean_speedup",
    "policy_loss",
    "value_loss",
    "entropy",
    "executions",
)


def _matmul_func(rng=None):
    a, b, c = tensor([64, 32]), tensor([32, 16]), tensor([64, 16])
    func = FuncOp("mm", [a, b, c])
    op = func.append(matmul(a, b, c))
    func.returns = [op.result()]
    return func


def _make_trainer(kind="generated", curriculum=2):
    rng = np.random.default_rng(0)
    agent = ActorCritic(CONFIG, rng, hidden_size=32)
    env = MlirRlEnv(config=CONFIG)
    sampler = training_sampler(
        scale=0.004, seed=0, kind=kind, curriculum=curriculum
    )
    return PPOTrainer(env, agent, sampler, PPO, seed=0)


def _assert_histories_identical(a, b):
    assert len(a.iterations) == len(b.iterations)
    for stats_a, stats_b in zip(a.iterations, b.iterations):
        for field in DETERMINISTIC_FIELDS:
            assert getattr(stats_a, field) == getattr(stats_b, field), field


class TestResume:
    def test_resumed_run_bit_identical(self, tmp_path):
        """Kill after 2 of 4 iterations, resume in a fresh process-like
        trainer: history and final weights match the uninterrupted run
        exactly (the acceptance criterion)."""
        uninterrupted = _make_trainer()
        full_history = uninterrupted.train(4)

        interrupted = _make_trainer()
        interrupted.train(2)
        path = tmp_path / "state.npz"
        save_training_state(interrupted, path)

        resumed = _make_trainer()
        load_training_state(resumed, path)
        resumed_history = resumed.train(2)

        _assert_histories_identical(full_history, resumed_history)
        for p_full, p_resumed in zip(
            uninterrupted.agent.policy.parameters(),
            resumed.agent.policy.parameters(),
        ):
            assert np.array_equal(p_full.data, p_resumed.data)
        for p_full, p_resumed in zip(
            uninterrupted.agent.value.parameters(),
            resumed.agent.value.parameters(),
        ):
            assert np.array_equal(p_full.data, p_resumed.data)

    def test_resume_from_the_path_without_suffix(self, tmp_path):
        """A state saved to ``run`` lands in ``run.npz`` (np.savez's
        rule), and ``run`` resumes it, as ``repro train --state run``
        then ``--resume run`` do."""
        full_history = _make_trainer().train(2)

        interrupted = _make_trainer()
        interrupted.train(1)
        save_training_state(interrupted, tmp_path / "run")
        assert (tmp_path / "run.npz").exists()

        resumed = _make_trainer()
        load_training_state(resumed, str(tmp_path / "run"))
        _assert_histories_identical(full_history, resumed.train(1))

    def test_state_roundtrip_restores_everything(self, tmp_path):
        trainer = _make_trainer()
        trainer.train(2)
        path = tmp_path / "state.npz"
        save_training_state(trainer, path)

        fresh = _make_trainer()
        metadata = load_training_state(fresh, path)
        assert metadata["iteration"] == 2
        assert fresh.iteration == 2
        assert len(fresh.history.iterations) == 2
        # optimizer moments, not just weights
        assert fresh.optimizer._t == trainer.optimizer._t > 0
        for m_a, m_b in zip(trainer.optimizer._m, fresh.optimizer._m):
            assert np.array_equal(m_a, m_b)
        for v_a, v_b in zip(trainer.optimizer._v, fresh.optimizer._v):
            assert np.array_equal(v_a, v_b)
        # the RNG stream continues identically
        assert trainer.rng.integers(2**32) == fresh.rng.integers(2**32)
        # the curriculum position survives
        assert (
            fresh.sampler.state_dict() == trainer.sampler.state_dict()
        )

    def test_legacy_state_resumes_into_conditioned_trainer(self, tmp_path):
        """A pre-registry training state (no machine block) loads into a
        machine-conditioned trainer via the zero-pad path: padded input
        weights and Adam moments start at zero."""
        trainer = _make_trainer()
        trainer.train(1)
        path = tmp_path / "state.npz"
        save_training_state(trainer, path)

        conditioned = small_config(machine_features=True)
        rng = np.random.default_rng(0)
        agent = ActorCritic(conditioned, rng, hidden_size=32)
        env = MlirRlEnv(config=conditioned)
        sampler = training_sampler(
            scale=0.004, seed=0, kind="generated", curriculum=2
        )
        fresh = PPOTrainer(env, agent, sampler, PPO, seed=0)
        load_training_state(fresh, path)
        assert fresh.iteration == 1
        # Every padded input-weight row and its moments start at zero.
        legacy_rows = next(
            iter(trainer.agent.policy.parameters())
        ).data.shape[0]
        padded = next(iter(fresh.agent.policy.parameters())).data
        assert padded.shape[0] > legacy_rows
        assert np.all(padded[legacy_rows:] == 0.0)
        assert np.all(fresh.optimizer._m[0][legacy_rows:] == 0.0)
        # Resuming keeps training without error on the wider layout.
        fresh.train(1)

    def test_resume_on_different_machine_rejected(self, tmp_path):
        """Resuming must not silently retime rewards on other hardware."""
        from repro.machine import spec

        def trainer_on(machine):
            rng = np.random.default_rng(0)
            agent = ActorCritic(CONFIG, rng, hidden_size=32)
            env = MlirRlEnv(config=small_config(machine=machine))
            return PPOTrainer(
                env, agent, lambda r: _matmul_func(), PPO, seed=0
            )

        trainer = trainer_on("laptop-8core")
        trainer.train(1)
        path = tmp_path / "state.npz"
        save_training_state(trainer, path)
        with pytest.raises(ValueError, match="different target machine"):
            load_training_state(trainer_on("edge-cortex-a72"), path)
        with pytest.raises(ValueError, match="different target machine"):
            load_training_state(trainer_on("xeon-e5-2680-v4"), path)
        load_training_state(trainer_on("laptop-8core"), path)  # matches

        # Round-robin schedules must match too.
        rng = np.random.default_rng(0)
        agent = ActorCritic(CONFIG, rng, hidden_size=32)
        env = MlirRlEnv(config=CONFIG)
        robin = PPOTrainer(
            env,
            agent,
            lambda r: _matmul_func(),
            PPO,
            seed=0,
            machines=[spec(), spec("laptop-8core")],
        )
        robin.train(1)
        robin_path = tmp_path / "robin.npz"
        save_training_state(robin, robin_path)
        rng = np.random.default_rng(0)
        single = PPOTrainer(
            MlirRlEnv(config=CONFIG),
            ActorCritic(CONFIG, rng, hidden_size=32),
            lambda r: _matmul_func(),
            PPO,
            seed=0,
        )
        with pytest.raises(ValueError, match="round-robin"):
            load_training_state(single, robin_path)

    def test_sampler_kind_mismatch_rejected(self, tmp_path):
        trainer = _make_trainer(kind="generated", curriculum=2)
        trainer.train(1)
        path = tmp_path / "state.npz"
        save_training_state(trainer, path)
        # resuming on a different corpus must fail loudly, not diverge
        mismatched = _make_trainer(kind="table2", curriculum=0)
        with pytest.raises(ValueError, match="CurriculumSampler"):
            load_training_state(mismatched, path)

    def test_mixed_curriculum_mismatch_rejected(self, tmp_path):
        """Mixed checkpoints with curriculum state refuse to load into a
        mixed sampler whose generated branch is stateless."""
        trainer = _make_trainer(kind="mixed", curriculum=2)
        trainer.train(1)
        path = tmp_path / "state.npz"
        save_training_state(trainer, path)
        mismatched = _make_trainer(kind="mixed", curriculum=0)
        with pytest.raises(ValueError, match="generated branch"):
            load_training_state(mismatched, path)

    def test_stateless_mixed_checkpoint_roundtrips(self, tmp_path):
        """curriculum-0 mixed runs save an empty-but-present sampler
        state and load cleanly into the same configuration."""
        trainer = _make_trainer(kind="mixed", curriculum=0)
        trainer.train(1)
        path = tmp_path / "state.npz"
        save_training_state(trainer, path)
        fresh = _make_trainer(kind="mixed", curriculum=0)
        metadata = load_training_state(fresh, path)
        assert metadata["sampler_state"] == {}
        assert fresh.iteration == 1

    def test_stateless_mixed_into_curriculum_rejected(self, tmp_path):
        """The reverse mismatch: a curriculum-0 mixed checkpoint must
        not silently restart a curriculum run at warmup."""
        trainer = _make_trainer(kind="mixed", curriculum=0)
        trainer.train(1)
        path = tmp_path / "state.npz"
        save_training_state(trainer, path)
        mismatched = _make_trainer(kind="mixed", curriculum=2)
        with pytest.raises(ValueError, match="stateless generated"):
            load_training_state(mismatched, path)

    def test_different_curriculum_pace_rejected(self, tmp_path):
        """draws is meaningless under another episodes_per_stage, so
        resuming with a different --curriculum N must fail loudly."""
        trainer = _make_trainer(kind="generated", curriculum=2)
        trainer.train(1)
        path = tmp_path / "state.npz"
        save_training_state(trainer, path)
        mismatched = _make_trainer(kind="generated", curriculum=7)
        with pytest.raises(ValueError, match="episodes_per_stage"):
            load_training_state(mismatched, path)

    def test_weights_only_checkpoint_rejected(self, tmp_path):
        """Pointing --resume at the weights .npz gives a clear error,
        not a KeyError traceback."""
        from repro.rl import save_agent

        trainer = _make_trainer()
        path = tmp_path / "agent.npz"
        save_agent(trainer.agent, path)
        with pytest.raises(ValueError, match="weights-only"):
            load_training_state(trainer, path)

    def test_snapshot_overwrite_is_atomic(self, tmp_path):
        """Per-iteration saves replace the file whole; no stale temp
        files accumulate (only the checksum sidecar rides along) and
        the target always loads."""
        path = tmp_path / "state.npz"
        trainer = _make_trainer()
        trainer.train(2, state_path=str(path))
        leftovers = [
            p
            for p in tmp_path.iterdir()
            if p.name not in ("state.npz", "state.npz.sha256")
        ]
        assert leftovers == []
        probe = _make_trainer()
        assert load_training_state(probe, path)["iteration"] == 2

    def test_plain_sampler_roundtrip(self, tmp_path):
        """Samplers without curriculum state checkpoint fine too."""
        trainer = _make_trainer(kind="table2", curriculum=0)
        trainer.train(1)
        path = tmp_path / "state.npz"
        save_training_state(trainer, path)
        fresh = _make_trainer(kind="table2", curriculum=0)
        load_training_state(fresh, path)
        assert fresh.iteration == 1

    def test_mixed_sampler_curriculum_position_survives(self, tmp_path):
        """The mixed sampler forwards its generated branch's curriculum
        state through checkpoints (it used to be silently dropped)."""
        trainer = _make_trainer(kind="mixed", curriculum=2)
        trainer.train(2)
        saved_draws = trainer.sampler.generated.draws
        assert saved_draws > 0
        path = tmp_path / "state.npz"
        save_training_state(trainer, path)
        fresh = _make_trainer(kind="mixed", curriculum=2)
        load_training_state(fresh, path)
        assert fresh.sampler.generated.draws == saved_draws
        assert (
            fresh.sampler.generated.stage.name
            == trainer.sampler.generated.stage.name
        )

    def test_state_written_every_iteration_boundary(self, tmp_path):
        """train(state_path=...) snapshots after each iteration, so a
        kill mid-run leaves a resumable state at the last completed
        boundary."""
        path = tmp_path / "live.npz"
        trainer = _make_trainer()
        trainer.train(1, state_path=str(path))
        assert path.exists()
        probe = _make_trainer()
        assert load_training_state(probe, path)["iteration"] == 1
        trainer.train(1, state_path=str(path))
        probe = _make_trainer()
        assert load_training_state(probe, path)["iteration"] == 2


class TestMinibatchSplit:
    def _trainer(self, minibatch_size):
        rng = np.random.default_rng(0)
        agent = ActorCritic(CONFIG, rng, hidden_size=32)
        env = MlirRlEnv(config=CONFIG)
        config = PPOConfig(
            samples_per_iteration=2, minibatch_size=minibatch_size
        )
        return PPOTrainer(env, agent, lambda r: _matmul_func(), config, 0)

    @pytest.mark.parametrize(
        "total,size",
        [(33, 32), (65, 32), (4, 4), (5, 4), (7, 4), (2, 4), (9, 2)],
    )
    def test_every_index_consumed_once_per_epoch(self, total, size):
        trainer = self._trainer(size)
        indices = np.arange(total)
        trainer.rng.shuffle(indices)
        batches = trainer._minibatches(indices)
        consumed = np.concatenate(batches)
        assert sorted(consumed) == list(range(total))
        assert all(len(batch) >= 2 for batch in batches)

    def test_single_transition_skipped(self):
        trainer = self._trainer(4)
        assert trainer._minibatches(np.arange(1)) == []

    def test_update_consumes_tail_transitions(self):
        """End-to-end: with len(steps) % minibatch_size == 1, every
        transition reaches agent.evaluate in every epoch (the old loop
        silently dropped the tail one)."""
        trainer = self._trainer(4)
        episode = collect_episode(
            trainer.env, trainer.agent, _matmul_func(), trainer.rng
        )
        step = episode.steps[0]
        # nine single-step trajectories: 9 % 4 == 1, the tail case
        total = 9
        trajectories = [
            Trajectory(steps=[step], rewards=[0.1], speedup=1.0)
            for _ in range(total)
        ]

        evaluated_per_call = []
        original_evaluate = trainer.agent.evaluate

        def spying_evaluate(mb_steps):
            evaluated_per_call.append(len(mb_steps))
            return original_evaluate(mb_steps)

        trainer.agent.evaluate = spying_evaluate
        trainer.update(trajectories)
        per_epoch = sum(evaluated_per_call) / trainer.config.update_epochs
        assert per_epoch == total, (
            f"each epoch must consume all {total} transitions, got "
            f"{per_epoch}"
        )
