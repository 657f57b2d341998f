"""Fused layer nodes and the in-place optimizer against the tape oracle.

``tests/nn_oracle.py`` holds the per-primitive compositions the fused
``Linear`` / ``MLP`` / ``LSTMEncoder`` / ``log_softmax`` / entropy nodes
replaced, and the allocating ``Adam.step`` / ``clip_grad_norm``.  Whole
PPO runs (acting, updates, optimizer moments) and cost-model training
must be bit-identical under both; each fused node must also pass a
finite-difference gradcheck, and the steady-state update must not
allocate weight-sized arrays.
"""

import copy
import tracemalloc

import numpy as np
import pytest

import nn_oracle
from repro.datasets import training_sampler
from repro.env import MlirRlEnv, extended_config, small_config
from repro.machine.dataset import CostDataset
from repro.nn import (
    MLP,
    Adam,
    LSTMEncoder,
    Linear,
    MaskedCategorical,
    Tensor,
    clip_grad_norm,
    train_cost_model,
)
from repro.rl import (
    ActorCritic,
    FlatActorCritic,
    PPOConfig,
    PPOTrainer,
    load_agent,
    save_agent,
)
from repro.rl import ppo

PPO = PPOConfig(samples_per_iteration=4, minibatch_size=8, update_epochs=2)


def _sampler():
    return training_sampler(scale=0.004, seed=0, kind="generated", curriculum=2)


def _hierarchical(config, hidden, num_envs=1, agent_from=None):
    def make(tmp_path):
        agent = ActorCritic(config, np.random.default_rng(0), hidden_size=hidden)
        if agent_from is not None:
            legacy = ActorCritic(
                agent_from, np.random.default_rng(1), hidden_size=hidden
            )
            path = tmp_path / "legacy.npz"
            save_agent(legacy, path)
            load_agent(agent, path)
        ppo_config = PPOConfig(
            samples_per_iteration=PPO.samples_per_iteration,
            minibatch_size=PPO.minibatch_size,
            update_epochs=PPO.update_epochs,
            num_envs=num_envs,
        )
        env = MlirRlEnv(config=config)
        return PPOTrainer(env, agent, _sampler(), ppo_config, seed=0)

    return make


def _flat(tmp_path):
    config = small_config()
    agent = FlatActorCritic(config, np.random.default_rng(0), hidden_size=32)
    return PPOTrainer(MlirRlEnv(config=config), agent, _sampler(), PPO, seed=0)


CASES = {
    "hidden32": _hierarchical(small_config(), 32),
    "hidden64-batched": _hierarchical(small_config(), 64, num_envs=2),
    "plugin-heads": _hierarchical(
        extended_config("unrolling", "parallelization"), 32
    ),
    "machine-padded": _hierarchical(
        small_config(machine_features=True), 32, agent_from=small_config()
    ),
    "flat": _flat,
}


def _step_record(step) -> tuple:
    return tuple(
        (name, value.tobytes() if isinstance(value, np.ndarray) else value)
        for name, value in sorted(vars(step).items())
    )


def _state(trainer) -> list[np.ndarray]:
    optimizer = trainer.optimizer
    return [p.data for p in optimizer.parameters] + optimizer._m + optimizer._v


def _run(make, tmp_path) -> tuple[list, list[np.ndarray]]:
    """Collect + update, twice: every sampled step, reward and loss, and
    the final parameters and Adam moments."""
    trainer = make(tmp_path)
    record = []
    for _ in range(2):
        trajectories = trainer.collect()
        for trajectory in trajectories:
            record.extend(_step_record(step) for step in trajectory.steps)
            record.append(tuple(trajectory.rewards))
        record.append(trainer.update(trajectories))
    return record, _state(trainer)


@pytest.mark.parametrize("case", sorted(CASES))
def test_ppo_run_bit_identical_to_tape_oracle(case, tmp_path):
    record, state = _run(CASES[case], tmp_path)
    with nn_oracle.oracle():
        expected_record, expected_state = _run(CASES[case], tmp_path)
    assert record == expected_record
    assert len(state) == len(expected_state)
    for index, (array, expected) in enumerate(zip(state, expected_state)):
        assert np.array_equal(array, expected), f"state array {index} differs"


def test_cost_model_training_bit_identical_to_tape_oracle():
    rng = np.random.default_rng(5)
    features = rng.random((90, 24)).astype(np.float32)
    targets = (features @ rng.random(24) - 9.0).astype(np.float32)
    dataset = CostDataset(features=features, targets=targets)
    model, metrics = train_cost_model(dataset, seed=0, epochs=4, batch_size=16)
    with nn_oracle.oracle():
        expected_model, expected = train_cost_model(
            dataset, seed=0, epochs=4, batch_size=16
        )
    assert metrics == expected
    for array, reference in zip(model.state_dict(), expected_model.state_dict()):
        assert np.array_equal(array, reference)


# ---------------------------------------------------------------------------
# Single fused nodes: bit-identical gradients and finite-difference checks
# ---------------------------------------------------------------------------


def _grads(build, tensors) -> list[np.ndarray]:
    for tensor in tensors:
        tensor.grad = None
    build().backward()
    return [tensor.grad.copy() for tensor in tensors]


def _assert_same_grads_as_oracle(build, tensors):
    grads = _grads(build, tensors)
    with nn_oracle.oracle():
        expected = _grads(build, tensors)
    for index, (grad, reference) in enumerate(zip(grads, expected)):
        assert np.array_equal(grad, reference), f"gradient {index} differs"


def _weights(shape, seed):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


def test_three_step_encoder_accumulates_like_the_tape():
    """Three steps, so the per-step weight gradients are added in an
    order-sensitive way.  The steps are computed from one shared input,
    whose three gradient contributions are added in tape order too."""
    rng = np.random.default_rng(0)
    encoder = LSTMEncoder(5, 4, rng)
    shared = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    projections = [Linear(6, 5, rng) for _ in range(3)]
    weights = _weights((3, 4), 1)
    parameters = [*encoder.parameters()]
    for projection in projections:
        parameters.extend(projection.parameters())
    _assert_same_grads_as_oracle(
        lambda: (encoder([p(shared) for p in projections]) * weights).sum(),
        [*parameters, shared],
    )


def test_mlp_feeding_several_heads_matches_the_tape():
    """The backbone output feeds four heads: their gradients are summed
    into it in tape order before the fused backbone backward."""
    rng = np.random.default_rng(2)
    backbone = MLP([6, 8, 8], rng)
    heads = [Linear(8, size, rng) for size in (3, 5, 2, 4)]
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)

    def build():
        features = backbone(x)
        total = None
        for head in heads:
            out = MaskedCategorical(head(features)).entropy().sum()
            total = out if total is None else total + out
        return total

    parameters = [*backbone.parameters()]
    for head in heads:
        parameters.extend(head.parameters())
    _assert_same_grads_as_oracle(build, [*parameters, x])


def _gradcheck(build, tensors, eps=1e-6):
    analytic = _grads(build, tensors)
    for tensor, grad in zip(tensors, analytic):
        numeric = np.zeros_like(tensor.data)
        for index in np.ndindex(tensor.shape):
            tensor.data[index] += eps
            up = build().item()
            tensor.data[index] -= 2 * eps
            down = build().item()
            tensor.data[index] += eps
            numeric[index] = (up - down) / (2 * eps)
        assert np.allclose(grad, numeric, atol=1e-5, rtol=1e-4), (
            f"max error {np.abs(grad - numeric).max():.2e}"
        )


class TestFusedGradchecks:
    def test_linear(self):
        rng = np.random.default_rng(0)
        layer = Linear(3, 4, rng)
        layer.bias.data = rng.normal(size=4)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        weights = _weights((2, 4), 1)
        _gradcheck(lambda: (layer(x) * weights).sum(), [x, *layer.parameters()])

    @pytest.mark.parametrize("final_activation", [True, False])
    def test_mlp_including_its_input(self, final_activation):
        rng = np.random.default_rng(3)
        mlp = MLP([3, 5, 4, 2], rng, final_activation=final_activation)
        for layer in mlp.layers:
            layer.bias.data = rng.normal(size=layer.bias.shape) + 0.5
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        weights = _weights((3, 2), 4)
        _gradcheck(lambda: (mlp(x) * weights).sum(), [x, *mlp.parameters()])

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_lstm_encoder_with_step_gradients(self, length):
        rng = np.random.default_rng(length)
        encoder = LSTMEncoder(3, 2, rng)
        encoder.cell.bias.data = rng.normal(size=8)
        steps = [
            Tensor(rng.normal(size=(2, 3)), requires_grad=index != 1)
            for index in range(length)
        ]
        weights = _weights((2, 2), 5)
        trainable = [s for s in steps if s.requires_grad]
        _gradcheck(
            lambda: (encoder(steps) * weights).sum(),
            [*encoder.parameters(), *trainable],
        )

    def test_masked_entropy(self):
        rng = np.random.default_rng(6)
        logits = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        mask = rng.random((2, 3, 4)) < 0.7
        mask[..., 0] = True
        weights = _weights((2, 3), 7)
        _gradcheck(
            lambda: (MaskedCategorical(logits, mask).entropy() * weights).sum(),
            [logits],
        )


# ---------------------------------------------------------------------------
# Allocations and copies
# ---------------------------------------------------------------------------


def _trainer(hidden=64):
    config = small_config()
    agent = ActorCritic(config, np.random.default_rng(0), hidden_size=hidden)
    return PPOTrainer(MlirRlEnv(config=config), agent, _sampler(), PPO, seed=0)


def test_steady_state_update_allocates_no_weight_sized_array(monkeypatch):
    trainer = _trainer()
    trajectories = trainer.collect()
    trainer.update(trajectories)  # warm: buffers and scratch exist now
    weight_ih = trainer.agent.policy.encoder.cell.weight_ih.data.nbytes
    peaks: dict[str, int] = {}

    def measured(name, function):
        def wrapper(*args, **kwargs):
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            try:
                return function(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                peaks[name] = max(peaks.get(name, 0), peak - start)

        return wrapper

    monkeypatch.setattr(Tensor, "backward", measured("backward", Tensor.backward))
    monkeypatch.setattr(ppo, "clip_grad_norm", measured("clip", clip_grad_norm))
    monkeypatch.setattr(Adam, "step", measured("adam", Adam.step))
    tracemalloc.start()
    try:
        trainer.update(trajectories)
    finally:
        tracemalloc.stop()
    assert set(peaks) == {"backward", "clip", "adam"}
    for name, peak in peaks.items():
        assert peak < weight_ih, f"{name} peaked at {peak} bytes"


def test_deep_copy_updates_identically_and_shares_no_buffers():
    trainer = _trainer(hidden=32)
    trajectories = trainer.collect()
    trainer.update(trajectories)
    twin = copy.copy(trainer)
    twin.agent, twin.optimizer = copy.deepcopy((trainer.agent, trainer.optimizer))
    twin.rng = copy.deepcopy(trainer.rng)
    assert trainer.update(trajectories) == twin.update(trajectories)
    for ours, theirs in zip(trainer.optimizer.parameters, twin.optimizer.parameters):
        assert np.array_equal(ours.data, theirs.data)
        if ours.grad is not None:
            assert not np.shares_memory(ours.grad, theirs.grad)
    for ours, theirs in zip(_state(trainer), _state(twin)):
        assert np.array_equal(ours, theirs)
        assert not np.shares_memory(ours, theirs)


def test_adam_refuses_a_non_contiguous_parameter():
    strided = np.arange(24.0).reshape(4, 6)[:, ::2]
    parameter = Tensor(strided, requires_grad=True)
    parameter.grad = np.ones((4, 3))
    before = strided.copy()
    with pytest.raises(ValueError, match="contiguous"):
        Adam([parameter]).step()
    assert np.array_equal(strided, before)
