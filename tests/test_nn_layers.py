"""Tests for layers, optimizers and distributions."""

import numpy as np
import pytest

import nn_oracle
from repro.nn import (
    Adam,
    LSTMCell,
    LSTMEncoder,
    Linear,
    MLP,
    MaskedCategorical,
    SGD,
    Tensor,
    clip_grad_norm,
)


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3, np.random.default_rng(0))
        out = layer(Tensor(np.zeros((7, 5))))
        assert out.shape == (7, 3)

    def test_parameter_count(self):
        layer = Linear(5, 3, np.random.default_rng(0))
        assert layer.num_parameters() == 5 * 3 + 3

    def test_no_bias(self):
        layer = Linear(5, 3, np.random.default_rng(0), bias=False)
        assert layer.num_parameters() == 15

    def test_state_dict_roundtrip(self):
        rng = np.random.default_rng(0)
        a = Linear(4, 4, rng)
        b = Linear(4, 4, rng)
        b.load_state_dict(a.state_dict())
        x = Tensor(np.ones((1, 4)))
        assert np.allclose(a(x).numpy(), b(x).numpy())

    def test_state_dict_shape_mismatch(self):
        a = Linear(4, 4, np.random.default_rng(0))
        b = Linear(4, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())


class TestMLP:
    def test_depth(self):
        mlp = MLP([8, 16, 16, 4], np.random.default_rng(0))
        assert len(mlp.layers) == 3
        out = mlp(Tensor(np.zeros((2, 8))))
        assert out.shape == (2, 4)

    def test_gradients_reach_all_layers(self):
        mlp = MLP([4, 8, 2], np.random.default_rng(0))
        loss = (mlp(Tensor(np.ones((3, 4)))) ** 2).sum()
        loss.backward()
        assert all(p.grad is not None for p in mlp.parameters())


class TestLSTM:
    def test_cell_shapes(self):
        # The per-step cell lives in the test oracle; the encoder's fused
        # node must agree with one oracle step.
        cell = LSTMCell(6, 10, np.random.default_rng(0))
        h, c = nn_oracle.initial_state(cell, 4)
        x = Tensor(np.random.default_rng(1).normal(size=(4, 6)))
        h2, c2 = nn_oracle.cell_step(cell, x, (h, c))
        assert h2.shape == (4, 10)
        assert c2.shape == (4, 10)
        encoder = LSTMEncoder(6, 10, np.random.default_rng(2))
        encoder.cell = cell
        assert np.array_equal(encoder([x]).numpy(), h2.numpy())

    def test_encoder_final_state(self):
        encoder = LSTMEncoder(6, 10, np.random.default_rng(0))
        steps = [Tensor(np.random.default_rng(i).normal(size=(2, 6)))
                 for i in range(3)]
        out = encoder(steps)
        assert out.shape == (2, 10)

    def test_encoder_order_matters(self):
        encoder = LSTMEncoder(4, 8, np.random.default_rng(0))
        a = Tensor(np.ones((1, 4)))
        b = Tensor(-np.ones((1, 4)))
        assert not np.allclose(
            encoder([a, b]).numpy(), encoder([b, a]).numpy()
        )

    def test_encoder_empty_raises(self):
        encoder = LSTMEncoder(4, 8, np.random.default_rng(0))
        with pytest.raises(ValueError):
            encoder([])

    def test_gradients_flow_through_time(self):
        encoder = LSTMEncoder(4, 8, np.random.default_rng(0))
        x0 = Tensor(np.ones((1, 4)), requires_grad=True)
        x1 = Tensor(np.ones((1, 4)))
        loss = (encoder([x0, x1]) ** 2).sum()
        loss.backward()
        assert x0.grad is not None
        assert np.abs(x0.grad).sum() > 0


class TestOptimizers:
    def test_adam_converges_quadratic(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        optimizer = Adam([p], lr=0.1)
        target = np.array([1.0, 2.0])
        for _ in range(300):
            optimizer.zero_grad()
            loss = ((p - Tensor(target)) ** 2).sum()
            loss.backward()
            optimizer.step()
        assert np.allclose(p.data, target, atol=1e-2)

    def test_sgd_converges(self):
        p = Tensor(np.array([4.0]), requires_grad=True)
        optimizer = SGD([p], lr=0.1, momentum=0.5)
        for _ in range(200):
            optimizer.zero_grad()
            ((p - 1.0) ** 2).sum().backward()
            optimizer.step()
        assert np.allclose(p.data, [1.0], atol=1e-3)

    def test_skip_parameters_without_grad(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        Adam([p]).step()  # no grad yet: should not crash
        assert p.data[0] == 1.0

    def test_clip_grad_norm(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([30.0])
        norm = clip_grad_norm([p], 3.0)
        assert norm == pytest.approx(30.0)
        assert np.allclose(p.grad, [3.0])

    def test_clip_noop_below_max(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([0.5])
        clip_grad_norm([p], 3.0)
        assert np.allclose(p.grad, [0.5])


class TestMaskedCategorical:
    def test_masked_entries_get_zero_probability(self):
        logits = Tensor(np.zeros((1, 4)))
        mask = np.array([[True, False, True, False]])
        dist = MaskedCategorical(logits, mask)
        probs = dist.probs[0]
        assert probs[1] == pytest.approx(0.0, abs=1e-12)
        assert probs[3] == pytest.approx(0.0, abs=1e-12)
        assert probs[0] == pytest.approx(0.5)

    def test_sample_respects_mask(self):
        rng = np.random.default_rng(0)
        logits = Tensor(np.zeros((1, 5)))
        mask = np.array([[False, False, True, False, False]])
        dist = MaskedCategorical(logits, mask)
        for _ in range(20):
            assert dist.sample(rng)[0] == 2

    def test_empty_mask_raises(self):
        logits = Tensor(np.zeros((1, 3)))
        mask = np.zeros((1, 3), dtype=bool)
        with pytest.raises(ValueError):
            MaskedCategorical(logits, mask)

    def test_log_prob_matches_probs(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(size=(2, 4)))
        dist = MaskedCategorical(logits)
        actions = np.array([1, 3])
        lp = dist.log_prob(actions).numpy()
        assert np.allclose(np.exp(lp), dist.probs[[0, 1], actions])

    def test_entropy_uniform_is_log_k(self):
        dist = MaskedCategorical(Tensor(np.zeros((1, 8))))
        assert dist.entropy().numpy()[0] == pytest.approx(np.log(8))

    def test_entropy_decreases_with_masking(self):
        logits = Tensor(np.zeros((1, 8)))
        full = MaskedCategorical(logits).entropy().numpy()[0]
        half = MaskedCategorical(
            logits, np.array([[True] * 4 + [False] * 4])
        ).entropy().numpy()[0]
        assert half < full

    def test_multirow_distribution(self):
        logits = Tensor(np.zeros((2, 3, 4)))
        mask = np.ones((2, 3, 4), dtype=bool)
        dist = MaskedCategorical(logits, mask)
        samples = dist.sample(np.random.default_rng(0))
        assert samples.shape == (2, 3)

    def test_mode(self):
        logits = Tensor(np.array([[0.0, 5.0, 1.0]]))
        assert MaskedCategorical(logits).mode()[0] == 1
