"""Autograd engine tests: finite-difference gradient checks for every
primitive plus broadcasting and graph-reuse behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor, concatenate, log_softmax, softmax, stack, where


def _gradcheck(fn, *shapes, seed=0, eps=1e-6, tol=1e-5):
    """Compare analytic and finite-difference gradients of scalar fn."""
    rng = np.random.default_rng(seed)
    tensors = [
        Tensor(rng.normal(size=shape) + 1.5, requires_grad=True)
        for shape in shapes
    ]
    out = fn(*tensors)
    out.backward()
    for tensor in tensors:
        analytic = tensor.grad.copy()
        fd = np.zeros_like(tensor.data)
        it = np.nditer(tensor.data, flags=["multi_index"])
        for _ in it:
            index = it.multi_index
            tensor.data[index] += eps
            up = fn(*tensors).item()
            tensor.data[index] -= 2 * eps
            down = fn(*tensors).item()
            tensor.data[index] += eps
            fd[index] = (up - down) / (2 * eps)
        assert np.allclose(analytic, fd, atol=tol, rtol=1e-4), (
            f"gradcheck failed: max err "
            f"{np.abs(analytic - fd).max():.2e}"
        )


class TestGradchecks:
    def test_add(self):
        _gradcheck(lambda a, b: (a + b).sum(), (3, 4), (3, 4))

    def test_add_broadcast(self):
        _gradcheck(lambda a, b: (a + b).sum(), (3, 4), (4,))

    def test_sub(self):
        _gradcheck(lambda a, b: (a - b).sum(), (2, 3), (2, 3))

    def test_mul(self):
        _gradcheck(lambda a, b: (a * b).sum(), (3, 3), (3, 3))

    def test_mul_broadcast_scalar_shape(self):
        _gradcheck(lambda a, b: (a * b).sum(), (3, 3), (1,))

    def test_div(self):
        _gradcheck(lambda a, b: (a / b).sum(), (2, 4), (2, 4))

    def test_pow(self):
        _gradcheck(lambda a: (a**3).sum(), (3, 2))

    def test_matmul(self):
        _gradcheck(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))

    def test_exp(self):
        _gradcheck(lambda a: a.exp().sum(), (3,))

    def test_log(self):
        _gradcheck(lambda a: a.log().sum(), (3,))

    def test_tanh(self):
        _gradcheck(lambda a: a.tanh().sum(), (4,))

    def test_sigmoid(self):
        _gradcheck(lambda a: a.sigmoid().sum(), (4,))

    def test_relu(self):
        _gradcheck(lambda a: a.relu().sum(), (5,))

    def test_sum_axis(self):
        _gradcheck(lambda a: (a.sum(axis=1) ** 2).sum(), (3, 4))

    def test_mean(self):
        _gradcheck(lambda a: a.mean(), (3, 4))
        for axis in ((0, 1), -1, (0, -1), (-2, -1)):
            _gradcheck(lambda a, axis=axis: (a.mean(axis=axis) ** 2).sum(), (2, 3, 4))

    def test_max_axis(self):
        _gradcheck(lambda a: a.max(axis=1).sum(), (3, 4))

    def test_reshape(self):
        _gradcheck(lambda a: (a.reshape(6) ** 2).sum(), (2, 3))

    def test_transpose(self):
        _gradcheck(lambda a: (a.transpose() @ a).sum(), (3, 4))

    def test_getitem(self):
        _gradcheck(lambda a: (a[1] ** 2).sum(), (3, 4))

    def test_concatenate(self):
        _gradcheck(
            lambda a, b: (concatenate([a, b], axis=0) ** 2).sum(),
            (2, 3),
            (4, 3),
        )

    def test_stack(self):
        _gradcheck(
            lambda a, b: (stack([a, b], axis=0) ** 2).sum(), (2, 3), (2, 3)
        )

    def test_log_softmax(self):
        _gradcheck(lambda a: log_softmax(a, axis=-1)[0, 1].sum(), (2, 4))

    def test_clip_straight_through(self):
        _gradcheck(lambda a: a.clip_value(-10.0, 10.0).sum(), (4,))

    def test_composite_network(self):
        _gradcheck(
            lambda a, w: ((a @ w).tanh() ** 2).mean(), (4, 5), (5, 3)
        )


class TestGraphMechanics:
    def test_value_reused_twice_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        out = x * x + x
        out.backward()
        assert np.allclose(x.grad, [5.0])  # 2x + 1

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = x * 2
        b = x + 1
        out = (a * b).sum()
        out.backward()
        assert np.allclose(x.grad, [2 * (3 + 1) + 2 * 3])  # d(2x(x+1))/dx

    def test_detach_blocks_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        out = (x.detach() * x).sum()
        out.backward()
        assert np.allclose(x.grad, [2.0])

    def test_no_grad_tensor_raises_on_backward(self):
        x = Tensor(np.array([1.0]))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_softmax_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(4, 7)))
        probs = softmax(logits).numpy()
        assert np.allclose(probs.sum(axis=-1), 1.0)

    def test_log_softmax_stable_with_huge_logits(self):
        logits = Tensor(np.array([[1e9, 0.0, -1e9]]))
        lp = log_softmax(logits).numpy()
        assert np.isfinite(lp[0, 0])
        assert lp[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_where(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([10.0, 20.0]), requires_grad=True)
        mask = np.array([True, False])
        out = where(mask, a, b).sum()
        out.backward()
        assert np.allclose(a.grad, [1.0, 0.0])
        assert np.allclose(b.grad, [0.0, 1.0])


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_property_matmul_chain_grad(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    w = Tensor(rng.normal(size=(cols, 2)), requires_grad=True)
    loss = ((x @ w).sigmoid()).sum()
    loss.backward()
    assert x.grad.shape == x.shape
    assert w.grad.shape == w.shape
    assert np.all(np.isfinite(x.grad))
