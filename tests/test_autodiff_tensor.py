"""Unit tests for the core autodiff tensor: ops, broadcasting, backward."""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor, concatenate, no_grad, tensor, where


def numeric_grad(fn, x, h=1e-6):
    """Central-difference gradient of scalar fn at numpy point x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (fn(xp) - fn(xm)) / (2 * h)
        it.iternext()
    return grad


class TestBasicOps:
    def test_add_values(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        assert np.allclose((a + b).data, [4.0, 6.0])

    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_add_scalar_broadcast(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = (a + 5.0).sum()
        out.backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_radd(self):
        a = Tensor([1.0], requires_grad=True)
        (2.0 + a).backward()
        assert np.allclose(a.grad, [1.0])

    def test_sub_backward(self):
        a = Tensor([5.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a - b).backward()
        assert np.allclose(a.grad, [1.0])
        assert np.allclose(b.grad, [-1.0])

    def test_rsub(self):
        a = Tensor([3.0], requires_grad=True)
        (10.0 - a).backward()
        assert np.allclose(a.grad, [-1.0])

    def test_mul_backward(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([7.0], requires_grad=True)
        (a * b).backward()
        assert np.allclose(a.grad, [7.0])
        assert np.allclose(b.grad, [2.0])

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a / b).backward()
        assert np.allclose(a.grad, [1.0 / 3.0])
        assert np.allclose(b.grad, [-6.0 / 9.0])

    def test_rtruediv(self):
        a = Tensor([4.0], requires_grad=True)
        (8.0 / a).backward()
        assert np.allclose(a.grad, [-8.0 / 16.0])

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a**2).backward()
        assert np.allclose(a.grad, [6.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_neg(self):
        a = Tensor([1.5], requires_grad=True)
        (-a).backward()
        assert np.allclose(a.grad, [-1.0])

    def test_broadcast_mul_unbroadcasts_grad(self):
        a = Tensor(np.ones((3, 1)), requires_grad=True)
        b = Tensor(np.ones((1, 4)), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (3, 1)
        assert b.grad.shape == (1, 4)
        assert np.allclose(a.grad, 4.0)
        assert np.allclose(b.grad, 3.0)


class TestElementwiseFunctions:
    @pytest.mark.parametrize(
        "op",
        ["exp", "log", "sqrt", "tanh", "sigmoid", "abs"],
    )
    def test_unary_matches_numeric(self, op):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 2.0, size=(3, 2))
        t = Tensor(x, requires_grad=True)
        getattr(t, op)().sum().backward()
        num = numeric_grad(lambda v: getattr(Tensor(v), op)().sum().item(), x)
        assert np.allclose(t.grad, num, atol=1e-5)

    def test_relu_gradient_mask(self):
        t = Tensor([-1.0, 2.0], requires_grad=True)
        t.relu().sum().backward()
        assert np.allclose(t.grad, [0.0, 1.0])

    def test_leaky_relu(self):
        t = Tensor([-2.0, 3.0], requires_grad=True)
        t.leaky_relu(0.1).sum().backward()
        assert np.allclose(t.grad, [0.1, 1.0])

    def test_clip_gradient(self):
        t = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(t.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = t.sum(axis=0)
        assert out.shape == (3,)
        out.sum().backward()
        assert np.allclose(t.grad, np.ones((2, 3)))

    def test_sum_keepdims(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        out = t.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        assert np.allclose(t.grad, np.ones((2, 3)))

    def test_mean(self):
        t = Tensor([2.0, 4.0], requires_grad=True)
        t.mean().backward()
        assert np.allclose(t.grad, [0.5, 0.5])

    def test_max_gradient_goes_to_argmax(self):
        t = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        t.max().backward()
        assert np.allclose(t.grad, [0.0, 1.0, 0.0])

    def test_max_ties_split(self):
        t = Tensor([5.0, 5.0], requires_grad=True)
        t.max().backward()
        assert np.allclose(t.grad, [0.5, 0.5])

    def test_min(self):
        t = Tensor([4.0, -2.0, 7.0], requires_grad=True)
        out = t.min()
        assert out.item() == -2.0
        out.backward()
        assert np.allclose(t.grad, [0.0, 1.0, 0.0])

    def test_max_axis(self):
        t = Tensor(np.array([[1.0, 9.0], [8.0, 2.0]]), requires_grad=True)
        t.max(axis=1).sum().backward()
        assert np.allclose(t.grad, [[0, 1], [1, 0]])


class TestMatmulAndShape:
    def test_matmul_values(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose((a @ b).data, b.data)

    def test_matmul_backward(self):
        rng = np.random.default_rng(1)
        a_np = rng.normal(size=(3, 4))
        b_np = rng.normal(size=(4, 2))
        a = Tensor(a_np, requires_grad=True)
        b = Tensor(b_np, requires_grad=True)
        (a @ b).sum().backward()
        num_a = numeric_grad(lambda v: (Tensor(v) @ Tensor(b_np)).sum().item(), a_np)
        num_b = numeric_grad(lambda v: (Tensor(a_np) @ Tensor(v)).sum().item(), b_np)
        assert np.allclose(a.grad, num_a, atol=1e-5)
        assert np.allclose(b.grad, num_b, atol=1e-5)

    def test_reshape_roundtrip(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        t.reshape(2, 3).sum().backward()
        assert np.allclose(t.grad, np.ones(6))

    def test_transpose(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        assert t.T.shape == (3, 2)
        t.T.sum().backward()
        assert np.allclose(t.grad, np.ones((2, 3)))

    def test_getitem_repeated_indices_scatter_add(self):
        t = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        idx = np.array([0, 0, 2])
        t[idx].sum().backward()
        assert np.allclose(t.grad, [2.0, 0.0, 1.0])


class TestGraphMechanics:
    def test_diamond_graph_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0
        z = x * 5.0
        (y + z).backward()
        assert np.allclose(x.grad, [8.0])

    def test_reused_node(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x  # x used twice in one op
        y.backward()
        assert np.allclose(x.grad, [6.0])

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_with_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 2.0).backward(np.array([1.0, 10.0]))
        assert np.allclose(x.grad, [2.0, 20.0])

    def test_backward_on_non_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_detach(self):
        x = Tensor([1.0], requires_grad=True)
        d = x.detach()
        assert not d.requires_grad
        d.data[0] = 99.0
        assert x.data[0] == 1.0

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.backward()
        assert np.allclose(x.grad, [1.0])


class TestCombinators:
    def test_concatenate_backward(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * 2.0).sum().backward()
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, 2.0)

    def test_concatenate_axis1(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (2, 3)

    def test_where(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([10.0, 20.0], requires_grad=True)
        out = where(np.array([True, False]), a, b)
        assert np.allclose(out.data, [1.0, 20.0])
        out.sum().backward()
        assert np.allclose(a.grad, [1.0, 0.0])
        assert np.allclose(b.grad, [0.0, 1.0])

    def test_tensor_factory(self):
        t = tensor([1, 2, 3], requires_grad=True)
        assert t.requires_grad
        assert t.data.dtype == np.float64


class TestComparisons:
    def test_comparisons_return_numpy(self):
        a = Tensor([1.0, 3.0])
        assert np.array_equal(a > 2.0, [False, True])
        assert np.array_equal(a < 2.0, [True, False])
        assert np.array_equal(a >= 3.0, [False, True])
        assert np.array_equal(a <= 1.0, [True, False])

    def test_repr(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "shape" in repr(Tensor([1.0]))
