"""Autograd engine: gradients checked against central differences."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad
from repro.tensor.tensor import leaf_grad_hook

from tests.conftest import numeric_grad


def _rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


def check_grad(build_loss, tensors, rtol=3e-2, atol=3e-3, probes=4):
    """Compare autograd grads against numeric derivatives on a few entries."""
    for t in tensors:
        t.grad = None
    loss = build_loss()
    loss.backward()
    rng = np.random.default_rng(123)
    for t in tensors:
        assert t.grad is not None, "missing gradient"
        flat = t.data.reshape(-1)
        grad_flat = t.grad.reshape(-1)
        for _ in range(min(probes, flat.size)):
            i = int(rng.integers(0, flat.size))
            num = numeric_grad(lambda: build_loss().item(), flat, i)
            assert grad_flat[i] == pytest.approx(num, rel=rtol, abs=atol), (
                f"grad mismatch at {i}: autograd={grad_flat[i]}, numeric={num}"
            )


class TestElementwiseGrads:
    def test_add_mul(self):
        a = Tensor(_rand((3, 4), 1), requires_grad=True)
        b = Tensor(_rand((3, 4), 2), requires_grad=True)
        check_grad(lambda: ((a + b) * a).sum(), [a, b])

    def test_broadcast_add(self):
        a = Tensor(_rand((3, 4), 1), requires_grad=True)
        b = Tensor(_rand((4,), 2), requires_grad=True)
        check_grad(lambda: (a + b).sum(), [a, b])

    def test_div(self):
        a = Tensor(_rand((5,), 1), requires_grad=True)
        b = Tensor(np.abs(_rand((5,), 2)) + 1.0, requires_grad=True)
        check_grad(lambda: (a / b).sum(), [a, b])

    def test_pow(self):
        a = Tensor(np.abs(_rand((6,), 1)) + 0.5, requires_grad=True)
        check_grad(lambda: (a**3.0).sum(), [a])

    def test_scalar_ops(self):
        a = Tensor(_rand((4,), 1), requires_grad=True)
        check_grad(lambda: (2.0 * a - 1.0).sum(), [a])
        check_grad(lambda: (1.0 / (a + 10.0)).sum(), [a])

    @pytest.mark.parametrize("op", ["relu", "exp", "tanh", "sigmoid"])
    def test_unary(self, op):
        base = _rand((8,), 3)
        base[np.abs(base) < 0.05] = 0.3  # keep away from relu kink
        a = Tensor(base, requires_grad=True)
        check_grad(lambda: getattr(a, op)().sum(), [a])

    def test_log(self):
        a = Tensor(np.abs(_rand((6,), 4)) + 0.5, requires_grad=True)
        check_grad(lambda: a.log().sum(), [a])


class TestMatmulGrads:
    def test_matmul_2d(self):
        a = Tensor(_rand((3, 4), 1), requires_grad=True)
        b = Tensor(_rand((4, 2), 2), requires_grad=True)
        check_grad(lambda: a.matmul(b).sum(), [a, b])

    def test_matmul_batched(self):
        a = Tensor(_rand((2, 3, 4), 1), requires_grad=True)
        b = Tensor(_rand((2, 4, 5), 2), requires_grad=True)
        check_grad(lambda: (a @ b).sum(), [a, b])

    def test_matmul_broadcast(self):
        a = Tensor(_rand((3, 4), 1), requires_grad=True)
        b = Tensor(_rand((2, 4, 5), 2), requires_grad=True)
        check_grad(lambda: (a @ b).sum(), [a, b])


class TestReductionGrads:
    def test_sum_axis(self):
        a = Tensor(_rand((3, 5), 1), requires_grad=True)
        check_grad(lambda: (a.sum(axis=1) ** 2.0).sum(), [a])

    def test_mean(self):
        a = Tensor(_rand((4, 4), 1), requires_grad=True)
        check_grad(lambda: (a.mean(axis=0) ** 2.0).sum(), [a])

    def test_max(self):
        a = Tensor(_rand((4, 5), 1), requires_grad=True)
        check_grad(lambda: a.max(axis=1).sum(), [a])

    def test_sum_keepdims(self):
        a = Tensor(_rand((3, 4), 2), requires_grad=True)
        check_grad(lambda: (a.sum(axis=0, keepdims=True) * a).sum(), [a])


class TestShapeGrads:
    def test_reshape(self):
        a = Tensor(_rand((2, 6), 1), requires_grad=True)
        check_grad(lambda: (a.reshape(3, 4) ** 2.0).sum(), [a])

    def test_transpose(self):
        a = Tensor(_rand((2, 3, 4), 1), requires_grad=True)
        check_grad(lambda: (a.transpose(2, 0, 1) ** 2.0).sum(), [a])

    def test_getitem(self):
        a = Tensor(_rand((5, 4), 1), requires_grad=True)
        check_grad(lambda: (a[1:4] ** 2.0).sum(), [a])


class TestEngineBehavior:
    def test_grad_accumulates_over_multiple_uses(self):
        a = Tensor(np.float32([2.0]), requires_grad=True)
        loss = (a * a + a).sum()  # d/da = 2a + 1 = 5
        loss.backward()
        assert a.grad[0] == pytest.approx(5.0)

    def test_backward_requires_scalar(self):
        a = Tensor(_rand((3,)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_on_no_grad_tensor_raises(self):
        a = Tensor(_rand((3,)))
        with pytest.raises(RuntimeError):
            a.sum().backward()

    def test_no_grad_blocks_graph(self):
        a = Tensor(_rand((3,)), requires_grad=True)
        with no_grad():
            out = (a * 2).sum()
        assert not out.requires_grad
        assert out._backward is None

    def test_detach(self):
        a = Tensor(_rand((3,)), requires_grad=True)
        d = a.detach()
        assert not d.requires_grad
        assert np.shares_memory(d.data, a.data)

    def test_diamond_graph_single_visit(self):
        a = Tensor(np.float32([3.0]), requires_grad=True)
        b = a * 2
        loss = (b + b).sum()  # d/da = 4
        loss.backward()
        assert a.grad[0] == pytest.approx(4.0)

    def test_leaf_grad_hook_order(self):
        a = Tensor(np.float32([1.0]), requires_grad=True, name="a")
        b = Tensor(np.float32([1.0]), requires_grad=True, name="b")
        seen = []
        with leaf_grad_hook(lambda t: seen.append(t.name)):
            ((a * 2) + (b * 3)).sum().backward()
        assert set(seen) == {"a", "b"}

    def test_hook_not_called_outside_scope(self):
        a = Tensor(np.float32([1.0]), requires_grad=True)
        seen = []
        with leaf_grad_hook(lambda t: seen.append(1)):
            pass
        (a * 2).sum().backward()
        assert seen == []

    def test_float32_everywhere(self):
        a = Tensor(np.arange(4, dtype=np.float64), requires_grad=True)
        assert a.data.dtype == np.float32
        loss = (a * 2).sum()
        loss.backward()
        assert a.grad.dtype == np.float32


class TestGraphLifetime:
    """``backward()`` drops each node's closure: the graph dies by refcount."""

    def test_second_backward_through_a_freed_graph_raises(self):
        a = Tensor(_rand((3,)), requires_grad=True)
        loss = (a * 2).sum()
        loss.backward()
        first = a.grad.copy()
        with pytest.raises(RuntimeError, match="already freed"):
            loss.backward()
        np.testing.assert_array_equal(a.grad, first)  # refused, not half-applied

    def test_backward_through_a_shared_freed_subgraph_raises(self):
        a = Tensor(_rand((3,)), requires_grad=True)
        shared = a * 2
        shared.sum().backward()
        with pytest.raises(RuntimeError, match="already freed"):
            (shared * 3).sum().backward()

    def test_leaf_can_feed_a_new_graph_after_backward(self):
        a = Tensor(np.float32([1.0, 2.0]), requires_grad=True)
        (a * 2).sum().backward()
        (a * 3).sum().backward()  # gradients accumulate across graphs
        np.testing.assert_array_equal(a.grad, [5.0, 5.0])

    def test_gradients_stay_readable_after_the_free(self):
        a = Tensor(np.float32([1.0, 2.0]), requires_grad=True)
        hidden = a * 3
        loss = hidden.sum()
        loss.backward()
        np.testing.assert_array_equal(a.grad, [3.0, 3.0])
        np.testing.assert_array_equal(hidden.grad, [1.0, 1.0])
        assert loss.grad.shape == loss.shape
        assert all(node._backward is None for node in (loss, hidden))

    def test_interior_nodes_die_with_the_loss_without_the_cyclic_collector(self):
        import gc
        import weakref

        from repro.tensor import ops

        x = Tensor(_rand((2, 3, 4, 4), 1), requires_grad=True)
        weight = Tensor(_rand((3, 3, 3, 3), 2), requires_grad=True)
        scale = Tensor(_rand((1, 3, 1, 1), 3), requires_grad=True)
        shift = Tensor(_rand((1, 3, 1, 1), 4), requires_grad=True)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            conv = ops.conv2d(x, weight, padding=1)
            normed, _, _ = ops.batch_norm(conv, scale, shift, 1e-5, (0, 2, 3))
            hidden = normed.relu()
            loss = ops.mean_over(hidden[:, 1:], (0, 1, 2, 3))
            interior = [weakref.ref(node) for node in (conv, normed, hidden, loss)]
            loss.backward()
            del conv, normed, hidden, loss
            assert [ref() for ref in interior] == [None] * 4
        finally:
            if was_enabled:
                gc.enable()
        assert x.grad is not None and weight.grad is not None


class TestGetitemScatter:
    """Basic indices scatter with ``+=``, fancy ones with ``np.add.at``."""

    @pytest.mark.parametrize("index", [
        2,
        -1,
        slice(1, 4),
        slice(None, None, -2),
        (slice(None), 1),
        (Ellipsis, slice(0, 2)),
        (1, None, slice(None)),
        (slice(None), slice(1, 3), 0),
        np.int64(3),
        [0, 0, 3],  # repeats: the unbuffered path
        (slice(None), [1, 1, 2]),
        np.array([True, False, True, False, True]),
    ], ids=repr)
    def test_same_bits_as_add_at(self, index):
        from tests.tensor.reference_ops import getitem_add_at

        data = _rand((5, 4, 3), 5)
        grads = []
        for getitem in (lambda t: t[index], lambda t: getitem_add_at(t, index)):
            x = Tensor(data.copy(), requires_grad=True)
            picked = getitem(x)
            seed = _rand(picked.shape, 6)
            seed.reshape(-1)[::2] = -0.0  # 0.0 + -0.0 is +0.0: part of the bits
            picked.backward(seed)
            grads.append(x.grad.tobytes())
        assert grads[0] == grads[1]
