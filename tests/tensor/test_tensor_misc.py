"""Remaining Tensor surface: constructors, misc ops, repr, edge cases."""

import numpy as np
import pytest

from repro.tensor import Tensor, grad_enabled, no_grad

from tests.tensor.test_autograd import check_grad, _rand


class TestConstructors:
    def test_zeros_ones(self):
        z = Tensor.zeros(2, 3, requires_grad=True)
        o = Tensor.ones(4)
        assert z.shape == (2, 3) and z.requires_grad
        np.testing.assert_array_equal(o.data, np.ones(4, np.float32))

    def test_from_list(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.shape == (2, 2) and t.data.dtype == np.float32

    def test_item_scalar(self):
        assert Tensor(np.float32([3.5])).item() == pytest.approx(3.5)

    def test_numpy_view(self):
        t = Tensor(np.arange(3, dtype=np.float32))
        assert np.shares_memory(t.numpy(), t.data)

    def test_repr(self):
        assert "requires_grad=True" in repr(Tensor(np.zeros(2), requires_grad=True))
        assert "requires_grad" not in repr(Tensor(np.zeros(2)))

    def test_size_and_ndim(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.size == 24 and t.ndim == 3


class TestMiscOps:
    def test_sqrt(self):
        t = Tensor(np.float32([4.0, 9.0]), requires_grad=True)
        out = t.sqrt()
        np.testing.assert_allclose(out.data, [2.0, 3.0], rtol=1e-6)
        check_grad(lambda: t.sqrt().sum(), [t])

    def test_global_max(self):
        t = Tensor(_rand((3, 4), 1), requires_grad=True)
        out = t.max()
        assert out.item() == pytest.approx(float(t.data.max()))
        out2 = t.max()
        out2.backward()
        assert t.grad.sum() == pytest.approx(1.0)

    def test_max_ties_split_gradient(self):
        t = Tensor(np.float32([2.0, 2.0, 1.0]), requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5, 0.0])

    def test_T_property(self):
        t = Tensor(_rand((2, 5), 1))
        assert t.T.shape == (5, 2)

    def test_rsub_rdiv(self):
        t = Tensor(np.float32([2.0]), requires_grad=True)
        check_grad(lambda: (3.0 - t).sum(), [t])
        check_grad(lambda: (6.0 / t).sum(), [t])

    def test_pow_nonscalar_rejected(self):
        t = Tensor(np.ones(2))
        with pytest.raises(TypeError):
            t ** Tensor(np.ones(2))


class TestGradMode:
    def test_grad_enabled_flag(self):
        assert grad_enabled()
        with no_grad():
            assert not grad_enabled()
        assert grad_enabled()

    def test_nested_no_grad(self):
        with no_grad():
            with no_grad():
                pass
            assert not grad_enabled()

    def test_no_grad_output_has_no_parents(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = (a * 2 + 1).sum()
        assert out._prev == ()
        assert out._backward is None


class TestTransposedCopy:
    """``Transpose``'s backward hands over a tiled copy: the same bytes."""

    @pytest.mark.parametrize(
        "shape",
        [(300, 200), (768, 1024), (129, 257), (128, 128), (1, 5000), (5000, 1), (127, 4000), (3, 4)],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_ascontiguousarray_byte_for_byte(self, shape, dtype):
        from repro.tensor.tensor import _transposed_copy

        a = np.random.default_rng(sum(shape)).standard_normal(shape).astype(dtype)
        for source in (a, np.asfortranarray(a), a[:, ::-1]):
            got = _transposed_copy(source)
            want = np.ascontiguousarray(source.T)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, source)

    def test_weight_gradient_is_owned_and_exact(self):
        w = Tensor(np.random.default_rng(1).standard_normal((300, 260)).astype(np.float32),
                   requires_grad=True)
        g = np.random.default_rng(2).standard_normal((260, 300)).astype(np.float32)
        out = w.T
        out.backward(g)
        assert w.grad.flags.c_contiguous and w.grad.tobytes() == np.ascontiguousarray(g.T).tobytes()
        assert not np.shares_memory(w.grad, out.grad)
