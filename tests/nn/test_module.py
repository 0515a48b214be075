"""Module system: registration, traversal, state-dict round trips."""

import numpy as np
import pytest

from repro import nn
from repro.nn.module import Module, Parameter
from repro.utils.rng import RNGBundle


class Leaf(Module):
    def __init__(self, n):
        super().__init__()
        self.weight = Parameter(np.ones(n, np.float32))
        self.register_buffer("count", np.asarray(0, dtype=np.int64))

    def forward(self, x):
        return x * self.weight


class Branch(Module):
    def __init__(self):
        super().__init__()
        self.left = Leaf(2)
        self.right = Leaf(3)

    def forward(self, x):
        return self.right(self.left(x))


class TestRegistration:
    def test_named_parameters_paths(self):
        m = Branch()
        names = [n for n, _ in m.named_parameters()]
        assert names == ["left.weight", "right.weight"]

    def test_named_buffers_paths(self):
        m = Branch()
        names = [n for n, _ in m.named_buffers()]
        assert names == ["left.count", "right.count"]

    def test_named_modules(self):
        m = Branch()
        names = [n for n, _ in m.named_modules()]
        assert names == ["", "left", "right"]

    def test_num_parameters(self):
        assert Branch().num_parameters() == 5

    def test_unregistered_buffer_update_raises(self):
        m = Leaf(2)
        with pytest.raises(KeyError):
            m._set_buffer("missing", np.zeros(1))


class TestRebindingAndRemoval:
    """A name that stops being a parameter / submodule leaves every listing."""

    def test_parameter_rebound_to_none_is_unregistered(self):
        m = nn.Linear(4, 3, RNGBundle(0))
        m.bias = None
        assert m.bias is None
        assert [n for n, _ in m.named_parameters()] == ["weight"]
        assert list(m.state_dict()) == ["weight"]

    def test_deleted_parameter_is_unregistered(self):
        m = nn.Linear(4, 3, RNGBundle(0))
        del m.weight
        assert not hasattr(m, "weight")
        assert [n for n, _ in m.named_parameters()] == ["bias"]
        with pytest.raises(AttributeError):
            del m.weight

    def test_deleted_submodule_is_unregistered(self):
        m = Branch()
        del m.left
        assert [n for n, _ in m.named_modules()] == ["", "right"]
        assert [n for n, _ in m.named_parameters()] == ["right.weight"]

    def test_kind_change_moves_between_tables(self):
        m = Branch()
        m.left = Parameter(np.zeros(2, np.float32))
        assert [n for n, _ in m.named_parameters()] == ["left", "right.weight"]
        assert [n for n, _ in m.named_modules()] == ["", "right"]
        m.left = Leaf(4)
        assert [n for n, _ in m.named_parameters()] == ["right.weight", "left.weight"]

    def test_same_kind_rebinding_keeps_its_position(self):
        m = nn.Linear(4, 3, RNGBundle(0))
        replacement = Parameter(np.zeros((3, 4), np.float32))
        m.weight = replacement
        assert [n for n, _ in m.named_parameters()] == ["weight", "bias"]
        assert m.parameters()[0] is replacement

    def test_held_parameter_list_follows_an_edit_of_a_child(self):
        m = Branch()
        before = m.parameters()
        assert [p.data.size for p in before] == [2, 3]
        assert m.parameters() is not before  # callers get their own list
        m.right.weight = Parameter(np.zeros(5, np.float32))
        assert [p.data.size for p in m.parameters()] == [2, 5]
        m.left.extra = Parameter(np.zeros(7, np.float32))
        assert [p.data.size for p in m.parameters()] == [2, 7, 5]
        del m.left.weight
        assert [p.data.size for p in m.parameters()] == [7, 5]
        m.right.weight.grad = np.ones(5, np.float32)
        m.zero_grad()
        assert m.right.weight.grad is None

    def test_containers_invalidate_a_held_list(self):
        blocks = nn.ModuleList([Leaf(2)])
        assert len(blocks.parameters()) == 1
        blocks.append(Leaf(3))
        assert [p.data.size for p in blocks.parameters()] == [2, 3]
        seq = nn.Sequential(Leaf(2), Leaf(3))
        assert [n for n, _ in seq.named_parameters()] == ["0.weight", "1.weight"]


class TestTrainEval:
    def test_mode_propagates(self):
        m = Branch()
        m.eval()
        assert not m.training and not m.left.training
        m.train()
        assert m.training and m.right.training


class TestStateDict:
    def test_roundtrip_bitwise(self):
        m = Branch()
        m.left.weight.data[:] = np.float32([1.5, -2.5])
        m.left._set_buffer("count", np.asarray(9, np.int64))
        state = m.state_dict()
        fresh = Branch()
        fresh.load_state_dict(state)
        assert fresh.left.weight.data.tobytes() == m.left.weight.data.tobytes()
        assert int(fresh.left.count) == 9

    def test_state_dict_copies(self):
        m = Leaf(2)
        state = m.state_dict()
        state["weight"][0] = 99.0
        assert m.weight.data[0] == 1.0

    def test_missing_key_rejected(self):
        m = Branch()
        state = m.state_dict()
        del state["left.weight"]
        with pytest.raises(KeyError):
            m.load_state_dict(state)

    def test_unexpected_key_rejected(self):
        m = Branch()
        state = m.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            m.load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        m = Branch()
        state = m.state_dict()
        state["left.weight"] = np.zeros(7, np.float32)
        with pytest.raises(ValueError):
            m.load_state_dict(state)

    def test_load_preserves_parameter_identity(self):
        m = Leaf(2)
        param = m.weight
        m.load_state_dict({"weight": np.float32([3.0, 4.0]), "count": np.asarray(1)})
        assert m.weight is param  # optimizers hold references
        np.testing.assert_array_equal(param.data, [3.0, 4.0])


class TestContainers:
    def test_sequential(self):
        from repro.tensor.tensor import Tensor

        seq = nn.Sequential(Leaf(3), Leaf(3))
        out = seq(Tensor(np.ones(3, np.float32)))
        np.testing.assert_array_equal(out.data, np.ones(3))
        assert len(seq) == 2
        assert len([1 for _ in seq]) == 2

    def test_module_list_traversal(self):
        ml = nn.ModuleList([Leaf(1), Leaf(1)])
        assert len(ml) == 2
        assert ml[0] is list(ml)[0]
        names = [n for n, _ in ml.named_parameters()]
        assert names == ["0.weight", "1.weight"]

    def test_module_list_not_callable(self):
        with pytest.raises(RuntimeError):
            nn.ModuleList([])(1)

    def test_zero_grad(self):
        m = Leaf(2)
        m.weight.grad = np.ones(2, np.float32)
        m.zero_grad()
        assert m.weight.grad is None
