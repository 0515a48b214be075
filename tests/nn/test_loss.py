"""Loss functions: values against references, gradients, stability."""

import numpy as np
import pytest

from repro.nn.loss import bce_with_logits, cross_entropy, mse_loss, smooth_l1
from repro.tensor.tensor import Tensor

from tests.tensor.test_autograd import check_grad, _rand


class TestCrossEntropy:
    def test_matches_reference(self):
        logits = _rand((6, 4), 1)
        targets = np.array([0, 1, 2, 3, 0, 1])
        loss = cross_entropy(Tensor(logits), targets).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        ref = -logp[np.arange(6), targets].mean()
        assert loss == pytest.approx(float(ref), rel=1e-4)

    def test_perfect_prediction_near_zero(self):
        logits = np.full((2, 3), -20.0, np.float32)
        logits[0, 1] = 20.0
        logits[1, 2] = 20.0
        assert cross_entropy(Tensor(logits), np.array([1, 2])).item() < 1e-5

    def test_grad(self):
        x = Tensor(_rand((4, 5), 2), requires_grad=True)
        targets = np.array([1, 0, 4, 2])
        check_grad(lambda: cross_entropy(x, targets), [x])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(_rand((4, 5, 2))), np.zeros(4, np.int64))
        with pytest.raises(ValueError):
            cross_entropy(Tensor(_rand((4, 5))), np.zeros(3, np.int64))


class TestMSE:
    def test_value(self):
        pred = Tensor(np.float32([1.0, 3.0]))
        assert mse_loss(pred, np.float32([0.0, 1.0])).item() == pytest.approx(2.5)

    def test_grad(self):
        x = Tensor(_rand((6,), 1), requires_grad=True)
        check_grad(lambda: mse_loss(x, np.zeros(6, np.float32)), [x])

    def test_misshaped_target_is_refused_not_broadcast(self):
        # (8,) against (8, 1) used to broadcast to (8, 8) and average 64 terms
        with pytest.raises(ValueError, match=r"\(8, 1\).*\(8,\)"):
            mse_loss(Tensor(_rand((8,), 1)), np.zeros((8, 1), np.float32))


class TestBCE:
    def test_matches_reference(self):
        logits = _rand((8,), 1) * 3
        targets = (np.random.default_rng(2).random(8) > 0.5).astype(np.float32)
        loss = bce_with_logits(Tensor(logits), targets).item()
        p = 1 / (1 + np.exp(-logits.astype(np.float64)))
        ref = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert loss == pytest.approx(float(ref), rel=1e-3)

    def test_stable_for_extreme_logits(self):
        logits = Tensor(np.float32([80.0, -80.0]))
        loss = bce_with_logits(logits, np.float32([1.0, 0.0]))
        assert np.isfinite(loss.item())
        assert loss.item() < 1e-6

    def test_grad(self):
        x = Tensor(_rand((5,), 3), requires_grad=True)
        t = np.float32([1, 0, 1, 1, 0])
        check_grad(lambda: bce_with_logits(x, t), [x])

    def test_misshaped_targets_are_refused_not_broadcast(self):
        with pytest.raises(ValueError, match=r"\(8, 1\).*\(8,\)"):
            bce_with_logits(Tensor(_rand((8,), 1)), np.zeros((8, 1), np.float32))


class TestSmoothL1:
    def test_quadratic_region(self):
        pred = Tensor(np.float32([0.5]))
        assert smooth_l1(pred, np.float32([0.0])).item() == pytest.approx(0.125)

    def test_linear_region(self):
        pred = Tensor(np.float32([3.0]))
        assert smooth_l1(pred, np.float32([0.0])).item() == pytest.approx(2.5)

    def test_grad_away_from_kink(self):
        x = Tensor(np.float32([0.4, -0.3, 2.5, -4.0]), requires_grad=True)
        check_grad(lambda: smooth_l1(x, np.zeros(4, np.float32)), [x])
