"""Loss functions.

All reductions route through the registry (via ``Tensor.sum``), so even the
final loss scalar is sensitive to the device dialect — matching the paper's
observation that loss curves diverge bitwise as soon as any layer of the
stack picks a different kernel.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import ops
from repro.tensor.tensor import Tensor


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over integer class targets."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"expected (batch, classes) logits, got {logits.shape}")
    if targets.shape != (logits.shape[0],):
        raise ValueError(f"targets shape {targets.shape} mismatches batch {logits.shape[0]}")
    logp = ops.log_softmax(logits, axis=-1)
    picked = ops.gather_rows(logp, targets)
    return -picked.mean()


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    target = np.asarray(target, dtype=np.float32)
    if target.shape != pred.shape:
        raise ValueError(f"target shape {target.shape} mismatches pred shape {pred.shape}")
    diff = pred - Tensor(target)
    return (diff * diff).mean()


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically-stable binary cross entropy on logits.

    Uses the identity ``max(x,0) - x*y + log(1 + exp(-|x|))``.
    """
    return ops.bce_with_logits(logits, targets)


def smooth_l1(pred: Tensor, target: np.ndarray, beta: float = 1.0) -> Tensor:
    """Huber loss (YOLO-style box regression)."""
    t = np.asarray(target, dtype=np.float32)
    diff = pred - Tensor(t)
    abs_diff = np.abs(diff.data)
    quadratic_mask = Tensor((abs_diff < beta).astype(np.float32))
    linear_mask = Tensor((abs_diff >= beta).astype(np.float32))
    quad = diff * diff * (0.5 / beta) * quadratic_mask
    sign = Tensor(np.sign(diff.data))
    lin = (diff * sign - 0.5 * beta) * linear_mask
    return (quad + lin).mean()
