"""Learning-rate schedulers.

``StepLR``'s decay factor is the paper's Fig. 4 hyper-parameter **gamma**:
with deterministic fixed-resource training the effect of gamma on the loss
curve is legible; under accuracy-inconsistent elastic training it is buried
in noise.  Scheduler state (step counter, base LR) is checkpointed as part
of the "parameters" replica.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.optim.optimizer import Optimizer


class LRScheduler:
    """Base: epoch-stepped schedule mutating ``optimizer.lr``."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.last_epoch = 0

    def get_lr(self) -> float:
        raise NotImplementedError

    def step(self) -> None:
        """Advance one epoch and apply the new learning rate."""
        self.last_epoch += 1
        self.optimizer.lr = self.get_lr()

    def state_dict(self) -> Dict[str, float]:
        return {"base_lr": self.base_lr, "last_epoch": self.last_epoch}

    def load_state_dict(self, state: Dict[str, float]) -> None:
        self.base_lr = float(state["base_lr"])
        self.last_epoch = int(state["last_epoch"])
        self.optimizer.lr = self.get_lr() if self.last_epoch > 0 else self.base_lr


class StepLR(LRScheduler):
    """Decay LR by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1) -> None:
        if step_size <= 0:
            raise ValueError(f"step_size must be positive, got {step_size}")
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        super().__init__(optimizer)
        self.step_size = step_size
        self.gamma = gamma

    def get_lr(self) -> float:
        return self.base_lr * self.gamma ** (self.last_epoch // self.step_size)

    def state_dict(self):
        state = super().state_dict()
        state.update({"step_size": self.step_size, "gamma": self.gamma})
        return state

    def load_state_dict(self, state) -> None:
        self.step_size = int(state["step_size"])
        self.gamma = float(state["gamma"])
        super().load_state_dict(state)


class MultiStepLR(LRScheduler):
    """Decay LR by ``gamma`` at each epoch in ``milestones``."""

    def __init__(self, optimizer: Optimizer, milestones: Sequence[int], gamma: float = 0.1) -> None:
        if sorted(milestones) != list(milestones):
            raise ValueError("milestones must be increasing")
        super().__init__(optimizer)
        self.milestones: List[int] = list(milestones)
        self.gamma = gamma

    def get_lr(self) -> float:
        passed = sum(1 for m in self.milestones if m <= self.last_epoch)
        return self.base_lr * self.gamma**passed


class CosineAnnealingLR(LRScheduler):
    """Cosine decay from base LR to ``eta_min`` over ``t_max`` epochs."""

    def __init__(self, optimizer: Optimizer, t_max: int, eta_min: float = 0.0) -> None:
        if t_max <= 0:
            raise ValueError(f"t_max must be positive, got {t_max}")
        super().__init__(optimizer)
        self.t_max = t_max
        self.eta_min = eta_min

    def get_lr(self) -> float:
        progress = min(self.last_epoch, self.t_max) / self.t_max
        return self.eta_min + (self.base_lr - self.eta_min) * 0.5 * (1 + math.cos(math.pi * progress))
