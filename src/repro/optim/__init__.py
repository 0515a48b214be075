"""Optimizers and LR schedulers (the reproduction's ``torch.optim``)."""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "optimizer": ["Optimizer"],
    "sgd": ["SGD"],
    "adam": ["Adam", "AdamW"],
    "lr_scheduler": ["LRScheduler", "StepLR", "MultiStepLR", "CosineAnnealingLR"],
})
