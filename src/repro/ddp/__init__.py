"""Simulated PyTorch DDP baseline (the bitwise reference for EasyScale)."""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "ddp": ["DDPConfig", "DDPTrainer", "ddp_homo_config", "ddp_heter_config", "rank_rng"],
    "metrics": ["evaluate_classification", "evaluate_workload"],
})
