"""Neural-network layer library (the reproduction's ``torch.nn``)."""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "module": ["Module", "ModuleList", "Parameter", "Sequential"],
    "layers": [
        "BatchNorm1d", "BatchNorm2d", "Conv2d", "Dropout", "Embedding", "Flatten", "GELU",
        "LayerNorm", "Linear", "MaxPool2d", "MultiHeadAttention", "ReLU", "Sigmoid",
        "TransformerEncoderLayer",
    ],
    "loss": ["bce_with_logits", "cross_entropy", "mse_loss", "smooth_l1"],
    "runtime": ["current_rng", "use_rng", "collect_bn_stats", "current_bn_journal"],
})
