"""Elastic-training baselines (TorchElastic-like, Pollux-like)."""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "base": ["ElasticBaselineTrainer", "ScalingStrategy", "TrainSegment"],
    "torchelastic": ["TorchElasticScaling"],
    "pollux": ["PolluxScaling"],
})
