"""Elastic-training baselines (TorchElastic-like, Pollux-like)."""

from repro.elastic.base import ElasticBaselineTrainer, ScalingStrategy, TrainSegment
from repro.elastic.torchelastic import TorchElasticScaling
from repro.elastic.pollux import PolluxScaling

__all__ = [
    "ElasticBaselineTrainer",
    "ScalingStrategy",
    "TrainSegment",
    "TorchElasticScaling",
    "PolluxScaling",
]
