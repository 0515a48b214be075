"""The byte-bound model of ``train_wide_pool``: 768 -> 1024 -> 10, ~0.8 M parameters.

The ``bench_parallel_backend`` transport-stress spec scaled down so a
step stays short while state broadcast, gradient collection, all-reduce
and the optimizer move megabytes.  Module-level so the pool's tasks can
pickle the spec by reference.
"""

import numpy as np

from repro import nn
from repro.models.registry import WorkloadSpec
from repro.nn.loss import cross_entropy
from repro.tensor.tensor import Tensor


class WideMLP(nn.Module):
    def __init__(self, rng) -> None:
        super().__init__()
        self.fc1 = nn.Linear(768, 1024, rng.spawn("fc1"))
        self.act = nn.ReLU()
        self.fc2 = nn.Linear(1024, 10, rng.spawn("fc2"))

    def forward(self, x):
        return self.fc2(self.act(self.fc1(x.reshape(x.shape[0], -1))))


def _loss(model, x, y):
    return cross_entropy(model(Tensor(x)), y.astype(np.int64))


SPEC = WorkloadSpec(
    name="e2e-wide-mlp",
    builder=WideMLP,
    dataset_name="cifar10-like",
    dataset_kwargs={"shape": (3, 16, 16), "num_classes": 10},
    batch_size=8,
    forward_loss=_loss,
    params_gb=0.003,
    act_gb_per_sample=0.001,
    throughput={"v100": 100.0, "p100": 45.0, "t4": 33.0},
    conv_heavy=False,
)
