"""Workload registry: the eight Table-1 models with resource profiles.

Each :class:`WorkloadSpec` bundles everything the rest of the system needs
to treat a model as a schedulable workload:

- builder + paired synthetic dataset + a uniform ``forward_loss`` hook (so
  trainers are model-agnostic);
- a *realistic* resource profile — full-size parameter/activation memory
  and per-GPU-type throughput — used by the hardware memory model and the
  scheduler's performance model.  The mini models compute real gradients;
  the profile carries the production-scale footprint of the original
  networks so that memory/packing experiments (Fig. 10) and Eq. (1)
  scheduling reproduce the paper's regimes.

Throughput numbers are mini-batches/second by GPU type (the C_i of
Eq. 1b); ratios follow the paper's device classes (V100 > P100 > T4, with
transformer models relatively worse on T4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.data.datasets import Dataset
    from repro.nn.module import Module
    from repro.tensor.tensor import Tensor
    from repro.utils.rng import RNGBundle


# The table below is metadata the scheduler reads (Table 1's throughput and
# memory), so nothing here imports the substrate at the top: a model, loss
# or dataset module loads when a model is built or trained.  The builders
# are module-level functions, not closures, because the process pool
# pickles a spec into every task.
def _shufflenetv2(rng: RNGBundle) -> Module:
    from repro.models.shufflenet import shufflenet_v2_mini

    return shufflenet_v2_mini(rng)


def _resnet18(rng: RNGBundle) -> Module:
    from repro.models.resnet import resnet18_mini

    return resnet18_mini(rng)


def _resnet50(rng: RNGBundle) -> Module:
    from repro.models.resnet import resnet50_mini

    return resnet50_mini(rng)


def _vgg19(rng: RNGBundle) -> Module:
    from repro.models.vgg import vgg19_mini

    return vgg19_mini(rng)


def _yolov3(rng: RNGBundle) -> Module:
    from repro.models.yolo import yolov3_mini

    return yolov3_mini(rng)


def _neumf(rng: RNGBundle) -> Module:
    from repro.models.neumf import neumf_mini

    return neumf_mini(rng)


def _bert(rng: RNGBundle) -> Module:
    from repro.models.transformer import bert_mini

    return bert_mini(rng)


def _electra(rng: RNGBundle) -> Module:
    from repro.models.transformer import electra_mini

    return electra_mini(rng)


def _swin(rng: RNGBundle) -> Module:
    from repro.models.transformer import swin_mini

    return swin_mini(rng)


def _image_loss(model: Module, x: np.ndarray, y: np.ndarray) -> Tensor:
    from repro.nn.loss import cross_entropy
    from repro.tensor.tensor import Tensor

    return cross_entropy(model(Tensor(x)), y.astype(np.int64))


def _token_loss(model: Module, x: np.ndarray, y: np.ndarray) -> Tensor:
    from repro.nn.loss import cross_entropy

    return cross_entropy(model(x), y.astype(np.int64))


def _task_loss(model: Module, x: np.ndarray, y: np.ndarray) -> Tensor:
    from repro.tensor.tensor import Tensor

    if isinstance(x, np.ndarray) and x.dtype == np.int64:
        return model.loss(model(x), y)
    return model.loss(model(Tensor(x)), y)


@dataclass(frozen=True)
class WorkloadSpec:
    """A named training workload with its resource profile."""

    name: str
    builder: Callable[[RNGBundle], Module]
    dataset_name: str
    dataset_kwargs: Dict[str, object]
    batch_size: int
    forward_loss: Callable[[Module, np.ndarray, np.ndarray], Tensor]
    #: full-scale parameter memory (GB) of the original network
    params_gb: float
    #: full-scale activation memory per sample (GB)
    act_gb_per_sample: float
    #: mini-batches per second by GPU type (Eq. 1's C_i)
    throughput: Dict[str, float]
    #: whether the original relies on vendor-optimized conv kernels
    conv_heavy: bool

    def build_model(self, rng: RNGBundle) -> Module:
        return self.builder(rng)

    def build_dataset(self, n: int, seed: int = 0) -> Dataset:
        from repro.data.datasets import build_dataset

        return build_dataset(self.dataset_name, n, seed=seed, **self.dataset_kwargs)

    def worker_memory_gb(
        self, batch_size: Optional[int] = None, micro_batches: int = 1
    ) -> float:
        """GPU memory of one full training worker (params+grads+optimizer+acts).

        With gradient accumulation only one micro-batch's activations are
        live at a time, so the activation term divides by ``micro_batches``.
        """
        if micro_batches <= 0:
            raise ValueError("micro_batches must be positive")
        bs = batch_size if batch_size is not None else self.batch_size
        return 3.0 * self.params_gb + self.act_gb_per_sample * bs / micro_batches


def _spec(
    name: str,
    builder,
    dataset: str,
    batch: int,
    loss,
    params_gb: float,
    act: float,
    v100: float,
    conv_heavy: bool,
    dataset_kwargs: Optional[Dict[str, object]] = None,
    t4_factor: float = 0.33,
) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        builder=builder,
        dataset_name=dataset,
        dataset_kwargs=dataset_kwargs or {},
        batch_size=batch,
        forward_loss=loss,
        params_gb=params_gb,
        act_gb_per_sample=act,
        throughput={"v100": v100, "p100": v100 * 0.45, "t4": v100 * t4_factor},
        conv_heavy=conv_heavy,
    )


#: Table 1 of the paper, one spec per workload.
WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in [
        _spec(
            "shufflenetv2", _shufflenetv2, "imagenet-like", 512, _image_loss,
            params_gb=0.009, act=0.028, v100=6.0, conv_heavy=True,
        ),
        _spec(
            "resnet18", _resnet18, "cifar10-like", 128, _image_loss,
            params_gb=0.045, act=0.012, v100=11.0, conv_heavy=True,
        ),
        _spec(
            "resnet50", _resnet50, "imagenet-like", 32, _image_loss,
            params_gb=0.102, act=0.085, v100=9.0, conv_heavy=True,
        ),
        _spec(
            "vgg19", _vgg19, "imagenet-like", 32, _image_loss,
            params_gb=0.574, act=0.065, v100=5.5, conv_heavy=True,
        ),
        _spec(
            "yolov3", _yolov3, "pascal-like", 16, _task_loss,
            params_gb=0.248, act=0.110, v100=4.0, conv_heavy=True,
            dataset_kwargs={"num_classes": 5},
        ),
        _spec(
            "neumf", _neumf, "movielens-like", 256, _task_loss,
            params_gb=0.012, act=0.0004, v100=30.0, conv_heavy=False,
        ),
        _spec(
            "bert", _bert, "squad-like", 16, _token_loss,
            params_gb=0.440, act=0.140, v100=3.0, conv_heavy=False, t4_factor=0.28,
        ),
        _spec(
            "electra", _electra, "squad-like", 16, _token_loss,
            params_gb=0.055, act=0.070, v100=6.5, conv_heavy=False, t4_factor=0.28,
        ),
        _spec(
            "swintransformer", _swin, "imagenet-like", 32, _image_loss,
            params_gb=0.110, act=0.120, v100=3.5, conv_heavy=False, t4_factor=0.30,
        ),
    ]
}

#: The eight Table-1 names in paper order (resnet18 is extra: it powers the
#: motivation experiments of Figs. 2–3).
TABLE1 = [
    "shufflenetv2",
    "resnet50",
    "vgg19",
    "yolov3",
    "neumf",
    "bert",
    "electra",
    "swintransformer",
]


def get_workload(name: str) -> WorkloadSpec:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; options: {sorted(WORKLOADS)}")
    return WORKLOADS[name]
