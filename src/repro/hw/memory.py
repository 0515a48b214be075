"""GPU memory accounting for worker packing vs. EasyScale (Fig. 10).

The paper's §3.1 analysis: naively packing k training workers on one GPU
multiplies *everything* — CUDA contexts (~750 MB each), model/optimizer
replicas, and live activations — so memory grows linearly in k and OOMs
quickly (8 workers for ResNet50/bs32, 2 for ShuffleNetV2/bs512 on a 32 GB
V100).  EasyScale runs *one* process per GPU, shares the single
model/optimizer replica across ESTs, keeps only one EST's activations live
(minimum time slice = one mini-batch), and swaps per-EST gradients to the
CPU — so GPU memory is essentially flat in the number of ESTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.hw.gpu import CUDA_CONTEXT_GB, GPUType

if TYPE_CHECKING:  # annotations only: hw loads no model module
    from repro.models.registry import WorkloadSpec


class OutOfMemoryError(RuntimeError):
    """Simulated CUDA OOM."""


#: GPU-side footprint of one EST's swappable context (gradient staging
#: buffer headroom + RNG/bookkeeping); intentionally tiny.
EST_CONTEXT_GB = 0.02


def packing_memory_gb(spec: WorkloadSpec, num_workers: int, batch_size: int | None = None) -> float:
    """Peak GPU memory of Gandiva-style worker packing with k processes."""
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    per_worker = CUDA_CONTEXT_GB + spec.worker_memory_gb(batch_size)
    return num_workers * per_worker


def easyscale_memory_gb(spec: WorkloadSpec, num_ests: int, batch_size: int | None = None) -> float:
    """Peak GPU memory of one EasyScale worker hosting k ESTs.

    One CUDA context, one model/optimizer replica, one live activation set,
    plus a small per-EST staging overhead (gradients live on the CPU side
    between local steps).
    """
    if num_ests <= 0:
        raise ValueError("num_ests must be positive")
    return CUDA_CONTEXT_GB + spec.worker_memory_gb(batch_size) + num_ests * EST_CONTEXT_GB


def check_fits(required_gb: float, gpu: GPUType) -> None:
    """Raise the simulated OOM if the footprint exceeds device memory."""
    if required_gb > gpu.memory_gb:
        raise OutOfMemoryError(
            f"requires {required_gb:.2f} GB but {gpu.name} has {gpu.memory_gb:.0f} GB"
        )


def max_packed_workers(spec: WorkloadSpec, gpu: GPUType, batch_size: int | None = None) -> int:
    """Largest k for which worker packing still fits on ``gpu``."""
    k = 0
    while packing_memory_gb(spec, k + 1, batch_size) <= gpu.memory_gb:
        k += 1
    return k


def max_easyscale_ests(spec: WorkloadSpec, gpu: GPUType, batch_size: int | None = None) -> int:
    """Largest EST count for which an EasyScale worker fits on ``gpu``."""
    if easyscale_memory_gb(spec, 1, batch_size) > gpu.memory_gb:
        return 0
    k = 1
    while easyscale_memory_gb(spec, k + 1, batch_size) <= gpu.memory_gb:
        k += 1
    return k
