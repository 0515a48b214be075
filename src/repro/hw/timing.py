"""Analytical timing model for simulated training.

Bitwise results come from real NumPy arithmetic; *wall-clock* numbers for
the scheduler and overhead experiments come from this model, calibrated to
the paper's reported effects:

- D1 (elastic determinism) costs <1% — bookkeeping only (Fig. 12);
- D2 (hardware-agnostic kernels) costs ~236% extra on conv-heavy models,
  ~1% on GEMM/attention models (Fig. 12);
- EST context switching costs ≤1.9% of a mini-batch, hidden by overlapping
  gradient D2H copies with compute (Figs. 11, 13);
- worker packing gains up to ~11% aggregate throughput from concurrent
  kernels, at linear memory cost (Fig. 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from typing import TYPE_CHECKING, Dict

from repro.hw.gpu import GPU_TYPES, GPUType

if TYPE_CHECKING:  # annotations only: hw loads no model or kernel module
    from repro.models.registry import WorkloadSpec
    from repro.tensor.kernels import KernelPolicy

#: multiplicative overheads calibrated to the paper
D1_OVERHEAD = 0.005
D2_CONV_OVERHEAD = 2.36  # +236% on conv-heavy models
D2_LIGHT_OVERHEAD = 0.008
#: context-switch cost fraction per mini-batch (worst case 1.9%, Electra)
CTX_SWITCH_FRACTION = {
    "shufflenetv2": 0.004,
    "resnet18": 0.004,
    "resnet50": 0.005,
    "vgg19": 0.006,
    "yolov3": 0.007,
    "neumf": 0.010,
    "bert": 0.014,
    "electra": 0.019,
    "swintransformer": 0.012,
}
#: peak aggregate-throughput gain of worker packing over EasyScale
PACKING_PEAK_GAIN = 0.11


def minibatch_time(
    spec: WorkloadSpec,
    gpu: GPUType,
    policy: KernelPolicy | None = None,
) -> float:
    """Seconds per mini-batch for one worker of ``spec`` on ``gpu``, D1 overhead included."""
    rate = spec.throughput.get(gpu.key)
    if rate is None:
        rate = spec.throughput["v100"] * gpu.relative_speed
    time = 1.0 / rate * (1.0 + D1_OVERHEAD)
    if policy is not None and policy.hardware_agnostic:
        time *= 1.0 + (D2_CONV_OVERHEAD if spec.conv_heavy else D2_LIGHT_OVERHEAD)
    return time


def static_capability(
    spec: WorkloadSpec,
    policy: KernelPolicy | None = None,
) -> Dict[str, float]:
    """The static per-GPU-type capability table ``C_i`` (mini-batches/s).

    This is the analytical prior the Eq. (1) scheduler starts from; the
    online profiler (``repro.obs.profiler``) refines it with measured
    rates, and calibration-aware consumers prefer the refined values.
    Keyed by type key (``"v100"``), like every table the scheduler reads.
    """
    return {key: 1.0 / minibatch_time(spec, gtype, policy) for key, gtype in GPU_TYPES.items()}


def context_switch_time(spec: WorkloadSpec, gpu: GPUType) -> float:
    """Seconds to swap one EST out / the next in (gradient D2H staging)."""
    frac = CTX_SWITCH_FRACTION.get(spec.name, 0.01)
    return frac * minibatch_time(spec, gpu)


def easyscale_step_time(
    spec: WorkloadSpec,
    gpu: GPUType,
    num_ests: int,
    policy: KernelPolicy | None = None,
) -> float:
    """Seconds per *global* step with k ESTs time-slicing one GPU.

    k local mini-batches run sequentially; context switches overlap with
    compute except for the small staging fraction; the final EST's gradient
    synchronization is free of copy because all siblings' gradients are
    already staged (Fig. 13's observation).
    """
    if num_ests <= 0:
        raise ValueError("num_ests must be positive")
    per_batch = minibatch_time(spec, gpu, policy)
    switches = max(num_ests - 1, 0) * context_switch_time(spec, gpu)
    return num_ests * per_batch + switches


def packing_aggregate_throughput(
    spec: WorkloadSpec, gpu: GPUType, num_workers: int
) -> float:
    """Aggregate mini-batches/s of k packed workers (Fig. 10's bars).

    Concurrent kernels improve utilization with diminishing returns,
    saturating at ``1 + PACKING_PEAK_GAIN`` of a single worker's rate.
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    base = 1.0 / minibatch_time(spec, gpu)
    gain = 1.0 + PACKING_PEAK_GAIN * (1.0 - math.exp(-(num_workers - 1) / 2.0))
    return base * gain


def easyscale_aggregate_throughput(
    spec: WorkloadSpec, gpu: GPUType, num_ests: int
) -> float:
    """Aggregate mini-batches/s of k ESTs on one GPU (flat in k)."""
    return num_ests / easyscale_step_time(spec, gpu, num_ests)
