"""Simulated GPU device types.

Device types carry the two properties the paper's experiments depend on:

- a **kernel dialect** (how float32 partial sums associate on that silicon)
  — consumed by :mod:`repro.tensor.kernels` to recreate heterogeneous
  non-determinism;
- a **capacity profile** (memory GB, relative compute) — consumed by the
  memory model (Fig. 10) and the scheduler's performance model (Eq. 1).

The three types match the evaluation cluster: V100 (32 GB), P100 (16 GB),
T4 (16 GB).  ``CUDA_CONTEXT_GB`` is the paper's measured ~750 MB per-process
context cost — the constant that makes naive worker packing so expensive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: GPU memory consumed by one process's CUDA context (framework + CUDA),
#: §3.1: "around 750MB per context".
CUDA_CONTEXT_GB = 0.75


@dataclass(frozen=True)
class GPUType:
    """A GPU model: dialect for numerics, capacity for scheduling."""

    name: str
    dialect: str
    memory_gb: float
    #: compute capability relative to V100 (used for default throughput
    #: scaling when a workload lacks a measured profile)
    relative_speed: float

    def __post_init__(self) -> None:
        if self.memory_gb <= 0 or self.relative_speed <= 0:
            raise ValueError(f"invalid GPU type parameters for {self.name}")


V100 = GPUType(name="V100", dialect="v100", memory_gb=32.0, relative_speed=1.0)
P100 = GPUType(name="P100", dialect="p100", memory_gb=16.0, relative_speed=0.45)
T4 = GPUType(name="T4", dialect="t4", memory_gb=16.0, relative_speed=0.33)

GPU_TYPES: Dict[str, GPUType] = {t.name: t for t in (V100, P100, T4)}


def gpu_type(name: str) -> GPUType:
    try:
        return GPU_TYPES[name]
    except KeyError:
        raise KeyError(f"unknown GPU type {name!r}; options: {sorted(GPU_TYPES)}") from None
