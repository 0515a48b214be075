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

Every table, event, plan and inventory is keyed by ``GPUType.key``
(``"v100"``); ``GPUType.name`` (``"V100"``) is display text for spans,
audit records and ``train`` output.  :func:`type_key` is the one case
fold from outside input to a key, and :func:`gpu_type` takes either.
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

    @property
    def key(self) -> str:
        """The lower-case name every table, event and inventory is keyed by."""
        return type_key(self.name)


def type_key(name: str) -> str:
    """The key of a type name in either spelling: ``"V100"`` -> ``"v100"``."""
    return name.lower()


V100 = GPUType(name="V100", dialect="v100", memory_gb=32.0, relative_speed=1.0)
P100 = GPUType(name="P100", dialect="p100", memory_gb=16.0, relative_speed=0.45)
T4 = GPUType(name="T4", dialect="t4", memory_gb=16.0, relative_speed=0.33)

GPU_TYPES: Dict[str, GPUType] = {t.key: t for t in (V100, P100, T4)}


def gpu_type(name: str) -> GPUType:
    try:
        return GPU_TYPES[type_key(name)]
    except KeyError:
        options = sorted(t.name for t in GPU_TYPES.values())
        raise KeyError(f"unknown GPU type {name!r}; options: {options}") from None
