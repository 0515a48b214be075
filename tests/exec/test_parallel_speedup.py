"""Throughput benchmark for the process pool (tier-2, ``-m parallel``).

The pool only earns its keep when the per-step numpy compute dominates the
state-shipping overhead and real cores exist to run workers concurrently.
This benchmark pins the acceptance bar: with 4 pool workers on a machine
with at least 4 CPUs, a 4-worker ResNet job steps at least 2x faster
than the serial loop — state and gradients move through shared-memory
slabs, so the parent's share of a step is the reduce and the optimizer.
Skipped (not failed) on smaller machines — the bitwise contract is
covered by the functional suites regardless.
"""

import os
import time

import pytest

from repro.core import (
    EasyScaleEngine,
    EasyScaleJobConfig,
    WorkerAssignment,
    determinism_from_label,
)
from repro.exec import ProcessPoolBackend, SerialBackend
from repro.hw import gpu_type
from repro.models import get_workload
from repro.utils.fingerprint import fingerprint_state_dict
from tests.conftest import sgd_factory

pytestmark = pytest.mark.parallel

MEASURED_STEPS = 8
REQUIRED_SPEEDUP = 2.0


def _run(backend, steps):
    spec = get_workload("resnet18")
    dataset = spec.build_dataset(256, seed=7)
    config = EasyScaleJobConfig(
        num_ests=4, seed=0, batch_size=32,
        determinism=determinism_from_label("D1+D2"),
    )
    engine = EasyScaleEngine(
        spec, dataset, config, sgd_factory(),
        WorkerAssignment.balanced([gpu_type("V100")] * 4, 4),
        backend=backend,
    )
    engine.train_steps(1)  # warm-up: pool creation, replica builds
    t0 = time.perf_counter()
    engine.train_steps(steps)
    elapsed = time.perf_counter() - t0
    return elapsed, fingerprint_state_dict(engine.model.state_dict())


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="pool speedup needs at least 4 CPU cores",
)
def test_pool_speedup_on_resnet():
    serial_s, serial_fp = _run(SerialBackend(), MEASURED_STEPS)
    with ProcessPoolBackend(max_workers=4) as backend:
        pool_s, pool_fp = _run(backend, MEASURED_STEPS)
    assert pool_fp == serial_fp  # faster, and still bitwise-identical
    speedup = serial_s / pool_s
    assert speedup >= REQUIRED_SPEEDUP, (
        f"pool speedup {speedup:.2f}x below the {REQUIRED_SPEEDUP}x bar "
        f"(serial {serial_s:.3f}s, pool {pool_s:.3f}s over {MEASURED_STEPS} steps)"
    )
