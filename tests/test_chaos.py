"""Chaos property sweep (tier-2, ``-m chaos``): bitwise recovery under
many random fault plans on a heterogeneous two-type pool.

The acceptance property of the fault subsystem: for *any* seeded
:func:`~repro.faults.schedule.random_plan`, a D1+D2 job supervised by the
:class:`~repro.faults.controller.ResilienceController` on a V100+T4 pool
finishes with (a) a per-step determinism audit trail identical to the
fault-free run's and (b) a bitwise-identical final model, while the job
clock decomposes exactly into compute plus modeled recovery downtime.

Deselected from tier-1 by default (each seed replays a full training run);
run with ``pytest -m chaos``.
"""

import pytest

from repro import obs
from repro.core import (
    EasyScaleEngine,
    EasyScaleJobConfig,
    WorkerAssignment,
    determinism_from_label,
)
from repro.faults import ResilienceController, random_plan
from repro.hw import gpu_type
from repro.models import get_workload
from repro.utils.fingerprint import fingerprint_state_dict
from tests.conftest import assert_delivered_once, sgd_factory

pytestmark = pytest.mark.chaos

TOTAL_STEPS = 12
NUM_SEEDS = 20
POOL = ["V100", "V100", "T4", "T4"]


@pytest.fixture(scope="module")
def env():
    spec = get_workload("resnet18")
    dataset = spec.build_dataset(64, seed=7)
    config = EasyScaleJobConfig(
        num_ests=4, seed=0, batch_size=8,
        determinism=determinism_from_label("D1+D2"),
    )
    return spec, dataset, config


@pytest.fixture(scope="module")
def reference(env):
    """The fault-free run, computed once: audit trail + final fingerprint."""
    spec, dataset, config = env
    obs.configure(enabled=True, audit=True)
    try:
        engine = EasyScaleEngine(
            spec, dataset, config, sgd_factory(),
            WorkerAssignment.balanced([gpu_type(g) for g in POOL], 4),
        )
        engine.train_steps(TOTAL_STEPS)
        trail = obs.audit_trail()
        fingerprint = fingerprint_state_dict(engine.model.state_dict())
    finally:
        obs.reset()
    return trail, fingerprint


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_any_fault_plan_recovers_bitwise(env, reference, seed):
    spec, dataset, config = env
    ref_trail, ref_fingerprint = reference
    plan = random_plan(seed, horizon_steps=TOTAL_STEPS, num_gpus=len(POOL))

    obs.configure(enabled=True, audit=True, audit_rewind=True)
    try:
        controller = ResilienceController(
            spec, dataset, config, sgd_factory(), list(POOL), plan,
            snapshot_interval=4,
        )
        stats = controller.run(TOTAL_STEPS)
        trail = obs.audit_trail()
    finally:
        obs.reset()

    diff = obs.diff_audits(ref_trail, trail)
    assert diff.identical, (
        f"plan seed {seed} diverged:\n{plan.describe()}\n{diff.describe()}"
    )
    assert fingerprint_state_dict(
        controller.engine.model.state_dict()
    ) == ref_fingerprint
    assert stats.faults_injected == len(plan)
    assert_delivered_once(controller, TOTAL_STEPS)
    assert all(i.mttr_s is not None for i in stats.incidents)
    assert controller.clock == pytest.approx(
        controller.compute_s + stats.downtime_s, abs=1e-12
    )
