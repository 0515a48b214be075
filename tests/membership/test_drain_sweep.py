"""Graceful-drain accounting at every step index of a 3-epoch run.

Mirror of ``tests/data/test_sampler_epoch_restore.py``, but the restore
is driven by a membership drain instead of a manual checkpoint round
trip: draining a host at step *s* must land the rebuilt engine's
samplers on exactly the ``_global_order`` the uninterrupted run used,
lose zero work, and finish the horizon bitwise-identical to the static
run — at *every* possible drain step.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import EasyScaleEngine, EasyScaleJobConfig, WorkerAssignment
from repro.data.sampler import DistributedSampler
from repro.hw import gpu_type
from repro.faults import EventPlan, HostSpec, PlanEvent, ResilienceController
from repro.models import get_workload
from repro.utils.fingerprint import fingerprint_state_dict
from tests.conftest import sgd_factory

TOTAL_STEPS = 12  # three epochs of four global steps each
ROSTER = (
    HostSpec("keeper", "v100", 1),
    HostSpec("drainee", "v100", 1),
)


@pytest.fixture(scope="module")
def env():
    spec = get_workload("resnet18")
    dataset = spec.build_dataset(32, seed=7)
    # 32 samples / (batch 4 x 2 ESTs) = 4 global steps per epoch
    config = EasyScaleJobConfig(num_ests=2, seed=0, batch_size=4)
    return spec, dataset, config


@pytest.fixture(scope="module")
def reference(env):
    spec, dataset, config = env
    obs.configure(enabled=True, audit=True)
    try:
        engine = EasyScaleEngine(
            spec, dataset, config, sgd_factory(),
            WorkerAssignment.balanced([gpu_type("V100")] * 2, 2),
        )
        assert engine.steps_per_epoch == 4
        losses = engine.train_steps(TOTAL_STEPS)
        trail = obs.audit_trail()
    finally:
        obs.reset()
    orders = {}
    sampler = DistributedSampler(32, 2, 0, seed=0)
    for epoch in range(3):
        sampler.set_epoch(epoch)
        orders[epoch] = sampler._global_order().copy()
    return {
        "losses": losses,
        "params": fingerprint_state_dict(engine.model.state_dict()),
        "cursor": (engine.epoch, engine.step_in_epoch),
        "orders": orders,
        "trail": trail,
    }


@pytest.mark.parametrize("step", range(TOTAL_STEPS))
def test_drain_at_every_step_restores_global_order(env, reference, step):
    spec, dataset, config = env
    plan = EventPlan(
        initial_hosts=ROSTER,
        events=(PlanEvent(kind="drain", host="drainee", at_step=step),),
    )
    obs.configure(enabled=True, audit=True, audit_rewind=True)
    try:
        controller = ResilienceController(
            spec, dataset, config, sgd_factory(), None, plan,
        )
        stats = controller.run(TOTAL_STEPS)
        trail = obs.audit_trail()
    finally:
        obs.reset()

    # zero lost work, never the recovery path
    assert controller.stats.drains == 1
    assert controller.stats.lost_work_seconds == 0.0
    assert stats.incidents == []

    # the rebuilt engine's samplers reproduce the uninterrupted run's
    # exact _global_order at every epoch of the horizon
    for epoch in range(3):
        for plan_ in controller.engine.loader._plans.values():
            plan_.sampler.set_epoch(epoch)
            np.testing.assert_array_equal(
                plan_.sampler._global_order(), reference["orders"][epoch],
                err_msg=f"drain at step {step}: epoch-{epoch} order diverged",
            )
    controller.engine.loader.set_epoch(controller.engine.epoch)

    # and the whole run is bitwise-identical to the static reference
    diff = obs.diff_audits(reference["trail"], trail)
    assert diff.identical, f"drain at step {step}: {diff.describe()}"
    # controller.losses holds every EST's loss per step; train_steps
    # reports the last EST's — compare on the common projection
    assert [step_losses[-1] for step_losses in controller.losses] == (
        reference["losses"]
    )
    assert fingerprint_state_dict(
        controller.engine.model.state_dict()
    ) == reference["params"]
    assert (
        controller.engine.epoch, controller.engine.step_in_epoch
    ) == reference["cursor"]
    assert controller.clock == pytest.approx(
        controller.compute_s + controller.stats.downtime_s, abs=1e-12
    )
