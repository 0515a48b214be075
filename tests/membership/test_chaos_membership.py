"""Membership property sweep (tier-2, ``-m membership``): bitwise
training under many random membership plans on a heterogeneous pool.

The acceptance property of the membership subsystem: for *any* seeded
:func:`~repro.faults.schedule.random_membership_plan`, a D1+D2 job
supervised by the :class:`~repro.faults.controller.ResilienceController`
on the default V100+T4 roster finishes with (a) a per-step determinism
audit trail identical to the static run's, (b) a bitwise-identical final
model, (c) zero lost work when the plan is graceful-only, while the job
clock decomposes exactly into compute plus modeled downtime.

Also proves the full 30-second spot reclaim notice of the issue's
acceptance scenario, which needs a longer horizon than tier-1 affords.

Deselected from tier-1 by default (each seed replays a full training
run); run with ``pytest -m membership``.
"""

import pytest

from repro import obs
from repro.core import (
    EasyScaleEngine,
    EasyScaleJobConfig,
    WorkerAssignment,
    determinism_from_label,
)
from repro.hw import gpu_type
from repro.faults import (
    EventPlan,
    HostSpec,
    PlanEvent,
    ResilienceController,
    random_membership_plan,
)
from repro.models import get_workload
from repro.utils.fingerprint import fingerprint_state_dict
from tests.conftest import assert_delivered_once, sgd_factory

pytestmark = pytest.mark.membership

TOTAL_STEPS = 12
NUM_SEEDS = 12
POOL = ["V100", "V100", "T4", "T4"]
ROSTER = (
    HostSpec("v100-host0", "v100", 1),
    HostSpec("v100-host1", "v100", 1),
    HostSpec("t4-host0", "t4", 1),
    HostSpec("t4-host1", "t4", 1),
)


@pytest.fixture(scope="module")
def env():
    spec = get_workload("resnet18")
    dataset = spec.build_dataset(64, seed=7)
    config = EasyScaleJobConfig(
        num_ests=4, seed=0, batch_size=8,
        determinism=determinism_from_label("D1+D2"),
    )
    return spec, dataset, config


def static_run(env, total):
    spec, dataset, config = env
    obs.configure(enabled=True, audit=True)
    try:
        engine = EasyScaleEngine(
            spec, dataset, config, sgd_factory(),
            WorkerAssignment.balanced([gpu_type(g) for g in POOL], 4),
        )
        engine.train_steps(total)
        trail = obs.audit_trail()
        fingerprint = fingerprint_state_dict(engine.model.state_dict())
    finally:
        obs.reset()
    return trail, fingerprint


@pytest.fixture(scope="module")
def reference(env):
    """The static run, computed once: audit trail + final fingerprint."""
    return static_run(env, TOTAL_STEPS)


def membership_run(env, plan, total):
    spec, dataset, config = env
    obs.configure(enabled=True, audit=True, audit_rewind=True)
    try:
        controller = ResilienceController(
            spec, dataset, config, sgd_factory(), None, plan,
        )
        controller.run(total)
        trail = obs.audit_trail()
    finally:
        obs.reset()
    return controller, trail


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_random_plans_recover_bitwise(env, reference, seed):
    plan = random_membership_plan(seed, horizon_steps=TOTAL_STEPS)
    controller, trail = membership_run(env, plan, TOTAL_STEPS)

    ref_trail, ref_fingerprint = reference
    diff = obs.diff_audits(ref_trail, trail)
    assert diff.identical, f"seed {seed}: {diff.describe()}"
    assert fingerprint_state_dict(
        controller.engine.model.state_dict()
    ) == ref_fingerprint, f"seed {seed}: final model diverged"
    assert controller.clock == pytest.approx(
        controller.compute_s + controller.stats.downtime_s, abs=1e-12
    ), f"seed {seed}: clock decomposition broken"
    assert_delivered_once(controller, TOTAL_STEPS)
    if not any(e.kind == "forceful_remove" for e in plan.events):
        assert controller.stats.lost_work_seconds == 0.0, (
            f"seed {seed}: graceful-only plan lost work"
        )


def test_thirty_second_reclaim_notice_completes_bitwise(env):
    """The issue's spot-reclaim acceptance scenario at full scale: a
    30 s notice spans ~48 step boundaries of modeled time before the
    host actually leaves — and the whole run stays bitwise."""
    total = 56
    plan = EventPlan(
        initial_hosts=ROSTER,
        events=(PlanEvent(kind="reclaim_notice", host="t4-host0",
                          at_step=2, magnitude=30.0),),
    )
    ref_trail, ref_fingerprint = static_run(env, total)
    controller, trail = membership_run(env, plan, total)

    diff = obs.diff_audits(ref_trail, trail)
    assert diff.identical, diff.describe()
    assert fingerprint_state_dict(
        controller.engine.model.state_dict()
    ) == ref_fingerprint
    assert controller.stats.reclaim_notices == 1
    assert controller.stats.reclaims == 1
    assert controller.stats.lost_work_seconds == 0.0
    assert controller.stats.incidents == []
    reclaim_step = next(
        s for op, _, s in controller.stats.log if op == "reclaim"
    )
    # the notice window really spanned many boundaries of modeled time
    assert reclaim_step >= 30
