"""Roster-plan acceptance scenarios of the ResilienceController (tier-1).

Every membership transition must leave training bitwise-identical to the
static run on the initial roster: rolling drains, blacklist-then-expiry
rejoin, spot reclaim with notice, hosts joining — all graceful (zero lost
work); forceful removal routes through the abrupt recovery path and still
recovers bitwise.
"""

import pytest

from repro import obs
from repro.core import (
    EasyScaleEngine,
    EasyScaleJobConfig,
    WorkerAssignment,
    determinism_from_label,
)
from repro.faults import (
    EventPlan,
    HostSpec,
    PlanEvent,
    ResilienceController,
    rolling_upgrade_plan,
)
from repro.hw import gpu_type
from repro.faults.lifecycle import ACTIVE, REMOVED
from repro.models import get_workload
from repro.utils.fingerprint import fingerprint_state_dict
from tests.conftest import assert_delivered_once, sgd_factory

TOTAL_STEPS = 12
ROSTER = (
    HostSpec("v100-host0", "v100", 1),
    HostSpec("v100-host1", "v100", 1),
    HostSpec("t4-host0", "t4", 1),
    HostSpec("t4-host1", "t4", 1),
)
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
    """The static run on the initial roster: audit trail + fingerprint."""
    spec, dataset, config = env
    obs.configure(enabled=True, audit=True)
    try:
        engine = EasyScaleEngine(
            spec, dataset, config, sgd_factory(),
            WorkerAssignment.balanced([gpu_type(g) for g in POOL], 4),
        )
        losses = engine.train_steps(TOTAL_STEPS)
        trail = obs.audit_trail()
        fingerprint = fingerprint_state_dict(engine.model.state_dict())
    finally:
        obs.reset()
    return trail, fingerprint, losses


def run_plan(env, plan, total=TOTAL_STEPS, faults=None, **kwargs):
    spec, dataset, config = env
    obs.configure(enabled=True, audit=True, audit_rewind=True)
    try:
        controller = ResilienceController(
            spec, dataset, config, sgd_factory(), None,
            plan if faults is None else plan.merged(faults), **kwargs,
        )
        stats = controller.run(total)
        trail = obs.audit_trail()
    finally:
        obs.reset()
    return controller, stats, trail


def assert_bitwise(reference, controller, trail):
    ref_trail, ref_fingerprint, _ = reference
    diff = obs.diff_audits(ref_trail, trail)
    assert diff.identical, diff.describe()
    assert fingerprint_state_dict(
        controller.engine.model.state_dict()
    ) == ref_fingerprint
    assert controller.clock == pytest.approx(
        controller.compute_s + controller.stats.downtime_s, abs=1e-12
    )


class TestGracefulTransitions:
    def test_drain_is_bitwise_with_zero_lost_work(self, env, reference):
        plan = EventPlan(
            initial_hosts=ROSTER,
            events=(PlanEvent(kind="drain", host="t4-host1", at_step=4),),
        )
        controller, stats, trail = run_plan(env, plan)
        assert_bitwise(reference, controller, trail)
        assert controller.stats.drains == 1
        assert controller.stats.lost_work_seconds == 0.0
        assert stats.incidents == []  # graceful: never the recovery path
        assert controller.registry.get("t4-host1").state == REMOVED
        assert controller.registry.serving_slots() == 3

    def test_blacklist_then_expiry_rejoin(self, env, reference):
        # expiry of ~2 sim-seconds passes a couple of boundaries later
        plan = EventPlan(
            initial_hosts=ROSTER,
            events=(PlanEvent(kind="blacklist", host="t4-host1", at_step=2,
                              magnitude=2.0),),
        )
        controller, stats, trail = run_plan(env, plan)
        assert_bitwise(reference, controller, trail)
        assert controller.stats.blacklists == 1
        assert controller.stats.rejoins == 1
        assert controller.stats.lost_work_seconds == 0.0
        assert stats.incidents == []
        host = controller.registry.get("t4-host1")
        assert host.state == ACTIVE and host.deadline is None
        assert controller.registry.serving_slots() == 4
        ops = [op for op, h, _ in controller.stats.log if h == "t4-host1"]
        assert ops == ["blacklist", "rejoin"]

    @pytest.mark.parametrize("kind, closing", [
        ("blacklist", "rejoin"), ("reclaim_notice", "reclaim"),
    ])
    def test_equal_windows_span_equal_boundaries(self, env, kind, closing):
        # deadlines run on the controller's monotone clock: on the
        # engine's sim_time, which used to restart at every rebuild, the
        # same 2.0 s blacklist lasted 6 boundaries from step 2 and 10 from
        # step 6 (an earlier scale event had rewound the clock under it)
        spec, dataset, config = env
        total = 24
        engine = EasyScaleEngine(
            spec, dataset, config, sgd_factory(),
            WorkerAssignment.balanced([gpu_type(g) for g in POOL], 4),
        )
        engine.train_steps(total)
        static = fingerprint_state_dict(engine.model.state_dict())

        spans = []
        for at_step in (2, 6):
            plan = EventPlan(
                initial_hosts=ROSTER,
                events=(
                    # an unrelated scale event first, so the window is
                    # never the run's first rebuild
                    PlanEvent(kind="drain", host="v100-host1", at_step=1),
                    PlanEvent(kind=kind, host="t4-host1", at_step=at_step,
                              magnitude=2.0),
                ),
            )
            controller = ResilienceController(
                spec, dataset, config, sgd_factory(), None, plan,
            )
            controller.run(total)
            closed = next(
                s for op, _, s in controller.stats.log if op == closing
            )
            spans.append(closed - at_step)
            assert controller.stats.lost_work_seconds == 0.0
            assert controller.stats.incidents == []
            assert fingerprint_state_dict(
                controller.engine.model.state_dict()
            ) == static
        assert min(spans) >= 1  # never inside its own reconfigure
        assert abs(spans[0] - spans[1]) <= 1, spans

    def test_spot_reclaim_with_notice(self, env, reference):
        # the host keeps serving through the notice window, then drains
        # gracefully at the deadline — capacity only leaves at the end
        plan = EventPlan(
            initial_hosts=ROSTER,
            events=(PlanEvent(kind="reclaim_notice", host="t4-host0",
                              at_step=2, magnitude=2.5),),
        )
        controller, stats, trail = run_plan(env, plan)
        assert_bitwise(reference, controller, trail)
        assert controller.stats.reclaim_notices == 1
        assert controller.stats.reclaims == 1
        assert controller.stats.lost_work_seconds == 0.0
        assert stats.incidents == []
        assert controller.registry.get("t4-host0").state == REMOVED
        notice_step = next(
            s for op, h, s in controller.stats.log if op == "reclaim_notice"
        )
        reclaim_step = next(
            s for op, h, s in controller.stats.log if op == "reclaim"
        )
        assert notice_step == 2 and reclaim_step > notice_step

    def test_announce_warm_up_join_grows_pool(self, env, reference):
        plan = EventPlan(
            initial_hosts=ROSTER,
            events=(PlanEvent(kind="announce", host="spot-0", at_step=3,
                              gtype="t4", slots=1, magnitude=0.0),),
        )
        controller, stats, trail = run_plan(env, plan)
        assert_bitwise(reference, controller, trail)
        assert controller.stats.joins == 1
        assert controller.registry.serving_slots() == 5
        assert controller.registry.get("spot-0").state == ACTIVE

    def test_ready_promotes_before_warm_up_deadline(self, env, reference):
        plan = EventPlan(
            initial_hosts=ROSTER,
            events=(
                PlanEvent(kind="announce", host="spot-0", at_step=2,
                          gtype="v100", magnitude=10_000.0),
                PlanEvent(kind="ready", host="spot-0", at_step=5),
            ),
        )
        controller, stats, trail = run_plan(env, plan)
        assert_bitwise(reference, controller, trail)
        assert controller.stats.joins == 1
        join_step = next(
            s for op, h, s in controller.stats.log if op == "join"
        )
        assert join_step == 5


class TestForcefulRemoval:
    def test_forceful_takes_recovery_path_and_recovers_bitwise(
        self, env, reference
    ):
        # same host as the graceful drain test — but yanked without notice:
        # snapshot_interval=3 forces a fallback to the step-3 snapshot, so
        # one step is re-executed (lost work > 0), yet the run still lands
        # bitwise on the static reference
        plan = EventPlan(
            initial_hosts=ROSTER,
            events=(PlanEvent(kind="forceful_remove", host="t4-host1",
                              at_step=4),),
        )
        controller, stats, trail = run_plan(env, plan, snapshot_interval=3)
        assert_bitwise(reference, controller, trail)
        assert controller.stats.forceful_removals == 1
        assert controller.stats.drains == 0
        assert len(stats.incidents) == 1
        incident = stats.incidents[0]
        assert incident.kind == "node_preempt"
        assert incident.fault_step == 4 and incident.restore_step == 3
        assert incident.lost_steps == 1
        assert controller.stats.lost_work_seconds > 0.0
        assert controller.registry.get("t4-host1").state == REMOVED
        assert controller.registry.serving_slots() == 3

    def test_forceful_at_snapshot_boundary_loses_nothing(self, env, reference):
        plan = EventPlan(
            initial_hosts=ROSTER,
            events=(PlanEvent(kind="forceful_remove", host="t4-host1",
                              at_step=4),),
        )
        controller, stats, trail = run_plan(env, plan, snapshot_interval=4)
        assert_bitwise(reference, controller, trail)
        assert stats.incidents[0].lost_steps == 0
        assert controller.stats.lost_work_seconds == 0.0


class TestRollingUpgrade:
    def test_drains_four_hosts_one_wave_at_a_time(self):
        spec = get_workload("resnet18")
        dataset = spec.build_dataset(32, seed=7)
        config = EasyScaleJobConfig(num_ests=5, seed=0, batch_size=5)
        hosts = tuple(HostSpec(f"host{i}", "v100", 1) for i in range(5))
        plan = rolling_upgrade_plan(hosts, start_step=1, max_unavailable=1)
        total = 10

        obs.configure(enabled=True, audit=True)
        try:
            ref = EasyScaleEngine(
                spec, dataset, config, sgd_factory(),
                WorkerAssignment.balanced([gpu_type("V100")] * 5, 5),
            )
            ref.train_steps(total)
            ref_trail = obs.audit_trail()
            ref_fp = fingerprint_state_dict(ref.model.state_dict())
        finally:
            obs.reset()

        obs.configure(enabled=True, audit=True, audit_rewind=True)
        try:
            controller = ResilienceController(
                spec, dataset, config, sgd_factory(), None, plan,
            )
            stats = controller.run(total)
            trail = obs.audit_trail()
        finally:
            obs.reset()

        diff = obs.diff_audits(ref_trail, trail)
        assert diff.identical, diff.describe()
        assert fingerprint_state_dict(
            controller.engine.model.state_dict()
        ) == ref_fp
        # exactly one host leaves per step boundary, in roster order
        drain_log = [(h, s) for op, h, s in controller.stats.log
                     if op == "drain"]
        assert drain_log == [("host0", 1), ("host1", 2),
                             ("host2", 3), ("host3", 4)]
        assert controller.stats.drains == 4
        assert controller.stats.deferred_drains > 0
        assert controller.stats.lost_work_seconds == 0.0
        assert stats.incidents == []
        assert controller.registry.serving_slots() == 1
        assert controller.registry.get("host4").state == ACTIVE

    def test_plan_removing_all_capacity_fails_loudly(self, env):
        spec, dataset, config = env
        drains = tuple(
            PlanEvent(kind="drain", host=s.host_id, at_step=1) for s in ROSTER
        )
        # draining every host is refused when the plan is built ...
        with pytest.raises(ValueError, match="leaves no host"):
            EventPlan(initial_hosts=ROSTER, events=drains, max_unavailable=4)
        # ... and a host announced after the roster is gone cannot save it
        plan = EventPlan(
            initial_hosts=ROSTER,
            events=drains + (PlanEvent(kind="announce", host="spot-0", at_step=5,
                                       gtype="v100"),),
            max_unavailable=4,
        )
        controller = ResilienceController(
            spec, dataset, config, sgd_factory(), None, plan,
        )
        with pytest.raises(ValueError, match="removes all serving capacity"):
            controller.run(TOTAL_STEPS)


class TestFaultsAlongside:
    def test_membership_and_fault_plan_compose(self, env, reference):
        plan = EventPlan(
            initial_hosts=ROSTER,
            events=(PlanEvent(kind="drain", host="v100-host1", at_step=3),),
        )
        faults = EventPlan(
            events=(PlanEvent(kind="gpu_revoke", at_step=6),), seed=1,
        )
        controller, stats, trail = run_plan(env, plan, faults=faults)
        assert_bitwise(reference, controller, trail)
        assert controller.stats.drains == 1
        assert_delivered_once(controller, TOTAL_STEPS)

    def test_same_step_faults_apply_in_plan_order(self, env):
        # a restart_delay listed before a gpu_revoke at one step is charged
        # to that revoke's recovery: the fault part of a merged plan is
        # applied in plan order, not re-sorted by kind
        faults = EventPlan(events=(
            PlanEvent(kind="restart_delay", at_step=2, magnitude=7.0),
            PlanEvent(kind="gpu_revoke", at_step=2),
        ))
        controller, stats, _ = run_plan(
            env, EventPlan(initial_hosts=ROSTER), total=3, faults=faults
        )
        (incident,) = stats.incidents
        assert incident.kind == "gpu_revoke"
        assert incident.downtime_s == controller.restart_delay_s + 7.0
