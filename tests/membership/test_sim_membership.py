"""Membership wiring in the discrete-event cluster simulator.

Capacity must grow as hosts join and shrink as they leave; drains and
blacklists preempt gracefully (zero lost work) while forceful removals
are abrupt; and ``run()`` must emit an event stream byte-identical to
the reference linear-scan core under any plan.
"""

import pytest

from repro.faults import EventPlan, HostSpec, PlanEvent
from repro.hw import Cluster, Machine, gpu_type
from repro.faults.lifecycle import ACTIVE, REMOVED
from repro.sched.easyscale_policy import EasyScalePolicy
from repro.sched.simulator import ClusterSimulator
from repro.sched.trace import TraceJob
from repro.sched.yarn_cs import YarnCapacityScheduler


def job(job_id="j0", arrival=0.0, gpus=2, gtype="v100", work=100.0,
        workload="resnet50"):
    return TraceJob(
        job_id=job_id,
        workload=workload,
        arrival_time=arrival,
        requested_gpus=gpus,
        requested_type=gtype,
        total_work=work,
    )


def base_cluster():
    return Cluster([Machine.build("base0", gpu_type("V100"), 2)])


ROSTER = (HostSpec("member-v", "v100", 2),)


def plan(events=(), roster=ROSTER, **kwargs):
    return EventPlan(initial_hosts=roster, events=tuple(events), **kwargs)


class TestClusterInventory:
    def test_add_machine_grows_totals(self):
        cluster = base_cluster()
        cluster.add_machine(Machine.build("t4-0", gpu_type("T4"), 3))
        assert cluster.total("V100") == 2
        assert cluster.total("T4") == 3
        assert cluster.free_count("T4") == 3

    def test_add_empty_machine_rejected(self):
        with pytest.raises(ValueError, match="no GPUs"):
            base_cluster().add_machine(Machine(name="husk", gpus=[]))

    def test_remove_free_takes_newest_and_prunes_machine(self):
        cluster = base_cluster()
        cluster.add_machine(Machine.build("late", gpu_type("V100"), 1))
        cluster.remove_free("V100", 1)
        # the newest host's GPU went first; its empty machine is pruned
        assert cluster.total("V100") == 2
        assert [m.name for m in cluster.machines] == ["base0"]

    def test_remove_free_needs_free_capacity(self):
        cluster = base_cluster()
        cluster.allocate("j0", "V100", 2)
        with pytest.raises(RuntimeError, match="only 0 free"):
            cluster.remove_free("V100", 1)

    def test_remove_free_refuses_to_empty_the_cluster(self):
        cluster = base_cluster()
        with pytest.raises(RuntimeError, match="last GPUs"):
            cluster.remove_free("V100", 2)


class TestCapacityLifecycle:
    def test_roster_joins_before_capacity_event(self):
        sim = ClusterSimulator(
            base_cluster(), [], YarnCapacityScheduler(), plan=plan(),
        )
        first = next(iter(sim.events))
        assert first.kind == "cluster_capacity"
        assert first.payload == {"v100": 4}
        assert sim.cluster.total("V100") == 4

    def test_announced_host_joins_and_grows_capacity(self):
        events = [PlanEvent(kind="announce", host="spot", at_time=100.0,
                            gtype="t4", slots=2, magnitude=50.0)]
        sim = ClusterSimulator(
            base_cluster(), [job(work=2 * 9.0 * 600)], YarnCapacityScheduler(),
            plan=plan(events),
        )
        result = sim.run()
        joins = result.events.of_kind("host_join")
        assert [(e.time, e.payload) for e in joins] == [
            (150.0, {"host": "spot", "gtype": "t4", "gpus": 2})
        ]
        assert sim.cluster.total("T4") == 2
        assert sim.driver.registry.get("spot").state == ACTIVE

    def test_drain_preempts_holder_gracefully(self):
        # one job holds all four V100s; draining the member host must
        # preempt two of them without losing work, then shrink capacity
        events = [PlanEvent(kind="drain", host="member-v", at_time=200.0)]
        sim = ClusterSimulator(
            base_cluster(), [job(gpus=4, work=4 * 9.0 * 600)],
            YarnCapacityScheduler(), plan=plan(events),
        )
        result = sim.run()
        preempts = result.events.of_kind("preempt")
        assert len(preempts) == 1
        assert preempts[0].payload["fault"] == "host_drain"
        assert preempts[0].payload["abrupt"] is False
        assert preempts[0].payload["lost_s"] == 0.0
        assert sim.lost_work_seconds == 0.0
        assert sim.cluster.total("V100") == 2
        assert sim.driver.registry.get("member-v").state == REMOVED
        drains = result.events.of_kind("host_drain")
        assert [e.time for e in drains] == [200.0]

    def test_forceful_remove_is_abrupt_and_loses_work(self):
        events = [PlanEvent(kind="forceful_remove", host="member-v",
                            at_time=200.0)]
        sim = ClusterSimulator(
            base_cluster(), [job(gpus=4, work=4 * 9.0 * 600)],
            YarnCapacityScheduler(), plan=plan(events),
        )
        result = sim.run()
        preempts = result.events.of_kind("preempt")
        assert preempts[0].payload["fault"] == "host_remove"
        assert preempts[0].payload["abrupt"] is True
        assert preempts[0].payload["lost_s"] > 0.0
        assert sim.lost_work_seconds > 0.0
        assert result.events.of_kind("host_remove")

    def test_blacklist_removes_free_same_type_capacity(self):
        # nobody holds the member host's GPUs: blacklisting removes free
        # capacity of its type without touching the running job
        events = [PlanEvent(kind="blacklist", host="member-v", at_time=150.0,
                            magnitude=10_000.0)]
        sim = ClusterSimulator(
            base_cluster(), [job(gpus=2, work=2 * 9.0 * 600)],
            YarnCapacityScheduler(), plan=plan(events),
        )
        result = sim.run()
        assert result.events.of_kind("host_blacklist")
        assert not result.events.of_kind("preempt")
        assert sim.lost_work_seconds == 0.0
        assert sim.cluster.total("V100") == 2

    def test_reclaim_notice_then_deadline(self):
        events = [PlanEvent(kind="reclaim_notice", host="member-v",
                            at_time=100.0, magnitude=30.0)]
        sim = ClusterSimulator(
            base_cluster(), [job(gpus=4, work=4 * 9.0 * 600)],
            YarnCapacityScheduler(), plan=plan(events),
        )
        result = sim.run()
        notice = result.events.of_kind("host_reclaim_notice")
        reclaim = result.events.of_kind("host_reclaim")
        assert [e.time for e in notice] == [100.0]
        assert [e.time for e in reclaim] == [130.0]
        # capacity survives the notice window, leaves at the deadline
        assert sim.cluster.total("V100") == 2


class RecordingPolicy(YarnCapacityScheduler):
    def __init__(self):
        super().__init__()
        self.joins = []
        self.slowdowns = []

    def on_join(self, sim, now, gtype, count):
        self.joins.append((now, gtype, count))

    def on_slowdown(self, sim, runtime, now, factor):
        self.slowdowns.append((now, runtime.job.job_id, factor))


class TestPolicyHooks:
    def test_on_join_fires_with_capacity_details(self):
        events = [PlanEvent(kind="announce", host="spot", at_time=100.0,
                            gtype="t4", slots=2, magnitude=50.0)]
        policy = RecordingPolicy()
        ClusterSimulator(
            base_cluster(), [job(work=2 * 9.0 * 600)], policy,
            plan=plan(events),
        ).run()
        assert policy.joins == [(150.0, "t4", 2)]

    def test_on_slowdown_fires_from_fault_path(self):
        policy = RecordingPolicy()
        faults = EventPlan(
            events=(PlanEvent(kind="slowdown", at_time=100.0,
                               magnitude=2.0),),
        )
        ClusterSimulator(
            base_cluster(), [job(work=2 * 9.0 * 600)], policy, plan=faults,
        ).run()
        assert policy.slowdowns == [(100.0, "j0", 2.0)]


FULL_PLAN_EVENTS = (
    PlanEvent(kind="announce", host="spot", at_time=90.0, gtype="t4",
              slots=2, magnitude=30.0),
    PlanEvent(kind="drain", host="member-v", at_time=200.0),
    PlanEvent(kind="blacklist", host="spot", at_time=400.0, magnitude=100.0),
)


class TestHeapMatchesReference:
    @pytest.mark.parametrize("make_policy", [
        YarnCapacityScheduler,
        lambda: EasyScalePolicy(True),
    ])
    def test_event_streams_fingerprint_identically(self, make_policy):
        jobs = [
            job("a", arrival=0.0, gpus=4, work=4 * 9.0 * 500),
            job("b", arrival=50.0, gpus=2, gtype="t4",
                work=2 * 16.0 * 300),
        ]
        fingerprints = []
        for runner in ("run", "run_reference"):
            sim = ClusterSimulator(
                base_cluster(), jobs, make_policy(),
                plan=plan(FULL_PLAN_EVENTS),
            )
            result = getattr(sim, runner)()
            fingerprints.append(result.events.fingerprint())
        assert fingerprints[0] == fingerprints[1]

    def test_membership_events_in_both_streams(self):
        kinds = ("host_announce", "host_join", "host_drain",
                 "host_blacklist")
        for runner in ("run", "run_reference"):
            sim = ClusterSimulator(
                base_cluster(), [job(gpus=4, work=4 * 9.0 * 500)],
                YarnCapacityScheduler(), plan=plan(FULL_PLAN_EVENTS),
            )
            result = getattr(sim, runner)()
            for kind in kinds:
                assert result.events.of_kind(kind), f"{runner}: no {kind}"

    def test_drain_of_a_warming_host_removes_it(self):
        # the announced host is still warming when its drain arrives: it
        # leaves at once, holding nothing, and its warm-up join is moot
        events = (
            PlanEvent(kind="announce", host="spot", at_time=100.0, gtype="t4",
                      slots=1, magnitude=1000.0),
            PlanEvent(kind="drain", host="spot", at_time=200.0),
        )
        fingerprints = []
        for runner in ("run", "run_reference"):
            sim = ClusterSimulator(
                base_cluster(), [job(work=2 * 9.0 * 600)],
                YarnCapacityScheduler(), plan=plan(events),
            )
            result = getattr(sim, runner)()
            fingerprints.append(result.events.fingerprint())
            assert [e.time for e in result.events.of_kind("host_drain")] == [200.0]
            assert not result.events.of_kind("host_join")
            assert sim.cluster.total("T4") == 0
            assert sim.driver.registry.get("spot").state == REMOVED
        assert fingerprints[0] == fingerprints[1]
