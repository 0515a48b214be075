"""Simulator fault path: preemptions, lost work, policy reactions."""

import pytest

from repro.faults import EventPlan, PlanEvent, random_sim_plan
from repro.hw import microbench_cluster
from repro.obs.report import ClusterUtilizationReport
from repro.sched.easyscale_policy import EasyScalePolicy
from repro.sched.simulator import ClusterSimulator, JobRuntime
from repro.sched.trace import TraceJob, generate_trace
from repro.sched.yarn_cs import YarnCapacityScheduler


def _jobs(n=4, seed=11):
    return generate_trace(num_jobs=n, seed=seed)


def _plan():
    return EventPlan(events=(
        PlanEvent(kind="slowdown", at_time=300.0, magnitude=2.0),
        PlanEvent(kind="restart_delay", at_time=400.0, magnitude=60.0),
        PlanEvent(kind="node_preempt", at_time=600.0, magnitude=2.0),
        PlanEvent(kind="checkpoint_corrupt", at_time=700.0),
        PlanEvent(kind="worker_crash", at_time=900.0),
        PlanEvent(kind="gpu_revoke", at_time=1100.0),
    ), seed=5)


class TestJobRuntimeFaults:
    def test_fault_slowdown_divides_effective_rate(self):
        rt = JobRuntime(
            job=TraceJob(job_id="j", workload="resnet50", arrival_time=0.0,
                         requested_gpus=2, requested_type="v100",
                         total_work=100.0),
            remaining_work=100.0,
        )
        rt.status = "running"
        rt.rate = 10.0
        assert rt.effective_rate == pytest.approx(10.0)
        rt.fault_slowdown = 2.0
        assert rt.effective_rate == pytest.approx(5.0)
        rt.reconfig_until = 0.0
        rt.advance(0.0, 10.0)
        assert rt.remaining_work == pytest.approx(50.0)


class TestSimulatedFaults:
    def test_easyscale_survives_and_pays_recovery(self):
        jobs = _jobs()
        clean = ClusterSimulator(
            microbench_cluster(), jobs, EasyScalePolicy(True)
        ).run()
        faulted = ClusterSimulator(
            microbench_cluster(), jobs, EasyScalePolicy(True), plan=_plan()
        ).run()
        assert len(faulted.completed) == len(jobs)
        assert faulted.preemptions > 0
        assert faulted.recovery_seconds > 0
        assert faulted.lost_work_seconds > 0
        assert faulted.average_jct > clean.average_jct
        assert clean.preemptions == 0 and clean.lost_work_seconds == 0.0

    def test_yarn_requeues_preempted_gangs(self):
        jobs = _jobs()
        result = ClusterSimulator(
            microbench_cluster(), jobs, YarnCapacityScheduler(), plan=_plan()
        ).run()
        assert len(result.completed) == len(jobs)
        assert result.preemptions > 0

    def test_fault_events_reach_the_event_log(self):
        result = ClusterSimulator(
            microbench_cluster(), _jobs(), EasyScalePolicy(True),
            plan=_plan(),
        ).run()
        preempts = result.events.of_kind("preempt")
        assert preempts
        kinds = {e.payload["fault"] for e in preempts}
        assert kinds <= {"worker_crash", "gpu_revoke", "node_preempt"}
        # non-capacity faults surface on their own channel
        other = result.events.of_kind("fault")
        assert {e.payload["fault"] for e in other} <= {
            "slowdown", "restart_delay", "checkpoint_corrupt",
        }

    def test_report_renders_preemptions(self):
        result = ClusterSimulator(
            microbench_cluster(), _jobs(), EasyScalePolicy(True),
            plan=_plan(),
        ).run()
        report = ClusterUtilizationReport.from_events(list(result.events))
        assert report.preemptions == result.preemptions
        text = report.to_text()
        assert "preemptions" in text
        assert "!=preempted" in text
        html = report.to_html()
        assert "preempt" in html

    def test_checkpoint_interval_bounds_lost_work(self):
        plan = EventPlan(events=(
            PlanEvent(kind="node_preempt", at_time=500.0),
        ))
        tight = ClusterSimulator(
            microbench_cluster(), _jobs(), EasyScalePolicy(True),
            plan=plan, checkpoint_interval=60.0,
        ).run()
        loose = ClusterSimulator(
            microbench_cluster(), _jobs(), EasyScalePolicy(True),
            plan=plan, checkpoint_interval=3600.0,
        ).run()
        assert tight.lost_work_seconds <= loose.lost_work_seconds

    def test_checkpoint_interval_validated(self):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            ClusterSimulator(
                microbench_cluster(), _jobs(), EasyScalePolicy(True),
                checkpoint_interval=0.0,
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_sim_plans_always_complete(self, seed):
        jobs = _jobs()
        plan = random_sim_plan(seed, horizon_s=2000.0)
        result = ClusterSimulator(
            microbench_cluster(), jobs, EasyScalePolicy(True), plan=plan
        ).run()
        assert len(result.completed) == len(jobs)
