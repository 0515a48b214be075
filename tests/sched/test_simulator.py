"""Cluster simulator: progress accounting, policies, bookkeeping."""

import pytest

from repro.hw import microbench_cluster
from repro.sched.easyscale_policy import EasyScalePolicy
from repro.sched.simulator import ClusterSimulator, JobRuntime
from repro.sched.trace import TraceJob, generate_trace
from repro.sched.yarn_cs import YarnCapacityScheduler


def job(job_id="j0", arrival=0.0, gpus=2, gtype="v100", work=100.0, workload="resnet50"):
    return TraceJob(
        job_id=job_id,
        workload=workload,
        arrival_time=arrival,
        requested_gpus=gpus,
        requested_type=gtype,
        total_work=work,
    )


class TestJobRuntime:
    def test_advance_respects_reconfig_pause(self):
        rt = JobRuntime(job=job(), remaining_work=100.0)
        rt.status = "running"
        rt.rate = 10.0
        rt.reconfig_until = 5.0
        rt.advance(0.0, 10.0)  # only [5, 10) counts
        assert rt.remaining_work == pytest.approx(50.0)

    def test_predicted_completion(self):
        rt = JobRuntime(job=job(), remaining_work=100.0)
        rt.status = "running"
        rt.rate = 10.0
        assert rt.predicted_completion(0.0) == pytest.approx(10.0)
        rt.reconfig_until = 4.0
        assert rt.predicted_completion(0.0) == pytest.approx(14.0)

    def test_pending_jobs_make_no_progress(self):
        rt = JobRuntime(job=job(), remaining_work=100.0)
        rt.advance(0.0, 50.0)
        assert rt.remaining_work == 100.0
        assert rt.predicted_completion(0.0) is None


class TestYarnFifo:
    def test_gang_blocking(self):
        # head job wants 16 V100; a later 1-GPU job must wait behind it
        jobs = [
            job("big", arrival=0.0, gpus=30, gtype="v100", work=30 * 9.0 * 100),
            job("head", arrival=1.0, gpus=16, gtype="v100", work=16 * 9.0 * 10),
            job("small", arrival=2.0, gpus=1, gtype="v100", work=9.0 * 10),
        ]
        result = ClusterSimulator(
            microbench_cluster(), jobs, YarnCapacityScheduler()
        ).run()
        by_id = {r.job.job_id: r for r in result.jobs}
        # "small" cannot start before "head" even though 2 V100s are free
        assert by_id["small"].start_time >= by_id["head"].start_time

    def test_all_jobs_complete(self):
        jobs = generate_trace(num_jobs=10, seed=0)
        result = ClusterSimulator(
            microbench_cluster(), jobs, YarnCapacityScheduler()
        ).run()
        assert len(result.completed) == 10
        assert result.makespan > 0

    def test_fixed_rate(self):
        jobs = [job("a", gpus=2, gtype="p100", work=2 * 4.05 * 50, workload="resnet50")]
        result = ClusterSimulator(
            microbench_cluster(), jobs, YarnCapacityScheduler()
        ).run()
        rt = result.jobs[0]
        assert rt.completion_time == pytest.approx(rt.start_time + 50.0, rel=0.05)


class TestEasyScalePolicy:
    def test_jobs_start_without_full_gang(self):
        # ask for 40 V100 (more than exist): EasyScale still runs the job
        jobs = [job("big", gpus=16, gtype="v100", work=16 * 9.0 * 20)]
        result = ClusterSimulator(
            microbench_cluster(), jobs, EasyScalePolicy(False)
        ).run()
        assert len(result.completed) == 1

    def test_allocation_never_exceeds_cluster(self):
        jobs = generate_trace(num_jobs=15, seed=2)
        result = ClusterSimulator(
            microbench_cluster(), jobs, EasyScalePolicy(True)
        ).run()
        assert max(c for _, c in result.allocation_timeline) <= 64

    def test_homo_policy_uses_single_type_per_job(self):
        jobs = generate_trace(num_jobs=8, seed=3)
        sim = ClusterSimulator(microbench_cluster(), jobs, EasyScalePolicy(False))
        result = sim.run()
        for event in result.events.of_kind("scale_out"):
            pass  # types may differ across events; check runtime plans instead
        for rt in result.jobs:
            if rt.agent and rt.agent.current_plan:
                assert rt.agent.current_plan.is_homogeneous

    def test_reconfig_delay_charged(self):
        jobs = [job("a", gpus=2, gtype="v100", work=2 * 9.0 * 10)]
        sim = ClusterSimulator(
            microbench_cluster(), jobs, EasyScalePolicy(False), reconfig_delay=30.0
        )
        result = sim.run()
        rt = result.jobs[0]
        assert rt.completion_time >= rt.job.arrival_time + 30.0

    def test_faster_than_yarn_on_congested_trace(self):
        jobs = generate_trace(
            num_jobs=25, seed=1, mean_interarrival_s=20, mean_duration_s=800
        )
        yarn = ClusterSimulator(microbench_cluster(), jobs, YarnCapacityScheduler()).run()
        easy = ClusterSimulator(microbench_cluster(), jobs, EasyScalePolicy(False)).run()
        assert easy.average_jct < yarn.average_jct


class TestSimulatorValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            ClusterSimulator(microbench_cluster(), [], YarnCapacityScheduler(), reconfig_delay=-1)
        with pytest.raises(ValueError):
            ClusterSimulator(microbench_cluster(), [], YarnCapacityScheduler(), round_interval=0)

    def test_revoke_bookkeeping(self):
        sim = ClusterSimulator(microbench_cluster(), [job()], EasyScalePolicy(False))
        rt = sim.runtimes[0]
        sim.grant(rt, "v100", 3)
        assert sim.cluster.allocated_count("v100") == 3
        sim.revoke(rt, "v100", 2)
        assert rt.owned["v100"] == 1
        assert sim.cluster.allocated_count("v100") == 1
        with pytest.raises(ValueError):
            sim.revoke(rt, "v100", 5)
