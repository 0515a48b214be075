"""``run()`` vs ``run_reference()`` on small fixed traces.

The regimes a hand-check can follow — a handful of jobs, the fixed fault
plan, seeded random plans, bursty arrivals, a ``max_time`` cutoff — on
the comparison helper and plans of ``test_simulator_batched.py`` (every
event's time, kind, and payload; every JCT; the makespan; the fault
accounting).  Kept as its own module under its original class name
("heap" was the event core's name when it had no SoA mirror) because
these test ids are on the repo's test floor.
"""

import pytest

from repro.faults import random_sim_plan
from repro.hw import microbench_cluster
from repro.sched import ClusterSimulator, generate_trace

from tests.sched.test_simulator_batched import (
    FIXED_PLAN,
    POLICIES,
    assert_cores_identical,
)

TRAINING_POLICIES = ("heter", "homo", "yarn")


class TestHeapMatchesReference:
    @pytest.mark.parametrize("name", TRAINING_POLICIES)
    def test_clean_trace(self, name):
        jobs = generate_trace(num_jobs=8, seed=11)
        assert_cores_identical(POLICIES[name], jobs)

    @pytest.mark.parametrize("name", TRAINING_POLICIES)
    def test_fixed_fault_plan(self, name):
        jobs = generate_trace(num_jobs=4, seed=11)
        assert_cores_identical(POLICIES[name], jobs, FIXED_PLAN)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_fault_plans(self, seed):
        jobs = generate_trace(num_jobs=5, seed=seed)
        plan = random_sim_plan(seed, horizon_s=2000.0)
        assert_cores_identical(POLICIES["heter"], jobs, plan)

    def test_max_time_cutoff(self):
        # truncation happens at the same decision point on both cores
        jobs = generate_trace(num_jobs=6, seed=3)
        assert_cores_identical(POLICIES["homo"], jobs, max_time=900.0)

    def test_bursty_arrivals(self):
        jobs = generate_trace(
            num_jobs=10, seed=7, mean_interarrival_s=5, mean_duration_s=300
        )
        assert_cores_identical(POLICIES["heter"], jobs)

    def test_fingerprint_is_discriminating(self):
        # sanity: the fingerprint is not constant across different runs
        a, b = (
            ClusterSimulator(
                microbench_cluster(), generate_trace(num_jobs=3, seed=seed),
                POLICIES["heter"](),
            ).run().events.fingerprint()
            for seed in (1, 2)
        )
        assert a != b
