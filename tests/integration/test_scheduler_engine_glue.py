"""Full-loop integration: scheduler-driven assignments on live engines.

The deployed control flow (§3.4): companion plans → intra-job proposals →
inter-job grants → plan_to_assignment → engine.reconfigure, all while the
jobs train.  The test verifies both halves: the scheduling behaves
sensibly (no over-allocation, no harmful grants) and the training stays
bitwise faithful through every scheduler-chosen reconfiguration.
"""

import pytest

from repro.core import (
    EasyScaleEngine,
    EasyScaleJobConfig,
    WorkerAssignment,
    determinism_from_label,
)
from repro.ddp import DDPTrainer, ddp_heter_config
from repro.hw import Cluster, Machine, P100, V100
from repro.models import get_workload
from repro.optim import SGD
from repro.sched import CompanionModule, InterJobScheduler, IntraJobScheduler, plan_to_assignment
from repro.utils.fingerprint import fingerprint_state_dict

from tests.conftest import sgd_factory

SEED = 31


def small_cluster():
    return Cluster([Machine("v", V100, 3), Machine("p", P100, 2)])


class TestSchedulerDrivenTraining:
    def test_scheduler_chosen_assignments_stay_bitwise(self):
        spec = get_workload("resnet18")
        dataset = spec.build_dataset(192, seed=SEED)
        cluster = small_cluster()
        num_ests = 4

        companion = CompanionModule(max_p=num_ests, capability=dict(spec.throughput))
        intra = IntraJobScheduler("job", companion)
        inter = InterJobScheduler()

        cluster.allocate("v100", 1)
        config = EasyScaleJobConfig(
            num_ests=num_ests, seed=SEED, batch_size=8,
            determinism=determinism_from_label("D1+D2"),
        )
        engine = EasyScaleEngine(
            spec, dataset, config, sgd_factory(lr=0.03),
            WorkerAssignment.balanced([V100], num_ests),
        )
        # the job's own book of its holdings (the cluster keeps counts)
        owned = {"v100": 1}
        intra.apply_best_plan(owned)

        total_steps = 0
        for _ in range(4):
            engine.train_steps(2)
            total_steps += 2
            free = cluster.free_by_type()
            grants = inter.arbitrate(intra.propose(owned, free), free)
            for grant in grants:
                cluster.allocate(grant.gtype, grant.gpus)
                owned[grant.gtype] = owned.get(grant.gtype, 0) + grant.gpus
                scored = intra.apply_best_plan(owned)
                engine = engine.reconfigure(plan_to_assignment(scored.plan))

        reference = DDPTrainer(
            spec,
            dataset,
            ddp_heter_config(num_ests, ["v100"] * num_ests, seed=SEED, batch_size=8),
            sgd_factory(lr=0.03),
        )
        reference.train_steps(total_steps)
        assert fingerprint_state_dict(engine.model.state_dict()) == fingerprint_state_dict(
            reference.model.state_dict()
        )
        # the scheduler actually grew the job at some point
        assert engine.assignment.num_workers > 1

    def test_eq1_refuses_harmful_heterogeneous_grant(self):
        """A 4-EST job balanced on 2 V100s must not propose adding P100s:
        the slow GPUs would bottleneck Sync-SGD (Eq. 1's waste term)."""
        spec = get_workload("resnet50")
        companion = CompanionModule(max_p=4, capability=dict(spec.throughput))
        intra = IntraJobScheduler("job", companion)
        intra.apply_best_plan({"v100": 2})
        proposals = intra.propose({"v100": 2}, {"p100": 2})
        assert proposals == [], "adding P100s would reduce estimated throughput"

    def test_two_jobs_share_without_over_allocation(self):
        cluster = small_cluster()
        specs = {"a": get_workload("neumf"), "b": get_workload("electra")}
        intras = {
            name: IntraJobScheduler(
                name, CompanionModule(max_p=2, capability=dict(spec.throughput))
            )
            for name, spec in specs.items()
        }
        inter = InterJobScheduler()
        owned = {"a": {}, "b": {}}
        for _ in range(4):
            free = cluster.free_by_type()
            proposals = []
            for name, intra in intras.items():
                intra.apply_best_plan(owned[name])
                proposals.extend(intra.propose(owned[name], free))
            grants = inter.arbitrate(proposals, free)
            if not grants:
                break
            for grant in grants:
                cluster.allocate(grant.gtype, grant.gpus)
                owned[grant.job_id][grant.gtype] = (
                    owned[grant.job_id].get(grant.gtype, 0) + grant.gpus
                )
        assert cluster.allocated_count() <= cluster.total()
        assert sum(sum(o.values()) for o in owned.values()) == cluster.allocated_count()
        # both jobs got something
        assert all(sum(o.values()) > 0 for o in owned.values())
