#!/usr/bin/env python
"""End-to-end: the full EasyScale loop on a shared cluster.

Everything at once, the way the deployed system runs (§3.4 + §4):

- two training jobs (a conv model and a transformer) share a small
  heterogeneous cluster;
- each job has an intra-job scheduler with a companion plan database;
  the inter-job scheduler arbitrates their scale-out proposals by
  speedup-per-GPU;
- granted plans are concretized into EST-to-GPU assignments and applied
  to live EasyScaleEngines via on-demand checkpoints — while the jobs
  keep training;
- when a job finishes, its GPUs free up and the survivor immediately
  scales out onto them;
- at the end, each job's model is verified bitwise against its own
  fixed-resource DDP reference: the entire dynamic schedule was invisible.

Run:  python examples/end_to_end_cluster.py
"""

from repro.core import EasyScaleEngine, EasyScaleJobConfig, WorkerAssignment, determinism_from_label
from repro.ddp import DDPTrainer, ddp_heter_config
from repro.hw import Cluster, Machine, P100, V100
from repro.models import get_workload
from repro.optim import SGD
from repro.sched import CompanionModule, InterJobScheduler, IntraJobScheduler, plan_to_assignment
from repro.utils.fingerprint import fingerprint_state_dict

SEED = 31
ROUNDS = 6
STEPS_PER_ROUND = 2


def make_optimizer(model):
    return SGD(model.named_parameters(), lr=0.03, momentum=0.9)


class Job:
    """One elastic job: engine + intra-job scheduler + cluster ownership."""

    def __init__(self, job_id, workload, num_ests, total_steps, cluster):
        self.job_id = job_id
        self.spec = get_workload(workload)
        self.dataset = self.spec.build_dataset(256, seed=SEED)
        self.num_ests = num_ests
        self.remaining = total_steps
        self.cluster = cluster
        companion = CompanionModule(
            max_p=num_ests, capability=dict(self.spec.throughput)
        )
        self.scheduler = IntraJobScheduler(job_id, companion)
        config = EasyScaleJobConfig(
            num_ests=num_ests, seed=SEED, batch_size=8,
            determinism=determinism_from_label("D1+D2"),
        )
        #: the job's own book of its holdings: type key -> GPUs
        self.held = {}
        # bootstrap on one V100 (EasyScale jobs start with whatever exists)
        self.take("v100", 1)
        self.engine = EasyScaleEngine(
            self.spec, self.dataset, config, make_optimizer,
            WorkerAssignment.balanced([V100], num_ests),
        )
        self.scheduler.apply_best_plan(self.owned())

    def owned(self):
        return dict(self.held)

    def take(self, gtype, count):
        self.cluster.allocate(gtype, count)
        self.held[gtype] = self.held.get(gtype, 0) + count

    def apply_grant(self, gtype, count):
        self.take(gtype, count)
        scored = self.scheduler.apply_best_plan(self.owned())
        assignment = plan_to_assignment(scored.plan)
        self.engine = self.engine.reconfigure(assignment)
        print(f"  {self.job_id}: scaled to "
              f"{[g.name for g in assignment.gpus]} "
              f"(est. {scored.throughput:.1f} mb/s)")

    def train_round(self):
        steps = min(STEPS_PER_ROUND, self.remaining)
        self.engine.train_steps(steps)
        self.remaining -= steps
        return self.remaining <= 0

    def release_all(self):
        for gtype, count in self.held.items():
            self.cluster.release(gtype, count)
        self.held = {}


def main() -> None:
    cluster = Cluster(
        [Machine("v100-node", V100, 4), Machine("p100-node", P100, 2)]
    )
    jobs = {
        "job-conv": Job("job-conv", "resnet50", num_ests=4, total_steps=8, cluster=cluster),
        "job-bert": Job("job-bert", "bert", num_ests=2, total_steps=12, cluster=cluster),
    }
    total_steps = {name: 0 for name in jobs}
    inter = InterJobScheduler()

    print(f"cluster: 4x V100 + 2x P100; jobs: {list(jobs)}\n")
    for round_idx in range(ROUNDS):
        active = {n: j for n, j in jobs.items() if j.remaining > 0}
        if not active:
            break
        free = cluster.free_by_type()
        proposals = []
        for job in active.values():
            proposals.extend(job.scheduler.propose(job.owned(), free))
        grants = inter.arbitrate(proposals, free)
        print(f"round {round_idx}: free={free}, grants="
              f"{[(g.job_id, g.gtype, g.gpus) for g in grants]}")
        for grant in grants:
            active[grant.job_id].apply_grant(grant.gtype, grant.gpus)
        for name, job in active.items():
            done = job.train_round()
            total_steps[name] = job.engine.global_step
            if done:
                print(f"  {name}: finished after {job.engine.global_step} steps; "
                      f"releasing {sum(job.held.values())} GPUs")
                job.release_all()

    print("\nverifying bitwise consistency against fixed DDP references ...")
    for name, job in jobs.items():
        reference = DDPTrainer(
            job.spec,
            job.dataset,
            ddp_heter_config(job.num_ests, ["v100"] * job.num_ests, seed=SEED, batch_size=8),
            make_optimizer,
        )
        reference.train_steps(total_steps[name])
        same = fingerprint_state_dict(job.engine.model.state_dict()) == fingerprint_state_dict(
            reference.model.state_dict()
        )
        print(f"  {name}: trained {total_steps[name]} steps elastically -> "
              f"{'bitwise IDENTICAL' if same else 'MISMATCH'}")
        if not same:
            raise SystemExit(f"{name} diverged!")


if __name__ == "__main__":
    main()
