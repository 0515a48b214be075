"""The EasyScale scheduling policy for the cluster simulator (§3.4 + §5.2).

Wires the per-job :class:`~repro.sched.intra.IntraJobScheduler` (backed by
a companion plan database) and the global
:class:`~repro.sched.inter.InterJobScheduler` into the simulator:

- every job may start with **zero** GPUs (no gang requirement) and grows
  opportunistically through granted proposals;
- ``EasyScale-homo`` restricts every companion to homogeneous plans;
- ``EasyScale-heter`` allows heterogeneous plans, except for conv-heavy
  jobs, which the D2-eligibility scan confines to homogeneous GPUs
  (§3.3's automatic model analysis).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Mapping, Optional

from repro.hw.gpu import type_key
from repro.sched.companion import CompanionModule
from repro.sched.inter import InterJobScheduler
from repro.sched.intra import IntraJobScheduler, ResourceProposal
from repro.sched.perfmodel import estimated_throughput
from repro.sched.simulator import ClusterSimulator, JobRuntime, SchedulingPolicy


class EasyScalePolicy(SchedulingPolicy):
    """Proposal-driven elastic scheduling (homo or heter)."""

    # Role-1 replans and Role-2 proposals are pure functions of ownership
    # vectors, the free pool, and companion generations; a pass that
    # granted nothing (no events) left all of those untouched
    fixpoint_reschedule = True

    def __init__(
        self,
        heterogeneous: bool,
        restrict_conv_heavy: bool = False,
        capability_scale: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.heterogeneous = heterogeneous
        #: per-GPU-type multipliers applied to every job's static
        #: capability table — the hook through which profiler-calibrated
        #: rates reach the simulator (``trace-sim --calibrate``): a 0.8
        #: entry for ``t4`` means "T4s measured 20% slower than the prior"
        self.capability_scale = {type_key(k): float(v) for k, v in (capability_scale or {}).items()}
        for gtype, factor in self.capability_scale.items():
            if factor <= 0:
                raise ValueError(f"capability scale for {gtype} must be positive")
        #: when True, conv-heavy (vendor-kernel-reliant) jobs are confined
        #: to homogeneous plans even under the heterogeneous policy — the
        #: conservative D2 deployment mode; the trace experiment of §5.2
        #: runs all Table-1 workloads heterogeneously (they were all ported
        #: with D2 support), so the default is off
        self.restrict_conv_heavy = restrict_conv_heavy
        self.name = "easyscale-heter" if heterogeneous else "easyscale-homo"
        self.inter = InterJobScheduler()
        #: job id -> runtime of every admitted job (``run()`` drops the
        #: finished ones): where a grant finds its job
        self._jobs: Dict[str, JobRuntime] = {}

    # ------------------------------------------------------------------
    def on_job_arrival(self, sim: ClusterSimulator, runtime: JobRuntime) -> None:
        job = runtime.job
        # the automatic D2 scan can confine vendor-kernel-reliant jobs to
        # homogeneous GPUs (restrict_conv_heavy); otherwise every ported
        # workload may use heterogeneous plans under the heter policy
        homogeneous_only = (not self.heterogeneous) or (
            self.restrict_conv_heavy and job.conv_heavy
        )
        capability = dict(job.capability)
        for gtype, factor in self.capability_scale.items():
            if gtype in capability:
                capability[gtype] *= factor
        companion = CompanionModule(
            max_p=job.requested_gpus,
            capability=capability,
            homogeneous_only=homogeneous_only,
        )
        agent = runtime.agent = IntraJobScheduler(job.job_id, companion)
        self._jobs[job.job_id] = runtime
        # a moved class stamp reaches the dirty set at the mutation (the
        # simulator's touched set, read once per reschedule), and a new
        # agent is dirty from the start
        agent.on_restamp = partial(sim._touch, runtime)
        agent.on_restamp()

    # ------------------------------------------------------------------
    def reschedule(self, sim: ClusterSimulator, now: float) -> None:
        if sim.incremental_scheduling:
            self._update_book(sim)
            collect = self.inter.proposals_for
        else:
            # run_reference: Role-1 on every active job and a fresh
            # propose() from each every round — the book's whole-trace
            # oracle (its _apply_plan still asks, so its companions share
            # the class plan stores as well)
            active = [
                r for r in sim.active_jobs() if r.agent is not None and r.status != "done"
            ]
            for runtime in active:
                self._apply_plan(runtime)

            def collect(free: Mapping[str, int]) -> List[ResourceProposal]:
                return [p for r in active for p in r.agent.propose(r.owned, free)]

        # Role-2 + inter-job arbitration, iterated until the free pool is
        # drained or nobody wants more; a granted job re-plans at once
        # (Role-3) and its new key stands in the book for the next round
        # — or, when the loop stops here, for the next call
        for _ in range(64):  # bounded: each round grants >=1 GPU
            free = sim.cluster.free_by_type()
            if sum(free.values()) == 0:
                break
            grants = self.inter.arbitrate(collect(free), free)
            if not grants:
                break
            for grant in grants:
                runtime = self._jobs[grant.job_id]
                sim.grant(runtime, grant.gtype, grant.gpus)
                self._apply_plan(runtime)

    def _update_book(self, sim: ClusterSimulator) -> None:
        """Re-derive the keys of the jobs that changed, and only those.

        The simulator's touched set is the dirty set: ``grant`` /
        ``revoke`` / ``preempt`` / ``release_all`` mark an ownership edit,
        and this policy's own pushes mark an arrival and a moved class
        stamp (``on_restamp``).  Every other job's standing key and book
        entry are still what a re-derivation would produce.  Role-1 runs
        only where the key moved: ``apply_best_plan`` is deterministic in
        it, so an unmoved job's rate and plan are already the re-plan's.
        """
        # once per job, in arrival order
        dirty = {r.index: r for r in sim.touched_jobs() if r.agent is not None}
        for index in sorted(dirty):
            runtime = dirty[index]
            if runtime.status == "done":
                self.inter.forget(runtime.agent)
                self._jobs.pop(runtime.job.job_id, None)
                continue
            key = self.inter.ask(runtime.agent, runtime.owned)
            if runtime.agent.applied_plan_key != key:
                self._apply_plan(runtime, key)

    # ------------------------------------------------------------------
    def on_preempt(self, sim: ClusterSimulator, runtime: JobRuntime, now: float) -> None:
        """Elastic jobs shrink instead of dying: replan immediately on the
        surviving GPUs (an EST assignment exists for any ownership, even a
        single GPU), and a healthy reallocation clears any injected
        slowdown — the degraded device was part of what was taken."""
        runtime.fault_slowdown = 1.0
        if runtime.agent is not None:
            self._apply_plan(runtime)
            if runtime.total_owned == 0 and runtime.status == "running":
                # zero GPUs is a legal elastic state: the job idles at rate
                # 0 until the next round grants it capacity again
                runtime.rate = 0.0

    # ------------------------------------------------------------------
    def _apply_plan(self, runtime: JobRuntime, key: Optional[tuple] = None) -> None:
        """Role-1 on the job's current ownership, stamped with the key it
        answers (asked here unless the caller already holds it)."""
        agent = runtime.agent
        scored = agent.apply_best_plan(runtime.owned)
        runtime.rate = scored.throughput if scored else 0.0
        if key is None:
            key = self.inter.ask(agent, runtime.owned)
        agent.applied_plan_key = key
