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

from typing import Dict, List, Mapping, Optional

from repro.sched.companion import CompanionModule
from repro.sched.inter import Ask, InterJobScheduler
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
        max_ests_cap: int = 16,
        restrict_conv_heavy: bool = False,
        capability_scale: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.heterogeneous = heterogeneous
        self.max_ests_cap = max_ests_cap
        #: per-GPU-type multipliers applied to every job's static
        #: capability table — the hook through which profiler-calibrated
        #: rates reach the simulator (``trace-sim --calibrate``): a 0.8
        #: entry for ``t4`` means "T4s measured 20% slower than the prior"
        self.capability_scale = {
            k.lower(): float(v) for k, v in (capability_scale or {}).items()
        }
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
        runtime.agent = IntraJobScheduler(job.job_id, companion)

    # ------------------------------------------------------------------
    def reschedule(self, sim: ClusterSimulator, now: float) -> None:
        # the simulator's active set is the seed filter under
        # run_reference and an incrementally maintained list under run()
        # — identical contents either way
        active = [
            r for r in sim.active_jobs() if r.agent is not None and r.status != "done"
        ]
        # under run(), each job's (class, clamped ownership) key is re-derived
        # only when its class or ownership moved since its last ask, and
        # serves both the Role-1 skip test and the Role-2 memo.  run_reference
        # leaves the flag off (no skip, no memo), so the brute branches
        # below stay the memos' whole-trace oracle; its _apply_plan still
        # asks, so its companions share the class plan stores as well.
        incremental = sim.incremental_scheduling
        asks = [self.inter.ask(r.agent, r.owned) if incremental else None for r in active]

        # Role-1: re-plan everyone on current ownership (idempotent); the
        # incremental path skips jobs whose plan inputs are unchanged —
        # their rate/current_plan are already the values a re-plan would
        # produce, because apply_best_plan is deterministic in them
        for runtime, ask in zip(active, asks):
            if ask is None or runtime.agent.applied_plan_key != ask[2]:
                self._apply_plan(runtime, ask)

        # Role-2 + inter-job arbitration, iterated until the free pool is
        # drained or nobody wants more
        for _ in range(64):  # bounded: each round grants >=1 GPU
            free = sim.free_by_type()
            if sum(free.values()) == 0:
                break
            if incremental:
                proposals = self.inter.proposals_for(asks, free)
            else:
                proposals: List[ResourceProposal] = []
                for runtime in active:
                    proposals.extend(runtime.agent.propose(runtime.owned, free))
            grants = self.inter.arbitrate(proposals, free)
            if not grants:
                break
            by_job = {r.job.job_id: i for i, r in enumerate(active)}
            for grant in grants:
                i = by_job[grant.job_id]
                sim.grant(active[i], grant.gtype, grant.gpus)
                asks[i] = self._apply_plan(active[i])

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
    def _apply_plan(self, runtime: JobRuntime, ask: Optional[Ask] = None) -> Ask:
        """Role-1 on the job's current ownership, stamped with the ask it
        answers (derived here unless the caller already holds it)."""
        agent = runtime.agent
        scored = agent.apply_best_plan(runtime.owned)
        runtime.rate = scored.throughput if scored else 0.0
        ask = ask or self.inter.ask(agent, runtime.owned)
        agent.applied_plan_key = ask[2]
        return ask
