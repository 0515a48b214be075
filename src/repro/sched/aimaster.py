"""AIMaster: the per-job control loop of the implementation section (§4).

The paper's AIMaster runs next to each job and performs three functions:
"collecting performance profiling reported by EasyScale runtime through an
RPC library; submitting resource proposals; monitoring resource allocation
timeout ... and containing a policy controller to calculate and submit
incremental resource requests".

This module reproduces that control loop over the intra-job scheduler and
companion database:

- :class:`ThroughputMonitor` ingests the runtime's per-step throughput
  reports (the RPC payload) and maintains a robust moving estimate;
- :class:`AIMaster` closes the loop: it feeds measurements into the
  companion's bias correction, detects post-reconfiguration slowdowns and
  triggers the Role-3 fallback, expires proposals that the cluster
  scheduler has not granted within a timeout, and re-plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.engine import WorkerAssignment
from repro.sched.intra import IntraJobScheduler, ResourceProposal, plan_to_assignment
from repro.sched.perfmodel import aggregate_capability


class ThroughputMonitor:
    """EMA throughput estimate from runtime reports (the RPC sink)."""

    def __init__(self, alpha: float = 0.3, warmup_reports: int = 3) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.warmup_reports = warmup_reports
        self._value: Optional[float] = None
        self._count = 0

    def report(self, minibatches_per_second: float) -> None:
        if minibatches_per_second < 0:
            raise ValueError("throughput cannot be negative")
        self._count += 1
        if self._value is None:
            self._value = minibatches_per_second
        else:
            self._value = (
                self.alpha * minibatches_per_second + (1 - self.alpha) * self._value
            )

    @property
    def ready(self) -> bool:
        """Enough reports to act on (avoid reacting to warm-up jitter)."""
        return self._count >= self.warmup_reports

    @property
    def value(self) -> Optional[float]:
        return self._value

    def reset(self) -> None:
        """Called on reconfiguration: old measurements describe old plans."""
        self._value = None
        self._count = 0


@dataclass
class PendingProposal:
    proposal: ResourceProposal
    submitted_at: float


class AIMaster:
    """Per-job controller: profiling ingestion, proposals, timeouts, fallback."""

    def __init__(
        self,
        scheduler: IntraJobScheduler,
        proposal_timeout_s: float = 300.0,
        monitor: Optional[ThroughputMonitor] = None,
    ) -> None:
        if proposal_timeout_s <= 0:
            raise ValueError("proposal_timeout_s must be positive")
        self.scheduler = scheduler
        self.proposal_timeout_s = proposal_timeout_s
        self.monitor = monitor or ThroughputMonitor()
        self.pending: List[PendingProposal] = []
        #: count of proposals dropped for timing out (observability)
        self.timed_out = 0
        #: count of Role-3 fallbacks triggered by measured slowdowns
        self.fallbacks = 0
        #: count of fault-driven preemptions this job absorbed
        self.preemptions = 0

    # ------------------------------------------------------------------
    # RPC surface (called by the EasyScale runtime)
    # ------------------------------------------------------------------
    def report_step_throughput(self, minibatches_per_second: float) -> None:
        """One training-step throughput report from the runtime."""
        self.monitor.report(minibatches_per_second)

    # ------------------------------------------------------------------
    # control loop
    # ------------------------------------------------------------------
    def tick(
        self,
        now: float,
        owned: Mapping[str, int],
        cluster_free: Mapping[str, int],
    ) -> List[ResourceProposal]:
        """One controller iteration; returns proposals to submit.

        Order of operations mirrors the paper: ingest measurements (bias
        correction + slowdown fallback), expire stale proposals, re-plan
        on current resources, generate new proposals.
        """
        self._apply_measurements(owned)
        self._expire_proposals(now)
        self.scheduler.apply_best_plan(owned)
        proposals = self.scheduler.propose(owned, cluster_free)
        for proposal in proposals:
            self.pending.append(PendingProposal(proposal=proposal, submitted_at=now))
        return proposals

    def on_grant(self, now: float, owned: Mapping[str, int]) -> Optional[WorkerAssignment]:
        """The cluster scheduler granted something: reschedule (Role-3)."""
        self.pending.clear()
        self.monitor.reset()
        return self.scheduler.on_decision(owned)

    def on_join(self, now: float, owned: Mapping[str, int]) -> Optional[WorkerAssignment]:
        """New cluster capacity appeared (a host joined or rejoined).

        Replan on current ownership like a grant, but keep pending
        proposals alive — the join answers none of them (the cluster got
        bigger; the job's asks are still outstanding and now likelier to
        be granted) — and keep the throughput monitor: the allocation
        itself did not change, so its measurements still apply.
        """
        return self.scheduler.on_decision(owned)

    def on_preempt(self, now: float, owned: Mapping[str, int]) -> Optional[WorkerAssignment]:
        """GPUs were taken away by a fault, not a scheduling decision.

        Same replan path as a grant — the EST assignment must move onto
        the survivors — but pending proposals are kept alive: the job
        still wants the capacity it asked for (more so, now).  Old
        throughput measurements describe the dead allocation, so the
        monitor resets.
        """
        self.monitor.reset()
        self.preemptions += 1
        return self.scheduler.on_decision(owned)

    def _apply_measurements(self, owned: Mapping[str, int]) -> None:
        if not self.monitor.ready or self.monitor.value is None:
            return
        measured = self.monitor.value
        estimated = self.scheduler.current_throughput()
        if estimated <= 0:
            return
        # Role-3 tail: if the reconfigured plan underperforms its
        # predecessor, revert and release the extra GPUs — unless the
        # predecessor no longer fits what the job currently owns
        if self.scheduler.on_slowdown(measured, estimated, owned=owned):
            self.fallbacks += 1
            self.monitor.reset()
            return
        # otherwise fold the bias into the per-type capability profile
        plan = self.scheduler.current_plan
        if plan is None:
            return
        for gtype, n, a in plan.alloc:
            # attribute the aggregate bias proportionally to each type's
            # contribution (single-type plans get exact attribution)
            share = n * self.scheduler.companion.capability[gtype]
            total = aggregate_capability(plan, self.scheduler.companion.capability)
            if total <= 0:
                continue
            est_share = estimated * share / total / max(n, 1)
            meas_share = measured * share / total / max(n, 1)
            self.scheduler.companion.report_measurement(gtype, est_share, meas_share)

    def _expire_proposals(self, now: float) -> None:
        kept: List[PendingProposal] = []
        for pending in self.pending:
            if now - pending.submitted_at > self.proposal_timeout_s:
                self.timed_out += 1
            else:
                kept.append(pending)
        self.pending = kept
