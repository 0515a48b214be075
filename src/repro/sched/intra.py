"""Intra-job scheduler (§3.4): EST-to-GPU mapping and resource proposals.

Three roles, verbatim from the paper:

- **Role-1** — under the job's current GPUs, query the companion database
  and apply the top-1 configuration (highest estimated throughput);
- **Role-2** — explore scale-out: for incremental homogeneous GPU chunks,
  compute the estimated speedup and submit the top-K as resource
  proposals to the inter-job scheduler;
- **Role-3** — when a scheduling decision arrives, scale in/out
  immediately, reschedule ESTs (Role-1 again), and generate new proposals
  (Role-2 again).  If measured throughput regresses after a grant, fall
  back to the previous allocation and release the new GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.engine import WorkerAssignment
from repro.hw.gpu import gpu_type
from repro.obs import flightrec
from repro.sched.companion import CompanionModule
from repro.sched.perfmodel import Plan, ScoredPlan, estimated_throughput
from repro.sched.plancache import availability_key
from repro.sched.simulator import _canonical


@dataclass(frozen=True)
class ResourceProposal:
    """A scale-out request: 'give job X ``extra`` more GPUs of ``gtype``'."""

    job_id: str
    gtype: str
    extra_gpus: int
    current_throughput: float
    proposed_throughput: float
    proposed_plan: Plan

    @property
    def speedup(self) -> float:
        if self.current_throughput <= 0:
            return float("inf") if self.proposed_throughput > 0 else 0.0
        return self.proposed_throughput / self.current_throughput

    @property
    def speedup_per_gpu(self) -> float:
        gain = self.proposed_throughput - self.current_throughput
        return gain / self.extra_gpus if self.extra_gpus > 0 else 0.0


def plan_to_assignment(plan: Plan) -> WorkerAssignment:
    """Concretize a plan into per-worker EST lists.

    ESTs (virtual ranks 0..maxP-1) are dealt to GPUs in plan order, each
    GPU taking up to its ``A_i`` quota; over-provisioned slots beyond maxP
    simply go unused, and a GPU left with zero ESTs is dropped (its grant
    is wasted capacity the waste term already charged for).
    """
    gpus = []
    est_map: List[List[int]] = []
    cursor = 0
    for gtype_name, n, a in plan.alloc:
        for _ in range(n):
            take = min(a, plan.max_p - cursor)
            if take <= 0:
                continue
            gpus.append(gpu_type(_canonical(gtype_name)))
            est_map.append(list(range(cursor, cursor + take)))
            cursor += take
    if cursor != plan.max_p:
        raise ValueError(
            f"plan capacity {plan.n_est_capacity} failed to place {plan.max_p} ESTs"
        )
    return WorkerAssignment(gpus=tuple(gpus), est_map=tuple(tuple(s) for s in est_map))


class IntraJobScheduler:
    """Per-job scheduling agent backed by a companion module."""

    def __init__(
        self,
        job_id: str,
        companion: CompanionModule,
        # chunk sizes explored for scale-out proposals; the larger chunks
        # matter because EST integrality creates plateaus (e.g. going from
        # 8 to 12 GPUs for a 16-EST job adds only over-provisioning waste,
        # while 8 -> 16 doubles throughput)
        scaleout_chunks: Sequence[int] = (1, 2, 4, 8, 16),
        top_k: int = 3,
    ) -> None:
        self.job_id = job_id
        self.companion = companion
        self.scaleout_chunks = scaleout_chunks
        self.top_k = top_k
        self.current_plan: Optional[Plan] = None
        self._previous_plan: Optional[Plan] = None
        #: the (job class, clamped ownership) key the current plan/rate
        #: were last computed from — lets the incremental scheduling path
        #: skip Role-1 replans whose inputs are unchanged
        self.applied_plan_key: Optional[tuple] = None

    @property
    def scaleout_chunks(self) -> Tuple[int, ...]:
        return self._scaleout_chunks

    @scaleout_chunks.setter
    def scaleout_chunks(self, chunks: Sequence[int]) -> None:
        """Normalize the proposal menu: sorted ascending, deduplicated.

        :meth:`propose` early-exits the chunk loop as soon as a chunk
        exceeds the free pool; with an unsorted menu that silently skipped
        every remaining (smaller) chunk, so ordering is enforced here —
        including for callers that assign the attribute directly.
        """
        normalized = tuple(sorted(set(int(c) for c in chunks)))
        if not normalized:
            raise ValueError("scaleout_chunks must not be empty")
        if normalized[0] <= 0:
            raise ValueError(f"scale-out chunks must be positive, got {chunks}")
        self._scaleout_chunks = normalized

    # ------------------------------------------------------------------
    # Role-1
    # ------------------------------------------------------------------
    def apply_best_plan(self, owned: Mapping[str, int]) -> Optional[ScoredPlan]:
        """Pick the best configuration for the GPUs the job currently owns."""
        if sum(owned.values()) == 0:
            self._previous_plan, self.current_plan = self.current_plan, None
            return None
        best = self.companion.best_plan(owned)
        if best is None:
            self._previous_plan, self.current_plan = self.current_plan, None
            return None
        self._previous_plan = self.current_plan
        self.current_plan = best.plan
        return best

    def apply_calibration(self, calibrated: Mapping[str, float]) -> Dict[str, float]:
        """Adopt profiler-calibrated capabilities ``C_i`` (mini-batches/s).

        The online profiler (``repro.obs.profiler``) refines the static
        analytical table with EWMA-smoothed observed rates; feeding them
        back here makes every subsequent :meth:`apply_best_plan` /
        :meth:`propose` score plans against reality instead of the prior.
        Only types the companion already knows are updated (a job cannot
        gain hardware support from a measurement), and non-positive rates
        are ignored.  Returns the superseded table for fallback.
        """
        previous = dict(self.companion.capability)
        for gtype, rate in calibrated.items():
            key = gtype.lower()
            if key in self.companion.capability and rate > 0:
                self.companion.capability[key] = float(rate)
        return previous

    def current_assignment(self) -> Optional[WorkerAssignment]:
        if self.current_plan is None:
            return None
        return plan_to_assignment(self.current_plan)

    def current_throughput(self) -> float:
        if self.current_plan is None:
            return 0.0
        return estimated_throughput(self.current_plan, self.companion.capability)

    # ------------------------------------------------------------------
    # Role-2
    # ------------------------------------------------------------------
    def propose(
        self,
        owned: Mapping[str, int],
        cluster_free: Mapping[str, int],
        delta_cache: Optional[Dict[tuple, Optional[ScoredPlan]]] = None,
    ) -> List[ResourceProposal]:
        """Generate scale-out proposals with incremental homogeneous GPUs.

        ``delta_cache``, when given, memoizes the inner
        :meth:`CompanionModule.best_plan_delta` searches keyed by the
        clamped ownership vector plus the probed ``(gtype, chunk)`` slab.
        The caller owns the cache and its scope: the incremental
        inter-job path hands over a per-job-class dict (keyed by the full
        companion parameterization, so calibration invalidates it), which
        lets two proposal passes that differ only in their *free* vectors
        still share every plan search they have in common.
        """
        current_tp = self.current_throughput()
        owned_key: Optional[tuple] = None
        if delta_cache is not None:
            owned_key = availability_key(
                owned,
                self.companion.capability,
                self.companion.max_p,
                self.companion.max_gpus_per_type,
            )
        proposals: List[ResourceProposal] = []
        for gtype, free in sorted(cluster_free.items()):
            if gtype not in self.companion.capability or free <= 0:
                continue
            for chunk in self.scaleout_chunks:
                if chunk > free:
                    break  # menu is sorted ascending: larger chunks won't fit either
                # incremental scoring: the hypothetical space is the owned
                # space (cached from Role-1) plus the new-count slab only
                if delta_cache is None:
                    best = self.companion.best_plan_delta(owned, gtype, chunk)
                else:
                    cache_key = (owned_key, gtype, chunk)
                    try:
                        best = delta_cache[cache_key]
                    except KeyError:
                        best = self.companion.best_plan_delta(owned, gtype, chunk)
                        delta_cache[cache_key] = best
                if best is None:
                    continue
                if best.throughput <= current_tp * 1.001:
                    continue  # no meaningful speedup: don't hoard GPUs
                proposals.append(
                    ResourceProposal(
                        job_id=self.job_id,
                        gtype=gtype,
                        extra_gpus=chunk,
                        current_throughput=current_tp,
                        proposed_throughput=best.throughput,
                        proposed_plan=best.plan,
                    )
                )
        proposals.sort(key=lambda p: (-p.speedup_per_gpu, -p.extra_gpus))
        kept = proposals[: self.top_k]
        if kept:
            flightrec.record(
                "sched.propose",
                job=self.job_id,
                proposals=[(p.gtype, p.extra_gpus) for p in kept],
            )
        return kept

    # ------------------------------------------------------------------
    # Role-3
    # ------------------------------------------------------------------
    def on_decision(self, owned: Mapping[str, int]) -> Optional[WorkerAssignment]:
        """React to a grant/revocation: re-plan on the new ownership."""
        best = self.apply_best_plan(owned)
        assignment = plan_to_assignment(best.plan) if best else None
        flightrec.record(
            "sched.decision",
            job=self.job_id,
            owned=dict(owned),
            gpus=[g.name for g in assignment.gpus] if assignment is not None else None,
        )
        return assignment

    def on_slowdown(
        self,
        measured: float,
        estimated: float,
        owned: Optional[Mapping[str, int]] = None,
    ) -> bool:
        """Fallback check after a reconfiguration (Role-3 tail).

        Returns True when the job should revert to its previous plan —
        i.e. the measured throughput came in below the previous plan's.

        When ``owned`` is given, the previous plan is first validated
        against the job's *current* ownership: GPUs may have been revoked
        since that plan was active, in which case reverting would assign
        ESTs to hardware the job no longer holds.  A stale previous plan
        is discarded and the job simply re-plans on what it owns.
        """
        if self._previous_plan is None:
            return False
        if owned is not None and not self._plan_fits(self._previous_plan, owned):
            # stale: fall through to a fresh Role-1 plan on current GPUs
            self._previous_plan = None
            self.apply_best_plan(owned)
            return False
        previous_tp = estimated_throughput(self._previous_plan, self.companion.capability)
        if measured < previous_tp:
            self.current_plan = self._previous_plan
            self._previous_plan = None
            return True
        return False

    @staticmethod
    def _plan_fits(plan: Plan, owned: Mapping[str, int]) -> bool:
        """Whether ``owned`` still covers every GPU the plan allocates."""
        return all(plan.gpus_of(t) <= owned.get(t, 0) for t, _, _ in plan.alloc)
