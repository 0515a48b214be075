"""Serving-aware scheduling: elastic training under a high-priority tenant.

§5.3's mechanics inside the discrete-event simulator: an online-serving
tenant's GPU demand varies over time; serving has guaranteed quota
(production priority), EasyScale jobs are best-effort.  At every decision
point the policy first satisfies serving demand — revoking GPUs from
elastic jobs via :meth:`InterJobScheduler.reclaim` if the free pool cannot
cover it — then lets the elastic jobs fill whatever is left.

Preempted elastic jobs *scale in*; they never fail (the §2.1 contrast:
gang-scheduled Sync-SGD jobs abort when any worker is revoked).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.hw.gpu import type_key
from repro.sched.easyscale_policy import EasyScalePolicy
from repro.sched.inter import InterJobScheduler
from repro.sched.simulator import ClusterSimulator, JobRuntime


class ServingColocationPolicy(EasyScalePolicy):
    """EasyScale policy co-located with a serving tenant.

    ``serving_demand(now)`` returns GPUs the serving tenant needs *per
    type* at a given time (e.g. derived from
    :class:`~repro.sched.serving.ServingLoadModel`).  The serving tenant
    is modelled as reservations the policy takes from the cluster and
    books itself, per type, in ``_serving_held``.
    """

    # serving demand varies with simulated time, so rescheduling is never
    # skippable: a quiet-looking decision point may still need to revoke
    # or return GPUs for the serving tenant
    fixpoint_reschedule = False

    def __init__(
        self,
        serving_demand: Callable[[float], Dict[str, int]],
        heterogeneous: bool = True,
    ) -> None:
        super().__init__(heterogeneous=heterogeneous)
        self.name = "easyscale-colocated"
        self.serving_demand = serving_demand
        self.preemptions = 0
        self.failures = 0  # stays zero: elastic jobs shrink, never die
        self._serving_held: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def reschedule(self, sim: ClusterSimulator, now: float) -> None:
        self._serve_first(sim, now)
        super().reschedule(sim, now)

    def _serve_first(self, sim: ClusterSimulator, now: float) -> None:
        demand = {type_key(k): int(v) for k, v in self.serving_demand(now).items()}
        # release serving GPUs no longer needed
        for gtype, held in list(self._serving_held.items()):
            needed = demand.get(gtype, 0)
            if held > needed:
                sim.cluster.release(gtype, held - needed)
                self._serving_held[gtype] = needed

        # acquire what serving now needs, reclaiming from elastic jobs
        for gtype, needed in demand.items():
            held = self._serving_held.get(gtype, 0)
            if needed <= held:
                continue
            shortfall = needed - held
            free = sim.cluster.free_count(gtype)
            if free < shortfall:
                self._reclaim_from_elastic(sim, now, gtype, shortfall - free)
                free = sim.cluster.free_count(gtype)
            take = min(shortfall, free)
            if take > 0:
                sim.cluster.allocate(gtype, take)
                self._serving_held[gtype] = held + take

    def _reclaim_from_elastic(
        self, sim: ClusterSimulator, now: float, gtype: str, amount: int
    ) -> None:
        candidates = [
            r
            for r in sim.active_jobs()
            if r.status == "running" and r.owned.get(gtype, 0) > 0
        ]
        holdings = {r.job.job_id: dict(r.owned) for r in candidates}
        if not holdings:
            return
        revocations = InterJobScheduler.reclaim({gtype: amount}, holdings)
        by_id = {r.job.job_id: r for r in candidates}
        for grant in revocations:
            runtime = by_id[grant.job_id]
            sim.revoke(runtime, grant.gtype, -grant.gpus)
            self.preemptions += 1
            # the job scales in; with zero GPUs left it suspends (rate 0)
            self._apply_plan(runtime)
