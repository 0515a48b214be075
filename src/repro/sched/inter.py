"""Inter-job (cluster) scheduler (§3.4): greedy proposal arbitration.

The cluster scheduler evaluates the resource proposals submitted by all
intra-job schedulers against the free-resource table and grants greedily:

- higher **speedup per GPU** first (most cluster-wide throughput per
  granted device);
- ties broken toward the proposal with **more GPUs** (drain free pools
  faster);
- a job receives at most one grant per round (its intra-job scheduler
  re-proposes after rescheduling).

Free resources fluctuate because EasyScale co-locates with non-elastic
high-priority jobs (online serving): :meth:`InterJobScheduler.reclaim`
revokes GPUs from elastic jobs when serving demand spikes, smallest
speedup-per-GPU victims first.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.obs import flightrec
from repro.sched.intra import IntraJobScheduler, ResourceProposal
from repro.sched.plancache import availability_key


@dataclass(frozen=True)
class Grant:
    job_id: str
    gtype: str
    gpus: int


class JobClass:
    """One interned Role-2 class: the jobs whose companion parameterization
    (capability *contents*, ``maxP``, per-type cap, plan shape) and proposal
    menu (``scaleout_chunks``, ``top_k``) are equal.  Identity is the id."""

    __slots__ = ("types", "cap", "menu", "delta_memo", "topk_store", "delta_store")

    def __init__(self, types: frozenset, cap: int, menu: Tuple[int, ...]) -> None:
        self.types = types
        #: the enumeration cap ``min(maxP, max_gpus_per_type)``
        self.cap = cap
        self.menu = menu
        #: ``propose()``'s inner ``best_plan_delta`` searches, keyed by
        #: (clamped owned, gtype, chunk): two proposal passes that differ
        #: only in their free vectors share every search they have in common
        self.delta_memo: Dict[tuple, object] = {}
        #: the plan-cache entries of every member companion (its top-K and
        #: delta caches read these while its generation is unchanged)
        self.topk_store: Dict[tuple, object] = {}
        self.delta_store: Dict[tuple, object] = {}


#: one job's question to a round: its agent, its live ownership dict, and
#: the ``(JobClass, clamped ownership)`` key every answer depends on
Ask = Tuple[IntraJobScheduler, Mapping[str, int], tuple]


class InterJobScheduler:
    """Greedy speedup-per-GPU arbitration over submitted proposals."""

    def __init__(self) -> None:
        self.grant_log: List[Grant] = []
        #: class key (by content) -> its one record
        self._classes: Dict[tuple, JobClass] = {}
        #: agent -> [validity stamp, record, ownership snapshot, ask key]
        #: of its last lookup (the last two belong to its last :meth:`ask`)
        self._class_of: Dict[IntraJobScheduler, list] = {}
        #: incremental-arbitration memo, shared across *all* jobs of a
        #: class: ``(ask key, free-pool fit key)`` -> the first asker's
        #: proposals
        self._proposal_memo: Dict[tuple, List[ResourceProposal]] = {}
        self.proposal_memo_hits = 0
        self.proposal_memo_misses = 0

    # ------------------------------------------------------------------
    # incremental Role-2: the class, not the job, is what a round asks
    # ------------------------------------------------------------------
    def job_class(self, agent: IntraJobScheduler) -> JobClass:
        """The agent's class, interned by content behind a validity stamp.

        The stamp is the companion and its ``generation`` (bumped by every
        capability mutator; the companion's plan-shape scalars are
        read-only) plus the agent's assignable menu, so no way of changing
        an agent's class leaves a stale record; two companions with equal
        tables and different generations still share one class.  Interning
        points the companion's plan caches at the class's stores.
        """
        companion = agent.companion
        stamp = (companion, companion.generation, agent.scaleout_chunks, agent.top_k)
        known = self._class_of.get(agent)
        if known is not None and known[0] == stamp:
            return known[1]
        key = (
            tuple(sorted(companion.capability.items())),
            companion.max_p,
            companion.max_gpus_per_type,
            companion.homogeneous_only,
            agent.scaleout_chunks,
            agent.top_k,
        )
        job_class = self._classes.get(key)
        if job_class is None:
            job_class = self._classes[key] = JobClass(
                frozenset(companion.capability),
                min(companion.max_p, companion.max_gpus_per_type),
                agent.scaleout_chunks,
            )
        companion.share_caches(job_class.topk_store, job_class.delta_store)
        self._class_of[agent] = [stamp, job_class, None, None]
        return job_class

    def ask(self, agent: IntraJobScheduler, owned: Mapping[str, int]) -> Ask:
        """The agent's key for its current ownership.

        Role-1's plan and Role-2's proposals are — apart from the job id
        — pure functions of the class and the ownership clamped to the
        enumeration cap (:func:`availability_key`; raw counts beyond the
        cap cannot change any plan score).  The key is kept with the
        ``tuple(owned.items())`` snapshot it was derived from and
        re-derived only when the stamp or the snapshot differs: the
        simulator edits ``owned`` in place, and a snapshot comparison sees
        every such edit without a version counter at the mutation sites.
        """
        job_class = self.job_class(agent)
        known = self._class_of[agent]
        snapshot = tuple(owned.items())
        if known[2] != snapshot:
            cap = job_class.cap
            known[2] = snapshot
            known[3] = (job_class, availability_key(owned, job_class.types, cap, cap))
        return agent, owned, known[3]

    def proposals_for(
        self, asks: Sequence[Ask], free: Mapping[str, int]
    ) -> List[ResourceProposal]:
        """One round's Role-2 proposals, every asker's in ask order.

        ``propose()`` reads the free pool only through "which chunks of
        the sorted menu fit this type" (the chunk loop breaks at the first
        chunk > free), so the memo folds ``free`` down to per-type *fit
        counts* — 5, 6 and 7 free against menu (1, 2, 4, 8) are one pool —
        computed once per round per (menu, type set).  Asks with one key
        share one memo lookup; every asker still counts as a hit or a miss
        (the first of a class to ask a new question pays the plan search),
        and the cached proposals are re-stamped with each asker's job id.
        Memo hits skip the agent's ``sched.propose`` flight-recorder entry
        (forensic telemetry, not part of the :class:`EventLog` surface).
        """
        fit_keys: Dict[tuple, tuple] = {}
        answers: Dict[tuple, List[ResourceProposal]] = {}
        proposals: List[ResourceProposal] = []
        misses = 0
        for agent, owned, key in asks:
            cached = answers.get(key)
            if cached is None:
                job_class = key[0]
                scope = (job_class.menu, job_class.types)
                free_key = fit_keys.get(scope)
                if free_key is None:
                    free_key = fit_keys[scope] = tuple(
                        (t, fits)
                        for t, v in sorted(free.items())
                        if t in job_class.types
                        and (fits := bisect_right(job_class.menu, int(v))) > 0
                    )
                cached = self._proposal_memo.get((key, free_key))
                if cached is None:
                    misses += 1
                    cached = self._proposal_memo[key, free_key] = agent.propose(
                        owned, free, delta_cache=job_class.delta_memo
                    )
                answers[key] = cached
            if cached:
                if cached[0].job_id == agent.job_id:
                    proposals.extend(cached)
                else:
                    proposals.extend(replace(p, job_id=agent.job_id) for p in cached)
        hits = len(asks) - misses
        self.proposal_memo_hits += hits
        self.proposal_memo_misses += misses
        if obs.is_enabled():
            for result, count in (("hit", hits), ("miss", misses)):
                if count:
                    obs.metrics().counter(
                        "sched_proposal_memo_total", result=result
                    ).inc(count)
        return proposals

    def arbitrate(
        self,
        proposals: Sequence[ResourceProposal],
        free: Mapping[str, int],
    ) -> List[Grant]:
        """Grant proposals against the free table; one grant per job/round."""
        remaining: Dict[str, int] = {k: int(v) for k, v in free.items()}
        # job_id/gtype close the total order: exact speedup ties must not
        # fall back to caller iteration order, or the grant log (and every
        # downstream simulator event) depends on proposal collection order
        ranked = sorted(
            proposals,
            key=lambda p: (-p.speedup_per_gpu, -p.extra_gpus, p.job_id, p.gtype),
        )
        granted: List[Grant] = []
        granted_jobs = set()
        for proposal in ranked:
            if proposal.job_id in granted_jobs:
                continue
            if proposal.speedup_per_gpu <= 0:
                continue
            available = remaining.get(proposal.gtype, 0)
            if proposal.extra_gpus > available:
                continue
            remaining[proposal.gtype] = available - proposal.extra_gpus
            grant = Grant(proposal.job_id, proposal.gtype, proposal.extra_gpus)
            granted.append(grant)
            granted_jobs.add(proposal.job_id)
            self.grant_log.append(grant)
            flightrec.record(
                "sched.grant", job=grant.job_id, gtype=grant.gtype, gpus=grant.gpus
            )
        return granted

    @staticmethod
    def reclaim(
        demand: Mapping[str, int],
        holdings: Mapping[str, Mapping[str, int]],
        priorities: Optional[Mapping[str, float]] = None,
    ) -> List[Grant]:
        """Revoke GPUs from elastic jobs to satisfy serving ``demand``.

        ``holdings[job][gtype]`` is what each elastic job currently holds;
        ``priorities[job]`` (higher = keep longer) defaults to holdings
        size, so the cheapest-to-shrink jobs shed GPUs first.  Returns
        negative grants (revocations).

        The victim order is a *total* order — ``(priority, job_id)``,
        exactly like :meth:`arbitrate`'s grant ranking — and demand types
        are processed sorted: exact-priority ties must not fall back to
        the caller's dict insertion order, or the revocation stream (and
        every downstream simulator event) would depend on how the caller
        happened to build its collections.
        """
        revocations: List[Grant] = []
        for gtype in sorted(demand):
            needed = demand[gtype]
            if needed <= 0:
                continue
            victims = sorted(
                (job for job in holdings if holdings[job].get(gtype, 0) > 0),
                key=lambda j: ((priorities or {}).get(j, sum(holdings[j].values())), j),
            )
            left = needed
            for job in victims:
                if left <= 0:
                    break
                take = min(holdings[job].get(gtype, 0), left)
                if take > 0:
                    revocations.append(Grant(job_id=job, gtype=gtype, gpus=-take))
                    left -= take
                    flightrec.record(
                        "sched.reclaim", job=job, gtype=gtype, gpus=take
                    )
        return revocations
