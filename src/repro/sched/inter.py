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

    __slots__ = ("types", "cap", "scope", "topk_store", "delta_store")

    def __init__(self, types: frozenset, cap: int, scope: "FitScope") -> None:
        self.types = types
        #: the enumeration cap ``min(maxP, max_gpus_per_type)``
        self.cap = cap
        #: the fit scope of every class with this menu and type set
        self.scope = scope
        #: the plan-cache entries of every member companion (its top-K and
        #: delta caches read these while its generation is unchanged)
        self.topk_store: Dict[tuple, object] = {}
        self.delta_store: Dict[tuple, object] = {}


class FitScope:
    """The booked agents of every class with one ``(menu, type set)``.

    ``propose()`` reads the free pool only through "which chunks of the
    sorted menu fit this type", so one pool folds to one *fit key* for all
    of them — 5, 6 and 7 free against menu (1, 2, 4, 8) are one pool.
    ``fit`` is the key their book entries answer."""

    __slots__ = ("menu", "types", "fit", "members")

    def __init__(self, menu: Tuple[int, ...], types: frozenset) -> None:
        self.menu = menu
        self.types = types
        self.fit: Optional[tuple] = None
        self.members: Dict[IntraJobScheduler, None] = {}

    def fits(self, pool: Sequence[Tuple[str, int]]) -> tuple:
        """``pool`` (sorted ``free`` items) as per-type fit counts."""
        return tuple(
            (t, fits)
            for t, v in pool
            if t in self.types and (fits := bisect_right(self.menu, int(v))) > 0
        )


class InterJobScheduler:
    """Greedy speedup-per-GPU arbitration over submitted proposals."""

    def __init__(self) -> None:
        self.grant_log: List[Grant] = []
        #: class key (by content) -> its one record
        self._classes: Dict[tuple, JobClass] = {}
        #: ``(menu, type set)`` -> its one fit scope
        self._scopes: Dict[tuple, FitScope] = {}
        #: the standing proposal book: agent -> [ownership, standing key]
        #: for every agent asked and not forgotten
        self._book: Dict[IntraJobScheduler, list] = {}
        #: booked agents the next round re-answers (asked since their
        #: entry was answered, or their scope's fit key moved)
        self._stale: Dict[IntraJobScheduler, None] = {}
        #: the non-empty answers of the book, one list per agent
        self._offers: Dict[IntraJobScheduler, List[ResourceProposal]] = {}
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
        """The agent's class, interned by content.

        Read on every call, so no way of changing an agent's class leaves
        a stale record (the companion's plan-shape scalars are read-only);
        two companions with equal tables and different generations share
        one class.  Interning points the companion's plan caches at the
        class's stores.
        """
        companion = agent.companion
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
            types, menu = frozenset(companion.capability), agent.scaleout_chunks
            scope = self._scopes.get((menu, types))
            if scope is None:
                scope = self._scopes[menu, types] = FitScope(menu, types)
            job_class = self._classes[key] = JobClass(
                types, min(companion.max_p, companion.max_gpus_per_type), scope
            )
        companion.share_caches(job_class.topk_store, job_class.delta_store)
        return job_class

    def ask(self, agent: IntraJobScheduler, owned: Mapping[str, int]) -> tuple:
        """Derive the agent's key for its current ownership and stand it in
        the book; the next round re-answers the agent's proposals.

        Role-1's plan and Role-2's proposals are — apart from the job id
        — pure functions of the class and the ownership clamped to the
        enumeration cap (:func:`availability_key`; raw counts beyond the
        cap cannot change any plan score), so the key is
        ``(JobClass, clamped ownership)``.  The caller asks when that may
        have moved — an arrival, an ownership edit, a moved class stamp
        — and the standing key serves every round until the next ask.
        """
        job_class = self.job_class(agent)
        cap = job_class.cap
        key = (job_class, availability_key(owned, job_class.types, cap, cap))
        entry = self._book.get(agent)
        if entry is None:
            self._book[agent] = [owned, key]
        else:
            left = entry[1][0].scope
            if left is not job_class.scope:
                del left.members[agent]
            entry[0], entry[1] = owned, key
        job_class.scope.members[agent] = None
        self._stale[agent] = None
        return key

    def forget(self, agent: IntraJobScheduler) -> None:
        """Take a finished job's agent out of the book (idempotent)."""
        entry = self._book.pop(agent, None)
        if entry is not None:
            del entry[1][0].scope.members[agent]
        self._stale.pop(agent, None)
        self._offers.pop(agent, None)

    def proposals_for(self, free: Mapping[str, int]) -> List[ResourceProposal]:
        """One round's Role-2 proposals: every non-empty book entry.

        Only two kinds of entry are re-answered: the agents asked since
        their last answer, and the members of a scope whose fit key this
        pool moves (computed once per round per scope).  Every other entry
        answers this round already — its key and its fit key are the
        ones it was answered for.  A re-answer is one lookup in the memo
        ``(key, fit key) → proposals``; a miss runs the asker's
        ``propose()``, and cached proposals are re-stamped with the
        asker's job id.  The counters stay per job: every booked agent is
        a hit or a miss each round — a standing entry was always a memo
        hit — and the first of a class to ask a new question pays the
        search.  Memo hits skip the agent's ``sched.propose``
        flight-recorder entry (forensic telemetry, not part of the
        :class:`EventLog` surface).  The proposals come in no promised
        order: :meth:`arbitrate` ranks by a total order.
        """
        stale = self._stale
        pool = sorted(free.items())
        for scope in self._scopes.values():
            if scope.members:
                fit = scope.fits(pool)
                if fit != scope.fit:
                    scope.fit = fit
                    stale.update(scope.members)
        misses = 0
        offers = self._offers
        for agent in stale:
            owned, key = self._book[agent]
            memo_key = (key, key[0].scope.fit)
            cached = self._proposal_memo.get(memo_key)
            if cached is None:
                misses += 1
                cached = self._proposal_memo[memo_key] = agent.propose(owned, free)
            if not cached:
                offers.pop(agent, None)
            elif cached[0].job_id == agent.job_id:
                offers[agent] = cached
            else:
                offers[agent] = [replace(p, job_id=agent.job_id) for p in cached]
        stale.clear()
        hits = len(self._book) - misses
        self.proposal_memo_hits += hits
        self.proposal_memo_misses += misses
        if obs.is_enabled():
            for result, count in (("hit", hits), ("miss", misses)):
                if count:
                    obs.metrics().counter(
                        "sched_proposal_memo_total", result=result
                    ).inc(count)
        return [p for offer in offers.values() for p in offer]

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
