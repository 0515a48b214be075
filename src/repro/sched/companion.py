"""The companion module: a database of scheduling plans per job (§3.4).

For a job with ``maxP`` ESTs and a capability profile ``C_i`` the
companion enumerates EST-to-GPU-type mappings, scores them with the
Eq. (1) model, and answers two queries for the intra-job scheduler:

- ``best_plans(available)`` — top-K feasible plans under the currently
  free GPUs (Role-1/Role-2 input);
- ``report_measurement(type, est, meas)`` — bias correction: when reported
  throughput diverges from the estimate, the database re-fits that type's
  capability and re-scores (the "actively update the database once it has
  monitored significant biases" behaviour).

Plans balance load by assigning ESTs proportionally to capability, with
floor/ceil integrality choices enumerated (the "quantum property of EST
allocation" the paper calls out).

Fast path
---------

The full enumeration is ``O(max_gpus_per_type^|types|)`` and the §3.4
proposal loop issues it once per (GPU-type × chunk) per round, so the
database memoizes aggressively:

- results are cached under the *normalized* availability vector (see
  :func:`~repro.sched.plancache.availability_key`), in stores that every
  companion of one job class shares (:meth:`CompanionModule.share_caches`),
  and invalidated whenever the capability table's **generation** counter
  bumps — which every mutation path (``report_measurement``,
  ``apply_calibration``, direct item assignment) does automatically via
  :class:`_CapabilityTable`; the companion then leaves the shared stores
  for fresh private ones until its agent is interned again;
- a miss scores its whole candidate space as **one array expression**
  (:meth:`CompanionModule._search`): GPU-count vectors × their ``2^T``
  floor/ceil EST splits, Eq. (1a–1d) evaluated elementwise by
  :func:`~repro.sched.perfmodel.grid_waste` in the scalar model's
  float-operation order; only the candidates tied at the top become
  :class:`Plan` objects;
- **dominance pruning** masks the vector axis: a count vector whose
  aggregate capability ``Σ N_i·C_i`` — an upper bound on Eq. (1d)
  throughput, since waste ≥ 0 — is strictly below the current K-th best
  is dropped before its EST splits are expanded;
- :meth:`best_plan_delta` scores a scale-out hypothesis ``owned +
  chunk×gtype`` incrementally: the owned space's best (cached from
  Role-1) against only the *slab* of vectors using more than the owned
  count of ``gtype``.  One grid scores that slab up to the enumeration
  cap and keeps the best plan of every prefix (the *frontier*), stored
  under ``(owned key, gtype)``, so every chunk of the type is an index
  into one search; vectors are pruned against the owned best, the one
  floor every prefix shares.

All three return **exactly** what the seed brute-force enumerator
(:meth:`enumerate_plans_reference`) returns — same plans, same ranking —
which the property suite in ``tests/sched/test_companion_fastpath.py``
asserts.  To make that contract exact under ties, ranking uses the total
order ``(-throughput, total_gpus, alloc)``.  The reference and its scalar
helpers stay as that oracle (and serve ``enumerate_plans``, which is not
cached); no query on the scheduling path runs them.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.sched.perfmodel import Plan, ScoredPlan, estimated_throughput, fold, grid_waste
from repro.sched.plancache import MISS, PlanCache, availability_key

#: a query without a floor scores this many highest-bound vectors first
_SEED_VECTORS = 32


def _rank_key(scored: ScoredPlan) -> Tuple[float, int, Tuple[Tuple[str, int, int], ...]]:
    """Total order on scored plans: throughput desc, GPUs asc, alloc asc.

    The trailing ``alloc`` component makes ranking independent of
    enumeration order, so the cached/pruned search and the brute-force
    reference are comparable element-by-element.
    """
    return (-scored.throughput, scored.plan.total_gpus, scored.plan.alloc)


class _CapabilityTable(dict):
    """Capability dict that bumps the owner's cache generation on mutation.

    Call sites mutate the table directly (``companion.capability[t] = r``
    in :meth:`IntraJobScheduler.apply_calibration`, ``*=`` in
    :meth:`CompanionModule.report_measurement`), so invalidation must live
    on the container itself — no mutation path may leave a stale plan
    cache behind.
    """

    __slots__ = ("_owner",)

    def __init__(self, data: Mapping[str, float], owner: "CompanionModule") -> None:
        self._owner = owner
        super().__init__(data)


def _bumping(name: str):
    """``dict.<name>`` followed by a generation bump on the owning companion."""
    mutate = getattr(dict, name)

    def guarded(self, *args, **kwargs):
        result = mutate(self, *args, **kwargs)
        self._owner._bump_generation()
        return result

    return guarded


# every dict method that can change the contents (``|=`` is ``__ior__``, which
# does not go through ``update``); tests walk ``dir(dict)`` against this list
for _name in ("__setitem__", "__delitem__", "__ior__", "update", "pop", "popitem",
              "clear", "setdefault"):
    setattr(_CapabilityTable, _name, _bumping(_name))


class CompanionModule:
    """Plan database + capability profile for one job."""

    #: read-only after construction: the plan caches, and the job classes
    #: the inter-job scheduler interns, assume the plan space's shape is
    #: fixed — assignment raises ``AttributeError``
    max_p = property(attrgetter("_max_p"))
    max_gpus_per_type = property(attrgetter("_max_gpus_per_type"))
    homogeneous_only = property(attrgetter("_homogeneous_only"))
    #: bumped on every capability mutation; keys cache validity
    generation = property(attrgetter("_generation"))

    def __init__(
        self,
        max_p: int,
        capability: Mapping[str, float],
        homogeneous_only: bool = False,
        bias_threshold: float = 0.25,
        max_gpus_per_type: int = 16,
        correction_band: Tuple[float, float] = (0.5, 2.0),
        cache_size: int = 512,
    ) -> None:
        if max_p <= 0:
            raise ValueError("maxP must be positive")
        if not capability:
            raise ValueError("capability profile is empty")
        lo, hi = correction_band
        if not (0.0 < lo <= 1.0 <= hi):
            raise ValueError(
                f"correction band must satisfy 0 < lo <= 1 <= hi, got {correction_band}"
            )
        self._max_p = max_p
        self._homogeneous_only = homogeneous_only
        self.bias_threshold = bias_threshold
        self._max_gpus_per_type = max_gpus_per_type
        #: per-report multiplicative correction clamp: one garbage
        #: measurement (a stall mid-reconfiguration) may pull ``C_i`` by at
        #: most this factor, never collapse it toward 0 or infinity
        self.correction_band = (float(lo), float(hi))
        #: (gtype, estimate, measurement, clamped) tuples observed
        self.observations: List[Tuple[str, float, float, bool]] = []
        # --- fast path state ---
        self._generation = 0
        self._topk_cache = PlanCache("companion_topk", maxsize=cache_size)
        self._delta_cache = PlanCache("companion_delta", maxsize=cache_size)
        #: count vectors whose EST expansion the dominance bound skipped
        self.vectors_pruned = 0
        #: count vectors fully expanded and scored
        self.vectors_scored = 0
        self.capability: Dict[str, float] = _CapabilityTable(capability, self)

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    def _bump_generation(self) -> None:
        self._generation += 1
        self._topk_cache.invalidate()
        self._delta_cache.invalidate()

    def share_caches(self, topk: dict, delta: dict) -> None:
        """Answer top-K and delta queries from a job class's stores.

        :meth:`~repro.sched.inter.InterJobScheduler.job_class` calls this
        when it interns the companion's agent, so a class pays each plan
        search once; the hit/miss counts stay this companion's.  The next
        generation bump leaves the stores again.
        """
        self._topk_cache.share(topk)
        self._delta_cache.share(delta)

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/invalidation/eviction counts for both caches."""
        return {
            "topk": self._topk_cache.stats.as_dict(),
            "delta": self._delta_cache.stats.as_dict(),
        }

    def _key(self, available: Mapping[str, int]) -> Tuple[Tuple[str, int], ...]:
        return availability_key(
            available, self.capability, self.max_p, self.max_gpus_per_type
        )

    # ------------------------------------------------------------------
    # plan enumeration
    # ------------------------------------------------------------------
    def _candidate_counts(
        self, available: Mapping[str, int]
    ) -> Iterable[Dict[str, int]]:
        """Yield candidate GPU-count vectors under the availability caps."""
        types = [t for t in sorted(available) if available[t] > 0 and t in self.capability]
        if not types:
            return
        if self.homogeneous_only:
            for gtype in types:
                cap = min(available[gtype], self.max_p, self.max_gpus_per_type)
                for n in range(1, cap + 1):
                    yield {gtype: n}
            return
        ranges = [
            range(0, min(available[t], self.max_p, self.max_gpus_per_type) + 1) for t in types
        ]
        for counts in itertools.product(*ranges):
            if sum(counts) == 0 or sum(counts) > self.max_p:
                continue
            yield {t: c for t, c in zip(types, counts) if c > 0}

    def _ests_for_counts(self, counts: Mapping[str, int]) -> Iterable[Dict[str, int]]:
        """Proportional-to-capability EST split, floor/ceil enumerated."""
        types = sorted(counts)
        total_cap = fold(counts[t] * self.capability[t] for t in types)
        if total_cap <= 0:
            return
        ideal = {t: self.max_p * self.capability[t] / total_cap for t in types}
        choices = []
        for t in types:
            lo = max(1, int(ideal[t]))
            options = {lo, lo + 1}
            choices.append(sorted(options))
        for combo in itertools.product(*choices):
            yield {t: a for t, a in zip(types, combo)}

    def _score_counts(
        self, counts: Mapping[str, int], seen: set
    ) -> List[ScoredPlan]:
        """Expand one count vector into scored, feasible, deduped plans."""
        scored: List[ScoredPlan] = []
        for ests in self._ests_for_counts(counts):
            plan = Plan.build({t: (counts[t], ests[t]) for t in counts}, self.max_p)
            if not plan.is_feasible:
                continue
            if plan.alloc in seen:
                continue
            seen.add(plan.alloc)
            throughput = estimated_throughput(plan, self.capability)
            if throughput <= 0:
                continue
            scored.append(ScoredPlan(plan=plan, throughput=throughput))
        self.vectors_scored += 1
        return scored

    def enumerate_plans_reference(
        self, available: Mapping[str, int]
    ) -> List[ScoredPlan]:
        """The seed brute-force enumerator: no cache, no pruning.

        Kept as the equivalence oracle — the property suite and the
        fast-path benchmark compare every cached/pruned query against it.
        """
        scored: List[ScoredPlan] = []
        seen: set = set()
        for counts in self._candidate_counts(available):
            scored.extend(self._score_counts(counts, seen))
        scored.sort(key=_rank_key)
        return scored

    def enumerate_plans(self, available: Mapping[str, int]) -> List[ScoredPlan]:
        """All feasible scored plans under the given free-GPU counts (uncached)."""
        return self.enumerate_plans_reference(available)

    def best_plans(self, available: Mapping[str, int], top_k: int = 3) -> List[ScoredPlan]:
        """Top-K plans; cached and dominance-pruned (see module docs)."""
        key = self._key(available)
        cached = self._topk_cache.get((key, top_k))
        if cached is not MISS:
            return list(cached)
        plans = self._search({t: (0, cap) for t, cap in key}, top_k, []) if key else []
        self._topk_cache.put((key, top_k), plans)
        return list(plans)

    def best_plan(self, available: Mapping[str, int]) -> Optional[ScoredPlan]:
        plans = self.best_plans(available, top_k=1)
        return plans[0] if plans else None

    # ------------------------------------------------------------------
    # grid search
    # ------------------------------------------------------------------
    def _count_grid(self, ranges: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Count vectors as a ``(T, V)`` array from per-type ``(lo, hi)`` ranges.

        The array form of :meth:`_candidate_counts`: the box of ranges
        (one non-zero count per vector under ``homogeneous_only``) cut to
        ``1 <= Σ N_i <= maxP``.
        """
        spans = [hi - lo + 1 for lo, hi in ranges]
        if self.homogeneous_only:
            grid = np.zeros((len(spans), sum(spans)), dtype=np.int64)
            ends = np.cumsum(spans)
            for i, (lo, hi) in enumerate(ranges):
                grid[i, ends[i] - spans[i]:ends[i]] = np.arange(lo, hi + 1)
        else:
            grid = np.empty([len(spans)] + spans, dtype=np.int64)
            for i, (lo, hi) in enumerate(ranges):  # axis i counts type i
                grid[i] = np.arange(lo, hi + 1).reshape((-1,) + (1,) * (len(spans) - 1 - i))
            grid = grid.reshape(len(spans), -1)
        total = grid.sum(axis=0)
        return grid[:, (total >= 1) & (total <= self.max_p)]

    def _grid(self, ranges: Mapping[str, Tuple[int, int]]):
        """``(types, counts, c, bound)``: the count grid of ``ranges``, the
        capabilities as a ``(T, 1)`` column, and each vector's ``Σ N_i·C_i``."""
        types = sorted(ranges)
        counts = self._count_grid([ranges[t] for t in types])
        capability = [self.capability[t] for t in types]
        if min(capability) <= 0:
            raise ValueError(f"capabilities must be positive, got {dict(self.capability)}")
        c = np.array(capability)[:, None]
        return types, counts, c, fold(counts * c)

    def _tally(self, expanded: int, pruned: int) -> None:
        self.vectors_scored += expanded
        self.vectors_pruned += pruned
        if pruned and obs.is_enabled():
            obs.metrics().counter("sched_plan_vectors_pruned_total").inc(pruned)

    def _search(
        self, ranges: Mapping[str, Tuple[int, int]], top_k: int, best: List[ScoredPlan]
    ) -> List[ScoredPlan]:
        """Merge the plans of a count grid into ``best``, the ranked top K so far.

        The aggregate capability ``Σ N_i·C_i`` bounds a count vector's
        throughput from above (waste >= 0), so once ``best`` is full,
        vectors whose bound is *strictly* under its K-th throughput are
        masked out before any EST split is expanded — a bound equal to
        that floor stays, because the ``(total_gpus, alloc)`` tie-break
        may prefer one of its plans.  A query that arrives without a full
        ``best`` takes its floor from the ``_SEED_VECTORS`` highest-bound
        vectors, scored first.
        """
        types, counts, c, bound = self._grid(ranges)
        stages = [np.ones_like(bound, dtype=bool)]
        if len(best) < top_k and bound.size > _SEED_VECTORS:
            head = bound >= np.partition(bound, -_SEED_VECTORS)[-_SEED_VECTORS]
            stages = [head, ~head]
        expanded = 0
        for stage in stages:
            if len(best) == top_k:
                stage = stage & (bound >= best[-1].throughput)
            best = self._score(types, counts[:, stage], c, bound[stage], top_k, best)
            expanded += int(stage.sum())
        self._tally(expanded, bound.size - expanded)
        return best

    def _splits(self, types, counts, c, bound):
        """Eq. (1) over every floor/ceil EST split of every count vector.

        The array form of :meth:`_ests_for_counts` + Eq. (1): axes are
        (GPU type, count vector, split), and each type's ESTs-per-GPU is
        the floor or the ceiling of its proportional-to-capability share.
        Returns ``(n, a, throughput)``; a ``(vector, split)`` cell that is
        no plan scores ``-inf``.
        """
        n, c = counts[:, :, None], c[:, :, None]
        used = n > 0
        # split k takes type i's floor (0) or ceiling (1): bit i of k
        ceil = np.arange(1 << len(types)) >> np.arange(len(types))[:, None, None] & 1
        a = (np.maximum(1, (self.max_p * c / bound[:, None]).astype(np.int64)) + ceil) * used
        throughput = bound[:, None] - grid_waste(n, a, c, self.max_p)
        # no plan: a split "choice" for a type the vector does not use, or
        # nothing left after waste (infeasible candidates waste +inf)
        throughput[(ceil > used).any(axis=0) | (throughput <= 0)] = -np.inf
        return n, a, throughput

    def _plans(self, types, n, a, throughput, mask) -> List[ScoredPlan]:
        """The :class:`ScoredPlan` of every ``(vector, split)`` cell in ``mask``."""
        return [
            ScoredPlan(
                Plan.build({t: (int(n[i, v, 0]), int(a[i, v, k])) for i, t in enumerate(types)},
                           self.max_p),
                float(throughput[v, k]),
            )
            for v, k in zip(*np.nonzero(mask))
        ]

    def _score(self, types, counts, c, bound, top_k: int, best: List[ScoredPlan]):
        """Score ``counts``' EST splits and merge the top into ``best``.

        Only the candidates that can enter the top K become ``Plan``s.
        """
        if not bound.size:
            return best
        n, a, throughput = self._splits(types, counts, c, bound)
        floor = best[-1].throughput if len(best) == top_k else 0.0
        if throughput.size > top_k:
            floor = max(floor, np.partition(throughput, -top_k, axis=None)[-top_k])
        found = self._plans(types, n, a, throughput, throughput >= floor)
        return sorted(best + found, key=_rank_key)[:top_k]

    def _frontier(
        self,
        owned_key: Tuple[Tuple[str, int], ...],
        gtype: str,
        old_cap: int,
        base: Optional[ScoredPlan],
    ) -> Tuple[Optional[ScoredPlan], ...]:
        """The best plan of every scale-out prefix of ``gtype``, from one grid.

        Scores the whole slab ``old_cap < n_gtype <= min(maxP,
        max_gpus_per_type)`` (every other type keeps its owned cap) and
        returns, for each ``new_cap`` in that range, the best plan under
        ``owned`` with ``gtype`` raised to ``new_cap`` — entry
        ``new_cap - old_cap - 1``.  Layer ``L`` holds the vectors with
        ``n_gtype == L``; its winner is the ``_rank_key`` minimum of the
        candidates at its maximum throughput, and a prefix's answer is the
        ``_rank_key`` minimum of the owned best and the winners of the
        layers it covers.  Vectors are pruned against the owned best only:
        it is the one floor every prefix shares.  A layer whose peak is
        under an earlier layer's builds no ``Plan``: every prefix it
        reaches covers that earlier layer too.
        """
        top = min(self.max_p, self.max_gpus_per_type)
        # a homogeneous plan in the slab uses gtype alone
        ranges = {} if self.homogeneous_only else {t: (0, cap) for t, cap in owned_key}
        ranges[gtype] = (old_cap + 1, top)
        types, counts, c, bound = self._grid(ranges)
        floor = base.throughput if base is not None else 0.0
        keep = bound >= floor
        expanded = int(keep.sum())
        self._tally(expanded, bound.size - expanded)
        winners: List[Optional[ScoredPlan]] = [None] * (top - old_cap)
        if expanded:
            counts, bound = counts[:, keep], bound[keep]
            n, a, throughput = self._splits(types, counts, c, bound)
            layer = counts[types.index(gtype)] - old_cap - 1
            peak = np.full(len(winners), floor)
            np.maximum.at(peak, layer, throughput.max(axis=1))
            reach = np.maximum.accumulate(peak)[layer][:, None]
            for found in self._plans(types, n, a, throughput, throughput >= reach):
                i = found.plan.gpus_of(gtype) - old_cap - 1
                if winners[i] is None or _rank_key(found) < _rank_key(winners[i]):
                    winners[i] = found
        frontier, best = [], base
        for winner in winners:
            if winner is not None and (best is None or _rank_key(winner) < _rank_key(best)):
                best = winner
            frontier.append(best)
        return tuple(frontier)

    def best_plan_delta(
        self, owned: Mapping[str, int], gtype: str, chunk: int
    ) -> Optional[ScoredPlan]:
        """Best plan under ``owned + chunk×gtype``, read off a cached frontier.

        Exactly ``best_plan({**owned, gtype: owned.get(gtype, 0) + chunk})``.
        The hypothetical space is the owned space (its best is cached from
        Role-1) plus the *slab* of count vectors with ``old_cap < n_gtype
        <= new_cap``.  A miss scores the slab up to the enumeration cap in
        one grid (:meth:`_frontier`) and stores the best plan of every
        ``new_cap`` under ``(owned key, gtype)``, so every chunk of that
        type — this agent's or any class member's — is an index into it.
        """
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        base = self.best_plan(owned)
        if gtype not in self.capability:
            # unknown types never enter the enumeration: no new space
            return base
        held = int(owned.get(gtype, 0))
        old_cap = min(held, self.max_p, self.max_gpus_per_type) if held > 0 else 0
        new_cap = min(held + chunk, self.max_p, self.max_gpus_per_type)
        if new_cap <= old_cap:
            return base  # caps already saturated: identical plan space
        owned_key = self._key(owned)
        frontier = self._delta_cache.get((owned_key, gtype))
        if frontier is MISS:
            frontier = self._frontier(owned_key, gtype, old_cap, base)
            self._delta_cache.put((owned_key, gtype), frontier)
        return frontier[new_cap - old_cap - 1]

    # ------------------------------------------------------------------
    # bias correction
    # ------------------------------------------------------------------
    def report_measurement(self, gtype: str, estimated: float, measured: float) -> bool:
        """Record an (estimate, measurement) pair; re-fit on large bias.

        The multiplicative correction ``measured/estimated`` is clamped to
        :attr:`correction_band` (default ``[0.5, 2.0]``): a single garbage
        measurement — e.g. a stall during reconfiguration — can bias
        ``C_i`` by at most one band step instead of collapsing it toward
        zero and poisoning every future plan.  Clamped reports are flagged
        in :attr:`observations`.  Returns True if the capability profile
        was updated.
        """
        if gtype not in self.capability:
            raise KeyError(f"unknown GPU type {gtype!r}")
        clamped = False
        updated = False
        if estimated > 0:
            bias = abs(measured - estimated) / estimated
            if bias > self.bias_threshold and measured > 0:
                correction = measured / estimated
                lo, hi = self.correction_band
                if correction < lo or correction > hi:
                    clamped = True
                    correction = min(max(correction, lo), hi)
                self.capability[gtype] *= correction
                updated = True
        self.observations.append((gtype, estimated, measured, clamped))
        return updated
