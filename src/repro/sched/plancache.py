"""Memoized plan storage for the companion database (§3.4 fast path).

The §3.4 proposal loop queries the companion once per GPU type per job
per round; at Fig-8 cluster scale that is thousands of calls into
an ``O(max_gpus_per_type^|types|)`` enumeration.  Almost all of them
repeat: the free-GPU vector changes slowly, a job's capability table
changes only when calibration or bias correction rewrites it, and many
jobs share one table.

:class:`PlanCache` is the memo behind
:meth:`~repro.sched.companion.CompanionModule.best_plans` and
``scale_out``:

- keys are *normalized* availability vectors (per-type counts clamped to
  ``min(available, maxP, max_gpus_per_type)``, zero/unknown types
  dropped), so availability beyond the enumeration caps hits the same
  entry — with the top-K depth for ``best_plans``, and with the GPU type
  for ``scale_out``, whose entry is that type's whole scale-out
  answer (the best plan at every count), so no chunk is in the key;
- the entries live in a *store* (a plain dict) the cache does not own:
  :meth:`PlanCache.share` points it at a job class's store, so every
  companion of that class answers from one set of entries;
- the owning companion invalidates whenever its capability-table
  **generation** bumps (``apply_calibration``, ``report_measurement``, or
  any direct mutation): the cache leaves its store for a fresh private
  one — never empties it, because other companions may still read it;
- bounded size with FIFO eviction — the availability-key space is tiny in
  practice, but a pathological caller can never leak memory;
- hit/miss/invalidation/eviction counts kept per cache (so per companion,
  whichever store it reads) *and* mirrored into the :mod:`repro.obs`
  metrics registry when observability is enabled.

The cache stores only immutable values — :class:`~repro.sched.perfmodel.ScoredPlan`
lists and frontier tuples of ``ScoredPlan`` or ``None``; list values are
copied on the way out so callers can never corrupt an entry.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Tuple

from repro import obs

#: distinguishes "not cached" from a cached ``None`` (e.g. a delta query
#: that legitimately has no feasible plan)
MISS = object()


class PlanCacheStats:
    """Plain-data counters for one cache (picklable, printable)."""

    __slots__ = ("hits", "misses", "invalidations", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanCacheStats({self.as_dict()})"


class PlanCache:
    """Bounded FIFO memo store with observability counters.

    ``name`` labels the metrics series (``sched_plan_cache_*_total``)
    so the top-K and delta caches stay distinguishable on a dashboard.
    """

    def __init__(self, name: str, maxsize: int = 512) -> None:
        if maxsize <= 0:
            raise ValueError(f"cache maxsize must be positive, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self.stats = PlanCacheStats()
        self._store: Dict[Hashable, Any] = {}

    def get(self, key: Hashable) -> Any:
        """The cached value, or :data:`MISS`."""
        value = self._store.get(key, MISS)
        if value is MISS:
            self.stats.misses += 1
            if obs.is_enabled():
                obs.metrics().counter(
                    "sched_plan_cache_misses_total", cache=self.name
                ).inc()
        else:
            self.stats.hits += 1
            if obs.is_enabled():
                obs.metrics().counter(
                    "sched_plan_cache_hits_total", cache=self.name
                ).inc()
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if key not in self._store and len(self._store) >= self.maxsize:
            # FIFO: drop the oldest insertion (dicts preserve order)
            self._store.pop(next(iter(self._store)))
            self.stats.evictions += 1
            if obs.is_enabled():
                obs.metrics().counter(
                    "sched_plan_cache_evictions_total", cache=self.name
                ).inc()
        self._store[key] = value

    def share(self, store: Dict[Hashable, Any]) -> None:
        """Answer from ``store`` (a job class's) from now on; stats stay here."""
        self._store = store

    def invalidate(self) -> None:
        """Forget every entry (capability-table generation bumped).

        The cache moves to a fresh private store instead of emptying the
        one it reads: that store may be shared, and its entries are still
        right for the companions that did not change.
        """
        self._store = {}
        self.stats.invalidations += 1
        if obs.is_enabled():
            obs.metrics().counter(
                "sched_plan_cache_invalidations_total", cache=self.name
            ).inc()


def availability_key(
    available: Any,
    capability: Any,
    max_p: int,
    max_gpus_per_type: int,
) -> Tuple[Tuple[str, int], ...]:
    """Normalize a free-GPU mapping into a canonical, hashable cache key.

    Mirrors ``CompanionModule._candidate_counts`` exactly: types with zero
    availability or no capability entry are dropped, and each count is
    clamped to the enumeration cap ``min(available, maxP,
    max_gpus_per_type)`` — two availability vectors that enumerate the
    same plan space map to the same key.
    """
    cap = min(max_p, max_gpus_per_type)
    items = available.items()
    return tuple([
        (t, cap if n > cap else int(n))
        for t, n in (sorted(items) if len(items) > 1 else items)
        if n > 0 and t in capability
    ])
