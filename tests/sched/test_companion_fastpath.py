"""Scheduler fast path: cached/pruned plan search equals brute force.

The contract (see the module docs in ``repro.sched.companion``) is exact:
``enumerate_plans`` / ``best_plans`` / ``best_plan_delta`` return the very
plans — same ranking, same floats — that the seed brute-force enumerator
(``enumerate_plans_reference``) produces, across cache hits, dominance
pruning, and every capability-mutation path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.companion import CompanionModule, _CapabilityTable, _SEED_VECTORS
from repro.sched.inter import InterJobScheduler
from repro.sched.intra import IntraJobScheduler
from repro.sched.plancache import MISS, PlanCache, availability_key

CAP = {"v100": 9.0, "p100": 4.0, "t4": 3.0}

TYPES = ("v100", "p100", "t4")

#: every ``dir(dict)`` name that cannot change a dict's contents; any other
#: name must be overridden by ``_CapabilityTable`` (see the mutator tests)
DICT_READ_ONLY = frozenset({
    "__class__", "__class_getitem__", "__contains__", "__delattr__", "__dir__",
    "__doc__", "__eq__", "__format__", "__ge__", "__getattribute__",
    "__getitem__", "__getstate__", "__gt__", "__hash__", "__init_subclass__",
    "__iter__", "__le__", "__len__", "__lt__", "__ne__", "__new__", "__or__",
    "__reduce__", "__reduce_ex__", "__repr__", "__reversed__", "__ror__",
    "__setattr__", "__sizeof__", "__str__", "__subclasshook__", "copy",
    "fromkeys", "get", "items", "keys", "values",
})


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache("t")
        assert cache.get("k") is MISS
        cache.put("k", [1, 2])
        assert cache.get("k") == [1, 2]
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_none_is_a_cacheable_value(self):
        cache = PlanCache("t")
        cache.put("k", None)
        assert cache.get("k") is None  # not MISS: None results are cached

    def test_invalidate_clears_and_counts(self):
        cache = PlanCache("t")
        cache.put("k", 1)
        cache.invalidate()
        assert cache.get("k") is MISS
        assert cache.stats.invalidations == 1

    def test_invalidate_leaves_a_shared_store_intact(self):
        # the store may be a job class's: another companion still reads it
        store = {}
        cache, other = PlanCache("t"), PlanCache("t")
        cache.share(store)
        other.share(store)
        cache.put("k", 1)
        cache.invalidate()
        assert cache.get("k") is MISS
        assert other.get("k") == 1 and store == {"k": 1}

    def test_fifo_eviction(self):
        cache = PlanCache("t", maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is MISS
        assert cache.get("b") == 2
        assert cache.stats.evictions == 1

    def test_hit_ratio(self):
        cache = PlanCache("t")
        cache.put("k", 1)
        cache.get("k")
        cache.get("missing")
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_availability_key_normalizes(self):
        # zero counts and unknown types drop; counts clamp to the caps —
        # exactly mirroring _candidate_counts, so logically identical
        # availabilities share one cache entry
        key = availability_key(
            {"t4": 99, "v100": 2, "a100": 4, "p100": 0}, CAP, max_p=8,
            max_gpus_per_type=16,
        )
        assert key == (("t4", 8), ("v100", 2))


class TestCacheBehaviour:
    def test_repeat_query_hits(self):
        comp = CompanionModule(max_p=4, capability=dict(CAP))
        first = comp.best_plans({"v100": 2, "t4": 1})
        scored_before = comp.vectors_scored
        second = comp.best_plans({"v100": 2, "t4": 1})
        assert first == second
        assert comp.vectors_scored == scored_before  # pure cache hit
        assert any(s["hits"] > 0 for s in comp.cache_stats().values())

    def test_equivalent_availabilities_share_entries(self):
        comp = CompanionModule(max_p=4, capability=dict(CAP))
        comp.best_plans({"v100": 10, "a100": 3})  # clamps to v100: 4
        scored_before = comp.vectors_scored
        comp.best_plans({"v100": 4, "p100": 0})
        assert comp.vectors_scored == scored_before

    def test_direct_capability_write_invalidates(self):
        # IntraJobScheduler.apply_calibration mutates the table directly;
        # the _CapabilityTable container must bump the generation itself
        comp = CompanionModule(max_p=4, capability=dict(CAP))
        stale = comp.best_plan({"v100": 2, "t4": 2})
        generation = comp.generation
        comp.capability["v100"] = 0.5
        assert comp.generation > generation
        fresh = comp.best_plan({"v100": 2, "t4": 2})
        assert fresh == comp.enumerate_plans_reference({"v100": 2, "t4": 2})[0]
        assert fresh != stale

    def test_report_measurement_invalidates(self):
        comp = CompanionModule(max_p=4, capability=dict(CAP))
        comp.best_plan({"v100": 2})
        generation = comp.generation
        comp.report_measurement("v100", estimated=9.0, measured=2.0)
        assert comp.generation > generation

    def test_small_bias_report_keeps_cache(self):
        comp = CompanionModule(max_p=4, capability=dict(CAP))
        comp.best_plan({"v100": 2})
        generation = comp.generation
        comp.report_measurement("v100", estimated=9.0, measured=9.1)
        assert comp.generation == generation  # below threshold: no refit

    def test_all_mutator_paths_bump_generation(self):
        comp = CompanionModule(max_p=4, capability=dict(CAP))
        g = comp.generation
        comp.capability.update({"v100": 8.0})
        assert comp.generation > g
        g = comp.generation
        comp.capability.pop("t4")
        assert comp.generation > g
        g = comp.generation
        comp.capability.setdefault("t4", 3.0)
        assert comp.generation > g
        g = comp.generation
        comp.capability |= {"t4": 2.5}
        assert comp.generation > g and comp.capability["t4"] == 2.5
        assert type(comp.capability) is _CapabilityTable  # |= keeps the container
        g = comp.generation
        assert comp.capability.popitem() == ("t4", 2.5)
        assert comp.generation > g
        g = comp.generation
        del comp.capability["p100"]
        assert comp.generation > g
        g = comp.generation
        comp.capability.clear()
        assert comp.generation > g

    def test_no_dict_mutator_is_left_unguarded(self):
        # a mutator dict grows in a later Python shows up here: it is
        # neither known read-only nor overridden by the table
        unguarded = set(dir(dict)) - DICT_READ_ONLY - set(vars(_CapabilityTable))
        assert not unguarded, f"_CapabilityTable does not guard {sorted(unguarded)}"

    @pytest.mark.parametrize("mutate", [
        lambda table: table.__ior__({"v100": 3.0, "p100": 1.0}),
        lambda table: [table.popitem() for _ in range(2)],
    ], ids=["ior", "popitem"])
    def test_in_place_or_and_popitem_leave_no_stale_plan(self, mutate):
        comp = CompanionModule(max_p=2, capability={"t4": 3.0, "p100": 4.0, "v100": 10.0})
        avail = {"v100": 2, "t4": 2}
        assert comp.best_plan(avail).throughput == 20.0
        mutate(comp.capability)
        fresh = comp.best_plan(avail)
        assert fresh == comp.enumerate_plans_reference(avail)[0]
        assert fresh.throughput == 6.0


class TestPruning:
    def test_pruning_fires_and_preserves_results(self):
        comp = CompanionModule(max_p=8, capability=dict(CAP))
        avail = {"v100": 8, "p100": 8, "t4": 8}
        top = comp.best_plans(avail, top_k=3)
        assert comp.vectors_pruned > 0
        # every count vector with 1 <= sum <= maxP was either masked by the
        # bound or expanded, and the seed head was expanded before any mask
        assert comp.vectors_pruned + comp.vectors_scored == 164
        assert comp.vectors_scored >= _SEED_VECTORS
        assert top == comp.enumerate_plans_reference(avail)[:3]

    def test_delta_seeds_the_bound_with_the_owned_best(self):
        comp = CompanionModule(max_p=8, capability=dict(CAP))
        owned = {"v100": 4, "t4": 4}
        comp.best_plan(owned)
        scored, pruned = comp.vectors_scored, comp.vectors_pruned
        got = comp.best_plan_delta(owned, "p100", 4)
        # the frontier's slab runs to the cap: 1..8 p100 x 0..4 v100 x
        # 0..4 t4 with sum <= 8 — all 100 accounted for, most of them
        # masked without expansion
        assert (comp.vectors_scored - scored) + (comp.vectors_pruned - pruned) == 100
        assert comp.vectors_pruned - pruned > comp.vectors_scored - scored
        assert got == comp.enumerate_plans_reference({"v100": 4, "t4": 4, "p100": 4})[0]

    def test_non_positive_capability_is_refused(self):
        comp = CompanionModule(max_p=4, capability={"v100": 9.0, "t4": 0.0})
        with pytest.raises(ValueError, match="positive"):
            comp.best_plan({"v100": 2, "t4": 2})

    def test_delta_matches_full_search(self):
        comp = CompanionModule(max_p=6, capability=dict(CAP))
        owned = {"v100": 2}
        got = comp.best_plan_delta(owned, "t4", 2)
        expected = comp.enumerate_plans_reference({"v100": 2, "t4": 2})
        assert got == expected[0]

    def test_frontier_layer_ties_break_by_rank_key(self):
        # maxP 2 cuts the t4 = 1 layer to (k80, t4) and (t4, v100), tied
        # with the owned (k80, v100) at 2.0: the layer's winner is the
        # lower alloc, not the first one the grid reaches
        comp = CompanionModule(max_p=2, capability=dict.fromkeys(["k80", "t4", "v100"], 1.0))
        owned = {"k80": 1, "v100": 1}
        got = comp.best_plan_delta(owned, "t4", 1)
        assert got.plan.alloc == (("k80", 1, 1), ("t4", 1, 1))
        assert got == comp.enumerate_plans_reference({**owned, "t4": 1})[0]

    def test_delta_unknown_type_returns_owned_best(self):
        comp = CompanionModule(max_p=4, capability=dict(CAP))
        assert comp.best_plan_delta({"v100": 2}, "a100", 4) == comp.best_plan(
            {"v100": 2}
        )

    def test_delta_saturated_cap_returns_owned_best(self):
        comp = CompanionModule(max_p=2, capability=dict(CAP))
        # owned already covers maxP for this type: no new vectors exist
        assert comp.best_plan_delta({"v100": 2}, "v100", 4) == comp.best_plan(
            {"v100": 2}
        )

    def test_delta_rejects_nonpositive_chunk(self):
        comp = CompanionModule(max_p=4, capability=dict(CAP))
        with pytest.raises(ValueError):
            comp.best_plan_delta({"v100": 1}, "v100", 0)


#: four known types at most; "a100" is never in a capability table
KNOWN = TYPES + ("k80",)
QUERYABLE = KNOWN + ("a100",)


def _availability(draw):
    # zero counts, unknown types, and counts past every cap (maxP, the
    # per-type cap of 4) all occur
    avail = {}
    for gtype in QUERYABLE:
        if draw(st.booleans()):
            avail[gtype] = draw(st.integers(0, 6))
    return avail


def _capabilities(draw, types):
    # equal capabilities tie whole families of plans on throughput, so the
    # (total_gpus, alloc) tie-break — prefix allocs like (p100) against
    # (p100, v100) included — decides the ranking
    if draw(st.booleans()):
        return dict.fromkeys(types, draw(st.sampled_from([0.25, 1.0, 3.0, 16.0])))
    return {t: draw(st.floats(0.25, 16.0)) for t in types}


class TestEquivalenceProperties:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fastpath_equals_bruteforce_under_interleaving(self, data):
        """Random query/mutation interleavings never desynchronize the
        cache: every fast-path answer equals the brute-force oracle run
        against the *current* capability table."""
        draw = data.draw
        types = draw(
            st.lists(st.sampled_from(KNOWN), min_size=1, max_size=4, unique=True)
        )
        comp = CompanionModule(
            max_p=draw(st.integers(1, 16)),
            capability=_capabilities(draw, types),
            homogeneous_only=draw(st.booleans()),
            max_gpus_per_type=4,
        )
        for _ in range(draw(st.integers(1, 6))):
            op = draw(
                st.sampled_from(
                    ["enumerate", "topk", "delta", "calibrate", "report"]
                )
            )
            if op == "enumerate":
                avail = _availability(draw)
                assert comp.enumerate_plans(avail) == comp.enumerate_plans_reference(
                    avail
                )
            elif op == "topk":
                avail = _availability(draw)
                k = draw(st.integers(1, 4))
                assert (
                    comp.best_plans(avail, top_k=k)
                    == comp.enumerate_plans_reference(avail)[:k]
                )
            elif op == "delta":
                owned = _availability(draw)
                gtype = draw(st.sampled_from(QUERYABLE))
                chunk = draw(st.integers(1, 4))
                got = comp.best_plan_delta(owned, gtype, chunk)
                if gtype in comp.capability:
                    hypothetical = dict(owned)
                    hypothetical[gtype] = hypothetical.get(gtype, 0) + chunk
                else:
                    hypothetical = owned
                ranked = comp.enumerate_plans_reference(hypothetical)
                assert got == (ranked[0] if ranked else None)
            elif op == "calibrate":
                gtype = draw(st.sampled_from(types))
                comp.capability[gtype] = draw(st.floats(0.25, 16.0))
                if draw(st.booleans()):
                    comp.capability |= _capabilities(draw, types)
            elif op == "report":
                gtype = draw(st.sampled_from(types))
                comp.report_measurement(
                    gtype,
                    estimated=draw(st.floats(0.5, 16.0)),
                    measured=draw(st.floats(0.5, 16.0)),
                )

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_shared_stores_equal_bruteforce_under_interleaving(self, data):
        """Two to four companions, the first two (and maybe more) of one
        class, interned through one ``InterJobScheduler``: queries on any
        member interleave with capability writes on any member, and every
        answer equals that member's brute-force oracle.  A member that was
        written answers from private stores until it is interned again, so
        its new answers never reach the class it left."""
        draw = data.draw
        types = draw(st.lists(st.sampled_from(KNOWN), min_size=1, max_size=3, unique=True))
        base = _capabilities(draw, types)
        max_p, homogeneous_only = draw(st.integers(1, 8)), draw(st.booleans())
        agents = [
            IntraJobScheduler(f"job-{i}", CompanionModule(
                max_p=max_p, homogeneous_only=homogeneous_only, max_gpus_per_type=4,
                capability=dict(base) if i < 2 or draw(st.booleans())
                else _capabilities(draw, types),
            ))
            for i in range(draw(st.integers(2, 4)))
        ]
        inter = InterJobScheduler()
        for agent in agents:
            inter.job_class(agent)
        # a few availabilities, reused: members of one class ask one question
        pool = [
            {t: draw(st.integers(0, 6)) for t in types} | {"a100": 2}
            for _ in range(draw(st.integers(1, 3)))
        ]
        for _ in range(draw(st.integers(1, 12))):
            op = draw(st.sampled_from(
                ["intern", "enumerate", "topk", "delta", "write", "rejoin", "report"]
            ))
            if op == "intern":
                inter.job_class(draw(st.sampled_from(agents)))
                continue
            # a write hits one member; a question is put to every member in turn
            askers = [a.companion for a in draw(st.permutations(agents))]
            writer = askers[0]
            if op == "enumerate":
                avail = draw(st.sampled_from(pool))
                for member in askers:
                    assert member.enumerate_plans(avail) == member.enumerate_plans_reference(avail)
            elif op == "topk":
                avail, k = draw(st.sampled_from(pool)), draw(st.integers(1, 3))
                for member in askers:
                    assert member.best_plans(avail, top_k=k) == (
                        member.enumerate_plans_reference(avail)[:k]
                    )
            elif op == "delta":
                owned = draw(st.sampled_from(pool))
                gtype = draw(st.sampled_from(types))
                chunk = draw(st.integers(1, 4))
                hypothetical = {**owned, gtype: owned.get(gtype, 0) + chunk}
                for member in askers:
                    ranked = member.enumerate_plans_reference(hypothetical)
                    assert member.best_plan_delta(owned, gtype, chunk) == (
                        ranked[0] if ranked else None
                    )
            elif op == "write":
                writer.capability[draw(st.sampled_from(types))] = draw(st.floats(0.25, 16.0))
            elif op == "rejoin":
                writer.capability |= base  # equal to the class's table again
            elif op == "report":
                writer.report_measurement(
                    draw(st.sampled_from(types)),
                    estimated=draw(st.floats(0.5, 16.0)),
                    measured=draw(st.floats(0.5, 16.0)),
                )

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_chunk_of_every_type_reads_the_frontier(self, data):
        """One ownership, every (type, chunk) question in a shuffled order:
        each answer is a prefix of the frontier its type's first question
        stored, and equals the brute-force best of ``owned + chunk×gtype``.
        Equal capabilities tie whole layers on throughput, so a frontier
        that skips the ``_rank_key`` tie-break, the fold over earlier
        prefixes, or prunes against a later layer answers wrong here."""
        draw = data.draw
        types = draw(st.lists(st.sampled_from(KNOWN), min_size=1, max_size=4, unique=True))
        cap = draw(st.integers(1, 4))
        comp = CompanionModule(
            max_p=draw(st.integers(1, 16)),
            capability=dict.fromkeys(types, draw(st.sampled_from([0.25, 1.0, 3.0, 16.0]))),
            homogeneous_only=draw(st.booleans()),
            max_gpus_per_type=cap,
        )
        # counts up to just past the per-type cap: the maxP bound then cuts
        # layers, which is where ties across allocs of one size arise
        owned = {t: draw(st.integers(0, cap + 1)) for t in QUERYABLE if draw(st.booleans())}
        oracle = {}
        questions = [(gtype, chunk) for gtype in QUERYABLE for chunk in range(1, cap + 3)]
        for gtype, chunk in draw(st.permutations(questions)):
            hypothetical = dict(owned)
            if gtype in comp.capability:
                hypothetical[gtype] = owned.get(gtype, 0) + chunk
            key = comp._key(hypothetical)
            if key not in oracle:
                ranked = comp.enumerate_plans_reference(hypothetical)
                oracle[key] = ranked[0] if ranked else None
            assert comp.best_plan_delta(owned, gtype, chunk) == oracle[key], (gtype, chunk)

    @given(
        seed_counts=st.lists(st.integers(0, 6), min_size=3, max_size=3),
        top_k=st.integers(1, 5),
        max_p=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_topk_is_prefix_of_full_ranking(self, seed_counts, top_k, max_p):
        avail = {t: n for t, n in zip(TYPES, seed_counts)}
        comp = CompanionModule(max_p=max_p, capability=dict(CAP))
        assert (
            comp.best_plans(avail, top_k=top_k)
            == comp.enumerate_plans_reference(avail)[:top_k]
        )
