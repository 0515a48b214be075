"""Intra-job scheduler: Roles 1-3 and plan concretization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.companion import CompanionModule
from repro.sched.intra import IntraJobScheduler, ResourceProposal, plan_to_assignment
from repro.sched.perfmodel import Plan

CAP = {"v100": 9.0, "p100": 4.0, "t4": 3.0}


def make_sched(max_p=4, **kw):
    return IntraJobScheduler("job-x", CompanionModule(max_p=max_p, capability=CAP), **kw)


class TestRole1:
    def test_applies_best_plan(self):
        sched = make_sched()
        scored = sched.apply_best_plan({"v100": 2})
        assert scored is not None
        assert sched.current_plan == scored.plan
        assert sched.current_throughput() == pytest.approx(scored.throughput)

    def test_no_resources_no_plan(self):
        sched = make_sched()
        assert sched.apply_best_plan({}) is None
        assert sched.current_assignment() is None
        assert sched.current_throughput() == 0.0


class TestRole2:
    def test_proposals_require_speedup(self):
        sched = make_sched()
        sched.apply_best_plan({"v100": 4})  # already at maxP on fast GPUs
        proposals = sched.propose({"v100": 4}, {"t4": 4})
        # adding T4s to a saturated 4-EST V100 plan cannot help
        assert proposals == []

    def test_proposals_sorted_by_speedup_per_gpu(self):
        sched = make_sched(max_p=8)
        sched.apply_best_plan({"v100": 1})
        proposals = sched.propose({"v100": 1}, {"v100": 4, "t4": 4})
        assert proposals
        per_gpu = [p.speedup_per_gpu for p in proposals]
        assert per_gpu == sorted(per_gpu, reverse=True)

    def test_pending_job_proposes_from_zero(self):
        sched = make_sched()
        proposals = sched.propose({}, {"v100": 2})
        assert proposals
        assert all(p.current_throughput == 0.0 for p in proposals)
        assert all(p.speedup == float("inf") for p in proposals)

    def test_chunks_capped_by_free(self):
        sched = make_sched(max_p=8)
        proposals = sched.propose({}, {"v100": 1})
        assert all(p.extra_gpus <= 1 for p in proposals)

    def test_top_k(self):
        sched = make_sched(max_p=8, top_k=2)
        assert len(sched.propose({}, {"v100": 8, "p100": 8, "t4": 8})) <= 2

    def test_chunk_order_invariance(self):
        # regression: propose() breaks the chunk loop at the first chunk
        # exceeding the free pool; an unsorted menu used to silently skip
        # the smaller chunks listed after it
        shuffled = make_sched(max_p=8, scaleout_chunks=(8, 1, 4, 2))
        ordered = make_sched(max_p=8, scaleout_chunks=(1, 2, 4, 8))
        free = {"v100": 2}  # 8 and 4 don't fit; 1 and 2 must still be tried
        assert shuffled.propose({}, free) == ordered.propose({}, free)
        assert shuffled.propose({}, free)  # and they are non-empty here

    def test_chunks_normalized_on_assignment(self):
        # ablation harnesses assign the attribute directly; the setter
        # must normalize that path too
        sched = make_sched()
        sched.scaleout_chunks = [4, 4, 2, 1]
        assert sched.scaleout_chunks == (1, 2, 4)

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            make_sched(scaleout_chunks=())
        with pytest.raises(ValueError):
            make_sched(scaleout_chunks=(2, 0))


def reference_proposals(sched, owned, free):
    """Role-2 from the brute-force enumerator: one full search per
    (type, chunk) hypothesis ``owned + chunk×gtype``."""
    companion, current = sched.companion, sched.current_throughput()
    proposals = []
    for gtype, n in sorted(free.items()):
        if gtype not in companion.capability:
            continue
        for chunk in sched.scaleout_chunks:
            if chunk > n:
                break
            ranked = companion.enumerate_plans_reference(
                {**owned, gtype: owned.get(gtype, 0) + chunk}
            )
            if ranked and ranked[0].throughput > current * 1.001:
                proposals.append(ResourceProposal(
                    sched.job_id, gtype, chunk, current, ranked[0].throughput, ranked[0].plan
                ))
    proposals.sort(key=lambda p: (-p.speedup_per_gpu, -p.extra_gpus))
    return proposals[: sched.top_k]


class TestRole2Reference:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_propose_equals_the_reference(self, data):
        """``propose`` reads one scale-out answer per type at each chunk's
        new count; the reference asks the brute-force enumerator for every
        chunk.  Equal capabilities tie plans on throughput, owned counts
        past the cap clamp, and unknown types on either side are ignored."""
        draw = data.draw
        types = draw(st.lists(st.sampled_from(sorted(CAP)), min_size=1, max_size=3, unique=True))
        capability = {t: draw(st.sampled_from([1.0, 3.0, 9.0])) for t in types}
        cap = draw(st.sampled_from([4, 16]))
        sched = IntraJobScheduler(
            "job-x",
            CompanionModule(
                max_p=draw(st.integers(1, 12)),
                capability=capability,
                homogeneous_only=draw(st.booleans()),
                max_gpus_per_type=cap,
            ),
            scaleout_chunks=draw(st.sampled_from([(1, 2, 4, 8, 16), (2, 4), (3, 5), (8,)])),
            top_k=draw(st.integers(1, 3)),
        )
        pool = sorted(CAP) + ["k80"]
        owned = {t: draw(st.integers(0, cap + 2)) for t in pool if draw(st.booleans())}
        free = {t: draw(st.integers(0, 17)) for t in pool if draw(st.booleans())}
        if draw(st.booleans()):
            sched.apply_best_plan(owned)
        assert sched.propose(owned, free) == reference_proposals(sched, owned, free)


class TestRole3:
    def test_on_decision_replans(self):
        sched = make_sched()
        sched.apply_best_plan({"v100": 1})
        assignment = sched.on_decision({"v100": 2})
        assert assignment is not None
        assert assignment.num_workers == 2

    def test_slowdown_fallback(self):
        sched = make_sched()
        sched.apply_best_plan({"v100": 2})
        good_plan = sched.current_plan
        sched.apply_best_plan({"v100": 2, "t4": 2})
        assert sched.on_slowdown(measured=1.0, estimated=20.0)
        assert sched.current_plan == good_plan

    def test_no_fallback_when_measured_ok(self):
        sched = make_sched()
        sched.apply_best_plan({"v100": 1})
        sched.apply_best_plan({"v100": 2})
        assert not sched.on_slowdown(measured=100.0, estimated=18.0)

    def test_no_revert_to_plan_exceeding_ownership(self):
        # regression: after a revocation shrank the job from 4 to 2 GPUs,
        # a slowdown report must not revert to the old 4-GPU plan — the
        # job no longer owns the hardware that plan assigns ESTs to
        sched = make_sched()
        sched.apply_best_plan({"v100": 4})
        sched.apply_best_plan({"v100": 2})
        assert not sched.on_slowdown(measured=0.1, estimated=18.0, owned={"v100": 2})
        assert sched.current_plan is not None
        assert sched.current_plan.gpus_of("v100") <= 2

    def test_feasible_previous_plan_still_reverts(self):
        # ownership unchanged: the classic fallback must keep working
        # through the validated path
        sched = make_sched()
        sched.apply_best_plan({"v100": 2})
        good_plan = sched.current_plan
        sched.apply_best_plan({"v100": 2, "t4": 2})
        assert sched.on_slowdown(
            measured=1.0, estimated=20.0, owned={"v100": 2, "t4": 2}
        )
        assert sched.current_plan == good_plan


class TestPlanToAssignment:
    def test_covers_all_ests(self):
        plan = Plan.build({"v100": (2, 2)}, max_p=4)
        assignment = plan_to_assignment(plan)
        assert assignment.num_ests == 4
        assert assignment.num_workers == 2
        assert [g.name for g in assignment.gpus] == ["V100", "V100"]

    def test_overprovision_drops_empty_workers(self):
        # 3 GPUs x 2 ESTs = capacity 6, maxP 4: third GPU hosts nothing? no
        # — cursor: GPU0 gets [0,1], GPU1 [2,3], GPU2 nothing -> dropped
        plan = Plan.build({"v100": (3, 2)}, max_p=4)
        assignment = plan_to_assignment(plan)
        assert assignment.num_workers == 2
        assert assignment.num_ests == 4

    def test_heterogeneous_order(self):
        plan = Plan.build({"p100": (1, 1), "v100": (1, 3)}, max_p=4)
        assignment = plan_to_assignment(plan)
        names = [g.name for g in assignment.gpus]
        assert sorted(names) == ["P100", "V100"]
        assert assignment.num_ests == 4


class TestCalibration:
    def test_apply_calibration_updates_known_types(self):
        sched = make_sched()
        previous = sched.apply_calibration({"V100": 6.0, "t4": 1.5})
        assert previous == CAP  # superseded table returned for fallback
        assert sched.companion.capability["v100"] == pytest.approx(6.0)
        assert sched.companion.capability["t4"] == pytest.approx(1.5)
        assert sched.companion.capability["p100"] == pytest.approx(4.0)

    def test_unknown_and_nonpositive_rates_ignored(self):
        sched = make_sched()
        sched.apply_calibration({"a100": 50.0, "v100": 0.0, "t4": -1.0})
        assert "a100" not in sched.companion.capability
        assert sched.companion.capability["v100"] == pytest.approx(CAP["v100"])
        assert sched.companion.capability["t4"] == pytest.approx(CAP["t4"])

    def test_calibration_changes_the_chosen_plan(self):
        # static table: v100 at 10, t4 at 5 -> proportional split over
        # {1 v100, 1 t4} for maxP=6 is (4, 2) with f = 0.4
        capability = {"v100": 10.0, "t4": 5.0}
        sched = IntraJobScheduler(
            "job-c", CompanionModule(max_p=6, capability=capability)
        )
        static_best = sched.apply_best_plan({"v100": 1, "t4": 1})
        assert static_best.plan.ests_per_gpu("t4") == 2

        # measured truth: the T4 actually runs at 2.5 mb/s; recalibrating
        # shifts load to the V100 (5, 1), halving the overload factor
        from repro.sched.perfmodel import overload_factor

        truth = {"v100": 10.0, "t4": 2.5}
        f_static_under_truth = overload_factor(static_best.plan, truth)
        sched.apply_calibration(truth)
        calibrated_best = sched.apply_best_plan({"v100": 1, "t4": 1})
        assert calibrated_best.plan.ests_per_gpu("t4") == 1
        f_calibrated_under_truth = overload_factor(calibrated_best.plan, truth)
        assert f_calibrated_under_truth < f_static_under_truth
