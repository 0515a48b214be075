"""Eq. (1a)-(1d): hand-computed cases and model invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.perfmodel import (
    Plan,
    aggregate_capability,
    estimated_throughput,
    fold,
    grid_waste,
    observed_waste,
    overload_factor,
    waste,
)

CAP = {"v100": 8.0, "p100": 4.0, "t4": 2.0}


class TestPlanConstruction:
    def test_capacity_and_totals(self):
        plan = Plan.build({"v100": (2, 3), "t4": (1, 2)}, max_p=8)
        assert plan.n_est_capacity == 8
        assert plan.total_gpus == 3
        assert plan.gpus_of("v100") == 2 and plan.ests_per_gpu("t4") == 2
        assert plan.gpus_of("p100") == 0

    def test_feasibility(self):
        assert Plan.build({"v100": (2, 2)}, max_p=4).is_feasible
        assert not Plan.build({"v100": (1, 2)}, max_p=4).is_feasible

    def test_homogeneity(self):
        assert Plan.build({"v100": (2, 2)}, max_p=4).is_homogeneous
        assert not Plan.build({"v100": (1, 2), "t4": (1, 2)}, max_p=4).is_homogeneous

    def test_zero_count_entries_dropped(self):
        plan = Plan.build({"v100": (2, 2), "t4": (0, 0)}, max_p=4)
        assert plan.alloc == (("v100", 2, 2),)

    def test_validation(self):
        with pytest.raises(ValueError):
            Plan.build({}, max_p=4)
        with pytest.raises(ValueError):
            Plan.build({"v100": (1, 0)}, max_p=1)
        with pytest.raises(ValueError):
            Plan.build({"v100": (1, 1)}, max_p=0)


class TestHandComputedCases:
    def test_balanced_homogeneous_zero_waste(self):
        # 2 V100 x 2 ESTs, maxP 4: f = 2/8; waste = 2*(8 - 2/(2/8)) + 0 = 0
        plan = Plan.build({"v100": (2, 2)}, max_p=4)
        assert overload_factor(plan, CAP) == pytest.approx(0.25)
        assert waste(plan, CAP) == pytest.approx(0.0)
        assert estimated_throughput(plan, CAP) == pytest.approx(16.0)

    def test_imbalanced_heterogeneous(self):
        # 1 V100 x 2 ESTs + 1 T4 x 2 ESTs, maxP 4
        # f = max(2/8, 2/2) = 1.0 (the T4 is the bottleneck)
        # waste = 1*(8 - 2/1) + 1*(2 - 2/1) + 0 = 6
        # throughput = (8 + 2) - 6 = 4
        plan = Plan.build({"v100": (1, 2), "t4": (1, 2)}, max_p=4)
        assert overload_factor(plan, CAP) == pytest.approx(1.0)
        assert waste(plan, CAP) == pytest.approx(6.0)
        assert estimated_throughput(plan, CAP) == pytest.approx(4.0)

    def test_proportional_assignment_minimizes_waste(self):
        # 1 V100 x 4 ESTs + 1 T4 x 1 EST, maxP 5: f = max(0.5, 0.5) = 0.5
        # waste = (8 - 8) + (2 - 2) + 0 = 0 -> throughput = 10
        plan = Plan.build({"v100": (1, 4), "t4": (1, 1)}, max_p=5)
        assert waste(plan, CAP) == pytest.approx(0.0)
        assert estimated_throughput(plan, CAP) == pytest.approx(10.0)

    def test_overprovision_term(self):
        # 2 V100 x 2 ESTs but maxP 3: capacity 4 > 3
        # f = 0.25; waste = 0 + (4-3)/0.25 = 4 -> throughput = 12
        plan = Plan.build({"v100": (2, 2)}, max_p=3)
        assert waste(plan, CAP) == pytest.approx(4.0)
        assert estimated_throughput(plan, CAP) == pytest.approx(12.0)

    def test_infeasible_plan_rejected(self):
        plan = Plan.build({"t4": (1, 1)}, max_p=4)
        with pytest.raises(ValueError):
            waste(plan, CAP)

    def test_float_roundoff_waste_clamps_to_exact_zero(self):
        # A perfectly balanced plan has waste == 0 in real arithmetic, but
        # ``C - A/(A/C)`` can land a few ulps below zero when A/C doesn't
        # round-trip: with C = 0.007, A = 5 the raw sum is ~-1.7e-18.
        # The model must report exactly 0.0, not a negative number that
        # would make throughput exceed the aggregate capability.
        capability = {"v100": 0.007}
        plan = Plan.build({"v100": (2, 5)}, max_p=10)
        f = overload_factor(plan, capability)
        raw = 2 * (capability["v100"] - 5 / f)
        assert raw < 0  # the round-off this regression test exists for
        assert waste(plan, capability) == 0.0
        assert estimated_throughput(plan, capability) == pytest.approx(0.014)

    def test_large_negative_waste_not_masked(self):
        # the clamp is for ulp-scale noise only; a genuinely negative
        # result (an observed step faster than the capability allows,
        # i.e. a miscalibrated table) must still surface
        plan = Plan.build({"v100": (1, 2)}, max_p=2)
        assert observed_waste(plan, CAP, f_observed=0.1) < -1e-3


class TestObservedWaste:
    def test_matches_model_at_predicted_overload(self):
        plan = Plan.build({"v100": (1, 2), "t4": (1, 2)}, max_p=4)
        f = overload_factor(plan, CAP)
        assert observed_waste(plan, CAP, f) == pytest.approx(waste(plan, CAP))

    def test_slower_execution_strands_more_capability(self):
        plan = Plan.build({"v100": (2, 2)}, max_p=4)
        f = overload_factor(plan, CAP)
        assert observed_waste(plan, CAP, f) == pytest.approx(0.0)
        # running 2x slower than predicted wastes half the capability
        assert observed_waste(plan, CAP, 2 * f) == pytest.approx(8.0)

    def test_rejects_nonpositive_factor(self):
        plan = Plan.build({"v100": (1, 1)}, max_p=1)
        with pytest.raises(ValueError):
            observed_waste(plan, CAP, 0.0)


class TestInvariants:
    @given(
        n_v=st.integers(0, 6),
        a_v=st.integers(1, 8),
        n_t=st.integers(0, 6),
        a_t=st.integers(1, 8),
        max_p=st.integers(1, 30),
    )
    @settings(max_examples=80, deadline=None)
    def test_throughput_bounded_by_aggregate(self, n_v, a_v, n_t, a_t, max_p):
        if n_v + n_t == 0:
            return
        plan = Plan.build({"v100": (n_v, a_v), "t4": (n_t, a_t)}, max_p=max_p)
        if not plan.is_feasible:
            return
        aggregate = n_v * CAP["v100"] + n_t * CAP["t4"]
        tp = estimated_throughput(plan, CAP)
        assert tp <= aggregate + 1e-9
        assert waste(plan, CAP) >= -1e-9

    def test_invalid_capability(self):
        plan = Plan.build({"v100": (1, 1)}, max_p=1)
        with pytest.raises(ValueError):
            overload_factor(plan, {"v100": 0.0})


class TestFloatOrderContract:
    # three terms whose plain left-to-right sum loses the 1.0 that a
    # compensated sum (builtins.sum on Python >= 3.12, math.fsum) keeps
    TERMS = [1e16, 1.0, -1e16]

    def test_fold_is_the_plain_left_to_right_sum(self):
        assert fold(self.TERMS) == (0.0 + 1e16 + 1.0) + -1e16 == 0.0
        assert fold([]) == 0.0

    def test_fold_iterates_the_first_axis_of_an_array(self):
        terms = np.array([[t, 2 * t] for t in self.TERMS])
        assert fold(terms).tolist() == [0.0, 0.0]

    def test_aggregate_uses_the_fold(self):
        # one GPU per type, folded in sorted type order: 1e16 + 1 - 1e16
        plan = Plan.build({"a": (1, 1), "b": (1, 1), "c": (1, 1)}, max_p=3)
        caps = dict(zip("abc", self.TERMS))
        assert aggregate_capability(plan, caps) == 0.0

    def test_average_jct_uses_the_fold(self):
        # sim.avg_jct_s is a bound-0 benchmark quantity, and builtins.sum
        # compensates on Python >= 3.12: it would keep the 2.0 that the
        # plain fold (and Python 3.10/3.11) loses
        from repro.sched.simulator import JobRuntime, SimResult
        from repro.sched.trace import TraceJob
        from repro.utils.events import EventLog

        jcts = [1e16, 1.0, 1.0]
        jobs = [
            JobRuntime(
                TraceJob(f"j{i}", "resnet50", 0.0, 1, "v100", 1.0),
                remaining_work=0.0, status="done", completion_time=jct,
            )
            for i, jct in enumerate(jcts)
        ]
        result = SimResult("p", jobs, EventLog(), makespan=1e16, allocation_timeline=[])
        assert result.jcts == jcts
        assert result.average_jct == (1e16 + 1.0 + 1.0) / 3 != math.fsum(jcts) / 3

    @given(
        counts=st.lists(st.integers(0, 5), min_size=3, max_size=3),
        ests=st.lists(st.integers(1, 6), min_size=3, max_size=3),
        caps=st.lists(st.floats(0.25, 16.0), min_size=3, max_size=3),
        max_p=st.integers(1, 16),
    )
    @settings(max_examples=120, deadline=None)
    def test_grid_kernel_has_the_scalar_bits(self, counts, ests, caps, max_p):
        if not any(counts):
            return
        types = ("p100", "t4", "v100")
        capability = dict(zip(types, caps))
        plan = Plan.build(dict(zip(types, zip(counts, ests))), max_p=max_p)
        n = np.array(counts)[:, None]
        a = np.array(ests)[:, None] * (n > 0)
        c = np.array(caps)[:, None]
        got = grid_waste(n, a, c, max_p)[0]
        if not plan.is_feasible:
            assert got == np.inf
        else:
            assert got == waste(plan, capability)
            assert fold(n * c)[0] - got == estimated_throughput(plan, capability)
