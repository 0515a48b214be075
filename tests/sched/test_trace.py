"""Trace generation: reproducibility, distributions, work accounting."""

import numpy as np
import pytest

from repro.models import TABLE1
from repro.sched.trace import (
    GPU_DEMAND,
    PRODUCTION_DEMAND,
    TraceJob,
    diurnal_trace,
    generate_trace,
    heavy_tail_trace,
)


class TestTraceJob:
    def test_requested_rate(self):
        job = TraceJob(
            job_id="j",
            workload="resnet50",
            arrival_time=0.0,
            requested_gpus=4,
            requested_type="v100",
            total_work=100.0,
        )
        assert job.requested_rate() == pytest.approx(4 * 9.0)
        assert job.conv_heavy
        assert set(job.capability) == {"v100", "p100", "t4"}

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceJob("j", "resnet50", 0.0, 0, "v100", 10.0)
        with pytest.raises(ValueError):
            TraceJob("j", "resnet50", 0.0, 1, "v100", 0.0)

    def test_negative_arrival_rejected_eagerly(self):
        with pytest.raises(ValueError, match=r"job 'late'.*arrival_time.*-1\.5"):
            TraceJob("late", "resnet50", -1.5, 1, "v100", 10.0)

    def test_unknown_workload_names_job(self):
        with pytest.raises(ValueError, match=r"job 'j'.*unknown workload 'nope'"):
            TraceJob("j", "nope", 0.0, 1, "v100", 10.0)

    def test_unknown_requested_type_names_job_and_field(self):
        # before eager validation this surfaced as a bare KeyError deep
        # inside requested_rate()/policy scoring
        with pytest.raises(
            ValueError, match=r"job 'j'.*requested_type 'h100'.*capability table"
        ):
            TraceJob("j", "resnet50", 0.0, 1, "h100", 10.0)


class TestGenerateTrace:
    def test_reproducible(self):
        a = generate_trace(num_jobs=20, seed=7)
        b = generate_trace(num_jobs=20, seed=7)
        assert [(j.arrival_time, j.workload, j.requested_gpus) for j in a] == [
            (j.arrival_time, j.workload, j.requested_gpus) for j in b
        ]

    def test_seed_changes_trace(self):
        a = generate_trace(num_jobs=20, seed=7)
        b = generate_trace(num_jobs=20, seed=8)
        assert [j.workload for j in a] != [j.workload for j in b]

    def test_arrivals_monotone(self):
        jobs = generate_trace(num_jobs=50, seed=1)
        times = [j.arrival_time for j in jobs]
        assert times == sorted(times)

    def test_workloads_from_table1(self):
        jobs = generate_trace(num_jobs=100, seed=2)
        assert {j.workload for j in jobs} <= set(TABLE1)

    def test_demand_values_respected(self):
        jobs = generate_trace(num_jobs=100, seed=3)
        allowed = {d for d, _ in GPU_DEMAND}
        assert {j.requested_gpus for j in jobs} <= allowed

    def test_custom_demand(self):
        jobs = generate_trace(num_jobs=50, seed=3, demand=[(2, 1.0)])
        assert all(j.requested_gpus == 2 for j in jobs)

    def test_custom_type_weights(self):
        jobs = generate_trace(num_jobs=50, seed=3, type_weights={"t4": 1.0})
        assert all(j.requested_type == "t4" for j in jobs)

    def test_duration_bounds(self):
        jobs = generate_trace(
            num_jobs=100, seed=4, mean_duration_s=500, max_duration_factor=4
        )
        for job in jobs:
            duration = job.total_work / job.requested_rate()
            assert 60.0 <= duration <= 4 * 500 + 1e-6

    def test_work_consistent_with_gang_rate(self):
        # a job's duration at its gang allocation equals work / rate
        jobs = generate_trace(num_jobs=10, seed=5)
        for job in jobs:
            assert job.total_work / job.requested_rate() > 0

    def test_num_jobs_positive(self):
        with pytest.raises(ValueError):
            generate_trace(num_jobs=0)


class TestDiurnalTrace:
    def test_reproducible(self):
        a = diurnal_trace(num_jobs=40, seed=9, days=2)
        b = diurnal_trace(num_jobs=40, seed=9, days=2)
        assert [(j.arrival_time, j.workload, j.requested_gpus) for j in a] == [
            (j.arrival_time, j.workload, j.requested_gpus) for j in b
        ]

    def test_arrivals_monotone_and_span_days(self):
        days = 3
        jobs = diurnal_trace(num_jobs=200, seed=1, days=days)
        arrivals = [j.arrival_time for j in jobs]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] >= 0.0
        assert arrivals[-1] <= days * 86400.0 * 1.5  # thinning overshoot margin

    def test_peak_hours_denser_than_trough(self):
        # the Fig-1 swing: more submissions near the peak hour than the
        # opposite side of the clock
        jobs = diurnal_trace(num_jobs=600, seed=2, days=10, peak_hour=14.0)
        def hour(t):
            return (t / 3600.0) % 24.0
        peak = sum(1 for j in jobs if 11.0 <= hour(j.arrival_time) <= 17.0)
        trough = sum(
            1 for j in jobs if hour(j.arrival_time) <= 5.0 or hour(j.arrival_time) >= 23.0
        )
        assert peak > 1.5 * trough

    def test_production_demand_mix(self):
        jobs = diurnal_trace(num_jobs=100, seed=3)
        allowed = {d for d, _ in PRODUCTION_DEMAND}
        assert {j.requested_gpus for j in jobs} <= allowed


class TestHeavyTailTrace:
    def test_reproducible(self):
        a = heavy_tail_trace(num_jobs=30, seed=5)
        b = heavy_tail_trace(num_jobs=30, seed=5)
        assert [(j.arrival_time, j.total_work) for j in a] == [
            (j.arrival_time, j.total_work) for j in b
        ]

    def test_durations_heavy_tailed(self):
        jobs = heavy_tail_trace(num_jobs=400, seed=6)
        durations = sorted(j.total_work / j.requested_rate() for j in jobs)
        mean = sum(durations) / len(durations)
        median = durations[len(durations) // 2]
        # Pareto mix: the mean sits far above the median
        assert mean > 1.5 * median

    def test_duration_bounds(self):
        jobs = heavy_tail_trace(
            num_jobs=100, seed=7, min_duration_s=300.0, max_duration_s=7 * 86400.0
        )
        for job in jobs:
            duration = job.total_work / job.requested_rate()
            assert 300.0 - 1e-6 <= duration <= 7 * 86400.0 + 1e-6


class TestFrozenDraws:
    """The sampler's shortcuts consume and return exactly what the
    ``numpy`` calls they replace did, so every frozen trace holds."""

    def test_bisect_over_cdf_is_choice(self):
        from bisect import bisect_right

        from repro.sched.trace import _cdf

        tables = []
        for weights in ([p for _, p in GPU_DEMAND], [p for _, p in PRODUCTION_DEMAND],
                        [0.6, 0.25, 0.15], [1, 3]):
            probs = np.array(weights, dtype=np.float64)
            tables.append((len(weights), probs / probs.sum(), _cdf(weights)))
        a, b = (np.random.Generator(np.random.PCG64(2023)) for _ in range(2))
        chosen, bisected = [], []
        for draw in range(100_000):
            n, probs, cdf = tables[draw % len(tables)]
            if draw % 2:  # interleaved like _sample_job: integers() buffers 32-bit halves
                chosen.append(int(a.integers(0, 9)))
                bisected.append(int(b.integers(0, 9)))
            chosen.append(int(a.choice(n, p=probs)))
            bisected.append(bisect_right(cdf, b.random()))
        assert chosen == bisected
        assert a.bit_generator.state == b.bit_generator.state

    def test_math_cos_is_np_cos_on_the_phases_frozen_traces_visit(self, monkeypatch):
        import math

        import repro.sched.trace as trace

        phases = []

        class Recorder:
            pi = math.pi

            @staticmethod
            def cos(x):
                phases.append(x)
                return math.cos(x)

        monkeypatch.setattr(trace, "math", Recorder)
        # the benchmark's sim traces (seed 2023, full and check sizes) and
        # the fingerprinted test traces
        for jobs, seed, days, demand in [
            (150, 2023, 3, GPU_DEMAND), (12, 2023, 1, GPU_DEMAND), (24, 2023, 1, GPU_DEMAND),
            (8, 2023, 1, GPU_DEMAND), (700, 2023, 4, None), (4000, 2023, 6, None),
            (40, 2023, 2, None), (60, 2023, 2, None), (40, 2023, 1, None), (10, 2023, 1, None),
            (30, 7, 0.5, None), (24, 1, 0.5, None), (60, 2023, 0.5, GPU_DEMAND),
        ]:
            trace.diurnal_trace(num_jobs=jobs, seed=seed, days=days, demand=demand)
        assert len(phases) > 6000
        assert [float(np.cos(x)) for x in phases] == [math.cos(x) for x in phases]
