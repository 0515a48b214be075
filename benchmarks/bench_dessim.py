"""DES at production scale — 3,000-GPU month-long trace through ``run()``.

The paper's production claims (Fig-1 diurnal swing, Fig-14/16 replays)
are made at thousands of GPUs over weeks; this regenerator replays a
seeded 3,000-GPU, 30-day diurnal multi-tenant trace through the
simulator's event core and measures event throughput.  The core drains
coincident events in one pass, advances all running jobs with one
vectorized step, skips reschedules at quiescent decision points, and
shares Role-2 plan searches across same-class jobs — none of which may
change a single event, so at smoke size the log is held byte-identical
to ``run_reference()``'s (the oracle is O(n²): a month would take minutes).

Regenerates: wall cost and event throughput of the month replay over
``REPEATS`` repeats.  The deleted heap-queue core's last datapoint — 61.3 s
against 3.9 s on this trace, x15.8 — stays in ``BENCH_dessim.json``.
"""

import statistics
import time

from repro.hw import microbench_cluster, production_cluster
from repro.sched import ClusterSimulator, EasyScalePolicy, diurnal_trace

from benchmarks.conftest import (
    SMOKE,
    print_header,
    print_table,
    smoke_scale,
)

GPUS = smoke_scale(3000, 64)
NUM_JOBS = smoke_scale(2000, 60)
DAYS = smoke_scale(30, 0.5)
MEAN_DURATION_S = smoke_scale(8 * 3600.0, 4 * 3600.0)
SEED = 11
REPEATS = smoke_scale(3, 1)


def _build_cluster():
    return microbench_cluster() if GPUS == 64 else production_cluster(GPUS)


def run_experiment():
    jobs = diurnal_trace(
        num_jobs=NUM_JOBS, seed=SEED, days=DAYS, mean_duration_s=MEAN_DURATION_S
    )

    def replay(core):
        sim = ClusterSimulator(_build_cluster(), jobs, EasyScalePolicy(True))
        start = time.perf_counter()
        result = getattr(sim, core)()
        return time.perf_counter() - start, result

    repeats = [replay("run") for _ in range(REPEATS)]
    return {
        "run_s": [elapsed for elapsed, _ in repeats],
        "results": [result for _, result in repeats],
        "reference": replay("run_reference")[1] if SMOKE else None,
    }


def test_dessim_month_trace_replay(run_once):
    r = run_once(run_experiment)
    result = r["results"][0]

    # bitwise contract first: a timing only counts if every repeat is the
    # *same* simulation, event for event — and the oracle's, where it fits
    fingerprint = result.events.fingerprint()
    assert all(x.events.fingerprint() == fingerprint for x in r["results"])
    if r["reference"] is not None:
        assert r["reference"].events.fingerprint() == fingerprint
        assert r["reference"].jcts == result.jcts

    events = len(result.events)
    median_s = statistics.median(r["run_s"])
    print_header(
        f"DES core scaling: {GPUS} GPUs, {NUM_JOBS} jobs, {DAYS}-day diurnal trace"
    )
    print_table(
        ["repeat", "wall (s)", "events/s"],
        [[i, f"{s:.2f}", f"{events / s:,.0f}"] for i, s in enumerate(r["run_s"])],
        fmt="12",
    )
    print(f"\nmedian {median_s:.2f} s, {events / median_s:,.0f} events/s "
          f"({events} events, {len(result.completed)}/{NUM_JOBS} jobs completed)")
    assert len(result.completed) == NUM_JOBS
