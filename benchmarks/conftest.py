"""Shared helpers for the figure/table regeneration benchmarks.

Every ``bench_figXX`` module regenerates one figure or table from the
paper's evaluation section: it runs the experiment through the public API,
prints the same rows/series the paper reports (shape, not absolute
numbers), and asserts the qualitative claims (who wins, where the
crossovers are).  ``pytest benchmarks/ --benchmark-only`` runs them all.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List, Sequence

import pytest

#: ``REPRO_BENCH_SMOKE=1`` shrinks every regenerator to a fast smoke run:
#: same experiment, same qualitative assertions, reduced epochs/steps/jobs.
#: ``tests/test_bench_smoke.py`` (marker ``bench_smoke``) drives the whole
#: suite this way as a tier-2 target.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def smoke_scale(full, reduced):
    """Pick a knob value: the paper-scale one, or the smoke-run one."""
    return reduced if SMOKE else full


def record_trajectory(area, bench, params, metric_samples):
    """Append wall-clock samples to the area's ``BENCH_<area>.json``.

    Opt-in via ``REPRO_BENCH_RECORD=1``: figure regenerators time real
    work anyway, so a recorded run feeds the same regression trajectories
    as ``repro bench run`` (``repro bench gate`` then enforces them).
    ``smoke`` is folded into the params — the comparator keys series by
    (bench, params), so smoke timings never gate against full-scale ones.
    Returns the appended record, or ``None`` when recording is off.
    """
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return None
    from repro.obs.bench import record_samples

    return record_samples(
        area, bench, {**dict(params), "smoke": SMOKE}, metric_samples
    )


def print_header(title: str) -> None:
    bar = "=" * max(len(title), 20)
    print(f"\n{bar}\n{title}\n{bar}")


def print_table(headers: Sequence[str], rows: Iterable[Sequence[object]], fmt: str = "10") -> None:
    widths = [max(len(str(h)), int(fmt)) for h in headers]
    print("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        cells = []
        for value, width in zip(row, widths):
            if isinstance(value, float):
                cells.append(f"{value:.4g}".rjust(width))
            else:
                cells.append(str(value).rjust(width))
        print("  ".join(cells))


def series_line(label: str, values: Sequence[float], fmt: str = "{:8.4f}") -> None:
    print(f"{label:24s} " + " ".join(fmt.format(v) for v in values))


@pytest.fixture(scope="session", autouse=True)
def repro_trace():
    """Opt-in span tracing for benchmark runs.

    ``REPRO_TRACE=1 pytest benchmarks/ ...`` records every instrumented
    phase (engine steps, bucket reduces, simulator events) and, at session
    end, writes a Chrome ``trace_event`` JSON alongside the pytest-benchmark
    JSON results — ``REPRO_TRACE_PATH`` overrides the default output path.
    """
    if os.environ.get("REPRO_TRACE") != "1":
        yield
        return
    from repro import obs

    obs.configure(enabled=True, ring_size=1 << 20)
    try:
        yield
    finally:
        path = os.environ.get("REPRO_TRACE_PATH", "benchmarks_trace.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obs.tracer().to_chrome_trace(), fh, default=str)
        obs.reset()
        print(f"\n[repro] benchmark span trace written to {path}")


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark accounting.

    The regenerators are deterministic simulations, not micro-kernels, so a
    single round is both sufficient and honest.
    """

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
