"""Host-speed calibration: the factor's arithmetic and the skipping clock."""

import gc
import time

import pytest

from benchmarks.e2e import calibrate
from benchmarks.e2e.calibrate import BURST, EVERY_S, REFERENCE_S, HostSpeed, factor


def test_factor_is_reference_over_the_trimmed_mean():
    assert factor([REFERENCE_S] * 20) == pytest.approx(1.0)
    assert factor([2 * REFERENCE_S] * 20) == pytest.approx(0.5)
    # one descheduled sample in twenty is dropped with the top tenth
    assert factor([REFERENCE_S] * 19 + [50 * REFERENCE_S]) == pytest.approx(1.0)
    # too few samples to trim: plain mean
    assert factor([REFERENCE_S, 3 * REFERENCE_S]) == pytest.approx(0.5)


def test_clock_skips_the_kernel_and_only_the_kernel(monkeypatch):
    monkeypatch.setattr(calibrate, "kernel", lambda: time.sleep(0.002))
    host = HostSpeed()
    start_host, start_wall = host.now(), time.perf_counter()
    time.sleep(0.01)
    host.sample(3)  # one untimed pass + three timed
    elapsed_host, elapsed_wall = host.now() - start_host, time.perf_counter() - start_wall
    assert len(host.samples) == 3
    # the two clocks were read a few hundred nanoseconds apart
    assert host.paused == pytest.approx(elapsed_wall - elapsed_host, abs=1e-4)
    assert host.paused >= 4 * 0.002
    assert 0.01 <= elapsed_host < elapsed_wall - 0.007


def test_tick_samples_in_proportion_to_the_gap_up_to_a_burst():
    host = HostSpeed()
    host.sample()
    host.take()
    host.tick()  # nothing is due right after a sample
    assert host.take() == []
    time.sleep(2.5 * EVERY_S)
    host.tick()
    assert len(host.take()) == 2
    time.sleep((BURST + 3) * EVERY_S)
    host.tick()
    assert len(host.take()) == BURST


def test_kernel_leaves_the_collectors_counters_alone():
    gc.collect()
    before = gc.get_count()[0]
    for _ in range(50):
        calibrate.kernel()
    # 50 passes of a container-allocating kernel would cross the
    # generation-0 threshold (700) dozens of times and reset the count
    assert 0 <= gc.get_count()[0] - before < 100
