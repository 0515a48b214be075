"""The leak detector must fire on an orphan and stay quiet on a clean child."""

import os
import signal
import subprocess
import sys
import time

from benchmarks.e2e.driver import Containment, _proc_table
from conftest import ROOT


def run(box, script):
    return box.run(["sh", "-c", script], dict(os.environ), str(ROOT), timeout_s=20.0)


def alive(comm_and_arg):
    return [pid for pid, (comm, state, _, _) in _proc_table().items()
            if comm == comm_and_arg and state != "Z"]


def test_clean_child_leaves_nothing():
    with Containment(grace_s=0.5) as box:
        outcome = run(box, "exit 3")
        assert outcome["returncode"] == 3
        assert outcome["leaked"] == [] and not outcome["timed_out"]
        assert box.leftovers() == []


def test_orphaned_sleep_is_detected_killed_and_reported():
    with Containment(grace_s=0.3) as box:
        before = set(alive("sleep"))
        outcome = run(box, "sleep 300 & exit 0")
        assert outcome["returncode"] == 0
        assert len(outcome["leaked"]) == 1 and outcome["leaked"][0].endswith(":sleep")
        assert set(alive("sleep")) == before  # the straggler was killed
        assert box.leftovers() == []


def test_helper_that_exits_within_the_grace_period_is_not_a_leak():
    with Containment(grace_s=3.0) as box:
        outcome = run(box, "sleep 0.3 & exit 0")
        assert outcome["leaked"] == []


def test_timeout_kills_the_whole_group():
    with Containment(grace_s=0.3) as box:
        before = set(alive("sleep"))
        started = time.monotonic()
        outcome = box.run(["sh", "-c", "sleep 300 & sleep 300"], dict(os.environ),
                          str(ROOT), timeout_s=0.5)
        assert outcome["timed_out"] and len(outcome["leaked"]) >= 2
        assert time.monotonic() - started < 10
        assert set(alive("sleep")) == before


def test_escaped_session_and_stray_shm_show_up_in_the_last_scan():
    with Containment(grace_s=0.3) as box:
        # setsid moves the sleeper out of the run's group: only the
        # descendant scan can still see it
        outcome = run(box, "setsid sleep 300 & exit 0")
        assert outcome["leaked"] == []
        # the name the pool backend of that child would have given a slab
        name = f"repro-{outcome['pid']}-1-s"
        with open(f"/dev/shm/{name}", "w"):
            pass
        found = box.leftovers()
        assert any(item.endswith(":sleep") for item in found)
        assert f"shm {name}" in found
        assert not os.path.exists(f"/dev/shm/{name}")
        time.sleep(0.1)
        assert box.leftovers() == []


def test_sigterm_to_the_driver_leaves_no_child_behind():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    shm_before = set(os.listdir("/dev/shm"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--smoke", "--repeats", "1",
         "--workload", "train_wide_pool", "--workload", "sim_contended"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # wait for a child to exist: the driver is then inside its Containment
    deadline = time.monotonic() + 20.0
    while not _children_of_the_benchmark() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _children_of_the_benchmark()
    time.sleep(0.3)  # let a pool child get as far as its workers
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    deadline = time.monotonic() + 5.0
    while True:
        leftover = _children_of_the_benchmark()
        if not leftover or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    assert leftover == []
    assert set(os.listdir("/dev/shm")) <= shm_before


def _children_of_the_benchmark():
    return [pid for pid in _proc_table() if b"\0benchmarks.e2e.child\0" in _cmdline(pid)]


def _cmdline(pid):
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read()
    except OSError:
        return b""
