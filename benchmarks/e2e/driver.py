"""Process containment and the closed-loop driver of one workload.

Every run — one repeat of one workload — is a fresh child process in its
own session.  Cold start is what ``repro train`` / ``repro trace-sim``
users pay, no scheduler memo can carry warmth between repeats, and a
process group of its own is what lets the driver prove nothing was left
running.  One driver, one child at a time, so at most ``nproc`` = 2
processes are ever busy (a pool child's parent waits while its two
workers compute).
"""

from __future__ import annotations

import atexit
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import stats
from benchmarks.e2e.workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: hard limit on one child; a healthy one takes a few seconds
CHILD_TIMEOUT_S = 60.0
#: how long helpers of an exited child (multiprocessing's resource
#: tracker) get to notice and leave before they count as leaked
GRACE_S = 3.0
#: a traced repeat slower than this multiple of the untraced median
#: cannot be trusted for per-layer numbers
MAX_TRACE_OVERHEAD = 1.5
#: traced repeats tried before a run fails on tracing overhead
TRACE_ATTEMPTS = 3
#: untraced repeats per workload; never fewer
MIN_REPEATS = 5

_PR_SET_CHILD_SUBREAPER = 36


def _proc_table() -> Dict[int, Tuple[str, str, int, int]]:
    """pid -> (comm, state, ppid, pgrp) for every process in /proc."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited between listdir and open
        # comm may hold spaces and parentheses: split at the last ")"
        head, _, tail = stat.rpartition(")")
        fields = tail.split()
        table[int(entry)] = (head.partition("(")[2], fields[0], int(fields[1]), int(fields[2]))
    return table


def _describe(pid: int, comm: str) -> str:
    return f"{pid}:{comm}"


class Containment:
    """Owns every process group and shm segment the benchmark creates.

    Use as a context manager around all runs.  Leaving it — normally, on
    an exception, on ``SIGTERM``/``SIGINT``, or at interpreter exit —
    kills every group still registered.
    """

    def __init__(self, grace_s: float = GRACE_S) -> None:
        self.grace_s = grace_s
        self._live: set = set()
        #: every group ever started: the pool's shm slabs are named
        #: ``repro-<pid of the child>-...`` and the child leads its group
        self._started: List[int] = []
        self._old_handlers: Dict[int, Any] = {}

    def __enter__(self) -> "Containment":
        # orphans of our children re-parent to us instead of init, so
        # they stay visible as descendants and we can reap them
        try:
            ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
        except (OSError, AttributeError):
            pass
        atexit.register(self.kill_all)
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._old_handlers[signum] = signal.signal(signum, self._on_signal)
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill_all()
        for signum, handler in self._old_handlers.items():
            signal.signal(signum, handler)
        atexit.unregister(self.kill_all)

    def _on_signal(self, signum, frame) -> None:
        # unwinds through the finally blocks of run(), which reap
        raise SystemExit(128 + signum)

    # -- one child -------------------------------------------------------
    def run(self, argv: Sequence[str], env: Dict[str, str], cwd: str,
            timeout_s: float) -> Dict[str, Any]:
        """Start ``argv`` in a new session, wait, then empty its group.

        Returns ``{spawned, pid, returncode, timed_out, leaked}``; ``leaked``
        names every process that outlived the child and had to be killed.
        """
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, start_new_session=True)
        pgid = proc.pid
        self._live.add(pgid)
        self._started.append(pgid)
        timed_out = False
        try:
            try:
                proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                timed_out = True
        finally:
            leaked = self._empty_group(pgid, kill_now=proc.poll() is None)
            proc.wait()
            self._live.discard(pgid)
        return {"spawned": spawned, "pid": pgid, "returncode": proc.returncode,
                "timed_out": timed_out, "leaked": leaked}

    def _empty_group(self, pgid: int, kill_now: bool) -> List[str]:
        """Wait until the group is empty; SIGKILL and report stragglers."""
        deadline = time.monotonic() + (0.0 if kill_now else self.grace_s)
        while self._group_alive(pgid) and time.monotonic() < deadline:
            time.sleep(0.01)
        if not self._group_alive(pgid):
            return []
        stragglers = [
            _describe(pid, comm)
            for pid, (comm, state, _, pgrp) in _proc_table().items()
            if pgrp == pgid and state != "Z"
        ]
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + 10.0
        while self._group_alive(pgid) and time.monotonic() < deadline:
            time.sleep(0.01)
        return stragglers

    @staticmethod
    def _group_alive(pgid: int) -> bool:
        # adopted orphans that already exited are zombies of ours: reap
        # them first, or the group never reads empty
        while True:
            try:
                pid, _ = os.waitpid(-pgid, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                break
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True
        # only zombies we cannot reap (the direct child, waited by Popen)
        return any(
            pgrp == pgid and state != "Z" for _, state, _, pgrp in _proc_table().values()
        )

    def kill_all(self) -> None:
        """Kill every live group, then drop what the killed left in shm."""
        for pgid in list(self._live):
            self._empty_group(pgid, kill_now=True)
            self._live.discard(pgid)
        self.sweep_shm()

    def sweep_shm(self) -> List[str]:
        """Unlink and name the shm segments our children created.

        A child killed mid-run takes its resource tracker with it, so
        nobody else would ever unlink its slabs.
        """
        prefixes = tuple(f"repro-{pgid}-" for pgid in self._started)
        try:
            names = sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefixes))
        except OSError:
            return []
        for name in names:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass
        return names

    # -- the driver's last act --------------------------------------------
    def leftovers(self) -> List[str]:
        """Living descendants and shm segments that should not exist."""
        found = []
        table = _proc_table()
        me = os.getpid()
        for pid, (comm, state, ppid, _) in table.items():
            ancestor = ppid
            while ancestor in table and ancestor not in (me, 0, 1):
                ancestor = table[ancestor][2]
            if ancestor == me and pid != me and state != "Z":
                found.append("process " + _describe(pid, comm))
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        return found + ["shm " + name for name in self.sweep_shm()]


# ----------------------------------------------------------------------
def child_env(tmp: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]),
        # the pool backend's scratch directories land in the run's temp dir
        TMPDIR=tmp,
    )
    return env


def _run_child(box: Containment, request: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    """One child: write its request, run it contained, read its result."""
    tmp = request["tmp"]
    os.makedirs(tmp, exist_ok=True)
    request_path = os.path.join(tmp, "request.json")
    request["result"] = os.path.join(tmp, "result.json")
    with open(request_path, "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    try:
        outcome = box.run(
            [sys.executable, "-m", "benchmarks.e2e.child", request_path],
            child_env(tmp), tmp, timeout,
        )
        outcome["result"] = None
        if outcome["returncode"] == 0 and os.path.exists(request["result"]):
            with open(request["result"], encoding="utf-8") as fh:
                outcome["result"] = json.load(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    problems = []
    if outcome["timed_out"]:
        problems.append(f"timeout after {timeout:.0f}s")
    elif outcome["returncode"] != 0:
        problems.append(f"exit code {outcome['returncode']}")
    if outcome["leaked"]:
        problems.append("leaked_process " + ",".join(outcome["leaked"]))
    if outcome["result"] is not None and outcome["result"].get("children_left"):
        problems.append("child left multiprocessing children running")
    outcome["problems"] = problems
    return outcome


def _raw_setup_s(outcome: Dict[str, Any]) -> float:
    """Driver timestamp before spawn -> start of the timed region."""
    result = outcome["result"]
    return result["timed_start"] - outcome["spawned"] - result["setup_paused_s"]


def _repeat_row(workload: Workload, outcome: Dict[str, Any]) -> Dict[str, float]:
    """End-to-end metrics of one repeat, by the names users know them.

    Times are in seconds of the calm reference box: measured seconds
    times the repeat's host-speed factor (:mod:`benchmarks.e2e.calibrate`).
    """
    result = outcome["result"]
    timed = result["timed_factor"]
    wall_s = result["wall_s"] * timed
    row = {
        "setup_s": _raw_setup_s(outcome) * result["setup_factor"],
        "wall_s": wall_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "fail_ratio": result["failed"] / result["attempted"],
    }
    if workload.kind == "train":
        row["train.samples_per_s"] = result["work"] / wall_s
        row["train.step_ms_p50"] = stats.percentile(result["step_ms"], 50) * timed
        if result["reconfigure_ms"]:
            row["train.reconfigure_ms_p50"] = (
                stats.percentile(result["reconfigure_ms"], 50) * timed
            )
    else:
        row["sim.events_per_s"] = result["work"] / (result["run_s"] * timed)
        row.update(result["sim"])
    return row


def _reference_failures(workload: Workload, reference: Dict[str, Any]) -> List[str]:
    failures = [f"reference: {p}" for p in reference["problems"]]
    result = reference["result"]
    if workload.kind == "sim" and result is not None:
        if not result["identical"]:
            failures.append(
                "reduced-size batched and reference event logs differ: "
                f"{result['fingerprints'][0]} != {result['fingerprints'][1]}"
            )
        if not result["utilization_agrees"]:
            failures.append(f"gpu_util folds disagree: {result['utilization']}")
    return failures


def _signature(workload: Workload, result: Dict[str, Any]) -> Dict[str, Any]:
    """What every run of one (workload, seed) must reproduce exactly."""
    if workload.kind == "train":
        return {"fingerprint": result["fingerprint"]}
    return {"fingerprint": result["fingerprint"], **result["sim"], **result["plancache"]}


def run_workload(box: Containment, name: str, seed: int, *,
                 repeats: int = MIN_REPEATS, seconds: float = 0.0, traced: bool = True,
                 smoke: bool = False, budget_s: float = 170.0) -> Dict[str, Any]:
    """Reference + untraced repeats (+ one traced) of a workload.

    Untraced repeats are started until there are ``repeats`` of them and
    ``seconds`` have passed since the first was spawned.  Returns the
    workload's entry of ``results.json``: an end-to-end value is the
    median of the repeats.  ``failures`` lists every failed check; a
    failed check fails every operation of its run, a failed reference
    those of all runs.
    """
    workload = WORKLOADS[name]
    deadline = time.monotonic() + budget_s
    OUT.mkdir(exist_ok=True)

    def child(role: str, index: int) -> Dict[str, Any]:
        run = f"{name}.{role}.{index}"
        return _run_child(box, {
            "workload": name, "seed": seed, "smoke": smoke, "role": role, "run": run,
            "tmp": str(OUT / f"tmp-{os.getpid()}-{run}"),
            "spans": str(OUT / f"{name}.spans.jsonl"),
        }, deadline)

    reference = child("reference", 0)
    failures = _reference_failures(workload, reference)
    reference_ok = not failures
    # train runs must match the DDP reference, sim runs each other
    expected = None
    if workload.kind == "train" and reference["result"] is not None:
        expected = {"fingerprint": reference["result"]["fingerprint"]}
    attempted = failed = 0

    def checked(outcome: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Count the run's operations; its result if it produced one."""
        nonlocal expected, attempted, failed
        result, problems = outcome["result"], outcome["problems"]
        if result is None:
            attempted += 1
            failed += 1
            failures.extend(problems)
            return None
        signature = _signature(workload, result)
        if expected is None:
            expected = signature
        if signature != expected:
            problems.append(f"output differs: {signature} != {expected}")
        if workload.kind == "sim" and result["failed"]:
            problems.append(f"{result['failed']} of {result['attempted']} jobs did not complete")
        attempted += result["attempted"]
        failed += result["attempted"] if problems or not reference_ok else result["failed"]
        failures.extend(problems)
        return result

    untraced = []
    measure_until = time.monotonic() + seconds
    started = 0
    while started < repeats or time.monotonic() < min(measure_until, deadline):
        outcome = child("repeat", started)
        started += 1
        if checked(outcome):
            untraced.append(outcome)
    rows = [_repeat_row(workload, o) for o in untraced]
    entry: Dict[str, Any] = {
        "kind": workload.kind,
        "sizes": workload.smoke if smoke else workload.sizes,
        "end_to_end": {},
        "per_layer": {},
    }
    if rows:
        headline = {
            metric: statistics.median(row[metric] for row in rows if metric in row)
            for metric in dict.fromkeys(metric for row in rows for metric in row)
        }

        def pooled(key: str) -> List[float]:
            """Percentiles pool the steps of all repeats, each at its host's speed."""
            return [ms * o["result"]["timed_factor"]
                    for o in untraced for ms in o["result"].get(key, [])]

        steps, reconfigures = pooled("step_ms"), pooled("reconfigure_ms")
        if steps:
            headline["train.step_ms_p50"] = stats.percentile(steps, 50)
        if reconfigures:
            headline["train.reconfigure_ms_p50"] = stats.percentile(reconfigures, 50)
        tail = stats.tail_percentile(len(steps))
        if tail is not None:
            entry["tail"] = {"metric": "train.step_ms", "percentile": tail,
                             "value": stats.percentile(steps, tail), "samples": len(steps)}
        for metric, value in headline.items():
            entry["end_to_end"][metric] = {
                "value": value, "repeats": [row[metric] for row in rows if metric in row],
            }
        # what the clock read, and how fast the host was while it did
        entry["measured"] = {
            "setup_s": [_raw_setup_s(o) for o in untraced],
            "wall_s": [o["result"]["wall_s"] for o in untraced],
            "host_factor": [o["result"]["timed_factor"] for o in untraced],
        }

    if traced and rows:
        # one traced repeat against the untraced median is one noisy
        # sample: a repeat over the limit is retried before the run fails
        typical_wall_s = headline["wall_s"]
        for attempt in range(TRACE_ATTEMPTS):
            result = checked(child("traced", attempt))
            if result is None:
                break
            ratio = result["wall_s"] * result["timed_factor"] / typical_wall_s
            entry["per_layer"] = dict(result["layer"], trace_overhead_ratio=ratio)
            if ratio <= MAX_TRACE_OVERHEAD or smoke:
                break
        else:
            failures.append(
                f"traced repeat ran {ratio:.2f}x the untraced median in each of "
                f"{TRACE_ATTEMPTS} attempts (limit {MAX_TRACE_OVERHEAD})"
            )
            failed = attempted

    entry.update(
        attempted=max(attempted, 1), failed=failed,
        failures=[f"{name}: {f}" for f in failures], signature=expected,
    )
    entry["end_to_end"]["fail_ratio"] = {
        "value": failed / max(attempted, 1),
        "repeats": [row["fail_ratio"] for row in rows],
    }
    return entry
