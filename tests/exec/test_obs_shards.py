"""Cross-process observability: ObsConfig bootstrap, child export/merge.

The pool backend's children are separate processes, so the parent's
module-level ``repro.obs`` switch does not reach them for free.  The
contract under test: the parent ships an :class:`~repro.obs.ObsConfig`
snapshot with every task, children bootstrap from it and return an
:func:`~repro.obs.export_child` payload with each task result, and the
parent folds every payload back (:func:`~repro.obs.merge_child`) so one
saved trace covers every process that did work — with each child on its
own Chrome process lane and its metrics keyed apart by a ``pid`` label.
Child metrics ship as deltas, so reading them mid-run never double-counts.
"""

import dataclasses
import multiprocessing
import os

import pytest

from repro import obs
from repro.core import (
    EasyScaleEngine,
    EasyScaleJobConfig,
    WorkerAssignment,
    determinism_from_label,
)
from repro.exec import ProcessPoolBackend
from repro.hw import gpu_type
from repro.models import get_workload
from repro.obs import flightrec
from tests.conftest import sgd_factory

POOL = ["V100", "V100", "T4", "T4"]
#: worker 0 (vranks 0, 1) runs in the parent; workers 1 and 2 (vranks 2
#: and 3) are the two children
THREE = ["V100", "V100", "T4"]
PARENT_VRANKS, CHILD_VRANKS = [0, 1], [2, 3]


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def env():
    spec = get_workload("resnet18")
    dataset = spec.build_dataset(64, seed=7)
    config = EasyScaleJobConfig(
        num_ests=4, seed=0, batch_size=8,
        determinism=determinism_from_label("D1+D2"),
    )
    return spec, dataset, config


def _engine(env, backend, gpus=POOL):
    spec, dataset, config = env
    return EasyScaleEngine(
        spec, dataset, config, sgd_factory(),
        WorkerAssignment.balanced([gpu_type(n) for n in gpus], 4),
        backend=backend,
    )


def _child_sum(prefix, field="counters"):
    """Sum of the parent's ``pid``-labelled child series named ``prefix``."""
    series = obs.metrics().snapshot()[field]
    picked = {k: v for k, v in series.items() if k.startswith(prefix)}
    assert all('pid="' in key for key in picked)
    return sum(picked.values())


def _parent_local_steps(events):
    """Worker 0's ``worker.local_step`` flight events on the parent lane."""
    steps = [e for e in events if e["kind"] == "worker.local_step"]
    assert all("pid" not in e and e["worker"] == 0 for e in steps)
    return [e["vrank"] for e in steps]


# ---------------------------------------------------------------------------
# ObsConfig snapshot / bootstrap
# ---------------------------------------------------------------------------


class TestConfigSnapshot:
    def test_snapshot_carries_the_switch_and_shard_dir(self):
        # the switch and the clock travel; where a child writes is no
        # longer a setting — its observability rides the task result
        obs.configure(enabled=True, clock="sim")
        snap = obs.config_snapshot()
        assert snap.enabled and snap.clock == "sim"
        assert "shard_dir" not in {f.name for f in dataclasses.fields(obs.ObsConfig)}

    def test_configure_from_is_idempotent_per_generation(self):
        obs.configure(enabled=True)
        snap = obs.config_snapshot()
        obs.configure_from(snap)
        tracer = obs.tracer()
        with obs.span("first"):
            pass
        obs.configure_from(snap)  # same generation: must NOT reinstall
        assert obs.tracer() is tracer
        assert len(obs.tracer()) == 1

    def test_configure_from_none_disables_a_bootstrapped_child(self):
        obs.configure(enabled=True)
        obs.configure_from(obs.config_snapshot())
        assert obs.is_enabled()
        obs.configure_from(None)  # parent turned obs off
        assert not obs.is_enabled()

    def test_snapshot_is_picklable(self):
        import pickle

        obs.configure(enabled=True)
        snap = obs.config_snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap


# ---------------------------------------------------------------------------
# export / merge round trip (single process, synthetic payloads)
# ---------------------------------------------------------------------------


class TestFlushAndCollect:
    def test_flush_writes_pid_stamped_spans_and_metrics(self):
        obs.configure(enabled=True)
        with obs.span("child_work"):
            pass
        obs.metrics().counter("work_total").inc(3)
        payload = obs.export_child()
        pid = os.getpid()
        assert payload["pid"] == pid
        assert [r["name"] for r in payload["spans"]] == ["child_work"]
        assert payload["spans"][0]["pid"] == pid
        assert any(row["name"] == "work_total" for row in payload["metrics"])
        # the export hands the metrics over: the child keeps counting from 0
        assert obs.metrics().snapshot()["counters"] == {}

    def test_reflush_does_not_duplicate_spans(self):
        obs.configure(enabled=True)
        with obs.span("once"):
            pass
        obs.metrics().counter("work_total").inc()
        assert len(obs.export_child()["spans"]) == 1
        again = obs.export_child()  # nothing new emitted: watermark holds
        assert again["spans"] == [] and again["metrics"] == []

    def test_flush_without_shard_dir_is_noop(self):
        # obs off: no spans, no metrics — but the always-on flight ring
        # still ships its new events
        flightrec.reset()
        flightrec.record("exec.child_local_step", vrank=0)
        payload = obs.export_child()
        assert payload["spans"] == [] and payload["metrics"] == []
        assert [e["vrank"] for e in payload["flight"]] == [0]
        assert obs.export_child()["flight"] == []

    def test_collect_merges_and_consumes(self):
        obs.configure(enabled=True)
        flightrec.reset()
        # forge two children's payloads
        for fake_pid in (111, 222):
            obs.merge_child({
                "pid": fake_pid,
                "spans": [{"kind": "span", "name": "child_step", "path": "child_step",
                           "t0": 0.0, "t1": 1.0, "pid": fake_pid}],
                "metrics": [{"kind": "counter", "name": "child_steps_total",
                             "labels": {}, "value": 2}],
                "flight": [{"kind": "exec.child_local_step", "seq": 1, "pid": fake_pid}],
            })
        pids = {r.get("pid") for r in obs.tracer().records}
        assert pids == {111, 222}
        counters = obs.metrics().snapshot()["counters"]
        assert counters['child_steps_total{pid="111"}'] == 2
        assert counters['child_steps_total{pid="222"}'] == 2
        events = flightrec.recorder().events
        assert [e["pid"] for e in events] == [111, 222]
        assert [e["seq"] for e in events] == [1, 2]  # re-sequenced into the ring


# ---------------------------------------------------------------------------
# the real thing: a pool run whose merged trace spans >= 2 child pids
# ---------------------------------------------------------------------------


def test_pool_run_merges_spans_from_multiple_children(env):
    obs.configure(enabled=True)
    with ProcessPoolBackend(max_workers=2) as backend:
        _engine(env, backend, gpus=THREE).train_steps(2)
        # merged as each step returned, not on close()
        assert _child_sum("exec_child_local_steps_total") == len(CHILD_VRANKS) * 2

    records = obs.tracer().records
    child_spans = [r for r in records if r["name"] == "exec.child_local_step"]
    child_pids = {r["pid"] for r in child_spans}
    assert len(child_pids) == 2  # sticky slots: one process lane per child
    # every child-hosted EST's local step of every global step appears once
    assert sorted(r["args"]["vrank"] for r in child_spans) == sorted(CHILD_VRANKS * 2)
    # child metrics arrive keyed by pid, summing to the dispatched steps
    assert _child_sum("exec_child_local_steps_total") == len(CHILD_VRANKS) * 2
    # worker 0 ran in the parent: its local steps are spans on the parent
    # lane (no pid) and its counter carries no pid label
    own_spans = [r for r in records if r["name"] == "worker.local_step"]
    assert sorted(r["args"]["vrank"] for r in own_spans) == sorted(PARENT_VRANKS * 2)
    assert all(r.get("pid", 0) == 0 and r["args"]["worker"] == 0 for r in own_spans)
    counters = obs.metrics().snapshot()["counters"]
    assert counters['worker_local_steps_total{gpu="V100"}'] == len(PARENT_VRANKS) * 2

    # the merged record set exports as one Chrome trace with a lane per pid
    chrome = obs.tracer().to_chrome_trace()
    lanes = {e["args"]["name"] for e in chrome["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert "parent" in lanes
    assert sum(1 for lane in lanes if lane.startswith("pool worker pid ")) == 2


def test_pool_with_obs_disabled_leaves_no_shards(env, monkeypatch):
    # with obs off a child's payload carries its flight events and
    # nothing else; capture what the parent merges
    payloads = []
    monkeypatch.setattr(obs, "merge_child", payloads.append)
    flightrec.reset()
    with ProcessPoolBackend(max_workers=2) as backend:
        _engine(env, backend, gpus=THREE).train_steps(1)
    assert len(payloads) == len(THREE) - 1  # one per dispatched worker task
    for payload in payloads:
        assert payload["spans"] == [] and payload["metrics"] == []
        assert [e["kind"] for e in payload["flight"]] == ["exec.child_local_step"]
        assert all(e["pid"] == payload["pid"] for e in payload["flight"])
    assert sorted(e["vrank"] for p in payloads for e in p["flight"]) == CHILD_VRANKS
    # worker 0's evidence never left the parent: its own ring holds it
    assert _parent_local_steps(flightrec.recorder().events) == PARENT_VRANKS


# ---------------------------------------------------------------------------
# regressions: metrics read mid-run, and a failing child's evidence
# ---------------------------------------------------------------------------


def _fork_only():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method to patch the children")


def test_child_metrics_do_not_double_count_when_read_mid_run(env, monkeypatch):
    """Children used to re-ship their cumulative metrics on every flush,
    so reading after each of two steps gave 2 then 6; deltas give 2, 4.
    Worker 0's own series, kept in the parent, count 2 then 4 as well."""
    _fork_only()
    import repro.core.worker as worker_mod

    real = worker_mod.execute_local_step

    def probed(*args, **kwargs):
        obs.metrics().gauge("child_probe").set(float("nan"))  # a nonfinite
        return real(*args, **kwargs)

    # installed before the pool forks, so every child runs the probe (and
    # so does the parent, for worker 0)
    monkeypatch.setattr(worker_mod, "execute_local_step", probed)
    obs.configure(enabled=True)

    def nonfinite(in_children):
        return sum(row["nonfinite"] for row in obs.metrics().to_state()
                   if row["name"] == "child_probe"
                   and ("pid" in row["labels"]) == in_children)

    def own_steps():
        return obs.metrics().snapshot()["counters"]['worker_local_steps_total{gpu="V100"}']

    backend = ProcessPoolBackend(max_workers=2, start_method="fork")
    engine = _engine(env, backend, gpus=THREE)
    engine.train_steps(1)
    assert _child_sum("exec_child_local_steps_total") == 2
    assert nonfinite(in_children=True) == 2
    assert (own_steps(), nonfinite(in_children=False)) == (2, 2)
    engine.train_steps(1)
    assert _child_sum("exec_child_local_steps_total") == 4
    assert nonfinite(in_children=True) == 4
    assert (own_steps(), nonfinite(in_children=False)) == (4, 4)
    backend.close()
    assert _child_sum("exec_child_local_steps_total") == 4
    assert nonfinite(in_children=True) == 4
    assert (own_steps(), nonfinite(in_children=False)) == (4, 4)


class _ChildBoom(RuntimeError):
    pass


def _run_failing_step(env, monkeypatch, tmp_path, failing_vrank):
    """One step over THREE whose ``failing_vrank`` raises in its local
    step, wherever it runs; returns the postmortem bundle."""
    _fork_only()
    import repro.core.worker as worker_mod

    real = worker_mod.execute_local_step

    def flaky(*args, **kwargs):
        # each side records which EST it is about to run just before this call
        if flightrec.recorder().events[-1]["vrank"] == failing_vrank:
            raise _ChildBoom("injected local-step failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(worker_mod, "execute_local_step", flaky)
    monkeypatch.setenv(flightrec.POSTMORTEM_DIR_ENV, str(tmp_path))
    flightrec.reset()
    backend = ProcessPoolBackend(max_workers=2, start_method="fork")
    try:
        engine = _engine(env, backend, gpus=THREE)
        with pytest.raises(_ChildBoom):
            engine.train_steps(1)
    finally:
        backend.close()

    bundle = flightrec.load_bundle(flightrec.recorder().last_dump)
    assert bundle["exception"]["type"] == "_ChildBoom"
    return bundle


def _child_lanes(bundle):
    child_events = [e for e in bundle["events"] if e["kind"] == "exec.child_local_step"]
    assert sorted(e["vrank"] for e in child_events) == CHILD_VRANKS
    by_worker = {e["worker"]: e["pid"] for e in child_events}
    return by_worker


def test_failed_child_task_reaches_the_postmortem(env, monkeypatch, tmp_path):
    """A child whose local step raises still ships its flight events, and
    the parent waits for the sibling task before re-raising: the crash
    bundle holds evidence from both children of the step, and worker 0's
    from the parent."""
    bundle = _run_failing_step(env, monkeypatch, tmp_path, failing_vrank=3)
    by_worker = _child_lanes(bundle)
    # the failed child's events and its succeeding sibling's, each its own pid
    assert set(by_worker) == {1, 2} and len(set(by_worker.values())) == 2
    assert _parent_local_steps(bundle["events"]) == PARENT_VRANKS


def test_failed_parent_worker_waits_for_every_child(env, monkeypatch, tmp_path):
    """Worker 0 raising in the parent does not abandon the dispatched
    tasks: the parent collects both children (no slab is unmapped under a
    running one) before re-raising, so the bundle holds their events."""
    bundle = _run_failing_step(env, monkeypatch, tmp_path, failing_vrank=1)
    by_worker = _child_lanes(bundle)
    assert set(by_worker) == {1, 2} and len(set(by_worker.values())) == 2
    # the parent got as far as the failing EST, and no further
    assert _parent_local_steps(bundle["events"]) == PARENT_VRANKS
    crash = [e for e in bundle["events"] if e["kind"] == "engine.crash"]
    assert [e["step"] for e in crash] == [0]
