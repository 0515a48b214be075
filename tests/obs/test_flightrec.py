"""Flight recorder: ring bounds, postmortem bundles, crash evidence.

The headline contract (ISSUE 7 acceptance): an injected ``worker_crash``
with **tracing off** still produces a postmortem bundle naming the
failing step, worker, and active kernel dialect — because the flight
recorder is always on, unlike every other obs surface.
"""

import os

import pytest

from repro import obs
from repro.core import (
    EasyScaleEngine,
    EasyScaleJobConfig,
    WorkerAssignment,
    determinism_from_label,
)
from repro.faults import EventPlan, PlanEvent, StepDeliverer, WorkerCrashSignal
from repro.hw import gpu_type
from repro.models import get_workload
from repro.obs import flightrec
from tests.conftest import sgd_factory


# ---------------------------------------------------------------------------
# ring mechanics
# ---------------------------------------------------------------------------


def test_ring_is_bounded_and_keeps_newest():
    rec = flightrec.FlightRecorder(ring_size=4)
    for i in range(10):
        rec.record("engine.step", step=i)
    events = rec.events
    assert len(events) == 4
    assert [e["step"] for e in events] == [6, 7, 8, 9]
    assert rec.seq == 10


def test_audit_tail_is_bounded(tmp_path):
    rec = flightrec.FlightRecorder(audit_keep=3)
    for i in range(7):
        rec.note_audit({"step": i, "params": f"fp{i}"})
    assert [a["step"] for a in rec.audits] == [4, 5, 6]


def test_disabled_recorder_records_nothing():
    rec = flightrec.FlightRecorder(enabled=False)
    rec.record("engine.step", step=0)
    rec.note_audit({"step": 0})
    assert len(rec) == 0 and not rec.audits


def test_reserved_keys_win_over_payload_fields():
    rec = flightrec.FlightRecorder()
    rec.record("fault.detect", fault="worker_crash", seq=999)
    event = rec.events[-1]
    assert event["kind"] == "fault.detect"
    assert event["fault"] == "worker_crash"
    assert event["seq"] == 1  # payload cannot forge the sequence number


def test_context_merges():
    rec = flightrec.FlightRecorder()
    rec.set_context(determinism="D1")
    rec.set_context(dialects=["v100"])
    assert rec.context == {"determinism": "D1", "dialects": ["v100"]}


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------


def test_dump_writes_self_contained_bundle(tmp_path):
    rec = flightrec.FlightRecorder(directory=str(tmp_path))
    rec.set_context(determinism="D1+D2", dialects=["v100", "t4"])
    for i in range(5):
        rec.record("engine.step", step=i)
    rec.note_audit({"step": 4, "params": "fp", "policy": "D1+D2",
                    "dialects": ["v100", "t4"]})
    path = rec.dump("test_reason")
    assert os.path.basename(path) == "postmortem-4.json"
    bundle = flightrec.load_bundle(path)
    assert bundle["version"] == flightrec.BUNDLE_FORMAT_VERSION
    assert bundle["reason"] == "test_reason"
    assert bundle["step"] == 4
    assert bundle["context"]["determinism"] == "D1+D2"
    assert [e["step"] for e in bundle["events"]] == [0, 1, 2, 3, 4]
    assert bundle["audits"][-1]["policy"] == "D1+D2"
    assert bundle["machine"]["python"]
    assert "git_sha" in bundle and "env" in bundle
    rendered = flightrec.render_bundle(bundle)
    assert "reason=test_reason" in rendered and "step=4" in rendered


def test_dump_collision_appends_suffix(tmp_path):
    rec = flightrec.FlightRecorder(directory=str(tmp_path))
    rec.record("engine.step", step=1)
    first = rec.dump("a")
    second = rec.dump("b")
    assert first != second
    assert os.path.exists(first) and os.path.exists(second)
    assert flightrec.load_bundle(second)["reason"] == "b"


def test_dump_env_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv(flightrec.POSTMORTEM_DIR_ENV, str(tmp_path / "pm"))
    (tmp_path / "pm").mkdir()
    rec = flightrec.FlightRecorder()  # no explicit directory
    rec.record("engine.step", step=7)
    path = rec.dump("env_dir")
    assert str(tmp_path / "pm") in path


def test_load_bundle_rejects_non_bundles(tmp_path):
    trail = tmp_path / "audit.jsonl"
    trail.write_text('{"step": 0, "params": "x"}\n{"step": 1, "params": "y"}\n')
    with pytest.raises(ValueError):
        flightrec.load_bundle(str(trail))
    assert not flightrec.is_bundle_file(str(trail))
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json at all")
    with pytest.raises(ValueError):
        flightrec.load_bundle(str(garbage))


def test_bundle_includes_open_spans_when_obs_enabled(tmp_path):
    rec = flightrec.FlightRecorder(directory=str(tmp_path))
    obs.configure(enabled=True)
    try:
        with obs.span("engine.global_step", cat="engine", step=3):
            rec.record("engine.step", step=3)
            path = rec.dump("mid_span")
    finally:
        obs.reset()
    bundle = flightrec.load_bundle(path)
    assert [s["name"] for s in bundle["open_spans"]] == ["engine.global_step"]
    assert bundle["metrics"] is not None


# ---------------------------------------------------------------------------
# export / ingest (pool-child merge path)
# ---------------------------------------------------------------------------


def test_flush_and_collect_shards_roundtrip():
    child = flightrec.FlightRecorder()
    child.record("exec.child_local_step", vrank=0)
    child.record("exec.child_local_step", vrank=1)
    first = child.export()
    assert [e["vrank"] for e in first] == [0, 1]
    # a second export with nothing new ships nothing
    assert child.export() == []
    child.record("exec.child_local_step", vrank=2)
    second = child.export()

    parent = flightrec.FlightRecorder()
    parent.record("engine.step", step=0)
    parent.ingest([dict(e, pid=123) for e in first + second])
    events = parent.events
    assert [e.get("vrank") for e in events if "vrank" in e] == [0, 1, 2]
    assert all(e["pid"] == 123 for e in events if "vrank" in e)
    assert [e["seq"] for e in events] == [1, 2, 3, 4]  # re-sequenced
    assert parent.seq == 4


def test_dump_merges_attached_shard_dirs(tmp_path):
    # what a child exported before the parent's dump is in the bundle
    child = flightrec.FlightRecorder()
    child.record("exec.child_local_step", vrank=5)
    parent = flightrec.FlightRecorder(directory=str(tmp_path))
    parent.ingest(child.export())
    parent.record("engine.step", step=2)
    bundle = flightrec.load_bundle(parent.dump("merge"))
    vranks = [e.get("vrank") for e in bundle["events"] if "vrank" in e]
    assert vranks == [5]


# ---------------------------------------------------------------------------
# the acceptance contract: crash with tracing OFF leaves evidence
# ---------------------------------------------------------------------------


def test_worker_crash_with_tracing_off_names_step_worker_dialect(tmp_path):
    flightrec.configure(directory=str(tmp_path))
    assert not obs.is_enabled()  # tracing is OFF — the point of the test

    spec = get_workload("resnet18")
    dataset = spec.build_dataset(32, seed=7)
    config = EasyScaleJobConfig(
        num_ests=2, seed=0, batch_size=4,
        determinism=determinism_from_label("D1+D2"),
    )
    plan = EventPlan(
        seed=0,
        events=(PlanEvent("worker_crash", at_step=2, target="worker:1"),),
    )
    engine = EasyScaleEngine(
        spec, dataset, config, sgd_factory(),
        WorkerAssignment.balanced([gpu_type("V100"), gpu_type("T4")], 2),
        fault_injector=StepDeliverer(plan),
    )
    engine.run_global_step()
    engine.run_global_step()
    with pytest.raises(WorkerCrashSignal):
        engine.run_global_step()

    path = flightrec.recorder().last_dump
    assert path is not None and os.path.exists(path)
    bundle = flightrec.load_bundle(path)
    crash = bundle["crash"]
    assert crash["step"] == 2
    assert crash["worker"] == 1
    assert crash["kind"] == "worker_crash"
    assert crash["dialect"] == "t4"  # worker 1 sits on the T4
    assert bundle["context"]["determinism"] == "D1+D2"
    # the ring shows the preceding healthy steps and the detection
    kinds = [e["kind"] for e in bundle["events"]]
    assert "engine.step" in kinds
    assert "fault.detect" in kinds
    assert "engine.crash" in kinds
    rendered = flightrec.render_bundle(bundle)
    assert "worker=1" in rendered and "dialect=t4" in rendered
