"""Engine telemetry: step records, scale events, file mirroring."""

import pytest

from repro.core import EasyScaleEngine, EasyScaleJobConfig, WorkerAssignment
from repro.hw import V100
from repro.models import get_workload
from repro.utils.telemetry import RunLog

from tests.conftest import sgd_factory


@pytest.fixture(scope="module")
def spec():
    return get_workload("resnet18")


@pytest.fixture(scope="module")
def dataset(spec):
    return spec.build_dataset(64, seed=1)


def make_engine(spec, dataset, log):
    config = EasyScaleJobConfig(num_ests=2, seed=1, batch_size=4)
    return EasyScaleEngine(
        spec,
        dataset,
        config,
        sgd_factory(),
        WorkerAssignment.balanced([V100] * 2, 2),
        telemetry=log,
    )


class TestEngineTelemetry:
    def test_step_records(self, spec, dataset):
        log = RunLog()
        engine = make_engine(spec, dataset, log)
        engine.train_steps(3)
        steps = log.of_kind("step")
        assert [r.step for r in steps] == [0, 1, 2]
        assert all(len(r.data["losses"]) == 2 for r in steps)
        assert all("sim_time" in r.data for r in steps)

    def test_scale_events_logged_across_reconfigure(self, spec, dataset):
        log = RunLog()
        engine = make_engine(spec, dataset, log)
        engine.train_steps(2)
        engine = engine.reconfigure(WorkerAssignment.balanced([V100], 2))
        engine.train_steps(1)
        events = log.of_kind("scale_event")
        assert len(events) == 2  # initial build + reconfigure
        assert events[0].data["gpus"] == ["V100", "V100"]
        assert events[1].data["gpus"] == ["V100"]
        assert events[1].step == 2

    def test_telemetry_survives_reconfigure(self, spec, dataset):
        log = RunLog()
        engine = make_engine(spec, dataset, log)
        engine.train_steps(1)
        resumed = engine.reconfigure(WorkerAssignment.balanced([V100], 2))
        assert resumed.telemetry is log

    def test_file_mirroring(self, spec, dataset, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLog(path) as log:
            engine = make_engine(spec, dataset, log)
            engine.train_steps(2)
        loaded = RunLog.load(path)
        assert len(loaded.of_kind("step")) == 2
        assert len(loaded.loss_series()) == 2

    def test_no_telemetry_is_fine(self, spec, dataset):
        config = EasyScaleJobConfig(num_ests=2, seed=1, batch_size=4)
        engine = EasyScaleEngine(
            spec, dataset, config, sgd_factory(), WorkerAssignment.balanced([V100] * 2, 2)
        )
        engine.train_steps(1)  # no error without a sink


class TestScaleEventSpans:
    """The span stream and the flight ring name the layer that did the
    work: a graceful scale event is ``engine.reconfigure`` — no checkpoint
    is saved or restored — and a batch is a ``data.load``."""

    def test_reconfigure_and_load_spans(self, spec, dataset):
        from repro import obs
        from repro.faults.manager import CheckpointManager
        from repro.obs import flightrec

        obs.configure(enabled=True)
        try:
            engine = make_engine(spec, dataset, None)
            engine.train_steps(1)
            engine = engine.reconfigure(WorkerAssignment.balanced([V100], 2))
            engine.train_steps(1)
            spans = obs.tracer().records
            ring = [event["kind"] for event in flightrec.recorder().events]

            reconfigure = [r for r in spans if r["name"] == "engine.reconfigure"]
            assert [r["args"] for r in reconfigure] == [{"step": 1, "gpus": ["V100"]}]
            scale_events = [r for r in spans if r["name"] == "engine.scale_event"]
            assert [r["args"]["step"] for r in scale_events] == [0, 1]
            loads = [r["args"] for r in spans if r["name"] == "data.load"]
            assert loads == [
                {"vrank": v, "epoch": 0, "step": s} for s in (0, 1) for v in (0, 1)
            ]
            assert all(
                r["path"].endswith("worker.local_step;data.load")
                for r in spans if r["name"] == "data.load"
            )
            checkpointing = {"engine.checkpoint_save", "engine.checkpoint_restore"}
            assert not checkpointing & ({r["name"] for r in spans} | set(ring))

            # ... and both still fire where a checkpoint really is taken
            manager = CheckpointManager()
            EasyScaleEngine.from_checkpoint(
                spec, dataset, manager.decode(manager.take(engine)), sgd_factory(),
                WorkerAssignment.balanced([V100], 2),
            )
            names = {r["name"] for r in obs.tracer().records}
            ring = {event["kind"] for event in flightrec.recorder().events}
            assert checkpointing <= names and checkpointing <= ring
        finally:
            obs.reset()
