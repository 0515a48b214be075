"""Reconfiguration at *every* step of an epoch preserves all training state.

The elastic claim is position-independent: scaling at an epoch boundary is
the easy case, so this suite reconfigures at each interior step of a small
epoch and checks that the dataloader cursor, the per-EST RNG streams, and
the BatchNorm statistics all survive bitwise — and that continuing to a
common horizon lands on a model identical to the never-reconfigured run.
The second half holds the live hand-over equal, at every step index, to a
twin that scaled through a checkpoint (the route fault recovery takes), and
checks that a refused assignment leaves no trace.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    Checkpoint,
    EasyScaleEngine,
    EasyScaleJobConfig,
    WorkerAssignment,
    determinism_from_label,
)
from repro.data.transforms import default_image_augmentation
from repro.exec import ProcessPoolBackend
from repro.hw import gpu_type
from repro.hw.memory import OutOfMemoryError
from repro.models import get_workload
from repro.obs import fingerprint_rng_states, flightrec
from repro.optim.lr_scheduler import StepLR
from repro.utils.fingerprint import fingerprint_state_dict
from repro.utils.serialization import deep_equal
from repro.utils.telemetry import RunLog
from tests.conftest import sgd_factory

TOTAL_STEPS = 8  # two epochs of four global steps each


@pytest.fixture(scope="module")
def env():
    spec = get_workload("resnet18")
    dataset = spec.build_dataset(32, seed=7)
    # 32 samples / (batch 4 x 2 ESTs) = 4 global steps per epoch
    config = EasyScaleJobConfig(num_ests=2, seed=0, batch_size=4)
    return spec, dataset, config


def _engine(env, num_gpus):
    spec, dataset, config = env
    return EasyScaleEngine(
        spec, dataset, config, sgd_factory(),
        WorkerAssignment.balanced([gpu_type("V100")] * num_gpus, 2),
    )


def _rng_fingerprint(engine):
    return fingerprint_rng_states([est.rng.get_state() for est in engine.ests])


def _bn_buffers(engine):
    state = engine.model.state_dict()
    buffers = {k: v for k, v in state.items() if "running" in k}
    assert buffers, "model exposes no BatchNorm running statistics"
    return buffers


@pytest.fixture(scope="module")
def reference(env):
    engine = _engine(env, num_gpus=2)
    losses = engine.train_steps(TOTAL_STEPS)
    return {
        "losses": losses,
        "params": fingerprint_state_dict(engine.model.state_dict()),
        "rng": _rng_fingerprint(engine),
        "bn": _bn_buffers(engine),
        "cursor": (engine.epoch, engine.step_in_epoch),
    }


@pytest.mark.parametrize("step", range(4))
def test_reconfigure_at_every_epoch_position(env, reference, step):
    engine = _engine(env, num_gpus=2)
    assert engine.steps_per_epoch == 4
    losses = engine.train_steps(step)

    before = {
        "cursor": (engine.epoch, engine.step_in_epoch),
        "rng": _rng_fingerprint(engine),
        "params": fingerprint_state_dict(engine.model.state_dict()),
    }
    engine = engine.reconfigure(
        WorkerAssignment.balanced([gpu_type("V100")], 2)
    )

    # the handoff itself moves nothing: cursor, RNG streams, and weights
    # are bitwise what they were on the old allocation
    assert (engine.epoch, engine.step_in_epoch) == before["cursor"]
    assert _rng_fingerprint(engine) == before["rng"]
    assert fingerprint_state_dict(engine.model.state_dict()) == before["params"]

    losses += engine.train_steps(TOTAL_STEPS - step)

    assert losses == reference["losses"]
    assert fingerprint_state_dict(engine.model.state_dict()) == reference["params"]
    assert _rng_fingerprint(engine) == reference["rng"]
    assert (engine.epoch, engine.step_in_epoch) == reference["cursor"]
    for name, expected in reference["bn"].items():
        np.testing.assert_array_equal(
            _bn_buffers(engine)[name], expected,
            err_msg=f"BN statistic {name} diverged after step-{step} rescale",
        )


# ----------------------------------------------------------------------
# the live hand-over equals the serialised round trip, at every step
# ----------------------------------------------------------------------
# ``reconfigure`` no longer goes through a checkpoint, so the checkpoint
# route — what fault recovery and a restart from disk still take — is the
# oracle: a twin that scales by ``checkpoint → bytes → from_checkpoint``
# must be indistinguishable from the engine that handed its state over.

MORE_STEPS = 2


@dataclasses.dataclass(frozen=True)
class Case:
    model: str
    determinism: str
    before: tuple  # GPU names of the starting allocation
    after: tuple  # ... and of the one scaled to
    num_ests: int = 2
    pool: bool = False  # ProcessPoolBackend
    augment: bool = False
    scheduler: bool = False


CASES = {
    "neumf-D0-hetero": Case("neumf", "D0", ("V100", "T4"), ("P100",)),
    "neumf-D1-scheduler": Case("neumf", "D1", ("V100",) * 2, ("V100",), scheduler=True),
    "neumf-D1+D2-hetero-4est": Case(
        "neumf", "D1+D2", ("V100", "P100", "T4"), ("T4", "V100"), num_ests=4
    ),
    "neumf-D1+D2-pool": Case("neumf", "D1+D2", ("V100", "T4"), ("P100",), pool=True),
    "resnet18-D0": Case("resnet18", "D0", ("V100",) * 2, ("V100",)),
    "resnet18-D1-augmented": Case("resnet18", "D1", ("V100",), ("V100",) * 2, augment=True),
    "resnet18-D1+D2-hetero-pool": Case(
        "resnet18", "D1+D2", ("V100", "T4"), ("P100",), pool=True, augment=True
    ),
}


def _assignment(names, num_ests):
    return WorkerAssignment.balanced([gpu_type(n) for n in names], num_ests)


def _case_engine(case, dataset, backend):
    spec = get_workload(case.model)
    config = EasyScaleJobConfig(
        num_ests=case.num_ests, seed=3, batch_size=4,
        determinism=determinism_from_label(case.determinism),
    )
    return EasyScaleEngine(
        spec, dataset, config, sgd_factory(), _assignment(case.before, case.num_ests),
        transform=default_image_augmentation() if case.augment else None,
        scheduler_factory=(
            (lambda opt: StepLR(opt, step_size=1, gamma=0.5)) if case.scheduler else None
        ),
        backend=backend,
    )


def _scale_by_checkpoint(engine, assignment, through_bytes=True):
    """The route ``reconfigure`` used to take — there the ``Checkpoint``
    object itself was handed on; fault recovery decodes stored bytes."""
    ckpt = engine.checkpoint()
    if through_bytes:
        ckpt = Checkpoint.from_bytes(ckpt.to_bytes())
    return EasyScaleEngine.from_checkpoint(
        engine.spec, engine.dataset, ckpt, engine.optimizer_factory, assignment,
        transform=engine.transform, scheduler_factory=engine.scheduler_factory,
        config=engine.config, backend=engine.backend,
    )


def _full_state(engine):
    return {
        "params": fingerprint_state_dict(engine.model.state_dict()),
        "optimizer": engine.optimizer.state_dict(),
        "scheduler": engine.scheduler.state_dict() if engine.scheduler else None,
        "rng": [est.rng.get_state() for est in engine.ests],
        "buckets": engine.elastic_ddp.buckets.to_state(),
        "reconstructed": engine.elastic_ddp.reconstructed,
        "loader": engine.loader.export_state(),
        "cursor": (engine.epoch, engine.step_in_epoch, engine.global_step),
        "staged": [est.staged_grads for est in engine.ests],
        # last, and after the reads above: taking it flushes the backend
        "checkpoint": vars(engine.checkpoint()),
    }


def _assert_same_state(live, twin, when, same_bytes):
    a, b = _full_state(live), _full_state(twin)
    for key in a:
        assert deep_equal(a[key], b[key]), f"{key} differs {when}"
    if same_bytes:
        assert live.checkpoint().to_bytes() == twin.checkpoint().to_bytes(), when


# pickle writes a back-reference where an object repeats, so checkpoint
# *bytes* follow object identity: state that has been through pickle (an
# optimizer slot key, a queued RNG state) no longer shares its strings with
# the literals around it, and the next snapshot of a byte-restored engine
# is a few bytes longer than a never-restored engine's at the same step —
# at the parent commit too.  So against the twin restored from bytes the
# next checkpoint is compared decoded; against a twin handed the
# ``Checkpoint`` object, as the old ``reconfigure`` did, byte for byte.
@pytest.mark.parametrize("through_bytes", [True, False], ids=["bytes", "object"])
@pytest.mark.parametrize("case_id", CASES)
def test_live_handover_equals_checkpoint_round_trip_at_every_step(case_id, through_bytes):
    case = CASES[case_id]
    spec = get_workload(case.model)
    # 4 global steps per epoch, whatever the EST count
    dataset = spec.build_dataset(4 * 4 * case.num_ests, seed=7)
    after = _assignment(case.after, case.num_ests)
    backends = [ProcessPoolBackend(max_workers=2) if case.pool else None for _ in range(2)]
    try:
        for step in range(TOTAL_STEPS):
            live, twin = (_case_engine(case, dataset, b) for b in backends)
            assert live.steps_per_epoch == 4
            for engine in (live, twin):
                engine.train_steps(step)
                # a data worker ran ahead: the queue entry must cross over
                engine.loader.prefetch(0, engine.epoch, engine.step_in_epoch)
            history = [list(row) for row in live.loss_history]
            clock = live.sim_time

            assert live.reconfigure(after) is live
            twin = _scale_by_checkpoint(twin, after, through_bytes)

            assert live.assignment == twin.assignment == after
            assert [w.vranks for w in live.workers] == [w.vranks for w in twin.workers]
            assert all(
                w.ests[i] is live.ests[v] for w in live.workers for i, v in enumerate(w.vranks)
            )
            # the clock and the loss record run on (the round trip restarts them)
            assert live.sim_time == clock and live.loss_history == history
            assert (twin.sim_time, twin.loss_history) == (0.0, [])
            if not live.config.determinism.record_bucket_mapping:
                # D0: both forget the mapping, and forget it identically
                assert not live.elastic_ddp.reconstructed
            _assert_same_state(
                live, twin, f"right after the step-{step} scale event", not through_bytes
            )
            assert len(live.loader.queue) == 1

            for engine in (live, twin):
                engine.train_steps(MORE_STEPS)
            _assert_same_state(
                live, twin, f"{MORE_STEPS} steps after the step-{step} scale event",
                not through_bytes,
            )
            assert len(live.loader.queue) == 0
            assert len(live.loss_history) == step + MORE_STEPS
    finally:
        for backend in backends:
            if backend is not None:
                backend.close()


def test_d0_handover_loses_the_mapping_and_diverges_like_the_round_trip():
    # Fig. 9 is a result this repo reproduces: a live hand-over that kept
    # the bucket mapping would silently "fix" bare D0.  Four ESTs, because
    # a two-rank ring reduces in one order whatever the buckets are.
    case = Case("resnet18", "D0", ("V100",) * 4, ("V100",) * 2, num_ests=4)
    dataset = get_workload(case.model).build_dataset(64, seed=7)
    engines = [_case_engine(case, dataset, None) for _ in range(3)]
    for engine in engines:
        engine.train_steps(2)
    live, twin, static = engines
    pinned = live.elastic_ddp.buckets.to_state()
    live.reconfigure(_assignment(case.after, 4))
    twin = _scale_by_checkpoint(twin, _assignment(case.after, 4))
    assert live.elastic_ddp.buckets.to_state() != pinned
    assert not live.elastic_ddp.reconstructed
    for engine in (live, twin, static):
        engine.train_steps(2)
    assert live.elastic_ddp.reconstructed
    assert live.elastic_ddp.buckets.to_state() == pinned  # re-observed, one step late
    fingerprints = [fingerprint_state_dict(e.model.state_dict()) for e in (live, twin, static)]
    assert fingerprints[0] == fingerprints[1] != fingerprints[2]


class TestRefusedAssignment:
    """A refused scale event leaves no trace: not in the engine, not in
    telemetry, not in the flight ring."""

    @pytest.fixture
    def engine(self):
        spec = get_workload("neumf")
        config = EasyScaleJobConfig(num_ests=2, seed=3, batch_size=4, validate_memory=True)
        engine = EasyScaleEngine(
            spec, spec.build_dataset(32, seed=7), config, sgd_factory(),
            _assignment(("V100", "V100"), 2), telemetry=RunLog(),
        )
        engine.train_steps(1)
        return engine

    @staticmethod
    def _trace(engine):
        return (
            engine.assignment,
            [id(w) for w in engine.workers],
            len(engine.telemetry),
            flightrec.recorder().events,
            flightrec.recorder().context,
            fingerprint_rng_states([est.rng.get_state() for est in engine.ests]),
            engine.elastic_ddp.reconstructed,
        )

    def test_wrong_est_count(self, engine):
        before = self._trace(engine)
        with pytest.raises(ValueError, match="covers 3 ESTs"):
            engine.reconfigure(_assignment(("V100",), 3))
        assert self._trace(engine) == before

    def test_memory_misfit_on_a_later_worker(self, engine):
        tiny = dataclasses.replace(gpu_type("T4"), memory_gb=0.5)
        refused = WorkerAssignment.balanced([gpu_type("V100"), tiny], 2)
        before = self._trace(engine)
        with pytest.raises(OutOfMemoryError):
            engine.reconfigure(refused)
        assert self._trace(engine) == before
        # and the engine still trains and still scales
        engine.reconfigure(_assignment(("T4",), 2)).train_steps(1)
        assert [r.data["gpus"] for r in engine.telemetry.of_kind("scale_event")] == [
            ["V100", "V100"], ["T4"],
        ]

    def test_constructor_refusal_logs_no_phantom_scale_event(self):
        # at the parent commit the flight record and the telemetry
        # scale_event were written before the workers were built
        spec = get_workload("neumf")
        config = EasyScaleJobConfig(num_ests=2, seed=3, batch_size=4, validate_memory=True)
        tiny = dataclasses.replace(gpu_type("T4"), memory_gb=0.5)
        log = RunLog()
        ring = flightrec.recorder().events
        with pytest.raises(OutOfMemoryError):
            EasyScaleEngine(
                spec, spec.build_dataset(32, seed=7), config, sgd_factory(),
                WorkerAssignment.balanced([tiny], 2), telemetry=log,
            )
        assert len(log) == 0 and flightrec.recorder().events == ring
