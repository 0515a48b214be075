"""ResilienceController: bitwise recovery, downtime accounting, fallbacks."""

import pytest

from repro import obs
from repro.core import (
    EasyScaleEngine,
    EasyScaleJobConfig,
    WorkerAssignment,
    determinism_from_label,
)
from repro.faults import (
    EventPlan,
    HostSpec,
    PlanEvent,
    RecoveryFailedError,
    ResilienceController,
    random_plan,
)
from repro.hw import gpu_type
from repro.models import get_workload
from repro.utils.fingerprint import fingerprint_state_dict
from tests.conftest import sgd_factory


@pytest.fixture(scope="module")
def homo_env():
    spec = get_workload("resnet18")
    dataset = spec.build_dataset(32, seed=7)
    config = EasyScaleJobConfig(num_ests=2, seed=0, batch_size=4)
    return spec, dataset, config


@pytest.fixture(scope="module")
def homo_reference(homo_env):
    """Fault-free model fingerprints after each of the first 8 steps."""
    spec, dataset, config = homo_env
    engine = EasyScaleEngine(
        spec, dataset, config, sgd_factory(),
        WorkerAssignment.balanced([gpu_type("V100")] * 2, 2),
    )
    fingerprints = {}
    for step in range(1, 9):
        engine.run_global_step()
        fingerprints[step] = fingerprint_state_dict(engine.model.state_dict())
    return fingerprints


def _controller(env, plan, **kwargs):
    spec, dataset, config = env
    kwargs.setdefault("snapshot_interval", 2)
    kwargs.setdefault("restart_delay_s", 15.0)
    kwargs.setdefault("backoff_s", 5.0)
    return ResilienceController(
        spec, dataset, config, sgd_factory(), ["V100", "V100"], plan, **kwargs
    )


def _fingerprint(controller):
    return fingerprint_state_dict(controller.engine.model.state_dict())


class TestFaultFree:
    def test_empty_plan_matches_reference_bitwise(self, homo_env, homo_reference):
        controller = _controller(homo_env, EventPlan(events=()))
        stats = controller.run(4)
        assert _fingerprint(controller) == homo_reference[4]
        assert stats.faults_injected == 0 and stats.recoveries == 0
        assert stats.downtime_s == 0.0
        assert controller.clock == controller.compute_s

    def test_ctor_validation(self, homo_env):
        spec, dataset, config = homo_env
        plan = EventPlan(events=())
        with pytest.raises(ValueError, match="at least one GPU"):
            ResilienceController(spec, dataset, config, sgd_factory(), [], plan)
        # a roster is the starting pool: gpus alongside it is ambiguous
        roster = EventPlan(initial_hosts=(HostSpec("v100-host0", "v100"),))
        with pytest.raises(ValueError, match="not both"):
            ResilienceController(spec, dataset, config, sgd_factory(), ["V100"], roster)
        with pytest.raises(ValueError, match="max_retries"):
            _controller(homo_env, plan, max_retries=0)
        with pytest.raises(ValueError, match="non-negative"):
            _controller(homo_env, plan, restart_delay_s=-1.0)

    def test_active_audit_trail_must_allow_rewind(self, homo_env):
        obs.configure(enabled=True, audit=True)
        try:
            with pytest.raises(ValueError, match="audit_rewind"):
                _controller(homo_env, EventPlan(events=()))
        finally:
            obs.reset()


class TestGracefulRecovery:
    def test_gpu_revoke_loses_zero_steps(self, homo_env, homo_reference):
        plan = EventPlan(events=(PlanEvent(kind="gpu_revoke", at_step=2),))
        controller = _controller(homo_env, plan)
        stats = controller.run(4)
        assert len(controller.pool) == 1
        assert stats.recoveries == 1 and stats.lost_steps == 0
        assert stats.downtime_s == pytest.approx(15.0)
        [incident] = stats.incidents
        assert incident.fault_step == 2 and incident.restore_step == 2
        assert incident.mttr_s is not None and incident.mttr_s > 15.0
        assert _fingerprint(controller) == homo_reference[4]

    def test_slowdown_costs_time_but_not_bits(self, homo_env, homo_reference):
        plan = EventPlan(events=(
            PlanEvent(kind="slowdown", at_step=1, target="worker:0",
                       magnitude=2.0),
        ))
        slow = _controller(homo_env, plan)
        slow.run(4)
        clean = _controller(homo_env, EventPlan(events=()))
        clean.run(4)
        assert _fingerprint(slow) == homo_reference[4]
        assert slow.stats.recoveries == 0
        assert slow.compute_s > clean.compute_s

    def test_restart_delay_charges_the_next_recovery(self, homo_env):
        plan = EventPlan(events=(
            PlanEvent(kind="restart_delay", at_step=1, magnitude=30.0),
            PlanEvent(kind="gpu_revoke", at_step=2),
        ))
        controller = _controller(homo_env, plan)
        stats = controller.run(4)
        [incident] = stats.incidents
        assert incident.downtime_s == pytest.approx(15.0 + 30.0)
        assert stats.downtime_s == pytest.approx(45.0)


class TestAbruptRecovery:
    def test_worker_crash_falls_back_to_last_snapshot(self, homo_env,
                                                      homo_reference):
        plan = EventPlan(events=(
            PlanEvent(kind="worker_crash", at_step=3, target="worker:1"),
        ))
        controller = _controller(homo_env, plan, snapshot_interval=2)
        stats = controller.run(5)
        [incident] = stats.incidents
        assert incident.fault_step == 3 and incident.restore_step == 2
        assert incident.lost_steps == 1 and stats.lost_steps == 1
        assert stats.downtime_s == pytest.approx(15.0)
        assert incident.mttr_s is not None
        assert len(controller.losses) == 5  # rewound steps overwritten once
        assert _fingerprint(controller) == homo_reference[5]

    def test_corrupt_snapshot_retries_older_with_backoff(self, homo_env,
                                                         homo_reference):
        plan = EventPlan(events=(
            PlanEvent(kind="checkpoint_corrupt", at_step=3),
            PlanEvent(kind="worker_crash", at_step=3),
        ))
        controller = _controller(homo_env, plan, snapshot_interval=2)
        stats = controller.run(5)
        [incident] = stats.incidents
        assert incident.retries == 1
        assert incident.restore_step == 0  # step-2 copy was the corrupted one
        # one failed decode costs backoff_s * 2**0 on top of the restart
        assert stats.downtime_s == pytest.approx(15.0 + 5.0)
        assert controller.manager.corrupted_detected == 1
        assert _fingerprint(controller) == homo_reference[5]

    def test_cold_restart_when_no_snapshot_survives(self, homo_env,
                                                    homo_reference):
        plan = EventPlan(events=(
            PlanEvent(kind="checkpoint_corrupt", at_step=1),
            PlanEvent(kind="worker_crash", at_step=2),
        ))
        # interval 10: the step-0 snapshot is the only one, and it dies
        controller = _controller(homo_env, plan, snapshot_interval=10)
        stats = controller.run(4)
        [incident] = stats.incidents
        assert incident.restore_step == 0 and incident.lost_steps == 2
        assert incident.retries == 1
        # the cold restart re-seeds the snapshot chain
        assert controller.manager.latest() is not None
        assert _fingerprint(controller) == homo_reference[4]

    def test_retry_budget_exhaustion_raises(self, homo_env):
        plan = EventPlan(events=(
            PlanEvent(kind="checkpoint_corrupt", at_step=2),
            PlanEvent(kind="worker_crash", at_step=2),
        ))
        controller = _controller(homo_env, plan, snapshot_interval=1,
                                 max_retries=1)
        with pytest.raises(RecoveryFailedError, match="within 1 retries"):
            controller.run(4)

    def test_node_preempt_keeps_one_survivor(self, homo_env, homo_reference):
        plan = EventPlan(events=(
            PlanEvent(kind="node_preempt", at_step=2, magnitude=5.0),
        ))
        controller = _controller(homo_env, plan, snapshot_interval=2)
        controller.run(4)
        assert len(controller.pool) == 1  # never drops to zero
        assert _fingerprint(controller) == homo_reference[4]


class TestAccounting:
    def test_clock_decomposes_exactly(self, homo_env):
        plan = EventPlan(events=(
            PlanEvent(kind="gpu_revoke", at_step=1),
            PlanEvent(kind="worker_crash", at_step=3),
        ))
        controller = _controller(homo_env, plan)
        stats = controller.run(5)
        assert controller.clock == pytest.approx(
            controller.compute_s + stats.downtime_s, abs=1e-12
        )
        assert stats.mean_mttr_s > 0 and stats.max_mttr_s >= stats.mean_mttr_s
        assert all(i.mttr_s is not None for i in stats.incidents)

    def test_stats_serialization(self, homo_env):
        plan = EventPlan(events=(PlanEvent(kind="gpu_revoke", at_step=1),))
        controller = _controller(homo_env, plan)
        stats = controller.run(3)
        payload = stats.to_dict()
        assert payload["recoveries"] == 1
        assert payload["incidents"][0]["kind"] == "gpu_revoke"
        text = stats.describe()
        assert "gpu_revoke" in text and "MTTR" in text


@pytest.fixture(scope="module")
def het_env():
    spec = get_workload("resnet18")
    dataset = spec.build_dataset(64, seed=7)
    config = EasyScaleJobConfig(
        num_ests=4, seed=0, batch_size=8,
        determinism=determinism_from_label("D1+D2"),
    )
    return spec, dataset, config


@pytest.fixture(scope="module")
def het_reference(het_env):
    spec, dataset, config = het_env
    pool = [gpu_type("V100"), gpu_type("V100"), gpu_type("T4"), gpu_type("T4")]
    engine = EasyScaleEngine(
        spec, dataset, config, sgd_factory(),
        WorkerAssignment.balanced(pool, 4),
    )
    engine.train_steps(10)
    return fingerprint_state_dict(engine.model.state_dict())


class TestRandomPlansProperty:
    """Tier-1 slice of the chaos property (the full sweep is `-m chaos`)."""

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_random_plan_recovers_bitwise_on_heterogeneous_pool(
        self, het_env, het_reference, seed
    ):
        spec, dataset, config = het_env
        plan = random_plan(seed, horizon_steps=10, num_gpus=4)
        controller = ResilienceController(
            spec, dataset, config, sgd_factory(),
            ["V100", "V100", "T4", "T4"], plan,
            snapshot_interval=3,
        )
        stats = controller.run(10)
        assert stats.faults_injected == len(plan)
        assert _fingerprint(controller) == het_reference
        assert controller.clock == pytest.approx(
            controller.compute_s + stats.downtime_s, abs=1e-12
        )
