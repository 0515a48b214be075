"""PlanEvent/EventPlan: validation, JSON round trip, seeded generation."""

import pytest

from repro.faults import (
    FAULT_KINDS,
    KINDS,
    EventPlan,
    PlanEvent,
    kinds,
    random_plan,
    random_sim_plan,
)


class TestFaultEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            PlanEvent(kind="meteor_strike", at_step=1)

    def test_exactly_one_trigger_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            PlanEvent(kind="worker_crash")
        with pytest.raises(ValueError, match="exactly one"):
            PlanEvent(kind="worker_crash", at_step=1, at_time=1.0)

    def test_negative_triggers_rejected(self):
        with pytest.raises(ValueError):
            PlanEvent(kind="worker_crash", at_step=-1)
        with pytest.raises(ValueError):
            PlanEvent(kind="worker_crash", at_time=-0.5)

    def test_magnitude_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanEvent(kind="node_preempt", at_step=1, magnitude=0.0)

    def test_slowdown_is_a_factor(self):
        with pytest.raises(ValueError, match="magnitude must be >= 1"):
            PlanEvent(kind="slowdown", at_step=1, magnitude=0.5)

    def test_kind_partitions(self):
        abrupt, graceful = kinds("fault", graceful=False), kinds("fault", graceful=True)
        assert set(abrupt) | set(graceful) == set(FAULT_KINDS)
        assert not set(abrupt) & set(graceful)
        assert abrupt == ("worker_crash", "node_preempt")
        assert kinds("fault", removes=True) == ("gpu_revoke", "node_preempt")
        assert kinds("host", graceful=False) == ("forceful_remove",)
        assert all(KINDS[k].default == 1.0 for k in FAULT_KINDS)


class TestTargets:
    def test_target_worker_modulo(self):
        event = PlanEvent(kind="worker_crash", at_step=1, target="worker:5")
        assert event.target_worker(4) == 1
        assert event.target_worker(2) == 1
        # None targets worker 0 deterministically
        assert PlanEvent(kind="worker_crash", at_step=1).target_worker(3) == 0

    def test_target_worker_rejects_garbage(self):
        event = PlanEvent(kind="worker_crash", at_step=1, target="worker:alpha")
        with pytest.raises(ValueError, match="not a worker index"):
            event.target_worker(4)
        with pytest.raises(ValueError, match="num_workers"):
            PlanEvent(kind="worker_crash", at_step=1).target_worker(0)

    def test_target_job_and_gtype(self):
        job = PlanEvent(kind="node_preempt", at_time=5.0, target="job:j-3")
        assert job.target_job() == "j-3"
        assert job.target_gtype() is None
        gtype = PlanEvent(kind="gpu_revoke", at_step=2, target="T4")
        assert gtype.target_gtype() == "t4"
        assert gtype.target_job() is None
        assert PlanEvent(kind="gpu_revoke", at_step=2).target_gtype() is None


class TestFaultPlan:
    def _plan(self):
        return EventPlan(
            events=(
                PlanEvent(kind="slowdown", at_step=1, target="worker:1",
                           magnitude=2.5),
                PlanEvent(kind="gpu_revoke", at_step=3, target="t4"),
                PlanEvent(kind="node_preempt", at_time=40.0, magnitude=2.0),
            ),
            seed=11,
            note="unit",
        )

    def test_events_must_be_ordered(self):
        with pytest.raises(ValueError, match="ordered"):
            EventPlan(events=(
                PlanEvent(kind="worker_crash", at_step=5),
                PlanEvent(kind="worker_crash", at_step=2),
            ))

    def test_step_time_split_and_capacity_cost(self):
        plan = self._plan()
        assert [e.kind for e in plan.step_events] == ["slowdown", "gpu_revoke"]
        assert [e.kind for e in plan.time_events] == ["node_preempt"]
        assert plan.capacity_cost() == 3  # one revoke + two preempted
        assert len(plan) == 3

    def test_json_round_trip(self):
        plan = self._plan()
        assert EventPlan.from_json(plan.to_json()) == plan

    def test_save_load_round_trip(self, tmp_path):
        plan = self._plan()
        path = tmp_path / "plan.json"
        plan.save(path)
        assert EventPlan.load(path) == plan

    def test_from_json_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            EventPlan.from_json("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            EventPlan.from_json("[1, 2]")
        with pytest.raises(ValueError, match="version"):
            EventPlan.from_json('{"version": 99, "events": []}')
        with pytest.raises(ValueError, match="missing"):
            EventPlan.from_json('{"seed": 1}')
        with pytest.raises(ValueError, match="list"):
            EventPlan.from_json('{"events": {"kind": "worker_crash"}}')

    def test_describe_mentions_every_event(self):
        text = self._plan().describe()
        assert "slowdown" in text and "gpu_revoke" in text
        assert "note: unit" in text


class TestRandomPlan:
    def test_deterministic_in_seed(self):
        a = random_plan(7, horizon_steps=20, num_gpus=4)
        b = random_plan(7, horizon_steps=20, num_gpus=4)
        assert a == b and a.to_json() == b.to_json()

    def test_seeds_differ(self):
        plans = {random_plan(s, horizon_steps=20, num_gpus=4).to_json()
                 for s in range(10)}
        assert len(plans) > 1

    def test_survivable_and_in_horizon(self):
        for seed in range(25):
            plan = random_plan(seed, horizon_steps=12, num_gpus=4, max_events=6)
            assert 1 <= len(plan) <= 6
            assert plan.capacity_cost() <= 3  # one GPU always survives
            for event in plan:
                assert event.at_step is not None
                assert 1 <= event.at_step <= 11  # step 0 untouched

    def test_single_gpu_pool_never_loses_capacity(self):
        for seed in range(25):
            plan = random_plan(seed, horizon_steps=10, num_gpus=1, max_events=6)
            assert plan.capacity_cost() == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            random_plan(0, horizon_steps=1, num_gpus=4)
        with pytest.raises(ValueError):
            random_plan(0, horizon_steps=10, num_gpus=0)
        with pytest.raises(ValueError):
            random_plan(0, horizon_steps=10, num_gpus=4, max_events=0)
        with pytest.raises(ValueError, match="unknown fault kinds"):
            random_plan(0, horizon_steps=10, num_gpus=4, kinds=("nope",))


class TestRandomSimPlan:
    def test_time_triggered_within_horizon(self):
        for seed in range(10):
            plan = random_sim_plan(seed, horizon_s=1000.0)
            assert plan.step_events == ()
            for event in plan:
                assert 0.0 < event.at_time < 1000.0

    def test_deterministic_in_seed(self):
        assert random_sim_plan(3, 500.0) == random_sim_plan(3, 500.0)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            random_sim_plan(0, horizon_s=0.0)
