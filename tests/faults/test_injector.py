"""StepDeliverer / SimDriver: exactly-once firing and reset."""

import pytest

from repro.faults import (
    EventPlan,
    NodePreemptSignal,
    PlanEvent,
    SimDriver,
    StepDeliverer,
    WorkerCrashSignal,
)


class _StubAssignment:
    def __init__(self, num_workers):
        self.num_workers = num_workers


class _StubEngine:
    """Just enough engine surface for the boundary hook."""

    def __init__(self, global_step=0, num_workers=2):
        self.global_step = global_step
        self.assignment = _StubAssignment(num_workers)


def _plan(*events, seed=0):
    return EventPlan(events=tuple(events), seed=seed)


class TestStepInjector:
    def test_node_preempt_fires_exactly_once(self):
        plan = _plan(PlanEvent(kind="node_preempt", at_step=3, magnitude=2.0))
        injector = StepDeliverer(plan)
        engine = _StubEngine(global_step=3)
        injector.on_step_boundary(_StubEngine(global_step=2))
        with pytest.raises(NodePreemptSignal) as excinfo:
            injector.on_step_boundary(engine)
        assert excinfo.value.event.magnitude == 2.0
        # the recovered engine re-executes step 3: no second raise
        injector.on_step_boundary(engine)
        assert injector.fired_count == 1 and injector.exhausted

    def test_worker_crash_targets_one_worker_mid_step(self):
        plan = _plan(PlanEvent(kind="worker_crash", at_step=1, target="worker:1"))
        injector = StepDeliverer(plan)
        injector.on_step_boundary(_StubEngine(global_step=1, num_workers=2))
        injector.on_local_step(worker_id=0, vrank=0)  # survivor: no raise
        with pytest.raises(WorkerCrashSignal) as excinfo:
            injector.on_local_step(worker_id=1, vrank=2)
        assert excinfo.value.worker_id == 1 and excinfo.value.vrank == 2
        injector.on_local_step(worker_id=1, vrank=3)  # fired stays fired
        assert injector.exhausted

    def test_local_hook_inert_before_first_boundary(self):
        injector = StepDeliverer(
            _plan(PlanEvent(kind="worker_crash", at_step=0))
        )
        injector.on_local_step(worker_id=0, vrank=0)  # no boundary seen yet
        assert injector.fired_count == 0

    def test_boundary_events_consume_graceful_kinds(self):
        plan = _plan(
            PlanEvent(kind="slowdown", at_step=2, target="worker:0", magnitude=2.0),
            PlanEvent(kind="checkpoint_corrupt", at_step=2),
            PlanEvent(kind="worker_crash", at_step=2),
        )
        injector = StepDeliverer(plan)
        due = injector.boundary_events(2)
        assert sorted(e.kind for e in due) == ["checkpoint_corrupt", "slowdown"]
        assert injector.boundary_events(2) == []  # consumed
        # the abrupt event is untouched by the graceful path
        assert [e.kind for e in injector.pending_events()] == ["worker_crash"]

    def test_reset_restores_the_full_plan(self):
        plan = _plan(PlanEvent(kind="gpu_revoke", at_step=1))
        injector = StepDeliverer(plan)
        assert len(injector.boundary_events(1)) == 1
        injector.reset()
        assert not injector.exhausted
        assert len(injector.boundary_events(1)) == 1

    def test_time_events_are_ignored(self):
        injector = StepDeliverer(
            _plan(PlanEvent(kind="node_preempt", at_time=10.0))
        )
        injector.on_step_boundary(_StubEngine(global_step=10))
        assert injector.exhausted  # no step events at all


class TestSimInjector:
    """The faults-only face of :class:`SimDriver`: one action per event."""

    def _injector(self):
        return SimDriver(_plan(
            PlanEvent(kind="slowdown", at_time=10.0, magnitude=2.0),
            PlanEvent(kind="node_preempt", at_time=25.0),
            PlanEvent(kind="node_preempt", at_time=40.0),
        ))

    def test_next_time_is_strictly_after(self):
        injector = self._injector()
        assert injector.next_time(0.0) == 10.0
        assert injector.next_time(10.0) == 25.0
        assert injector.next_time(40.0) is None

    def test_due_pops_in_order_exactly_once(self):
        injector = self._injector()
        assert [a[0] for a in injector.due(25.0)] == [10.0, 25.0]
        assert injector.due(25.0) == []
        assert [a[0] for a in injector.due(100.0)] == [40.0]
        assert injector.exhausted

    def test_reset(self):
        injector = self._injector()
        injector.due(100.0)
        injector.reset()
        assert not injector.exhausted
        assert len(injector.due(100.0)) == 3
