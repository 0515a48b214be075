"""Host events through the two deliverers: step-domain replay and the
simulator-time driver."""

from repro.faults import EventPlan, HostSpec, PlanEvent, SimDriver, StepDeliverer, kinds
from repro.faults.lifecycle import ACTIVE, CANDIDATE

ROSTER = (
    HostSpec("a", "v100", 1),
    HostSpec("b", "v100", 1),
    HostSpec("c", "t4", 1),
)
HOST_KINDS = kinds("host")


def step_plan():
    return EventPlan(
        initial_hosts=ROSTER,
        events=(
            PlanEvent(kind="drain", host="a", at_step=2),
            PlanEvent(kind="blacklist", host="c", at_step=4, magnitude=30.0),
            PlanEvent(kind="announce", host="new", at_step=6, gtype="t4",
                      magnitude=10.0),
        ),
    )


class TestHostDiscovery:
    def test_due_is_exactly_once(self):
        disc = StepDeliverer(step_plan())
        assert [e.kind for e in disc.due(2, HOST_KINDS)] == ["drain"]
        assert list(disc.due(2, HOST_KINDS)) == []
        assert list(disc.due(3, HOST_KINDS)) == []
        assert [e.kind for e in disc.due(4, HOST_KINDS)] == ["blacklist"]

    def test_catch_up_after_skipped_boundaries(self):
        # a recovery can jump step boundaries; every missed event still fires
        disc = StepDeliverer(step_plan())
        assert [e.kind for e in disc.due(10, HOST_KINDS)] == [
            "drain", "blacklist", "announce"
        ]
        assert disc.exhausted

    def test_reset_restores_all_events(self):
        disc = StepDeliverer(step_plan())
        list(disc.due(10, HOST_KINDS))
        disc.reset()
        assert not disc.exhausted
        assert len(disc.pending_events()) == 3

    def test_kind_filter(self):
        disc = StepDeliverer(step_plan())
        assert [e.kind for e in disc.due(10, ("drain",))] == ["drain"]
        # the other kinds stay pending in the one fired set
        assert [e.kind for e in disc.pending_events()] == ["blacklist", "announce"]


def time_plan(max_unavailable=1):
    return EventPlan(
        initial_hosts=ROSTER,
        events=(
            PlanEvent(kind="announce", host="new", at_time=100.0, gtype="t4",
                      slots=2, magnitude=50.0),
            PlanEvent(kind="drain", host="a", at_time=200.0),
            PlanEvent(kind="drain", host="b", at_time=200.0),
            PlanEvent(kind="blacklist", host="c", at_time=400.0,
                      magnitude=100.0),
            PlanEvent(kind="reclaim_notice", host="new", at_time=600.0,
                      magnitude=30.0),
        ),
        max_unavailable=max_unavailable,
    )


def ops(actions):
    return [(t, op, host) for t, op, host, _ in actions]


class TestSimMembershipDriver:
    def test_static_expansion_includes_deadlines(self):
        driver = SimDriver(time_plan())
        assert ops(driver.actions) == [
            (100.0, "announce", "new"),
            (150.0, "join", "new"),          # announce + warm-up
            (200.0, "drain", "a"),
            (200.0, "drain", "b"),
            (400.0, "blacklist", "c"),
            (500.0, "rejoin", "c"),          # blacklist + expiry
            (600.0, "reclaim_notice", "new"),
            (630.0, "reclaim", "new"),       # notice + deadline
        ]

    def test_faults_follow_host_operations_at_one_time(self):
        # at one decision point: host operations, then the drains the cap
        # lets through, then faults in plan order
        plan = time_plan().merged(EventPlan(events=(
            PlanEvent(kind="restart_delay", at_time=200.0, magnitude=5.0),
            PlanEvent(kind="node_preempt", at_time=200.0),
        )))
        driver = SimDriver(plan)
        assert [(op, host) for _, op, host, _ in driver.due(200.0)] == [
            ("announce", "new"), ("join", "new"), ("drain", "a"),
            ("restart_delay", None), ("node_preempt", None),
        ]
        assert [host for _, _, host, _ in driver.deferred] == ["b"]

    def test_registry_seeded_from_plan(self):
        driver = SimDriver(time_plan())
        states = {h.host_id: h.state for h in driver.registry}
        assert states == {"a": ACTIVE, "b": ACTIVE, "c": ACTIVE,
                          "new": CANDIDATE}

    def test_next_time_is_strictly_after(self):
        driver = SimDriver(time_plan())
        assert driver.next_time(0.0) == 100.0
        assert driver.next_time(100.0) == 150.0
        assert driver.next_time(630.0) is None

    def test_due_pops_exactly_once(self):
        driver = SimDriver(time_plan())
        assert [a[1] for a in driver.due(150.0)] == ["announce", "join"]
        assert driver.due(150.0) == []

    def test_max_unavailable_defers_drains(self):
        driver = SimDriver(time_plan(max_unavailable=1))
        due = driver.due(200.0)
        assert [a[2] for a in due if a[1] == "drain"] == ["a"]
        assert len(driver.deferred) == 1
        # the deferred drain piggybacks on the next decision point, FIFO
        assert [a[2] for a in driver.due(250.0)] == ["b"]
        assert driver.due(300.0) == []

    def test_max_unavailable_two_releases_both(self):
        driver = SimDriver(time_plan(max_unavailable=2))
        due = driver.due(200.0)
        assert [a[2] for a in due if a[1] == "drain"] == ["a", "b"]
        assert len(driver.deferred) == 0

    def test_exhausted(self):
        driver = SimDriver(time_plan())
        assert not driver.exhausted
        driver.due(10_000.0)
        driver.due(10_001.0)  # releases the deferred drain
        assert driver.exhausted
