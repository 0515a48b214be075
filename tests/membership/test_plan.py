"""Host events in the one EventPlan: validation, JSON round trip,
canned/seeded generators.

Also pins the loader's eager kind check for *both* families: a malformed
fault or membership plan must fail at load time with the source path and
the offending event index in the message, not deep inside a replay.
"""

import json

import pytest

from repro.faults.schedule import (
    KINDS,
    EventPlan,
    HostSpec,
    PlanEvent,
    kinds,
    random_membership_plan,
    rolling_upgrade_plan,
)

ROSTER = (
    HostSpec("v100-host0", "v100", 1),
    HostSpec("v100-host1", "v100", 1),
    HostSpec("t4-host0", "t4", 1),
    HostSpec("t4-host1", "t4", 1),
)


class TestHostSpec:
    def test_gtype_lowered(self):
        assert HostSpec("h", "V100", 2).gtype == "v100"

    @pytest.mark.parametrize("bad", [0, -1])
    def test_slots_must_be_positive(self, bad):
        with pytest.raises(ValueError, match="slots"):
            HostSpec("h", "v100", bad)

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="host_id"):
            HostSpec("", "v100")


class TestHostEvent:
    def test_exactly_one_trigger(self):
        with pytest.raises(ValueError, match="exactly one"):
            PlanEvent(kind="drain", host="h", at_step=1, at_time=1.0)
        with pytest.raises(ValueError, match="exactly one"):
            PlanEvent(kind="drain", host="h")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            PlanEvent(kind="explode", host="h", at_step=1)

    def test_announce_needs_gtype(self):
        with pytest.raises(ValueError, match="needs a gtype"):
            PlanEvent(kind="announce", host="h", at_step=1)

    @pytest.mark.parametrize("kind", ["blacklist", "reclaim_notice"])
    def test_expiry_kinds_need_positive_magnitude(self, kind):
        with pytest.raises(ValueError, match="magnitude must be > 0"):
            PlanEvent(kind=kind, host="h", at_step=1)

    def test_state_round_trip(self):
        event = PlanEvent(kind="announce", host="h", at_step=3,
                          gtype="T4", slots=2, magnitude=30.0)
        assert PlanEvent.from_state(event.to_state()) == event


class TestPlanValidation:
    def test_needs_initial_hosts(self):
        with pytest.raises(ValueError, match="at least one initial host"):
            EventPlan(events=(PlanEvent(kind="drain", host="h", at_step=1),))

    def test_duplicate_initial_hosts_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EventPlan(initial_hosts=(HostSpec("h", "v100"),
                                          HostSpec("h", "t4")))

    def test_events_must_be_trigger_ordered(self):
        with pytest.raises(ValueError, match="ordered"):
            EventPlan(
                initial_hosts=ROSTER,
                events=(PlanEvent(kind="drain", host="v100-host0", at_step=5),
                        PlanEvent(kind="drain", host="v100-host1", at_step=2)),
            )

    def test_event_for_unknown_host_rejected(self):
        with pytest.raises(ValueError, match="never announced"):
            EventPlan(
                initial_hosts=ROSTER,
                events=(PlanEvent(kind="drain", host="ghost", at_step=1),),
            )

    def test_announced_host_may_receive_later_events(self):
        plan = EventPlan(
            initial_hosts=ROSTER,
            events=(
                PlanEvent(kind="announce", host="new", at_step=1, gtype="t4"),
                PlanEvent(kind="drain", host="new", at_step=5),
            ),
        )
        assert len(plan) == 2

    def test_reannounce_of_existing_host_rejected(self):
        with pytest.raises(ValueError, match="already exists"):
            EventPlan(
                initial_hosts=ROSTER,
                events=(PlanEvent(kind="announce", host="t4-host0",
                                  at_step=1, gtype="t4"),),
            )

    def test_max_unavailable_must_be_positive(self):
        with pytest.raises(ValueError, match="max_unavailable"):
            EventPlan(initial_hosts=ROSTER, max_unavailable=0)


class TestJsonRoundTrip:
    def _plan(self):
        return EventPlan(
            initial_hosts=ROSTER,
            events=(
                PlanEvent(kind="drain", host="v100-host1", at_step=2),
                PlanEvent(kind="blacklist", host="t4-host0", at_step=4,
                          magnitude=30.0),
                PlanEvent(kind="announce", host="spot-0", at_step=6,
                          gtype="t4", slots=1, magnitude=10.0),
            ),
            seed=11, note="round trip", max_unavailable=2,
        )

    def test_round_trip_is_exact(self):
        plan = self._plan()
        assert EventPlan.from_json(plan.to_json()) == plan

    def test_save_load(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = self._plan()
        plan.save(path)
        assert EventPlan.load(path) == plan

    def test_version_check(self):
        payload = json.loads(self._plan().to_json())
        payload["version"] = 99
        with pytest.raises(ValueError, match="version 99"):
            EventPlan.from_json(json.dumps(payload))

    def test_missing_initial_hosts(self):
        with pytest.raises(ValueError, match="initial_hosts"):
            EventPlan.from_json(json.dumps({"events": []}), family="host")


class TestEagerKindValidation:
    """The loader names the source and event index."""

    def test_membership_unknown_kind_names_path_and_index(self, tmp_path):
        path = tmp_path / "bad_membership.json"
        payload = json.loads(EventPlan(initial_hosts=ROSTER).to_json())
        payload["events"] = [
            {"kind": "drain", "host": "t4-host0", "at_step": 1},
            {"kind": "vaporize", "host": "t4-host1", "at_step": 2},
        ]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as err:
            EventPlan.load(path, "host")
        message = str(err.value)
        assert str(path) in message
        assert "events[1]" in message
        assert "'vaporize'" in message

    def test_fault_unknown_kind_names_path_and_index(self, tmp_path):
        path = tmp_path / "bad_faults.json"
        path.write_text(json.dumps({
            "seed": 0,
            "events": [{"kind": "meteor_strike", "at_step": 3}],
        }))
        with pytest.raises(ValueError) as err:
            EventPlan.load(path, "fault")
        message = str(err.value)
        assert str(path) in message
        assert "events[0]" in message
        assert "'meteor_strike'" in message

    def test_non_object_event_entry_rejected(self):
        payload = {"initial_hosts": [ROSTER[0].to_state()], "events": ["drain"]}
        with pytest.raises(ValueError, match=r"events\[0\].*JSON object"):
            EventPlan.from_json(json.dumps(payload), family="host")

    def test_validator_accepts_all_known_kinds(self):
        # every row of the kind table loads; a family filter takes its own rows.
        # Each host kind names its own host: a drained, reclaimed or removed
        # host may not be named again
        hosts = {"announce": "spot", "ready": "spot", "blacklist": "t4-host0",
                 "drain": "t4-host1", "reclaim_notice": "v100-host1",
                 "forceful_remove": "v100-host0"}

        def event(kind):
            state = {"kind": kind, "at_step": 1, "magnitude": 1.0}
            if kind == "announce":
                state.update(gtype="t4")
            if kind in hosts:
                state.update(host=hosts[kind])
            return state

        payload = {"initial_hosts": [h.to_state() for h in ROSTER],
                   "events": [event(k) for k in KINDS]}
        assert [e.kind for e in EventPlan.from_json(json.dumps(payload))] == list(KINDS)
        assert kinds("fault") + kinds("host") == tuple(KINDS)
        with pytest.raises(ValueError, match=r"events\[0\]: unknown kind 'worker_crash'"):
            EventPlan.from_json(json.dumps(payload), family="host")


class TestRollingUpgradePlan:
    def test_drains_all_but_keep_in_roster_order(self):
        plan = rolling_upgrade_plan(ROSTER, start_step=2, keep=1)
        assert [e.host for e in plan.events] == [
            "v100-host0", "v100-host1", "t4-host0"
        ]
        assert all(e.kind == "drain" and e.at_step == 2 for e in plan.events)
        assert plan.max_unavailable == 1

    def test_keep_must_leave_work_to_do(self):
        with pytest.raises(ValueError, match="nothing to drain"):
            rolling_upgrade_plan(ROSTER[:1], keep=1)
        with pytest.raises(ValueError, match="at least one host"):
            rolling_upgrade_plan(ROSTER, keep=0)


class TestRandomMembershipPlan:
    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_plans_are_valid_and_round_trip(self, seed):
        plan = random_membership_plan(seed, horizon_steps=12)
        assert plan.seed == seed
        assert 1 <= len(plan) <= 4
        assert all(1 <= e.at_step <= 11 for e in plan.events)
        assert EventPlan.from_json(plan.to_json()) == plan

    def test_deterministic_in_seed(self):
        assert random_membership_plan(5, 12) == random_membership_plan(5, 12)
        assert random_membership_plan(5, 12) != random_membership_plan(6, 12)

    def test_removals_keep_a_roster_survivor(self):
        for seed in range(50):
            plan = random_membership_plan(seed, horizon_steps=12)
            removed = {e.host for e in plan.events if KINDS[e.kind].removes}
            roster = {s.host_id for s in plan.initial_hosts}
            assert roster - removed, f"seed {seed} removed the whole roster"

    def test_horizon_too_small_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            random_membership_plan(0, horizon_steps=1)
