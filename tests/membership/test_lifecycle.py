"""Host lifecycle state machine: validated transitions, registry."""

import pytest

from repro.faults.lifecycle import (
    ACTIVE,
    BLACKLISTED,
    CANDIDATE,
    DRAINING,
    HOST_STATES,
    OPS,
    REMOVED,
    TRANSITIONS,
    WARMING,
    WINDOWS,
    Host,
    HostRegistry,
    InvalidTransitionError,
    op_for,
)


class TestTransitionGraph:
    def test_every_state_has_an_entry(self):
        assert set(TRANSITIONS) == set(HOST_STATES)

    def test_removed_is_terminal(self):
        assert TRANSITIONS[REMOVED] == ()

    def test_draining_only_removes(self):
        assert TRANSITIONS[DRAINING] == (REMOVED,)


class TestHost:
    def test_gtype_lowered_and_slots_validated(self):
        assert Host("h", "V100", 2).gtype == "v100"
        with pytest.raises(ValueError, match="slots"):
            Host("h", "v100", 0)

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown state"):
            Host("h", "v100", state="limbo")

    def test_serving_states(self):
        assert not Host("h", "v100", state=CANDIDATE).serving
        assert not Host("h", "v100", state=WARMING).serving
        assert Host("h", "v100", state=ACTIVE).serving
        assert Host("h", "v100", state=DRAINING).serving
        assert not Host("h", "v100", state=BLACKLISTED).serving
        assert not Host("h", "v100", state=REMOVED).serving


class TestRegistry:
    def _registry(self):
        reg = HostRegistry()
        reg.add(Host("a", "v100", 2, state=ACTIVE))
        reg.add(Host("b", "t4", 1, state=ACTIVE))
        reg.add(Host("c", "t4", 1))  # candidate
        return reg

    def test_full_lifecycle_path(self):
        reg = HostRegistry()
        reg.add(Host("h", "v100"))
        for state in (WARMING, ACTIVE, DRAINING, REMOVED):
            reg.transition("h", state)
        assert reg.get("h").state == REMOVED
        assert reg.history == [
            ("h", CANDIDATE, WARMING),
            ("h", WARMING, ACTIVE),
            ("h", ACTIVE, DRAINING),
            ("h", DRAINING, REMOVED),
        ]

    def test_blacklist_expiry_rejoins_active(self):
        reg = HostRegistry()
        reg.add(Host("h", "v100", state=ACTIVE))
        reg.transition("h", BLACKLISTED)
        reg.transition("h", ACTIVE)
        assert reg.get("h").state == ACTIVE

    def test_invalid_edge_raises_with_context(self):
        reg = HostRegistry()
        reg.add(Host("h", "v100", state=DRAINING))
        with pytest.raises(InvalidTransitionError) as err:
            reg.transition("h", ACTIVE)
        assert err.value.host_id == "h"
        assert err.value.current == DRAINING
        assert err.value.requested == ACTIVE
        assert "allowed from draining" in str(err.value)
        # the failed transition left no trace
        assert reg.get("h").state == DRAINING
        assert reg.history == []

    def test_terminal_state_rejects_everything(self):
        reg = HostRegistry()
        reg.add(Host("h", "v100", state=REMOVED))
        for state in (ACTIVE, DRAINING, BLACKLISTED, WARMING):
            with pytest.raises(InvalidTransitionError):
                reg.transition("h", state)

    def test_unknown_target_state_rejected(self):
        reg = HostRegistry()
        reg.add(Host("h", "v100", state=ACTIVE))
        with pytest.raises(ValueError, match="unknown state"):
            reg.transition("h", "limbo")

    def test_duplicate_add_rejected(self):
        reg = self._registry()
        with pytest.raises(ValueError, match="already registered"):
            reg.add(Host("a", "v100"))

    def test_unknown_host_lookup(self):
        with pytest.raises(KeyError, match="unknown host"):
            HostRegistry().get("ghost")

    def test_capacity_accounting(self):
        reg = self._registry()
        assert reg.serving_slots() == 3
        assert reg.capacity_by_type() == {"v100": 2, "t4": 1}
        assert [h.host_id for h in reg.serving_hosts()] == ["a", "b"]
        assert [h.host_id for h in reg.in_state(CANDIDATE)] == ["c"]

    def test_iteration_is_registration_order(self):
        reg = self._registry()
        assert [h.host_id for h in reg] == ["a", "b", "c"]
        assert len(reg) == 3 and "a" in reg and "ghost" not in reg


MOOT = None
RAISES = InvalidTransitionError
#: what each op does from each state, columns in HOST_STATES order: the
#: states it passes through, MOOT, or RAISES
OP_TABLE = {
    #                  candidate       warming          active
    #                  draining        blacklisted      removed
    "announce": (
        (WARMING,), RAISES, RAISES,
        RAISES, RAISES, RAISES,
    ),
    "join": (
        MOOT, (ACTIVE,), MOOT,
        MOOT, MOOT, MOOT,
    ),
    "blacklist": (
        (BLACKLISTED,), (BLACKLISTED,), (BLACKLISTED,),
        RAISES, RAISES, RAISES,
    ),
    "rejoin": (
        MOOT, MOOT, MOOT,
        MOOT, (ACTIVE,), MOOT,
    ),
    "drain": (
        RAISES, (REMOVED,), (DRAINING, REMOVED),
        RAISES, (REMOVED,), RAISES,
    ),
    "reclaim_notice": (
        RAISES, (REMOVED,), (DRAINING,),
        RAISES, (REMOVED,), RAISES,
    ),
    "reclaim": (
        MOOT, MOOT, MOOT,
        (REMOVED,), MOOT, MOOT,
    ),
    "forceful_remove": (
        (REMOVED,), (REMOVED,), (REMOVED,),
        (REMOVED,), (REMOVED,), RAISES,
    ),
}


class TestOps:
    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("state", HOST_STATES)
    def test_op_from_state(self, op, state):
        expected = OP_TABLE[op][HOST_STATES.index(state)]
        reg = HostRegistry()
        host = reg.add(Host("h", "v100", state=state, deadline=5.0))
        if expected is RAISES:
            with pytest.raises(InvalidTransitionError):
                reg.apply(op, "h")
        elif expected is MOOT:
            assert reg.apply(op, "h") is False
        else:
            assert reg.apply(op, "h") is True
            rows = list(zip((state,) + expected, expected))
            assert reg.history == [("h", a, b) for a, b in rows]
            assert host.state == expected[-1] and host.deadline is None
            return
        # a moot or refused op leaves no trace
        assert (host.state, host.deadline, reg.history) == (state, 5.0, [])

    def test_paths_follow_the_graph_and_windows_close_by_ops(self):
        assert set(OP_TABLE) == set(OPS)
        for op, paths in OPS.items():
            for state, path in paths.items():
                for a, b in zip((state,) + path, path):
                    assert b in TRANSITIONS[a], (op, state, path)
        for kind, closer in WINDOWS.items():
            (window,) = OPS[closer]  # moot outside its one window state
            # the opener, from a serving or fresh host, leaves it in the window
            start = CANDIDATE if kind == "announce" else ACTIVE
            assert OPS[kind][start][-1] == window
        assert op_for("ready") == "join" and op_for("drain") == "drain"
