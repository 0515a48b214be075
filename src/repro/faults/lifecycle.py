"""The host lifecycle: states, the ops that move hosts, and their windows.

Every host moves through a fixed graph::

    CANDIDATE ──▶ WARMING ──▶ ACTIVE ──▶ DRAINING ──▶ REMOVED
                     │          │  ▲                    ▲
                     │          ▼  │ (expiry)           │
                     │        BLACKLISTED ──────────────┤
                     └──────────────────────────────────┘

- ``CANDIDATE`` — announced, capability known, not yet warming;
- ``WARMING`` — provisioning/health-checking; promoted to ``ACTIVE`` by
  an explicit ``ready`` event or when its warm-up deadline passes;
- ``ACTIVE`` — serving capacity;
- ``DRAINING`` — scheduled for graceful removal (in-flight work finishes,
  the job's live state moves to the remaining workers, then the host
  leaves);
- ``BLACKLISTED`` — pulled from service with an expiry, after which it
  rejoins ``ACTIVE``;
- ``REMOVED`` — terminal.

Any edge not in :data:`TRANSITIONS` raises
:class:`InvalidTransitionError` listing the allowed successors — a
malformed plan fails loudly instead of silently corrupting capacity
accounting.

Both domains move hosts by op (:data:`OPS`, :meth:`HostRegistry.apply`),
and close the windows plan kinds open by :data:`WINDOWS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.hw.gpu import type_key

__all__ = [
    "ACTIVE",
    "BLACKLISTED",
    "CANDIDATE",
    "DRAINING",
    "HOST_STATES",
    "OPS",
    "REMOVED",
    "TRANSITIONS",
    "WARMING",
    "WINDOWS",
    "Host",
    "HostRegistry",
    "InvalidTransitionError",
    "op_for",
]

CANDIDATE = "candidate"
WARMING = "warming"
ACTIVE = "active"
DRAINING = "draining"
BLACKLISTED = "blacklisted"
REMOVED = "removed"

#: Every host state.
HOST_STATES = (CANDIDATE, WARMING, ACTIVE, DRAINING, BLACKLISTED, REMOVED)

#: The validated transition graph.
TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    CANDIDATE: (WARMING, BLACKLISTED, REMOVED),
    WARMING: (ACTIVE, BLACKLISTED, REMOVED),
    ACTIVE: (DRAINING, BLACKLISTED, REMOVED),
    DRAINING: (REMOVED,),
    BLACKLISTED: (ACTIVE, REMOVED),
    REMOVED: (),
}

#: a host that serves nothing has nothing to drain: it leaves at once
_LEAVE_UNSERVED = {WARMING: (REMOVED,), BLACKLISTED: (REMOVED,)}

#: every host op: the states it applies in, each with the states the host
#: then passes through.  An op outside its states raises
#: :class:`InvalidTransitionError`, unless it closes a window
#: (:data:`WINDOWS`): then the window is already gone and the op is moot.
OPS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "announce": {CANDIDATE: (WARMING,)},
    "join": {WARMING: (ACTIVE,)},
    "blacklist": {state: (BLACKLISTED,) for state in (CANDIDATE, WARMING, ACTIVE)},
    "rejoin": {BLACKLISTED: (ACTIVE,)},
    "drain": {ACTIVE: (DRAINING, REMOVED), **_LEAVE_UNSERVED},
    "reclaim_notice": {ACTIVE: (DRAINING,), **_LEAVE_UNSERVED},
    "reclaim": {DRAINING: (REMOVED,)},
    "forceful_remove": {state: (REMOVED,) for state in HOST_STATES if state != REMOVED},
}

#: the plan kinds that open a window (warm-up, blacklist, reclaim notice),
#: each with the op that closes it once ``magnitude`` seconds have passed
WINDOWS: Dict[str, str] = {
    "announce": "join",
    "blacklist": "rejoin",
    "reclaim_notice": "reclaim",
}


def op_for(kind: str) -> str:
    """The op a plan kind applies: its own, but ``ready`` closes a warm-up
    window early."""
    return WINDOWS["announce"] if kind == "ready" else kind


class InvalidTransitionError(ValueError):
    """A lifecycle edge outside the validated transition graph."""

    def __init__(self, host_id: str, current: str, requested: str) -> None:
        allowed = TRANSITIONS.get(current, ())
        super().__init__(
            f"host {host_id!r}: cannot go {current} -> {requested}; "
            f"allowed from {current}: {allowed or '(terminal)'}"
        )
        self.host_id = host_id
        self.current = current
        self.requested = requested


@dataclass
class Host:
    """Mutable per-host record: identity, capability, lifecycle state."""

    host_id: str
    gtype: str
    slots: int = 1
    state: str = CANDIDATE
    #: when the window the host is in closes (None: in none); any op the
    #: host takes clears it
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        self.gtype = type_key(self.gtype)
        if self.slots < 1:
            raise ValueError(f"{self.host_id}: slots must be positive")
        if self.state not in HOST_STATES:
            raise ValueError(f"{self.host_id}: unknown state {self.state!r}")

    @property
    def serving(self) -> bool:
        """Whether the host currently contributes capacity."""
        return self.state in (ACTIVE, DRAINING)


class HostRegistry:
    """The roster: hosts by id, with transition validation and history.

    Iteration order is registration order, so capacity derived from the
    registry (worker assignments, pool lists) is deterministic.  A plan's
    ``roster`` (its ``initial_hosts``) is registered serving.
    """

    def __init__(self, roster: Iterable = ()) -> None:
        self._hosts: Dict[str, Host] = {}
        #: (host_id, from_state, to_state) in occurrence order
        self.history: List[Tuple[str, str, str]] = []
        for spec in roster:
            self.add(Host(spec.host_id, spec.gtype, spec.slots, state=ACTIVE))

    # ------------------------------------------------------------------
    def add(self, host: Host) -> Host:
        if host.host_id in self._hosts:
            raise ValueError(f"host {host.host_id!r} already registered")
        self._hosts[host.host_id] = host
        return host

    def get(self, host_id: str) -> Host:
        try:
            return self._hosts[host_id]
        except KeyError:
            raise KeyError(f"unknown host {host_id!r}") from None

    def __contains__(self, host_id: str) -> bool:
        return host_id in self._hosts

    def __iter__(self):
        return iter(self._hosts.values())

    def __len__(self) -> int:
        return len(self._hosts)

    # ------------------------------------------------------------------
    def transition(self, host_id: str, new_state: str) -> None:
        """Move a host along a validated lifecycle edge."""
        host = self.get(host_id)
        if new_state not in HOST_STATES:
            raise ValueError(f"unknown state {new_state!r}")
        if new_state not in TRANSITIONS[host.state]:
            raise InvalidTransitionError(host_id, host.state, new_state)
        self.history.append((host_id, host.state, new_state))
        host.state = new_state

    def apply(self, op: str, host_id: str) -> bool:
        """Apply one :data:`OPS` op to a host; False when the op is moot."""
        host = self.get(host_id)
        paths = OPS[op]
        if host.state not in paths:
            if op in WINDOWS.values():
                return False
            raise InvalidTransitionError(host_id, host.state, next(iter(paths.values()))[0])
        for state in paths[host.state]:
            self.transition(host_id, state)
        host.deadline = None
        return True

    # ------------------------------------------------------------------
    def in_state(self, *states: str) -> List[Host]:
        return [h for h in self._hosts.values() if h.state in states]

    def serving_hosts(self) -> List[Host]:
        return [h for h in self._hosts.values() if h.serving]

    def serving_slots(self) -> int:
        return sum(h.slots for h in self.serving_hosts())

    def capacity_by_type(self) -> Dict[str, int]:
        """Serving slots per GPU type key."""
        counts: Dict[str, int] = {}
        for host in self.serving_hosts():
            counts[host.gtype] = counts.get(host.gtype, 0) + host.slots
        return counts

