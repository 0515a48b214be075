"""Deterministic host discovery: replaying a membership plan.

Real elastic stacks poll a discovery service (cf. Horovod's
``RayHostDiscovery``) for the current host set.  Here discovery is the
*replay* of a seeded :class:`~repro.membership.plan.MembershipPlan`, so
every membership scenario is reproducible and can be proven bitwise-safe
against the static run:

- :class:`HostDiscovery` serves the live-engine domain: step-triggered
  events, pulled exactly once per step boundary by the
  :class:`~repro.membership.controller.MembershipController`;
- :class:`SimMembershipDriver` serves the simulator's sim-time domain.
  It expands the plan into a *static* list of timed
  :class:`MembershipAction`\\ s at construction — each event plus the
  deadlines it implies (warm-up completion, blacklist expiry, reclaim
  deadline) — so both simulator event cores (``run`` and ``run_reference``)
  see identical decision times and emit identical event streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.membership.lifecycle import ACTIVE, CANDIDATE, Host, HostRegistry
from repro.membership.plan import HostEvent, MembershipPlan


class HostDiscovery:
    """Step-domain replay of a plan's events, exactly once each.

    Mirrors :class:`~repro.faults.injector.FaultInjector`'s consumption
    contract: :meth:`due` returns every not-yet-fired event whose
    ``at_step`` has arrived (``<=``, so catch-up after a recovery cannot
    skip one), and fired events stay fired across engine rebuilds —
    the discovery object outlives any single engine.
    """

    def __init__(self, plan: MembershipPlan, kinds: Optional[frozenset] = None) -> None:
        self.plan = plan
        self._events: List[HostEvent] = [
            e for e in plan.step_events if kinds is None or e.kind in kinds
        ]
        self._fired: set = set()

    def reset(self) -> None:
        self._fired.clear()

    @property
    def exhausted(self) -> bool:
        return len(self._fired) == len(self._events)

    def due(self, step: int) -> List[HostEvent]:
        """Consume every event due at or before this step boundary."""
        fired: List[HostEvent] = []
        for idx, event in enumerate(self._events):
            if idx in self._fired or event.at_step is None or event.at_step > step:
                continue
            self._fired.add(idx)
            fired.append(event)
        return fired

    def pending(self) -> List[HostEvent]:
        return [e for i, e in enumerate(self._events) if i not in self._fired]


# ----------------------------------------------------------------------
# simulator domain
# ----------------------------------------------------------------------

#: operations the simulator applies; derived from plan events + deadlines
SIM_OPS = (
    "announce",       # host appears (no capacity change)
    "join",           # WARMING -> ACTIVE: capacity grows
    "rejoin",         # BLACKLISTED -> ACTIVE after expiry: capacity returns
    "drain",          # graceful removal (queued behind max_unavailable)
    "reclaim_notice", # spot notice: host keeps serving until the deadline
    "reclaim",        # the notice deadline: graceful removal
    "blacklist",      # graceful removal with a scheduled rejoin
    "forceful_remove",# abrupt removal: preempts owners
)


@dataclass(frozen=True)
class MembershipAction:
    """One timed simulator operation derived from the plan."""

    at_time: float
    op: str
    host_id: str

    def __post_init__(self) -> None:
        if self.op not in SIM_OPS:
            raise ValueError(f"unknown membership op {self.op!r}")
        if self.at_time < 0:
            raise ValueError(f"{self.op}: at_time must be non-negative")


class SimMembershipDriver:
    """Time-domain driver: static action list + lifecycle registry.

    All decision times are derivable from the plan alone (event times
    plus ``at_time + magnitude`` deadlines), which is what keeps the
    queue-driven ``run`` and the reference scan byte-identical: neither core
    ever discovers a new decision time at runtime.

    ``max_unavailable`` is enforced here: a due ``drain`` beyond the cap
    is deferred and retried at the next decision point of any kind (it
    piggybacks on existing decision times instead of minting new ones).
    """

    def __init__(self, plan: MembershipPlan) -> None:
        self.plan = plan
        self.registry = HostRegistry()
        for spec in plan.initial_hosts:
            self.registry.add(
                Host(spec.host_id, spec.gtype, spec.slots, state=ACTIVE)
            )
        actions: List[MembershipAction] = []
        for event in plan.time_events:
            t = float(event.at_time)
            if event.kind == "announce":
                self.registry.add(
                    Host(event.host, event.gtype, event.slots, state=CANDIDATE)
                )
                actions.append(MembershipAction(t, "announce", event.host))
                actions.append(
                    MembershipAction(t + event.magnitude, "join", event.host)
                )
            elif event.kind == "ready":
                actions.append(MembershipAction(t, "join", event.host))
            elif event.kind == "drain":
                actions.append(MembershipAction(t, "drain", event.host))
            elif event.kind == "reclaim_notice":
                actions.append(MembershipAction(t, "reclaim_notice", event.host))
                actions.append(
                    MembershipAction(t + event.magnitude, "reclaim", event.host)
                )
            elif event.kind == "blacklist":
                actions.append(MembershipAction(t, "blacklist", event.host))
                actions.append(
                    MembershipAction(t + event.magnitude, "rejoin", event.host)
                )
            elif event.kind == "forceful_remove":
                actions.append(MembershipAction(t, "forceful_remove", event.host))
        # stable total order: (time, op, host) — ops colliding at one
        # decision point apply in a deterministic sequence in both cores
        actions.sort(key=lambda a: (a.at_time, a.op, a.host_id))
        self._actions: Tuple[MembershipAction, ...] = tuple(actions)
        self._cursor = 0
        self._deferred_drains: List[MembershipAction] = []
        #: drains pushed past a decision point by max_unavailable
        self.deferrals = 0

    # ------------------------------------------------------------------
    @property
    def actions(self) -> Tuple[MembershipAction, ...]:
        return self._actions

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._actions) and not self._deferred_drains

    def times(self) -> Iterator[float]:
        """Every static decision time (``run()`` pre-enqueues them)."""
        for action in self._actions:
            yield action.at_time

    def next_time(self, after: float) -> Optional[float]:
        """The earliest pending action time strictly after ``after``."""
        for action in self._actions[self._cursor:]:
            if action.at_time > after:
                return action.at_time
        return None

    # ------------------------------------------------------------------
    def due(self, now: float) -> List[MembershipAction]:
        """Pop every action due at ``now``, honoring ``max_unavailable``.

        Deferred drains are retried first (FIFO), so a rolling upgrade
        releases hosts in plan order one wave per decision point.
        """
        ready: List[MembershipAction] = []
        drains: List[MembershipAction] = list(self._deferred_drains)
        self._deferred_drains = []
        while self._cursor < len(self._actions):
            action = self._actions[self._cursor]
            if action.at_time > now:
                break
            self._cursor += 1
            if action.op == "drain":
                drains.append(action)
            else:
                ready.append(action)
        cap = self.plan.max_unavailable
        ready.extend(drains[:cap])
        if len(drains) > cap:
            self._deferred_drains = drains[cap:]
            self.deferrals += len(drains) - cap
        return ready
