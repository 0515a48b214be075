"""Declarative, seeded membership plans: host churn as a replayable input.

The faults package covers the *sudden* half of elasticity; this module is
the *anticipated* half: hosts that announce themselves, warm up, get
blacklisted, drain gracefully during rolling upgrades, or leave with a
spot-reclaim notice.  Like a :class:`~repro.faults.schedule.FaultPlan`, a
:class:`MembershipPlan` is a seeded, JSON-round-trippable schedule of
timed :class:`HostEvent`\\ s over a fixed starting roster of
:class:`HostSpec`\\ s — so any membership scenario can be replayed
exactly (``repro membership replay``) and proven bitwise-identical to
the static run via the determinism audit trail.

Two trigger domains share one event type, mirroring fault plans:

- ``at_step`` — global-step boundaries of a live engine, consumed by the
  :class:`~repro.membership.controller.MembershipController`;
- ``at_time`` — simulated seconds inside the
  :class:`~repro.sched.simulator.ClusterSimulator`.

Event kinds (``magnitude`` is kind-specific, always in *seconds*):

====================  ====================================================
``announce``          a new host appears (CANDIDATE) and starts warming;
                      carries ``gtype``/``slots``; ``magnitude`` is the
                      warm-up duration (0 = ready at the next boundary)
``ready``             explicit promotion WARMING → ACTIVE (health check
                      passed before the warm-up deadline)
``blacklist``         the host is pulled from service; ``magnitude`` is
                      the expiry after which it rejoins (ACTIVE)
``drain``             graceful removal: the in-flight step finishes and
                      the job's live state moves to the remaining
                      workers before the host leaves (zero lost work);
                      rolling upgrades queue drains and release at most
                      ``max_unavailable`` at a time
``reclaim_notice``    spot reclaim with notice: the host keeps serving
                      for ``magnitude`` seconds, then drains gracefully
``forceful_remove``   the host vanishes without notice — routed through
                      the abrupt :class:`ResilienceController` recovery
                      path (snapshot fallback)
====================  ====================================================
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.faults.schedule import validate_event_kinds

MEMBERSHIP_FORMAT_VERSION = 1

#: All recognized membership event kinds.
MEMBERSHIP_KINDS = (
    "announce",
    "ready",
    "blacklist",
    "drain",
    "reclaim_notice",
    "forceful_remove",
)

#: Kinds whose capacity change is negotiated at a step boundary (the host
#: side stays reachable long enough to hand its state over).
GRACEFUL_MEMBERSHIP_KINDS = frozenset(set(MEMBERSHIP_KINDS) - {"forceful_remove"})

#: Kinds that (eventually) remove the host's capacity.
REMOVAL_KINDS = frozenset({"blacklist", "drain", "reclaim_notice", "forceful_remove"})


@dataclass(frozen=True)
class HostSpec:
    """One host's identity and capability: GPU type and slot count."""

    host_id: str
    gtype: str
    slots: int = 1

    def __post_init__(self) -> None:
        if not self.host_id:
            raise ValueError("host_id must be non-empty")
        if not self.gtype:
            raise ValueError(f"{self.host_id}: gtype must be non-empty")
        object.__setattr__(self, "gtype", self.gtype.lower())
        if self.slots < 1:
            raise ValueError(f"{self.host_id}: slots must be positive")

    def to_state(self) -> Dict[str, Any]:
        return {"host_id": self.host_id, "gtype": self.gtype, "slots": self.slots}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "HostSpec":
        return cls(
            host_id=str(state["host_id"]),
            gtype=str(state["gtype"]),
            slots=int(state.get("slots", 1)),
        )


@dataclass(frozen=True)
class HostEvent:
    """One timed membership event for one host.

    Exactly one of ``at_step`` / ``at_time`` must be set.  ``gtype`` and
    ``slots`` are required for ``announce`` (the host is new) and ignored
    otherwise.  ``magnitude`` is the kind's duration in seconds (warm-up,
    blacklist expiry, reclaim notice).
    """

    kind: str
    host: str
    at_step: Optional[int] = None
    at_time: Optional[float] = None
    gtype: Optional[str] = None
    slots: int = 1
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in MEMBERSHIP_KINDS:
            raise ValueError(
                f"unknown membership kind {self.kind!r}; "
                f"expected one of {MEMBERSHIP_KINDS}"
            )
        if not self.host:
            raise ValueError(f"{self.kind}: host must be non-empty")
        if (self.at_step is None) == (self.at_time is None):
            raise ValueError(
                f"{self.kind}: exactly one of at_step/at_time must be set "
                f"(got at_step={self.at_step}, at_time={self.at_time})"
            )
        if self.at_step is not None and self.at_step < 0:
            raise ValueError(f"{self.kind}: at_step must be non-negative")
        if self.at_time is not None and self.at_time < 0:
            raise ValueError(f"{self.kind}: at_time must be non-negative")
        if self.magnitude < 0:
            raise ValueError(f"{self.kind}: magnitude must be non-negative")
        if self.kind == "announce":
            if not self.gtype:
                raise ValueError(f"announce for {self.host!r} needs a gtype")
            object.__setattr__(self, "gtype", self.gtype.lower())
            if self.slots < 1:
                raise ValueError(f"announce for {self.host!r}: slots must be positive")
        if self.kind in ("blacklist", "reclaim_notice") and self.magnitude <= 0:
            raise ValueError(
                f"{self.kind} for {self.host!r} needs a positive magnitude "
                f"(expiry/notice seconds)"
            )

    # ------------------------------------------------------------------
    @property
    def trigger(self) -> float:
        """Sort key within a plan (step index or sim seconds)."""
        return float(self.at_step if self.at_step is not None else self.at_time)

    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {"kind": self.kind, "host": self.host}
        if self.at_step is not None:
            state["at_step"] = self.at_step
        if self.at_time is not None:
            state["at_time"] = self.at_time
        if self.gtype is not None:
            state["gtype"] = self.gtype
            state["slots"] = self.slots
        if self.magnitude:
            state["magnitude"] = self.magnitude
        return state

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "HostEvent":
        return cls(
            kind=str(state["kind"]),
            host=str(state["host"]),
            at_step=int(state["at_step"]) if state.get("at_step") is not None else None,
            at_time=float(state["at_time"]) if state.get("at_time") is not None else None,
            gtype=str(state["gtype"]) if state.get("gtype") is not None else None,
            slots=int(state.get("slots", 1)),
            magnitude=float(state.get("magnitude", 0.0)),
        )


@dataclass(frozen=True)
class MembershipPlan:
    """A starting host roster plus an ordered schedule of host events.

    ``max_unavailable`` bounds rolling upgrades: at most that many hosts
    may be draining at any decision point; further due drains are
    deferred to later boundaries (the rolling-upgrade knob).
    """

    initial_hosts: Tuple[HostSpec, ...]
    events: Tuple[HostEvent, ...] = ()
    seed: int = 0
    note: str = ""
    max_unavailable: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial_hosts", tuple(self.initial_hosts))
        object.__setattr__(self, "events", tuple(self.events))
        if not self.initial_hosts:
            raise ValueError("membership plan needs at least one initial host")
        if self.max_unavailable < 1:
            raise ValueError("max_unavailable must be positive")
        triggers = [e.trigger for e in self.events]
        if triggers != sorted(triggers):
            raise ValueError("membership plan events must be ordered by trigger")
        known = set()
        for spec in self.initial_hosts:
            if spec.host_id in known:
                raise ValueError(f"duplicate initial host {spec.host_id!r}")
            known.add(spec.host_id)
        for event in self.events:
            if event.kind == "announce":
                if event.host in known:
                    raise ValueError(
                        f"announce for {event.host!r}: host already exists"
                    )
                known.add(event.host)
            elif event.host not in known:
                raise ValueError(
                    f"{event.kind} for {event.host!r}: host was never "
                    f"announced and is not in the initial roster"
                )

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    @property
    def step_events(self) -> Tuple[HostEvent, ...]:
        return tuple(e for e in self.events if e.at_step is not None)

    @property
    def time_events(self) -> Tuple[HostEvent, ...]:
        return tuple(e for e in self.events if e.at_time is not None)

    def host_spec(self, host_id: str) -> Optional[HostSpec]:
        """The capability of a host, from the roster or its announce."""
        for spec in self.initial_hosts:
            if spec.host_id == host_id:
                return spec
        for event in self.events:
            if event.kind == "announce" and event.host == host_id:
                return HostSpec(host_id=host_id, gtype=event.gtype, slots=event.slots)
        return None

    def describe(self) -> str:
        lines = [
            f"membership plan (seed {self.seed}, {len(self.initial_hosts)} "
            f"initial host(s), {len(self.events)} event(s), "
            f"max_unavailable={self.max_unavailable})"
        ]
        if self.note:
            lines.append(f"  note: {self.note}")
        for spec in self.initial_hosts:
            lines.append(f"  initial      {spec.host_id:<16} {spec.slots}x{spec.gtype}")
        for event in self.events:
            where = (
                f"step {event.at_step}" if event.at_step is not None
                else f"t={event.at_time:.1f}s"
            )
            extra = ""
            if event.gtype is not None:
                extra = f" {event.slots}x{event.gtype}"
            if event.magnitude:
                extra += f" magnitude={event.magnitude:g}s"
            lines.append(
                f"  {where:>12} {event.kind:<16} {event.host}{extra}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "version": MEMBERSHIP_FORMAT_VERSION,
                "seed": self.seed,
                "note": self.note,
                "max_unavailable": self.max_unavailable,
                "initial_hosts": [h.to_state() for h in self.initial_hosts],
                "events": [e.to_state() for e in self.events],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str, source: str = "membership plan") -> "MembershipPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"malformed membership plan JSON: {err}") from err
        if not isinstance(payload, dict):
            raise ValueError("membership plan must be a JSON object")
        version = payload.get("version", MEMBERSHIP_FORMAT_VERSION)
        if version != MEMBERSHIP_FORMAT_VERSION:
            raise ValueError(f"unsupported membership plan version {version}")
        if "initial_hosts" not in payload:
            raise ValueError("membership plan is missing the 'initial_hosts' list")
        hosts = payload["initial_hosts"]
        if not isinstance(hosts, list):
            raise ValueError("membership plan 'initial_hosts' must be a list")
        events = payload.get("events", [])
        if not isinstance(events, list):
            raise ValueError("membership plan 'events' must be a list")
        validate_event_kinds(events, MEMBERSHIP_KINDS, source=source)
        return cls(
            initial_hosts=tuple(HostSpec.from_state(h) for h in hosts),
            events=tuple(HostEvent.from_state(e) for e in events),
            seed=int(payload.get("seed", 0)),
            note=str(payload.get("note", "")),
            max_unavailable=int(payload.get("max_unavailable", 1)),
        )

    def save(self, path) -> None:
        import os

        path = os.fspath(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "MembershipPlan":
        import os

        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read(), source=os.fspath(path))


# ----------------------------------------------------------------------
# canned + seeded generation
# ----------------------------------------------------------------------
def rolling_upgrade_plan(
    hosts: Sequence[HostSpec],
    start_step: int = 1,
    max_unavailable: int = 1,
    keep: int = 1,
    note: str = "rolling upgrade",
) -> MembershipPlan:
    """Drain every host except the last ``keep`` in roster order.

    All drains are *due* at ``start_step``; ``max_unavailable`` makes the
    controller release them one wave at a time — the canonical rolling
    upgrade shape.
    """
    hosts = tuple(hosts)
    if keep < 1:
        raise ValueError("a rolling upgrade must keep at least one host")
    if len(hosts) <= keep:
        raise ValueError("nothing to drain: roster is not larger than 'keep'")
    events = tuple(
        HostEvent(kind="drain", host=spec.host_id, at_step=start_step)
        for spec in hosts[: len(hosts) - keep]
    )
    return MembershipPlan(
        initial_hosts=hosts,
        events=events,
        max_unavailable=max_unavailable,
        note=note,
    )


def random_membership_plan(
    seed: int,
    horizon_steps: int,
    initial_hosts: Optional[Sequence[HostSpec]] = None,
    max_events: int = 4,
    note: str = "",
) -> MembershipPlan:
    """Generate a step-triggered membership plan a job survives.

    Deterministic in ``seed``.  Removal events are bounded so at least
    one host is always left serving; events land on steps
    ``1..horizon_steps-1`` (step 0 is left alone so every run has an
    uncorrupted initial snapshot and a non-empty starting pool).
    """
    if horizon_steps < 2:
        raise ValueError("horizon must span at least 2 steps")
    if max_events < 1:
        raise ValueError("max_events must be positive")
    rng = random.Random(seed)
    roster: Tuple[HostSpec, ...] = tuple(
        initial_hosts
        if initial_hosts is not None
        else (
            HostSpec("v100-host0", "v100", 1),
            HostSpec("v100-host1", "v100", 1),
            HostSpec("t4-host0", "t4", 1),
            HostSpec("t4-host1", "t4", 1),
        )
    )
    # only roster hosts receive removal events: an event may sort to an
    # earlier step than an elastic host's announce, and a host gets at
    # most one lifecycle-changing event (no drain of a blacklisted host)
    touched: set = set()
    events: List[HostEvent] = []
    announced = 0
    for _ in range(rng.randint(1, max_events)):
        step = rng.randint(1, horizon_steps - 1)
        kind = rng.choice(MEMBERSHIP_KINDS)
        if kind == "ready":
            kind = "announce"  # ready only makes sense after an announce
        if kind in ("drain", "reclaim_notice", "forceful_remove", "blacklist"):
            # keep at least one roster host serving at all times
            candidates = [s.host_id for s in roster if s.host_id not in touched]
            if len(candidates) <= 1:
                kind = "announce"
            else:
                host = rng.choice(candidates)
                touched.add(host)
                if kind == "reclaim_notice":
                    magnitude = float(rng.choice([15.0, 30.0, 60.0]))
                elif kind == "blacklist":
                    magnitude = float(rng.choice([20.0, 40.0, 80.0]))
                else:
                    magnitude = 0.0
                events.append(
                    HostEvent(kind=kind, host=host, at_step=step, magnitude=magnitude)
                )
                continue
        # announce a fresh elastic host (warm-up in seconds, may be 0)
        host = f"elastic-{seed}-{announced}"
        announced += 1
        events.append(
            HostEvent(
                kind="announce",
                host=host,
                at_step=step,
                gtype=rng.choice(["v100", "t4"]),
                slots=1,
                magnitude=float(rng.choice([0.0, 10.0, 30.0])),
            )
        )
    events.sort(key=lambda e: (e.trigger, e.kind, e.host))
    return MembershipPlan(
        initial_hosts=roster, events=tuple(events), seed=seed, note=note
    )
