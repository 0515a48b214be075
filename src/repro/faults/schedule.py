"""Declarative, seeded event plans: failure and host churn as replayable input.

EasyScale's headline claim (§3.2, §4) is that a job can lose or gain
workers at *any* moment — crash, preemption, drain, join — and resume on
a different allocation with a bitwise-identical model.  Exercising that
claim needs scale events that are themselves **deterministic**: an
:class:`EventPlan` is a JSON-round-trippable schedule of timed
:class:`PlanEvent`\\ s, generated from a seed, so any chaotic run can be
replayed exactly (``repro faults replay`` / ``repro membership replay``)
and any divergence bisected with the audit trail.

Two trigger domains share the one event type:

- ``at_step`` — global-step boundaries of a live
  :class:`~repro.core.engine.EasyScaleEngine`, delivered by
  :class:`~repro.faults.injector.StepDeliverer`;
- ``at_time`` — simulated seconds inside the
  :class:`~repro.sched.simulator.ClusterSimulator`, delivered by
  :class:`~repro.faults.injector.SimDriver`.

Every kind is one row of :data:`KINDS`: its family (``fault`` strikes a
job, ``host`` changes the roster), whether it is negotiated at a step
boundary (graceful) or strikes without warning (abrupt: recovery falls
back to the last snapshot), whether it takes capacity away, and the rule
and default of its ``magnitude``.  A plan with host events carries the
starting roster (``initial_hosts``) and the rolling-upgrade cap
``max_unavailable``; docs/FAULT_TOLERANCE.md, "Event plans", has the
table and both file shapes.
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.hw.gpu import GPU_TYPES, type_key

PLAN_FORMAT_VERSION = 1


class Kind(NamedTuple):
    """One row of the kind table."""

    family: str  # "fault" | "host"
    graceful: bool  # negotiated at a step boundary (False: snapshot fallback)
    removes: bool  # takes capacity away (eventually, for notices)
    rule: Tuple[str, float]  # magnitude must be <op> <bound>
    default: float  # magnitude when the event omits it


#: The kind table; row order is the order generators draw kinds in.
KINDS: Dict[str, Kind] = {
    # a worker process dies mid-step; its in-memory state is unreachable
    "worker_crash": Kind("fault", False, False, (">", 0.0), 1.0),
    # scale-in notice: on-demand checkpoint, then one GPU leaves
    "gpu_revoke": Kind("fault", True, True, (">", 0.0), 1.0),
    # ``magnitude`` GPUs vanish at once (serving spike)
    "node_preempt": Kind("fault", False, True, (">", 0.0), 1.0),
    # a worker degrades by ``magnitude``x (modeled time only)
    "slowdown": Kind("fault", True, False, (">=", 1.0), 1.0),
    # bit-flip the newest periodic snapshot (the CRC layer must catch it)
    "checkpoint_corrupt": Kind("fault", True, False, (">", 0.0), 1.0),
    # the next recovery takes ``magnitude`` extra seconds
    "restart_delay": Kind("fault", True, False, (">", 0.0), 1.0),
    # a new host (``gtype``/``slots``) appears and warms for ``magnitude`` s
    "announce": Kind("host", True, False, (">=", 0.0), 0.0),
    # explicit WARMING -> ACTIVE before the warm-up deadline
    "ready": Kind("host", True, False, (">=", 0.0), 0.0),
    # pulled from service; rejoins after ``magnitude`` s
    "blacklist": Kind("host", True, True, (">", 0.0), 0.0),
    # graceful removal, at most ``max_unavailable`` hosts at a time
    "drain": Kind("host", True, True, (">=", 0.0), 0.0),
    # spot reclaim: serves ``magnitude`` s more, then drains
    "reclaim_notice": Kind("host", True, True, (">", 0.0), 0.0),
    # the host vanishes without notice (snapshot fallback)
    "forceful_remove": Kind("host", False, True, (">=", 0.0), 0.0),
}

_COMPARE = {">": operator.gt, ">=": operator.ge}

#: the kinds after which a host leaves, and what a later step-triggered
#: event may still name it with (``ready`` is a no-op on a host that is not
#: warming)
_MAY_FOLLOW = {
    "drain": ("ready",),
    "forceful_remove": ("ready",),
    "reclaim_notice": ("forceful_remove", "ready"),
}


def kinds(
    family: Optional[str] = None,
    graceful: Optional[bool] = None,
    removes: Optional[bool] = None,
) -> Tuple[str, ...]:
    """The kinds whose row matches every given column, in table order."""
    return tuple(
        name
        for name, row in KINDS.items()
        if family in (None, row.family)
        and graceful in (None, row.graceful)
        and removes in (None, row.removes)
    )


FAULT_KINDS = kinds("fault")
MEMBERSHIP_KINDS = kinds("host")


def _check_gtype(gtype: str, who: str) -> str:
    if type_key(gtype) not in GPU_TYPES:
        raise ValueError(f"{who}: unknown GPU type {gtype!r}; expected one of {sorted(GPU_TYPES)}")
    return type_key(gtype)


def _field(state: Dict[str, Any], key: str, kind: type, default: Any = None) -> Any:
    """``state[key]`` if it has JSON type ``kind`` (bools are not numbers)."""
    value = state.get(key)
    if value is None:
        return default
    if kind is float and isinstance(value, int):
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = {int: "an integer", float: "a number", str: "a string"}[kind]
        raise ValueError(f"{key} must be {noun}, got {value!r}")
    return value


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
        object.__setattr__(self, "gtype", _check_gtype(self.gtype, self.host_id))
        if self.slots < 1:
            raise ValueError(f"{self.host_id}: slots must be positive")

    def to_state(self) -> Dict[str, Any]:
        return {"host_id": self.host_id, "gtype": self.gtype, "slots": self.slots}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "HostSpec":
        if not isinstance(state, dict):
            raise ValueError(f"must be a JSON object, got {type(state).__name__}")
        return cls(
            host_id=_field(state, "host_id", str, ""),
            gtype=_field(state, "gtype", str, ""),
            slots=_field(state, "slots", int, 1),
        )


@dataclass(frozen=True)
class PlanEvent:
    """One timed event of any kind in :data:`KINDS`.

    Exactly one of ``at_step`` / ``at_time`` must be set.  Fault kinds
    address their victim with ``target``: ``"worker:<i>"`` (engine worker
    index, taken modulo the live worker count), a GPU type name (``"t4"``)
    for revocations, or ``"job:<id>"`` in the simulator; ``None`` lets the
    deliverer pick deterministically.  Host kinds name their ``host``;
    ``announce`` also carries the new host's ``gtype`` and ``slots``.
    ``magnitude`` follows the kind's rule: the slowdown factor, the
    preempted GPU count, or a duration in seconds.
    """

    kind: str
    at_step: Optional[int] = None
    at_time: Optional[float] = None
    target: Optional[str] = None
    magnitude: Optional[float] = None
    host: Optional[str] = None
    gtype: Optional[str] = None
    slots: int = 1

    def __post_init__(self) -> None:
        row = KINDS.get(self.kind)
        if row is None:
            raise ValueError(
                f"unknown event kind {self.kind!r}; expected one of {tuple(KINDS)}"
            )
        if (self.at_step is None) == (self.at_time is None):
            raise ValueError(
                f"{self.kind}: exactly one of at_step/at_time must be set "
                f"(got at_step={self.at_step}, at_time={self.at_time})"
            )
        if self.at_step is not None and self.at_step < 0:
            raise ValueError(f"{self.kind}: at_step must be non-negative")
        if self.at_time is not None and not 0 <= self.at_time < math.inf:
            raise ValueError(f"{self.kind}: at_time must be finite and non-negative")
        if self.magnitude is None:
            object.__setattr__(self, "magnitude", row.default)
        op, bound = row.rule
        if not (_COMPARE[op](self.magnitude, bound) and math.isfinite(self.magnitude)):
            raise ValueError(
                f"{self.kind}: magnitude must be {op} {bound:g}, got {self.magnitude!r}"
            )
        if (row.family == "host") != bool(self.host):
            need = "needs a host" if row.family == "host" else "takes no host"
            raise ValueError(f"{self.kind}: {need}")
        if self.kind == "announce":
            if not self.gtype:
                raise ValueError(f"announce for {self.host!r} needs a gtype")
            if self.slots < 1:
                raise ValueError(f"announce for {self.host!r}: slots must be positive")
        if self.gtype is not None:
            object.__setattr__(self, "gtype", _check_gtype(self.gtype, self.host))

    # ------------------------------------------------------------------
    @property
    def family(self) -> str:
        return KINDS[self.kind].family

    @property
    def trigger(self) -> float:
        """Sort key within a plan (step index or sim seconds)."""
        return float(self.at_step if self.at_step is not None else self.at_time)

    def target_worker(self, num_workers: int) -> int:
        """Resolve the victim worker index for a live allocation.

        Accepts ``"worker:<i>"`` or a bare integer string; ``None`` maps to
        worker 0.  The index is taken modulo ``num_workers`` so a plan
        authored for one allocation stays valid (and deterministic) after
        the job has been rescaled.
        """
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        raw = 0
        if self.target is not None:
            text = self.target.split(":", 1)[-1]
            try:
                raw = int(text)
            except ValueError:
                raise ValueError(
                    f"{self.kind}: target {self.target!r} is not a worker index"
                ) from None
        return raw % num_workers

    def target_job(self) -> Optional[str]:
        """The explicit victim job id (``"job:<id>"``), if any."""
        if self.target is not None and self.target.startswith("job:"):
            return self.target.split(":", 1)[1]
        return None

    def target_gtype(self) -> Optional[str]:
        """The explicit victim GPU type (its key), if any."""
        if self.target is None:
            return None
        if self.target.startswith(("worker:", "job:")):
            return None
        return type_key(self.target)

    def describe(self) -> str:
        where = (
            f"step {self.at_step}" if self.at_step is not None
            else f"t={self.at_time:.1f}s"
        )
        if self.family == "fault":
            extra = f" target={self.target}" if self.target else ""
            return f"  {where:>12}  {self.kind:<18} magnitude={self.magnitude:g}{extra}"
        extra = f" {self.slots}x{self.gtype}" if self.gtype is not None else ""
        if self.magnitude:
            extra += f" magnitude={self.magnitude:g}s"
        return f"  {where:>12} {self.kind:<16} {self.host}{extra}"

    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {"kind": self.kind}
        for key in ("host", "at_step", "at_time", "target"):
            if getattr(self, key) is not None:
                state[key] = getattr(self, key)
        if self.gtype is not None:
            state["gtype"] = self.gtype
            state["slots"] = self.slots
        if self.family == "fault" or self.magnitude:
            state["magnitude"] = self.magnitude
        return state

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "PlanEvent":
        if not isinstance(state, dict):
            raise ValueError(f"must be a JSON object, got {type(state).__name__}")
        return cls(
            kind=_field(state, "kind", str),
            at_step=_field(state, "at_step", int),
            at_time=_field(state, "at_time", float),
            target=_field(state, "target", str),
            magnitude=_field(state, "magnitude", float),
            host=_field(state, "host", str),
            gtype=_field(state, "gtype", str),
            slots=_field(state, "slots", int, 1),
        )


def _trigger(event: PlanEvent) -> float:
    return event.trigger


@dataclass(frozen=True)
class EventPlan:
    """A seeded, trigger-ordered schedule of events.

    A plan with host events also carries the starting roster
    (``initial_hosts``) every host event refers to, unless the host is
    announced first.  ``max_unavailable`` bounds rolling upgrades: at most
    that many hosts may be draining at any decision point; further due
    drains are deferred to later boundaries.  Step-triggered host events
    must describe a possible lifecycle (:data:`_MAY_FOLLOW`), and at least
    one host is never drained, reclaimed or removed.
    """

    events: Tuple[PlanEvent, ...] = ()
    seed: int = 0
    note: str = ""
    initial_hosts: Tuple[HostSpec, ...] = ()
    max_unavailable: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "initial_hosts", tuple(self.initial_hosts))
        if self.max_unavailable < 1:
            raise ValueError("max_unavailable must be positive")
        triggers = [e.trigger for e in self.events]
        if triggers != sorted(triggers):
            raise ValueError("plan events must be ordered by trigger")
        known = set()
        for spec in self.initial_hosts:
            if spec.host_id in known:
                raise ValueError(f"duplicate initial host {spec.host_id!r}")
            known.add(spec.host_id)
        #: host -> (kind, index) of its latest leaving event
        left: Dict[str, Tuple[str, int]] = {}
        last = ""  # the leaving event that first named the last host to leave
        for index, event in enumerate(self.events):
            if event.family == "fault":
                continue
            if not self.initial_hosts:
                raise ValueError("a plan with host events needs at least one initial host")
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
            if event.at_step is None:
                continue  # the simulator's cluster serves on without the roster
            named = f"events[{index}]: {event.kind} for {event.host!r}"
            if event.host in left:
                kind, at = left[event.host]
                if event.kind not in _MAY_FOLLOW[kind]:
                    raise ValueError(
                        f"{named} after its {kind} at events[{at}]; only "
                        f"{' or '.join(_MAY_FOLLOW[kind])} may follow"
                    )
            elif event.kind in _MAY_FOLLOW:
                last = named
            if event.kind in _MAY_FOLLOW:
                left[event.host] = (event.kind, index)
        if left and len(left) == len(known):
            raise ValueError(
                f"{last} leaves no host the plan never drains, reclaims or "
                f"removes; keep at least one"
            )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # ------------------------------------------------------------------
    @property
    def step_events(self) -> Tuple[PlanEvent, ...]:
        return tuple(e for e in self.events if e.at_step is not None)

    @property
    def time_events(self) -> Tuple[PlanEvent, ...]:
        return tuple(e for e in self.events if e.at_time is not None)

    def merged(self, other: "EventPlan") -> "EventPlan":
        """This plan with ``other``'s events added, stably trigger-ordered
        (at one trigger, this plan's events first)."""
        return replace(self, events=sorted(self.events + other.events, key=_trigger))

    def capacity_cost(self) -> int:
        """Total GPUs the plan's faults remove from the pool (revokes + preempts)."""
        cost = 0
        for event in self.events:
            if event.kind == "gpu_revoke":
                cost += 1
            elif event.kind == "node_preempt":
                cost += int(event.magnitude)
        return cost

    def describe(self) -> str:
        if self.initial_hosts:
            lines = [
                f"membership plan (seed {self.seed}, {len(self.initial_hosts)} "
                f"initial host(s), {len(self.events)} event(s), "
                f"max_unavailable={self.max_unavailable})"
            ]
        else:
            lines = [f"fault plan (seed {self.seed}, {len(self.events)} events)"]
        if self.note:
            lines.append(f"  note: {self.note}")
        for spec in self.initial_hosts:
            lines.append(f"  initial      {spec.host_id:<16} {spec.slots}x{spec.gtype}")
        lines.extend(event.describe() for event in self.events)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload: Dict[str, Any] = {
            "version": PLAN_FORMAT_VERSION,
            "seed": self.seed,
            "note": self.note,
            "events": [e.to_state() for e in self.events],
        }
        if self.initial_hosts:
            payload["max_unavailable"] = self.max_unavailable
            payload["initial_hosts"] = [h.to_state() for h in self.initial_hosts]
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(
        cls, text: str, source: str = "plan", family: Optional[str] = None
    ) -> "EventPlan":
        """Parse a plan; ``family`` (``"fault"`` / ``"host"``) restricts the
        kinds it may hold, and ``"host"`` requires the roster.  A bad event
        or roster entry is reported as ``<source>: events[i]: <why>``."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"malformed plan JSON: {err}") from err
        if not isinstance(payload, dict):
            raise ValueError("plan must be a JSON object")
        version = payload.get("version", PLAN_FORMAT_VERSION)
        if version != PLAN_FORMAT_VERSION:
            raise ValueError(f"unsupported plan version {version}")
        if family == "fault" and "initial_hosts" in payload:
            raise ValueError("a fault plan has no 'initial_hosts' list")
        if "events" not in payload and "initial_hosts" not in payload:
            raise ValueError("plan is missing the 'events' list")
        allowed = kinds(family)
        parsed = {}
        for key, parse in (
            ("events", PlanEvent.from_state), ("initial_hosts", HostSpec.from_state)
        ):
            entries = payload.get(key, [])
            if not isinstance(entries, list):
                raise ValueError(f"plan '{key}' must be a list")
            parsed[key] = []
            for index, entry in enumerate(entries):
                try:
                    kind = entry.get("kind") if key == "events" and isinstance(entry, dict) else None
                    if kind is not None and kind not in allowed:
                        raise ValueError(f"unknown kind {kind!r}; expected one of {allowed}")
                    parsed[key].append(parse(entry))
                except ValueError as err:
                    raise ValueError(f"{source}: {key}[{index}]: {err}") from None
        plan = cls(
            events=tuple(parsed["events"]),
            initial_hosts=tuple(parsed["initial_hosts"]),
            seed=_field(payload, "seed", int, 0),
            note=_field(payload, "note", str, ""),
            max_unavailable=_field(payload, "max_unavailable", int, 1),
        )
        if family == "host" and not plan.initial_hosts:
            raise ValueError("membership plan needs a non-empty 'initial_hosts' list")
        return plan

    def save(self, path) -> None:
        import os

        path = os.fspath(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path, family: Optional[str] = None) -> "EventPlan":
        import os

        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read(), source=os.fspath(path), family=family)


# ----------------------------------------------------------------------
# seeded generation
# ----------------------------------------------------------------------
def random_plan(
    seed: int,
    horizon_steps: int,
    num_gpus: int,
    max_events: int = 4,
    kinds: Sequence[str] = FAULT_KINDS,
) -> EventPlan:
    """Generate a step-triggered fault plan that a job on ``num_gpus`` survives.

    Deterministic in ``seed``.  Capacity-removing events (revokes,
    preempts) are bounded so at least one GPU always survives; events land
    on steps ``1..horizon_steps-1`` (step 0 is left alone so every run has
    an uncorrupted initial snapshot).
    """
    if horizon_steps < 2:
        raise ValueError("horizon must span at least 2 steps")
    if num_gpus < 1:
        raise ValueError("need at least one GPU")
    if max_events < 1:
        raise ValueError("max_events must be positive")
    bad = set(kinds) - set(FAULT_KINDS)
    if bad:
        raise ValueError(f"unknown fault kinds: {sorted(bad)}")
    rng = random.Random(seed)
    budget = num_gpus - 1  # GPUs we may remove while keeping the job alive
    events: List[PlanEvent] = []
    num_events = rng.randint(1, max_events)
    for _ in range(num_events):
        kind = rng.choice(list(kinds))
        if KINDS[kind].removes and budget <= 0:
            kind = "worker_crash"  # deterministic downgrade: pool exhausted
        step = rng.randint(1, horizon_steps - 1)
        target: Optional[str] = None
        magnitude = 1.0
        if kind == "worker_crash":
            target = f"worker:{rng.randint(0, max(num_gpus - 1, 0))}"
        elif kind == "gpu_revoke":
            budget -= 1
        elif kind == "node_preempt":
            take = rng.randint(1, min(2, budget))
            budget -= take
            magnitude = float(take)
        elif kind == "slowdown":
            target = f"worker:{rng.randint(0, max(num_gpus - 1, 0))}"
            magnitude = round(rng.uniform(1.5, 3.0), 2)
        elif kind == "restart_delay":
            magnitude = round(rng.uniform(5.0, 60.0), 1)
        events.append(
            PlanEvent(kind=kind, at_step=step, target=target, magnitude=magnitude)
        )
    events.sort(key=lambda e: (e.trigger, e.kind))
    return EventPlan(events=tuple(events), seed=seed)


def random_sim_plan(
    seed: int,
    horizon_s: float,
    max_events: int = 6,
) -> EventPlan:
    """Generate a time-triggered fault plan for the cluster simulator."""
    if horizon_s <= 0:
        raise ValueError("horizon must be positive")
    rng = random.Random(seed)
    events: List[PlanEvent] = []
    for _ in range(rng.randint(1, max(max_events, 1))):
        kind = rng.choice(FAULT_KINDS)
        at_time = round(rng.uniform(0.05, 0.95) * horizon_s, 1)
        magnitude = 1.0
        if kind == "node_preempt":
            magnitude = float(rng.randint(1, 4))
        elif kind == "slowdown":
            magnitude = round(rng.uniform(1.5, 3.0), 2)
        elif kind == "restart_delay":
            magnitude = round(rng.uniform(10.0, 120.0), 1)
        events.append(PlanEvent(kind=kind, at_time=at_time, magnitude=magnitude))
    events.sort(key=lambda e: (e.trigger, e.kind))
    return EventPlan(events=tuple(events), seed=seed)


def rolling_upgrade_plan(
    hosts: Sequence[HostSpec],
    start_step: int = 1,
    max_unavailable: int = 1,
    keep: int = 1,
    note: str = "rolling upgrade",
) -> EventPlan:
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
        PlanEvent(kind="drain", host=spec.host_id, at_step=start_step)
        for spec in hosts[: len(hosts) - keep]
    )
    return EventPlan(
        initial_hosts=hosts,
        events=events,
        max_unavailable=max_unavailable,
        note=note,
    )


def random_membership_plan(
    seed: int,
    horizon_steps: int,
    max_events: int = 4,
) -> EventPlan:
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
    roster = (
        HostSpec("v100-host0", "v100", 1),
        HostSpec("v100-host1", "v100", 1),
        HostSpec("t4-host0", "t4", 1),
        HostSpec("t4-host1", "t4", 1),
    )
    # only roster hosts receive removal events: an event may sort to an
    # earlier step than an elastic host's announce, and a host gets at
    # most one lifecycle-changing event (no drain of a blacklisted host)
    touched: set = set()
    events: List[PlanEvent] = []
    announced = 0
    for _ in range(rng.randint(1, max_events)):
        step = rng.randint(1, horizon_steps - 1)
        kind = rng.choice(MEMBERSHIP_KINDS)
        if kind == "ready":
            kind = "announce"  # ready only makes sense after an announce
        if KINDS[kind].removes:
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
                    PlanEvent(kind=kind, host=host, at_step=step, magnitude=magnitude)
                )
                continue
        # announce a fresh elastic host (warm-up in seconds, may be 0)
        host = f"elastic-{seed}-{announced}"
        announced += 1
        events.append(
            PlanEvent(
                kind="announce",
                host=host,
                at_step=step,
                gtype=rng.choice(["v100", "t4"]),
                slots=1,
                magnitude=float(rng.choice([0.0, 10.0, 30.0])),
            )
        )
    events.sort(key=lambda e: (e.trigger, e.kind, e.host))
    return EventPlan(initial_hosts=roster, events=tuple(events), seed=seed)
