"""Membership controller: lifecycle edges become scheduler events.

Extends the :class:`~repro.faults.controller.ResilienceController` with
the *anticipated* half of elasticity.  Every boundary-negotiated
membership change (join, drain, blacklist, reclaim deadline, rejoin) is
a **graceful** transition: the in-flight step finishes and the engine
hands its live state to a worker set on the new pool
(:meth:`EasyScaleEngine.reconfigure`) — zero lost work, nothing
serialised.  Host events and any fault plan run alongside share one
:class:`~repro.faults.injector.StepDeliverer`.  A ``forceful_remove`` is
abrupt: the engine hook raises it like a ``node_preempt``, and it
recovers as the ``node_preempt`` of the host's GPUs through the
*existing* recovery machinery (snapshot fallback, retry/backoff, MTTR
accounting) — still bitwise.

Rolling upgrades: due ``drain`` events enter a FIFO queue and at most
``plan.max_unavailable`` are released per step boundary — the classic
``maxUnavailable`` knob, one drained host per wave.

Accounting: membership downtime (restart delays on each reconfigure) is
charged to the inherited ``stats.downtime_s``, keeping the exact clock
decomposition ``clock == compute_s + downtime_s``.  That controller clock
is also the deadline clock: warm-up, reclaim and blacklist windows are
stamped and compared on it, because it is the one clock that only moves
forward — through scale events, recoveries that rewind the engine to an
older step, and the restart delays themselves.
:class:`MembershipStats` additionally tracks per-kind transition counts
and ``lost_work_seconds`` — compute seconds re-executed because a
forceful removal fell back to an older snapshot; graceful-only plans
report exactly ``0.0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.faults.controller import ResilienceController
from repro.faults.injector import FaultSignal
from repro.faults.schedule import EventPlan, PlanEvent, kinds
from repro.hw.gpu import GPUType, gpu_type
from repro.membership.lifecycle import (
    ACTIVE,
    BLACKLISTED,
    DRAINING,
    REMOVED,
    WARMING,
    Host,
    HostRegistry,
)
from repro.obs import flightrec

#: host kinds the controller applies at a step boundary
_BOUNDARY_KINDS = kinds("host", graceful=True)


@dataclass
class MembershipStats:
    """Lifetime membership accounting of a controller run."""

    joins: int = 0
    drains: int = 0
    reclaim_notices: int = 0
    reclaims: int = 0
    blacklists: int = 0
    rejoins: int = 0
    forceful_removals: int = 0
    #: drain releases pushed past a boundary by ``max_unavailable``
    deferred_drains: int = 0
    #: compute seconds re-executed because a forceful removal restored an
    #: older snapshot; graceful transitions contribute exactly zero
    lost_work_seconds: float = 0.0
    #: (op, host_id, step) in occurrence order
    log: List[Tuple[str, str, int]] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"{self.joins} join(s), {self.drains} drain(s) "
            f"({self.deferred_drains} deferred), {self.reclaims} reclaim(s), "
            f"{self.blacklists} blacklist(s), {self.rejoins} rejoin(s), "
            f"{self.forceful_removals} forceful removal(s), "
            f"{self.lost_work_seconds:.1f}s work lost"
        ]
        for op, host, step in self.log:
            lines.append(f"  step {step:>4}  {op:<16} {host}")
        return "\n".join(lines)


class MembershipController(ResilienceController):
    """Supervise one EasyScale job through a membership plan.

    The starting GPU pool is the plan's initial roster; capacity then
    grows and shrinks as the plan's host events fire at step boundaries.
    An optional ``faults`` plan can run alongside: its events join the
    host events in one deliverer.
    """

    def __init__(
        self,
        spec,
        dataset,
        config,
        optimizer_factory,
        plan: EventPlan,
        faults: Optional[EventPlan] = None,
        **kwargs,
    ) -> None:
        self.registry = HostRegistry()
        for host_spec in plan.initial_hosts:
            self.registry.add(
                Host(host_spec.host_id, host_spec.gtype, host_spec.slots, state=ACTIVE)
            )
        self.mstats = MembershipStats()
        self._drain_queue: List[str] = []
        #: compute_s recorded at each step boundary; the gap between a
        #: recovery's restore step and the fault step is re-executed work
        self._compute_at_step: Dict[int, float] = {}
        if faults is not None:
            # at one step a fault plan's graceful events apply in kind order
            by_kind = sorted(faults.events, key=lambda e: (e.trigger, e.kind))
            plan = plan.merged(EventPlan(events=by_kind))
        super().__init__(
            spec,
            dataset,
            config,
            optimizer_factory,
            self._active_pool(),
            plan,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # pool derivation
    # ------------------------------------------------------------------
    def _active_pool(self) -> List[GPUType]:
        """The serving roster's GPUs, in registration order."""
        pool: List[GPUType] = []
        for host in self.registry.serving_hosts():
            pool.extend([gpu_type(host.gtype.upper())] * host.slots)
        return pool

    # ------------------------------------------------------------------
    # boundary processing
    # ------------------------------------------------------------------
    def _on_boundary(self, step: int) -> None:
        self._compute_at_step[step] = self.compute_s
        for event in self.injector.due(step, _BOUNDARY_KINDS):
            self._apply_event(event, step)
        self._apply_deadlines(step)
        self._release_drains(step)
        super()._on_boundary(step)

    def _apply_event(self, event: PlanEvent, step: int) -> None:
        if event.kind == "announce":
            host = self.registry.add(Host(event.host, event.gtype, event.slots))
            self.registry.transition(event.host, WARMING)
            host.warm_until = self.clock + event.magnitude
            self._note("announce", host, step)
        elif event.kind == "ready":
            host = self.registry.get(event.host)
            if host.state == WARMING:
                self._join(host, step)
            # already promoted by its warm-up deadline: ready is a no-op
        elif event.kind == "drain":
            self._drain_queue.append(event.host)
        elif event.kind == "reclaim_notice":
            host = self.registry.get(event.host)
            self.registry.transition(event.host, DRAINING)
            host.drain_deadline = self.clock + event.magnitude
            self.mstats.reclaim_notices += 1
            self._note("reclaim_notice", host, step)
        elif event.kind == "blacklist":
            host = self.registry.get(event.host)
            was_serving = host.serving
            self.registry.transition(event.host, BLACKLISTED)
            self.mstats.blacklists += 1
            self._note("blacklist", host, step)
            if was_serving:
                self._reconfigure("blacklist", host, step)
            # the window opens once the job runs without the host: stamped
            # before the restart delay, a short blacklist would expire
            # inside its own reconfigure
            host.blacklist_until = self.clock + event.magnitude

    def _apply_deadlines(self, step: int) -> None:
        now = self.clock
        for host in list(self.registry):
            if (
                host.state == WARMING
                and host.warm_until is not None
                and now >= host.warm_until
            ):
                self._join(host, step)
            elif (
                host.state == BLACKLISTED
                and host.blacklist_until is not None
                and now >= host.blacklist_until
            ):
                host.blacklist_until = None
                self.registry.transition(host.host_id, ACTIVE)
                self.mstats.rejoins += 1
                self._note("rejoin", host, step)
                self._reconfigure("rejoin", host, step)
            elif (
                host.state == DRAINING
                and host.drain_deadline is not None
                and now >= host.drain_deadline
            ):
                host.drain_deadline = None
                self.registry.transition(host.host_id, REMOVED)
                self.mstats.reclaims += 1
                self._note("reclaim", host, step)
                self._reconfigure("reclaim", host, step)

    def _release_drains(self, step: int) -> None:
        """Pop at most ``max_unavailable`` queued drains (rolling wave)."""
        released = 0
        while self._drain_queue and released < self.plan.max_unavailable:
            host = self.registry.get(self._drain_queue.pop(0))
            self.registry.transition(host.host_id, DRAINING)
            self.registry.transition(host.host_id, REMOVED)
            self.mstats.drains += 1
            released += 1
            self._note("drain", host, step)
            self._reconfigure("drain", host, step)
        if self._drain_queue:
            self.mstats.deferred_drains += len(self._drain_queue)

    def _join(self, host: Host, step: int) -> None:
        host.warm_until = None
        self.registry.transition(host.host_id, ACTIVE)
        self.mstats.joins += 1
        self._note("join", host, step)
        self._reconfigure("join", host, step)

    # ------------------------------------------------------------------
    # graceful reconfiguration (zero lost work by construction)
    # ------------------------------------------------------------------
    def _reconfigure(self, op: str, host: Host, step: int) -> None:
        """Hand the live job to a worker set on the new pool.

        The in-flight step finished at this boundary and the engine
        carries on from its own state, so nothing is re-executed:
        membership transitions lose no work.
        """
        pool = self._active_pool()
        if not pool:
            raise ValueError(
                f"membership plan removes all serving capacity at step {step}"
            )
        delay = self.restart_delay_s + self._pending_delay
        self._pending_delay = 0.0
        self.stats.downtime_s += delay
        self.pool = pool
        assignment = self._plan_assignment()
        flightrec.record(
            "membership.reconfigure",
            op=op,
            host=host.host_id,
            step=step,
            gpus=[g.name for g in assignment.gpus],
        )
        self.engine = self.engine.reconfigure(assignment)

    # ------------------------------------------------------------------
    # forceful removals (the abrupt recovery path)
    # ------------------------------------------------------------------
    def _handle_abrupt(self, signal: FaultSignal) -> None:
        event = signal.event
        if event.kind == "forceful_remove":
            host = self.registry.get(event.host)
            self.registry.transition(host.host_id, REMOVED)
            self.mstats.forceful_removals += 1
            self._note("forceful_remove", host, self.engine.global_step)
            # recovered as the node_preempt of the host's GPUs
            signal.event = PlanEvent(
                kind="node_preempt",
                at_step=event.at_step,
                target=host.gtype,
                magnitude=float(host.slots),
            )
        super()._handle_abrupt(signal)
        # compute spent since the restore step's boundary is re-executed
        incident = self.stats.incidents[-1]
        base = self._compute_at_step.get(incident.restore_step)
        if base is not None:
            self.mstats.lost_work_seconds += max(0.0, self.compute_s - base)

    def _shrink_pool(self, event: PlanEvent, count: int) -> None:
        # the registry is the source of truth; fall back to the parent's
        # keep-one-survivor guard only if a plan removed everything
        pool = self._active_pool()
        if pool:
            self.pool = pool
        else:
            self.pool = self.pool[:1]

    # ------------------------------------------------------------------
    def _note(self, op: str, host: Host, step: int) -> None:
        self.mstats.log.append((op, host.host_id, step))
        flightrec.record(
            "membership.transition",
            op=op,
            host=host.host_id,
            state=host.state,
            step=step,
            serving_slots=self.registry.serving_slots(),
        )
        if obs.is_enabled():
            obs.instant(
                "membership.transition",
                cat="membership",
                op=op,
                host=host.host_id,
                state=host.state,
                step=step,
            )
            registry = obs.metrics()
            registry.counter("membership_transitions_total", op=op).inc()
            registry.gauge("membership_serving_hosts").set(
                len(self.registry.serving_hosts())
            )
            registry.gauge("membership_serving_slots").set(
                self.registry.serving_slots()
            )
