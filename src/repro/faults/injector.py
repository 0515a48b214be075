"""Delivering a plan's events: one step-domain and one sim-domain deliverer.

Both take an :class:`~repro.faults.schedule.EventPlan` of any kinds and
fire each event exactly once, at a deterministic point.

:class:`StepDeliverer` serves a live engine.  Its one :meth:`~StepDeliverer.due`
consumes the unfired events of some kinds whose ``at_step`` has arrived;
everything else is a kind filter over it:

- **engine hook** — :meth:`StepDeliverer.on_step_boundary` is called by
  :meth:`EasyScaleEngine._run_global_step` before any batch is loaded; a
  due ``node_preempt`` or ``forceful_remove`` raises
  :class:`NodePreemptSignal` there.
- **worker hook** — :meth:`StepDeliverer.on_local_step` is called by
  :class:`~repro.core.worker.EasyScaleWorker` at the start of every EST
  local step; a due ``worker_crash`` raises :class:`WorkerCrashSignal`
  *mid-step*, after sibling ESTs may already have mutated shared state —
  exactly the situation where only a checkpoint-based restore can keep
  the bitwise guarantee.
- **controller events** — graceful kinds are pulled at each step
  boundary by the :class:`~repro.faults.controller.ResilienceController`:
  the host kinds through :meth:`StepDeliverer.due`, then the fault kinds
  through :meth:`StepDeliverer.boundary_events`.

:class:`SimDriver` serves the cluster simulator's sim-time domain from a
static action list.

Signals deliberately do **not** derive from ``Exception`` subclasses the
training stack catches anywhere — they propagate through the engine to
whoever supervises it, like a process death would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Collection, Iterator, List, Optional, Tuple

from repro.faults.lifecycle import CANDIDATE, WINDOWS, Host, HostRegistry, op_for
from repro.faults.schedule import EventPlan, PlanEvent, kinds
from repro.obs import flightrec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core<->faults cycle
    from repro.core.engine import EasyScaleEngine

#: abrupt kinds that take GPUs away: raised at the engine's step boundary
_PREEMPT_KINDS = kinds(graceful=False, removes=True)
_GRACEFUL_FAULT_KINDS = kinds("fault", graceful=True)


class FaultSignal(Exception):
    """Base class for injected failures surfacing out of the engine."""

    def __init__(self, event: PlanEvent, detail: str = "") -> None:
        self.event = event
        where = (
            f"step {event.at_step}" if event.at_step is not None
            else f"t={event.at_time}"
        )
        super().__init__(f"injected {event.kind} at {where}{detail}")


class WorkerCrashSignal(FaultSignal):
    """A worker process died mid-step; its in-memory state is gone."""

    def __init__(self, event: PlanEvent, worker_id: int, vrank: int) -> None:
        self.worker_id = worker_id
        self.vrank = vrank
        super().__init__(event, detail=f" (worker {worker_id}, during EST {vrank})")


class NodePreemptSignal(FaultSignal):
    """A node was reclaimed; several GPUs vanish at once."""


class StepDeliverer:
    """Fire a plan's step-triggered events into a live engine, exactly once.

    An event is due once its ``at_step`` has arrived (``<=``): the
    supervising loop visits every step boundary in order and a recovery
    only rewinds, so each event still fires at its own step, and fired
    events stay fired — a fault is not re-raised when the recovered engine
    re-executes the same step.  The deliverer carries no numerical state
    and never touches the model, RNG, or loader (attaching one to an empty
    plan is a bitwise no-op); it survives engine rebuilds
    (``from_checkpoint`` passes it through).
    """

    def __init__(self, plan: EventPlan) -> None:
        self.plan = plan
        self._events: Tuple[PlanEvent, ...] = plan.step_events
        self._fired: set = set()
        self._current_step: Optional[int] = None
        self._num_workers: int = 1

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget fired state (reuse the deliverer for a fresh run)."""
        self._fired.clear()
        self._current_step = None
        self._num_workers = 1

    @property
    def fired_count(self) -> int:
        return len(self._fired)

    @property
    def exhausted(self) -> bool:
        return len(self._fired) == len(self._events)

    def due(
        self,
        step: int,
        kinds: Collection[str],
        where: Optional[Callable[[PlanEvent], bool]] = None,
    ) -> Iterator[PlanEvent]:
        """Consume, in plan order, the unfired events of ``kinds`` due at
        ``step`` (and accepted by ``where``).  Lazy: an event is marked
        fired as it is yielded, so a caller that stops early leaves the
        rest pending."""
        for idx, event in enumerate(self._events):
            if idx in self._fired or event.at_step > step or event.kind not in kinds:
                continue
            if where is None or where(event):
                self._fired.add(idx)
                yield event

    def pending_events(self) -> List[PlanEvent]:
        """Events not yet fired (diagnostics / completeness checks)."""
        return [e for i, e in enumerate(self._events) if i not in self._fired]

    # ------------------------------------------------------------------
    # hooks called by the engine / worker
    # ------------------------------------------------------------------
    def on_step_boundary(self, engine: "EasyScaleEngine") -> None:
        """Called at the top of every global step; may raise a signal."""
        self._current_step = engine.global_step
        self._num_workers = engine.assignment.num_workers
        for event in self.due(engine.global_step, _PREEMPT_KINDS):
            flightrec.record(
                "fault.detect", fault=event.kind, step=engine.global_step
            )
            raise NodePreemptSignal(event)

    def on_local_step(self, worker_id: int, vrank: int) -> None:
        """Called by each worker before every EST local step."""
        if self._current_step is None:
            return

        def victim(event: PlanEvent) -> bool:
            return event.target_worker(self._num_workers) == worker_id

        for event in self.due(self._current_step, ("worker_crash",), victim):
            flightrec.record(
                "fault.detect",
                fault=event.kind,
                step=self._current_step,
                worker=worker_id,
                vrank=vrank,
            )
            raise WorkerCrashSignal(event, worker_id=worker_id, vrank=vrank)

    # ------------------------------------------------------------------
    # controller-driven (graceful) events
    # ------------------------------------------------------------------
    def boundary_events(self, step: int) -> List[PlanEvent]:
        """Consume the graceful fault events due at this step boundary."""
        due = list(self.due(step, _GRACEFUL_FAULT_KINDS))
        for event in due:
            flightrec.record(
                "fault.graceful",
                fault=event.kind,
                step=step,
                target=event.target,
                magnitude=event.magnitude,
            )
        return due


#: one timed simulator operation: (time, op, host, event) — ``host`` is
#: None for a fault, whose ``op`` is its kind
SimAction = Tuple[float, str, Optional[str], PlanEvent]


class SimDriver:
    """Time-domain delivery for the simulator: one static action list.

    Each host event expands to its op (:func:`~repro.faults.lifecycle.op_for`)
    at ``at_time`` plus, when it opens a window, the op closing it at
    ``at_time + magnitude`` (:data:`~repro.faults.lifecycle.WINDOWS`: warm-up
    join, blacklist rejoin, reclaim); each fault is one operation.  Every
    decision time is thus derivable from the plan alone, and both
    simulator cores read the next one from :meth:`next_time`: neither
    ever discovers a new decision time at runtime.

    At one decision point :meth:`due` yields host operations first — in
    ``(time, op, host)`` order, so a host that joins and a fault that
    strikes at one point see consistent capacity — then the drains
    ``max_unavailable`` lets through, then faults in plan order.  A drain
    beyond the cap is deferred and retried at the next decision point of
    any kind (it piggybacks on existing decision times instead of minting
    new ones).  ``registry`` holds every host's lifecycle state.
    """

    def __init__(self, plan: EventPlan) -> None:
        self.plan = plan
        self.reset()

    def reset(self) -> None:
        self.registry = HostRegistry(self.plan.initial_hosts)
        hosts: List[SimAction] = []
        faults: List[SimAction] = []
        for event in self.plan.time_events:
            t = float(event.at_time)
            if event.family == "fault":
                faults.append((t, event.kind, None, event))
                continue
            if event.kind == "announce":
                self.registry.add(Host(event.host, event.gtype, event.slots, state=CANDIDATE))
            hosts.append((t, op_for(event.kind), event.host, event))
            if event.kind in WINDOWS:
                hosts.append((t + event.magnitude, WINDOWS[event.kind], event.host, event))
        hosts.sort(key=lambda a: a[:3])
        faults.sort(key=lambda a: a[0])
        # stable: each family keeps its own order within one time
        self.actions: Tuple[SimAction, ...] = tuple(
            sorted(hosts + faults, key=lambda a: (a[0], a[2] is None))
        )
        self._cursor = 0
        #: drains held back by ``max_unavailable``, released FIFO
        self.deferred: List[SimAction] = []

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.actions) and not self.deferred

    def next_time(self, after: float) -> Optional[float]:
        """The earliest pending action time strictly after ``after``."""
        for action in self.actions[self._cursor:]:
            if action[0] > after:
                return action[0]
        return None

    def due(self, now: float) -> List[SimAction]:
        """Pop every action due at ``now``, honoring ``max_unavailable``."""
        hosts: List[SimAction] = []
        drains, self.deferred = self.deferred, []
        faults: List[SimAction] = []
        while self._cursor < len(self.actions) and self.actions[self._cursor][0] <= now:
            action = self.actions[self._cursor]
            self._cursor += 1
            if action[2] is None:
                faults.append(action)
            elif action[1] == "drain":
                drains.append(action)
            else:
                hosts.append(action)
        cap = self.plan.max_unavailable
        self.deferred = drains[cap:]
        return hosts + drains[:cap] + faults
