"""Resilience controller: detect → checkpoint → replan → restore.

The controller is the supervision loop the paper's AIMaster implies but
never spells out (§4): it drives an :class:`EasyScaleEngine` through a
:class:`~repro.faults.schedule.EventPlan` of any kinds — faults and host
churn alike — and keeps the job's bitwise guarantee through every scale
event.  Its state machine:

::

    RUNNING ──graceful notice──▶ CHECKPOINT (on-demand, current step)
       │                              │
       │ abrupt fault                 ▼
       ▼                         REPLAN (IntraJobScheduler on survivors)
    DETECT ──▶ FALLBACK               │
       (latest valid periodic         ▼
        snapshot; corrupt copies  RESTORE (from_checkpoint, bounded
        skipped with backoff)      retry/backoff) ──▶ RUNNING

A plan with a roster (``initial_hosts``) adds the *anticipated* half of
elasticity (docs/MEMBERSHIP.md, "With a roster"): the roster's
:class:`~repro.faults.lifecycle.HostRegistry` is the only source of
capacity, host events apply that module's ops and windows, and every op
that changes what a host serves hands the live job to a worker set on
the new pool (:meth:`EasyScaleEngine.reconfigure`) — zero lost work.

Accounting is explicit, because the paper's JCT claims hinge on it: the
controller's simulated clock decomposes exactly into ``compute_s`` (the
engine's own step time, including re-executed steps) plus ``downtime_s``
(restart delays of recoveries and reconfigurations, injected delays,
corruption-retry backoff).  It is also the deadline clock of warm-up,
reclaim and blacklist windows, the one clock that only moves forward.
Per incident the controller records the **lost steps** (fault step minus
restore step) and the **MTTR** — the simulated seconds from the fault
until the job has re-reached and completed the step it was on when the
fault hit; ``lost_work_seconds`` sums the compute re-executed after
abrupt events (``0.0`` for a graceful-only plan).

Recovery preserves bitwise identity by construction: every restore path
goes through checkpoint bytes that round-trip exactly, and re-executed
steps replay the same RNG streams, batch order, and reduction schedule.
The property-based chaos tests assert the end-to-end consequence: *any*
plan yields a final model bitwise-identical to the undisturbed run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.checkpoint import Checkpoint, CheckpointCorruptError
from repro.core.engine import EasyScaleEngine, EasyScaleJobConfig, WorkerAssignment
from repro.data.datasets import Dataset
from repro.faults.injector import (
    FaultSignal,
    NodePreemptSignal,
    StepDeliverer,
    WorkerCrashSignal,
)
from repro.faults.lifecycle import OPS, WINDOWS, Host, HostRegistry, op_for
from repro.faults.manager import CheckpointManager
from repro.faults.schedule import EventPlan, PlanEvent, kinds
from repro.hw.gpu import GPUType, gpu_type
from repro.hw.timing import static_capability
from repro.models.registry import WorkloadSpec
from repro.obs import flightrec
from repro.sched.companion import CompanionModule
from repro.sched.intra import IntraJobScheduler

#: host kinds the controller applies at a step boundary
_HOST_KINDS = kinds("host", graceful=True)

#: the op that closes the window of each window state once its deadline passes
_CLOSERS = {state: op for op in WINDOWS.values() for state in OPS[op]}


class RecoveryFailedError(RuntimeError):
    """No restorable snapshot survived within the retry budget."""


@dataclass
class RecoveryIncident:
    """One fault and the recovery that answered it."""

    kind: str
    fault_step: int
    restore_step: int
    retries: int
    downtime_s: float
    clock_at_fault: float
    #: simulated seconds from fault to re-completing the fault step
    mttr_s: Optional[float] = None

    @property
    def lost_steps(self) -> int:
        return max(0, self.fault_step - self.restore_step)


def _op_count(op: str) -> property:
    """A host-transition counter, read off the stats' transition log."""
    return property(lambda stats: sum(o == op for o, _, _ in stats.log))


@dataclass
class ResilienceStats:
    """Lifetime accounting of a controller run."""

    faults_injected: int = 0
    recoveries: int = 0
    downtime_s: float = 0.0
    incidents: List[RecoveryIncident] = field(default_factory=list)
    #: the run had a host roster: :meth:`describe` leads with its line
    roster: bool = False
    #: drain releases pushed past a boundary by ``max_unavailable``
    deferred_drains: int = 0
    #: compute seconds re-executed because an abrupt event restored an
    #: older snapshot; graceful transitions contribute exactly zero
    lost_work_seconds: float = 0.0
    #: host transitions (op, host_id, step) in occurrence order
    log: List[Tuple[str, str, int]] = field(default_factory=list)

    joins = _op_count("join")
    drains = _op_count("drain")
    reclaim_notices = _op_count("reclaim_notice")
    reclaims = _op_count("reclaim")
    blacklists = _op_count("blacklist")
    rejoins = _op_count("rejoin")
    forceful_removals = _op_count("forceful_remove")

    @property
    def lost_steps(self) -> int:
        return sum(i.lost_steps for i in self.incidents)

    @property
    def mttr_values(self) -> List[float]:
        return [i.mttr_s for i in self.incidents if i.mttr_s is not None]

    @property
    def mean_mttr_s(self) -> float:
        values = self.mttr_values
        return sum(values) / len(values) if values else 0.0

    @property
    def max_mttr_s(self) -> float:
        return max(self.mttr_values, default=0.0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "faults_injected": self.faults_injected,
            "recoveries": self.recoveries,
            "lost_steps": self.lost_steps,
            "downtime_s": self.downtime_s,
            "mean_mttr_s": self.mean_mttr_s,
            "max_mttr_s": self.max_mttr_s,
            "incidents": [
                {
                    "kind": i.kind,
                    "fault_step": i.fault_step,
                    "restore_step": i.restore_step,
                    "lost_steps": i.lost_steps,
                    "retries": i.retries,
                    "downtime_s": i.downtime_s,
                    "mttr_s": i.mttr_s,
                }
                for i in self.incidents
            ],
        }

    def describe(self) -> str:
        lines = []
        if self.roster:
            lines.append(
                f"{self.joins} join(s), {self.drains} drain(s) "
                f"({self.deferred_drains} deferred), {self.reclaims} reclaim(s), "
                f"{self.blacklists} blacklist(s), {self.rejoins} rejoin(s), "
                f"{self.forceful_removals} forceful removal(s), "
                f"{self.lost_work_seconds:.1f}s work lost"
            )
            for op, host, step in self.log:
                lines.append(f"  step {step:>4}  {op:<16} {host}")
        lines.append(
            f"{self.faults_injected} fault(s) injected, "
            f"{self.recoveries} recovery(ies), "
            f"{self.lost_steps} step(s) re-executed, "
            f"{self.downtime_s:.1f}s downtime"
        )
        if self.mttr_values:
            lines.append(
                f"MTTR: mean {self.mean_mttr_s:.1f}s  max {self.max_mttr_s:.1f}s"
            )
        for i in self.incidents:
            mttr = f"{i.mttr_s:.1f}s" if i.mttr_s is not None else "open"
            lines.append(
                f"  {i.kind:<18} at step {i.fault_step:>4} -> restored step "
                f"{i.restore_step:>4} (lost {i.lost_steps}, retries {i.retries}, "
                f"mttr {mttr})"
            )
        return "\n".join(lines)


class ResilienceController:
    """Supervise one EasyScale job through an event plan.

    The controller owns the GPU pool, the host registry, a
    :class:`CheckpointManager` for periodic snapshots, an
    :class:`IntraJobScheduler` for replanning on survivors, and the engine
    itself (rebuilt on every recovery, like the restarted processes of the
    real system).  The starting pool is the plan's roster when it has
    ``initial_hosts`` (pass ``gpus=None``), and ``gpus`` otherwise.

    When an audit trail is active (``obs.configure(audit=True)``), it
    must be created with ``audit_rewind=True`` — recovered runs re-record
    the steps they re-execute.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        dataset: Dataset,
        config: EasyScaleJobConfig,
        optimizer_factory: Callable,
        gpus: Optional[Sequence[Union[str, GPUType]]],
        plan: EventPlan,
        snapshot_interval: int = 4,
        retention: int = 4,
        snapshot_dir: Optional[str] = None,
        restart_delay_s: float = 15.0,
        backoff_s: float = 5.0,
        max_retries: int = 3,
        transform=None,
        scheduler_factory=None,
        telemetry=None,
        profiler=None,
        backend=None,
    ) -> None:
        if gpus and plan.initial_hosts:
            raise ValueError(
                "pass gpus or a plan with initial_hosts, not both: "
                "the roster is the starting pool"
            )
        self.plan = plan
        self.registry = HostRegistry(plan.initial_hosts)
        self.pool: List[GPUType] = self._active_pool() or [
            g if isinstance(g, GPUType) else gpu_type(str(g)) for g in gpus or ()
        ]
        if not self.pool:
            raise ValueError("controller needs at least one GPU")
        if restart_delay_s < 0 or backoff_s < 0:
            raise ValueError("delays must be non-negative")
        if max_retries < 1:
            raise ValueError("max_retries must be positive")
        self.config = config
        self._job = (spec, dataset, config, optimizer_factory)
        self.injector = StepDeliverer(plan)
        # the backend is resolved once so every engine rebuild (recovery,
        # cold restart) reuses the same object — a process pool must survive
        # restarts; the controller never closes it (its creator does)
        from repro.exec import resolve_backend

        self._engine_kwargs = dict(
            transform=transform, scheduler_factory=scheduler_factory, telemetry=telemetry,
            profiler=profiler, fault_injector=self.injector, backend=resolve_backend(backend),
        )
        self.manager = CheckpointManager(
            interval=snapshot_interval, retention=retention, directory=snapshot_dir
        )
        self.restart_delay_s = restart_delay_s
        self.backoff_s = backoff_s
        self.max_retries = max_retries
        self.stats = ResilienceStats(roster=bool(plan.initial_hosts))
        #: engine compute seconds, including re-executed steps
        self.compute_s = 0.0
        #: per-step losses (rewound and overwritten on recovery)
        self.losses: List[List[float]] = []
        self._pending_delay = 0.0
        self._open_incidents: List[RecoveryIncident] = []
        #: due drains waiting for ``max_unavailable`` room, FIFO
        self._drain_queue: List[str] = []
        #: compute_s recorded at each step boundary; the gap between a
        #: recovery's restore step and the fault step is re-executed work
        self._compute_at_step: Dict[int, float] = {}

        trail = obs.audit_trail()
        if trail is not None and not trail.allow_rewind:
            raise ValueError(
                "the active audit trail forbids rewinds; configure it with "
                "obs.configure(..., audit_rewind=True) before attaching a "
                "ResilienceController (recoveries re-record re-executed steps)"
            )

        self.scheduler = IntraJobScheduler(
            job_id="resilient-job",
            companion=CompanionModule(
                max_p=config.num_ests,
                capability=static_capability(spec, config.determinism.kernel_policy),
            ),
        )
        self.engine = self._build_engine(self._plan_assignment())
        self.manager.take(self.engine)  # step-0 snapshot: always restorable

    # ------------------------------------------------------------------
    # derived state
    # ------------------------------------------------------------------
    @property
    def clock(self) -> float:
        """Simulated job clock: compute plus recovery downtime, exactly."""
        return self.compute_s + self.stats.downtime_s

    def _active_pool(self) -> List[GPUType]:
        """The serving roster's GPUs, in registration order."""
        hosts = self.registry.serving_hosts()
        return [gpu_type(h.gtype) for h in hosts for _ in range(h.slots)]

    def _build_engine(
        self, assignment: WorkerAssignment, ckpt: Optional[Checkpoint] = None
    ) -> EasyScaleEngine:
        """An engine on ``assignment``: restored from ``ckpt``, or built from
        the job itself (deterministic in config and seed: the job-submission
        state)."""
        if ckpt is None:
            return EasyScaleEngine(*self._job, assignment, **self._engine_kwargs)
        spec, dataset, config, optimizer_factory = self._job
        return EasyScaleEngine.from_checkpoint(
            spec, dataset, ckpt, optimizer_factory, assignment, config=config,
            **self._engine_kwargs,
        )

    def _owned(self) -> Dict[str, int]:
        owned: Dict[str, int] = {}
        for gpu in self.pool:
            owned[gpu.key] = owned.get(gpu.key, 0) + 1
        return owned

    def _plan_assignment(self) -> WorkerAssignment:
        """EST placement on the current pool via the intra-job scheduler."""
        assignment = self.scheduler.on_decision(self._owned())
        if assignment is not None:
            return assignment
        # no feasible scored plan (tiny pools, unknown types): fall back to
        # a balanced split over at most num_ests survivors
        usable = self.pool[: self.config.num_ests]
        return WorkerAssignment.balanced(usable, self.config.num_ests)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, total_steps: int) -> ResilienceStats:
        """Train to ``total_steps`` global steps, surviving the plan."""
        if total_steps < 0:
            raise ValueError("total_steps must be non-negative")
        while self.engine.global_step < total_steps:
            step = self.engine.global_step
            self._on_boundary(step)
            before = self.engine.sim_time
            try:
                losses = self.engine.run_global_step()
            except FaultSignal as signal:
                self._handle_abrupt(signal)
                continue
            self.compute_s += self.engine.sim_time - before
            del self.losses[step:]
            self.losses.append(losses)
            self._close_incidents()
            self.manager.maybe_take(self.engine)
        return self.stats

    # ------------------------------------------------------------------
    # step boundary: host events, deadlines, capped drains, graceful faults
    # ------------------------------------------------------------------
    def _on_boundary(self, step: int) -> None:
        """Consume everything due at this boundary, in the fixed order."""
        self._compute_at_step[step] = self.compute_s
        for event in self.injector.due(step, _HOST_KINDS):
            self._apply_host_event(event, step)
        self._apply_deadlines(step)
        self._release_drains(step)
        for event in self.injector.boundary_events(step):
            self._handle_graceful(event)

    def _apply_host_event(self, event: PlanEvent, step: int) -> None:
        if event.kind == "drain":
            self._drain_queue.append(event.host)
            return
        if event.kind == "announce":
            self.registry.add(Host(event.host, event.gtype, event.slots))
        host = self.registry.get(event.host)
        self._apply(op_for(event.kind), host, step)
        # the window opens once the job runs without the host: stamped
        # before the restart delay, a short blacklist would expire inside
        # its own reconfigure
        if event.kind in WINDOWS and host.state in OPS[WINDOWS[event.kind]]:
            host.deadline = self.clock + event.magnitude

    def _apply_deadlines(self, step: int) -> None:
        now = self.clock
        for host in list(self.registry):
            if host.deadline is not None and now >= host.deadline:
                self._apply(_CLOSERS[host.state], host, step)

    def _apply(self, op: str, host: Host, step: int) -> None:
        """Apply ``op``; hand the job over when the host's serving changed."""
        was_serving = host.serving
        if self.registry.apply(op, host.host_id):
            self._note(op, host, step)
            if host.serving != was_serving:
                self._reconfigure(op, host, step)

    def _release_drains(self, step: int) -> None:
        """Release at most ``max_unavailable`` queued drains (rolling wave)."""
        wave = self._drain_queue[: self.plan.max_unavailable]
        del self._drain_queue[: len(wave)]
        for host_id in wave:
            self._apply("drain", self.registry.get(host_id), step)
        self.stats.deferred_drains += len(self._drain_queue)

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
        self._charge_restart()
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

    def _note(self, op: str, host: Host, step: int) -> None:
        self.stats.log.append((op, host.host_id, step))
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

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------

    def _note_fault(self, event: PlanEvent) -> None:
        self.stats.faults_injected += 1
        flightrec.record(
            "resilience.detect",
            fault=event.kind,
            step=self.engine.global_step,
            magnitude=event.magnitude,
        )
        if obs.is_enabled():
            obs.instant(
                "fault.injected",
                cat="faults",
                kind=event.kind,
                step=self.engine.global_step,
                magnitude=event.magnitude,
            )
            obs.metrics().counter("faults_injected_total", kind=event.kind).inc()

    def _handle_graceful(self, event: PlanEvent) -> None:
        self._note_fault(event)
        if event.kind == "slowdown":
            victim = event.target_worker(len(self.engine.workers))
            self.engine.workers[victim].slowdown = float(event.magnitude)
        elif event.kind == "restart_delay":
            self._pending_delay += float(event.magnitude)
        elif event.kind == "checkpoint_corrupt":
            self.manager.corrupt_latest()
        elif event.kind == "gpu_revoke":
            self._shrink_pool(event, count=1)
            # graceful: the failing side is still reachable, so the
            # on-demand checkpoint carries the *current* step — no loss
            ckpt = self.engine.checkpoint()
            self._recover(event, ckpt, restore_step=self.engine.global_step, retries=0)
        else:  # pragma: no cover - plan validation forbids this
            raise AssertionError(f"unexpected graceful fault {event.kind}")

    def _handle_abrupt(self, signal: FaultSignal) -> None:
        event = signal.event
        if event.kind == "forceful_remove":
            host = self.registry.get(event.host)
            self.registry.apply("forceful_remove", host.host_id)
            self._note("forceful_remove", host, self.engine.global_step)
            # recovered as the node_preempt of the host's GPUs
            event = PlanEvent(
                kind="node_preempt",
                at_step=event.at_step,
                target=host.gtype,
                magnitude=float(host.slots),
            )
        self._note_fault(event)
        if isinstance(signal, NodePreemptSignal):
            self._shrink_pool(event, count=int(event.magnitude))
        elif not isinstance(signal, WorkerCrashSignal):  # pragma: no cover
            raise AssertionError(f"unexpected fault signal {type(signal).__name__}")
        ckpt, retries, backoff = self._fallback_checkpoint()
        self.stats.downtime_s += backoff
        restore_step = int(ckpt.extra["global_step"]) if ckpt is not None else 0
        self._recover(event, ckpt, restore_step=restore_step, retries=retries)
        # compute spent since the restore step's boundary is re-executed
        base = self._compute_at_step.get(restore_step)
        if base is not None:
            self.stats.lost_work_seconds += max(0.0, self.compute_s - base)

    def _shrink_pool(self, event: PlanEvent, count: int) -> None:
        """Remove ``count`` GPUs (never the last one) from the pool — with
        a roster, re-read the serving hosts' GPUs (the registry is the only
        source of capacity), keeping the first survivor if none serve."""
        if self.plan.initial_hosts:
            self.pool = self._active_pool() or self.pool[:1]
            return
        count = max(1, count)
        preferred = event.target_gtype()
        for _ in range(count):
            if len(self.pool) <= 1:
                break  # a job always keeps one survivor to resume on
            idx = len(self.pool) - 1
            if preferred is not None:
                for i in range(len(self.pool) - 1, -1, -1):
                    if self.pool[i].key == preferred:
                        idx = i
                        break
            self.pool.pop(idx)

    def _fallback_checkpoint(self):
        """Newest valid periodic snapshot, with bounded retry/backoff.

        Each failed decode (CRC mismatch, truncation, schema damage) costs
        one retry and an exponentially growing backoff delay, modeling the
        re-fetch from a slower/older storage tier.  Running out of
        snapshots is not fatal: engine construction is deterministic in
        (config, seed), so the job-submission state itself is always a
        valid restore point (``None`` → cold restart, all steps lost).
        Only exhausting the retry budget while corrupt snapshots remain
        raises :class:`RecoveryFailedError`.
        """
        fault_step = self.engine.global_step
        retries = 0
        backoff = 0.0
        while True:
            candidates = self.manager.candidates(at_or_before=fault_step)
            if not candidates:
                return None, retries, backoff
            if retries >= self.max_retries:
                raise RecoveryFailedError(
                    f"no restorable snapshot at or before step {fault_step} "
                    f"within {self.max_retries} retries "
                    f"({self.manager.corrupted_detected} corrupt snapshot(s) seen)"
                )
            try:
                return self.manager.decode(candidates[0]), retries, backoff
            except CheckpointCorruptError:
                retries += 1
                backoff += self.backoff_s * (2 ** (retries - 1))

    def _charge_restart(self) -> float:
        """Charge one restart (a recovery or a reconfiguration) to the
        downtime: the base delay plus any injected ``restart_delay``."""
        delay = self.restart_delay_s + self._pending_delay
        self._pending_delay = 0.0
        self.stats.downtime_s += delay
        return delay

    def _recover(
        self,
        event: PlanEvent,
        ckpt: Optional[Checkpoint],
        restore_step: int,
        retries: int,
    ) -> None:
        fault_step = self.engine.global_step
        delay = self._charge_restart()
        incident = RecoveryIncident(
            kind=event.kind,
            fault_step=fault_step,
            restore_step=restore_step,
            retries=retries,
            downtime_s=delay,
            clock_at_fault=self.clock - delay,
        )
        assignment = self._plan_assignment()
        flightrec.record(
            "resilience.replan",
            step=fault_step,
            fault=event.kind,
            gpus=[g.name for g in assignment.gpus],
            dialects=[g.dialect for g in assignment.gpus],
        )
        if ckpt is None:
            # cold restart: every snapshot is gone, so the whole run to
            # this point is lost — worth a postmortem even though the job
            # itself survives (deterministic construction reproduces the
            # job-submission state bit for bit)
            try:
                flightrec.dump(
                    "cold_restart",
                    crash={
                        "step": fault_step,
                        "kind": event.kind,
                        "restore_step": 0,
                        "retries": retries,
                    },
                )
            except OSError:
                pass
        self.engine = self._build_engine(assignment, ckpt)
        if ckpt is None:
            self.manager.take(self.engine)  # re-seed the snapshot chain
        flightrec.record(
            "resilience.restore",
            fault=event.kind,
            fault_step=fault_step,
            restore_step=restore_step,
            retries=retries,
            downtime_s=delay,
        )
        self.stats.recoveries += 1
        self.stats.incidents.append(incident)
        self._open_incidents.append(incident)
        if obs.is_enabled():
            obs.instant(
                "fault.recovered",
                cat="faults",
                kind=event.kind,
                fault_step=fault_step,
                restore_step=restore_step,
                gpus=[g.name for g in assignment.gpus],
            )
            registry = obs.metrics()
            registry.counter("recoveries_total").inc()
            registry.counter("recovery_lost_steps_total").inc(incident.lost_steps)
            registry.gauge("recovery_downtime_seconds_total").set(self.stats.downtime_s)

    def _close_incidents(self) -> None:
        """An incident closes once the job completes its fault step again."""
        still_open: List[RecoveryIncident] = []
        for incident in self._open_incidents:
            if self.engine.global_step > incident.fault_step:
                incident.mttr_s = self.clock - incident.clock_at_fault
                if obs.is_enabled():
                    obs.metrics().histogram("recovery_mttr_seconds").observe(
                        incident.mttr_s
                    )
            else:
                still_open.append(incident)
        self._open_incidents = still_open
