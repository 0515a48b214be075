"""Discrete-event cluster simulator for the trace experiments (§5.2).

The simulator advances time between *decision points* — job arrivals,
predicted completions, and periodic scheduling rounds — accruing each
running job's progress at its current estimated throughput in between.
Scheduling itself is delegated to a pluggable :class:`SchedulingPolicy`
(YARN-CS gang scheduling, or the EasyScale intra-/inter-job scheduler
pair), so the three bars of Fig. 14 run the identical trace through
identical machinery.

Reconfiguration is not free: a job whose allocation changed pauses for
``reconfig_delay`` seconds (on-demand checkpoint + restart), matching the
paper's "scale in seconds" granularity.

Two event cores produce identical :class:`EventLog` streams for the same
trace.  :meth:`ClusterSimulator.run` is the production core: one
``heapq`` priority queue of arrival/fault/membership/round/completion
events (lazily invalidated, ``(time, seq)``-ordered) under a NumPy
structure-of-arrays mirror of the running jobs (vectorized
``advance``/``predicted_completion``, point-edited for the jobs a decision
point moved), an incrementally maintained active set, and memoized
inter-job arbitration.
:meth:`ClusterSimulator.run_reference` is its oracle: the original linear
candidate scan with scalar per-job arithmetic and un-memoized
arbitration, small enough to check by reading.  Elementwise float64 NumPy
arithmetic is IEEE-identical to the scalar CPython arithmetic it mirrors,
so ``run`` is bit-exact against the reference, not merely close.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.hw.cluster import Cluster, Machine
from repro.hw.gpu import gpu_type
from repro.sched.perfmodel import fold
from repro.sched.trace import TraceJob
from repro.utils.events import EventLog

if TYPE_CHECKING:
    from repro.sched.intra import IntraJobScheduler

#: sort key of the active set and of the running-set mirror's rows
_INDEX = attrgetter("index")
_INF = float("inf")
#: the ufunc reduction behind ``ndarray.min``, minus the method's dispatch
_minimum = np.minimum.reduce


@dataclass
class JobRuntime:
    """Mutable per-job state inside the simulator."""

    job: TraceJob
    remaining_work: float
    owned: Dict[str, int] = field(default_factory=dict)
    status: str = "pending"  # pending | running | done
    rate: float = 0.0
    start_time: Optional[float] = None
    completion_time: Optional[float] = None
    #: progress paused until this time (checkpoint/restart cost)
    reconfig_until: float = 0.0
    #: injected degradation factor (>= 1): modeled time only, like the
    #: engine-level worker slowdown — the policy's rate estimate is
    #: divided by it until the job is rescheduled onto healthy GPUs
    fault_slowdown: float = 1.0
    #: faults that hit this job (kind, time) — JCT forensics
    faults: List[Tuple[str, float]] = field(default_factory=list)
    #: the EasyScale policies' intra-job scheduler; None under YARN-CS
    agent: Optional["IntraJobScheduler"] = None
    #: position in the simulator's arrival-sorted ``runtimes``: the sort
    #: key of the active set and of the running-set mirror's rows
    index: int = 0

    @property
    def total_owned(self) -> int:
        return sum(self.owned.values())

    @property
    def effective_rate(self) -> float:
        return self.rate / self.fault_slowdown if self.rate > 0 else 0.0

    def advance(self, t_from: float, t_to: float) -> None:
        """Accrue progress over [t_from, t_to) at the current rate."""
        if self.status != "running" or self.effective_rate <= 0:
            return
        effective_from = max(t_from, self.reconfig_until)
        dt = t_to - effective_from
        if dt > 0:
            self.remaining_work = max(0.0, self.remaining_work - self.effective_rate * dt)

    def predicted_completion(self, now: float) -> Optional[float]:
        if self.status != "running" or self.effective_rate <= 0:
            return None
        start = max(now, self.reconfig_until)
        return start + self.remaining_work / self.effective_rate


class SchedulingPolicy:
    """Reallocates GPUs at every decision point.

    The rule :meth:`ClusterSimulator.run` rests on: a policy changes a
    job's ``rate`` / ``status`` / ``reconfig_until`` / ``fault_slowdown``
    only at a decision point where that job went through
    :meth:`~ClusterSimulator.grant`, :meth:`~ClusterSimulator.revoke` or
    :meth:`~ClusterSimulator.preempt` (those mark the job for the
    running-set mirror's point edit), and never reads ``remaining_work``,
    which under ``run()`` lags the mirror between fault/membership points.
    """

    name = "abstract"

    #: True when :meth:`reschedule` is a deterministic function of the
    #: simulator/cluster/job state alone (never of ``now``), and a call
    #: that emitted no :class:`EventLog` events made no observable state
    #: change — i.e. the state is a *fixed point* of rescheduling.  The
    #: ``run()`` event core then skips the policy entirely at decision
    #: points where nothing observable changed since such a call, which
    #: is most periodic rounds of a month-long trace.  Policies whose
    #: decisions read the clock (e.g. time-varying serving demand) must
    #: leave this False.
    fixpoint_reschedule = False

    def on_job_arrival(self, sim: "ClusterSimulator", runtime: JobRuntime) -> None:
        """Hook for per-job setup (e.g. build an intra-job scheduler)."""

    def reschedule(self, sim: "ClusterSimulator", now: float) -> None:
        raise NotImplementedError

    def on_preempt(self, sim: "ClusterSimulator", runtime: JobRuntime, now: float) -> None:
        """React to a job losing GPUs to a fault (default: wait for the
        next scheduling round).  Gang schedulers must requeue here; elastic
        policies can replan immediately on the shrunken ownership."""

    def on_join(self, sim: "ClusterSimulator", now: float, gtype: str, count: int) -> None:
        """React to new capacity joining the cluster (membership: a host
        finished warming, or a blacklist expired).  Default: wait for the
        next scheduling round, which already sees the larger free pool."""

    def on_slowdown(self, sim: "ClusterSimulator", runtime: JobRuntime, now: float, factor: float) -> None:
        """React to a job's throughput degrading by ``factor`` (a fault
        slowed its workers).  Default: the degraded rate already feeds the
        next round's estimates, so do nothing."""


@dataclass
class SimResult:
    """Outcome of one simulated trace run."""

    policy: str
    jobs: List[JobRuntime]
    events: EventLog
    makespan: float
    #: (time, total allocated GPUs) step series
    allocation_timeline: List[Tuple[float, int]]
    #: fault-injection outcome (zero when no plan was attached)
    preemptions: int = 0
    #: restart/checkpoint pauses charged to recoveries
    recovery_seconds: float = 0.0
    #: progress re-done because an abrupt fault lost un-checkpointed work
    lost_work_seconds: float = 0.0

    @property
    def completed(self) -> List[JobRuntime]:
        return [j for j in self.jobs if j.status == "done"]

    @property
    def average_jct(self) -> float:
        finished = self.completed
        if not finished:
            return float("inf")
        return fold(j.completion_time - j.job.arrival_time for j in finished) / len(finished)

    @property
    def jcts(self) -> List[float]:
        return [
            j.completion_time - j.job.arrival_time for j in self.completed
        ]


class ClusterSimulator:
    """Run one trace under one policy on one cluster."""

    WORK_EPS = 1e-6

    def __init__(
        self,
        cluster: Cluster,
        jobs: Sequence[TraceJob],
        policy: SchedulingPolicy,
        reconfig_delay: float = 15.0,
        round_interval: float = 120.0,
        plan: Optional[object] = None,
        checkpoint_interval: float = 600.0,
    ) -> None:
        if reconfig_delay < 0 or round_interval <= 0:
            raise ValueError("invalid simulator timing parameters")
        if checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        self.cluster = cluster
        self.policy = policy
        self.reconfig_delay = reconfig_delay
        self.round_interval = round_interval
        #: jobs checkpoint every this many simulated seconds; an abrupt
        #: fault loses the progress made since the last boundary
        self.checkpoint_interval = checkpoint_interval
        #: the plan's :class:`~repro.faults.injector.SimDriver` (faults and
        #: host events, one action list), or None
        self.driver = None
        if plan is not None:
            from repro.faults.injector import SimDriver

            self.driver = SimDriver(plan)
            # the plan's initial roster is extra capacity on top of the
            # base cluster, added before the capacity event below so the
            # saved stream self-describes the true starting inventory
            for spec in plan.initial_hosts:
                self._add_host(spec.host_id, spec.gtype, spec.slots)
        self.preemptions = 0
        self.recovery_seconds = 0.0
        self.lost_work_seconds = 0.0
        self._extra_restart_delay = 0.0
        self._checkpoints_corrupt = 0
        self.runtimes = [
            JobRuntime(job=j, remaining_work=j.total_work, index=i)
            for i, j in enumerate(sorted(jobs, key=lambda j: j.arrival_time))
        ]
        # mirror simulator events into the span tracer when observability
        # is on, so trace-sim runs export one merged timeline
        self.events = EventLog(tracer=obs.tracer() if obs.is_enabled() else None)
        self.now = 0.0
        self._timeline: List[Tuple[float, int]] = []
        #: index into ``runtimes`` of the next not-yet-admitted arrival
        #: (runtimes are sorted by arrival time above)
        self._arrival_cursor = 0
        #: :meth:`run`'s working set (arrived, not yet done, arrival order);
        #: ``None`` under :meth:`run_reference`, which keeps the seed's
        #: full-list scan
        self._active: Optional[List[JobRuntime]] = None
        #: :meth:`run`: the jobs whose mirrored fields this decision point
        #: may have moved (see :meth:`_touch`); ``None`` under
        #: :meth:`run_reference`
        self._touched: Optional[List[JobRuntime]] = None
        #: the sim→policy channel, set by the two cores and nothing else:
        #: True under :meth:`run` (policies may re-plan only the jobs in
        #: :meth:`touched_jobs` and answer Role-2 from the inter-scheduler's
        #: standing proposal book), False under :meth:`run_reference`
        #: (brute arbitration — the book's and memos' whole-trace oracle)
        self.incremental_scheduling = False
        #: :meth:`run`: True while the last reschedule emitted no events
        #: and nothing observable changed since (fixpoint policies only)
        self._quiescent = False
        #: a simulator is single-shot; set by whichever core runs first
        self._ran = False
        # lead the log with the cluster's per-type capacity so a saved
        # event stream is self-describing (the utilization report derives
        # idle GPU-seconds from it without access to the Cluster object)
        self.events.emit(
            0.0,
            "cluster_capacity",
            **{name: cluster.total(name) for name in cluster.type_names()},
        )

    # ------------------------------------------------------------------
    # allocation helpers used by policies
    # ------------------------------------------------------------------
    def _touch(self, runtime: JobRuntime) -> None:
        """Mark a job whose ``status`` / ``rate`` / ``fault_slowdown`` /
        ``reconfig_until`` / ``owned`` this decision point may move — here
        or in the policy code that called in: :meth:`run` point-edits its
        mirror row once the policy returns, and the policy reads the same
        set (:meth:`touched_jobs`) as the jobs whose scheduling inputs
        moved.  A policy may push a job here itself (an arrival, a moved
        class stamp)."""
        if self._touched is not None:
            self._touched.append(runtime)

    def touched_jobs(self) -> List[JobRuntime]:
        """The jobs :meth:`_touch` marked since the last reschedule, in
        marking order, repeats included; empty under :meth:`run_reference`.

        :meth:`run` clears the set after each decision point's policy
        call, and skips that call only at points that touched nothing."""
        return self._touched if self._touched is not None else []

    def grant(self, runtime: JobRuntime, gtype: str, count: int) -> None:
        """Allocate ``count`` GPUs of a type to a job (with restart cost)."""
        self._touch(runtime)
        self.cluster.allocate(gtype, count)
        runtime.owned[gtype] = runtime.owned.get(gtype, 0) + count
        runtime.reconfig_until = self.now + self.reconfig_delay
        if runtime.status == "pending":
            runtime.status = "running"
            runtime.start_time = self.now
        self.events.emit(
            self.now, "scale_out", job=runtime.job.job_id, gtype=gtype, gpus=count
        )

    def revoke(self, runtime: JobRuntime, gtype: str, count: int) -> None:
        self._touch(runtime)
        held = runtime.owned.get(gtype, 0)
        if count > held:
            raise ValueError(f"cannot revoke {count} {gtype} from {runtime.job.job_id}")
        self.cluster.release(gtype, count)
        runtime.owned[gtype] = held - count
        runtime.reconfig_until = self.now + self.reconfig_delay
        self.events.emit(
            self.now, "scale_in", job=runtime.job.job_id, gtype=gtype, gpus=count
        )

    def release_all(self, runtime: JobRuntime) -> None:
        self._touch(runtime)
        for gtype, count in runtime.owned.items():
            self.cluster.release(gtype, count)
        runtime.owned = {}

    def active_jobs(self) -> List[JobRuntime]:
        """Arrived, unfinished jobs in arrival order — the policies' working set.

        :meth:`run` maintains this list incrementally (append on arrival,
        prune on completion), so month-long traces never rescan thousands
        of finished jobs per decision point; :meth:`run_reference`
        derives it with the seed's full scan.  ``runtimes``
        is sorted by arrival time and the arrival cursor admits strictly
        in that order, so both forms produce the identical list.
        """
        if self._active is not None:
            return self._active
        return [
            r
            for r in self.runtimes
            if r.status in ("pending", "running") and r.job.arrival_time <= self.now
        ]

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def _fault_victim(self, event, arrived: List[JobRuntime]) -> Optional[JobRuntime]:
        """The job a fault hits: the explicit ``job:<id>`` target, else the
        running job holding the most GPUs (ties broken by job id) — the
        statistically likeliest victim of a node loss, and deterministic."""
        target = event.target_job()
        running = [r for r in arrived if r.status == "running"]
        if target is not None:
            for runtime in arrived:
                if runtime.job.job_id == target and runtime.status != "done":
                    return runtime
            return None
        if not running:
            return None
        return max(running, key=lambda r: (r.total_owned, r.job.job_id))

    def _lost_work_seconds(self, runtime: JobRuntime) -> float:
        """Progress seconds lost to an abrupt fault: time since the last
        periodic checkpoint boundary (one extra interval per corrupted
        checkpoint), capped at the job's total running time."""
        if runtime.start_time is None:
            return 0.0
        elapsed = max(0.0, self.now - runtime.start_time)
        lost = (self.now - runtime.start_time) % self.checkpoint_interval
        lost += self._checkpoints_corrupt * self.checkpoint_interval
        self._checkpoints_corrupt = 0
        return min(lost, elapsed)

    def preempt(
        self,
        runtime: JobRuntime,
        count: int,
        gtype: Optional[str] = None,
        abrupt: bool = True,
        kind: str = "node_preempt",
    ) -> None:
        """Forcibly remove ``count`` GPUs from a job (fault path).

        Unlike :meth:`revoke` — a *scheduling* decision with an on-demand
        checkpoint — an abrupt preemption also loses the progress made
        since the last periodic checkpoint.  Emits a structured
        ``preempt`` event and notifies the policy via ``on_preempt``.
        Reads and moves ``remaining_work``, so it belongs to the fault and
        membership decision points, where the objects are authoritative.
        """
        self._touch(runtime)
        removed: List[Tuple[str, int]] = []
        remaining = max(0, count)  # 0 = crash/restart without GPU loss
        # prefer the requested type, then drain largest holdings first
        order = sorted(runtime.owned, key=lambda t: (t != gtype, -runtime.owned[t], t))
        for owned_type in order:
            if remaining <= 0:
                break
            take = min(remaining, runtime.owned.get(owned_type, 0))
            if take <= 0:
                continue
            self.cluster.release(owned_type, take)
            runtime.owned[owned_type] -= take
            removed.append((owned_type, take))
            remaining -= take

        lost = self._lost_work_seconds(runtime) if abrupt else 0.0
        if lost > 0:
            runtime.remaining_work += lost * runtime.effective_rate
            self.lost_work_seconds += lost
        delay = self.reconfig_delay + self._extra_restart_delay
        self._extra_restart_delay = 0.0
        runtime.reconfig_until = self.now + delay
        self.recovery_seconds += delay
        self.preemptions += 1
        runtime.faults.append((kind, self.now))
        # a crash without GPU loss still restarts the job: one typeless event
        for removed_type, taken in removed or [(None, 0)]:
            self.events.emit(
                self.now,
                "preempt",
                job=runtime.job.job_id,
                gtype=removed_type,
                gpus=taken,
                fault=kind,
                abrupt=abrupt,
                lost_s=round(lost, 3),
            )
        if obs.is_enabled():
            obs.metrics().counter(
                "sim_preemptions_total", policy=self.policy.name, kind=kind
            ).inc()
        self.policy.on_preempt(self, runtime, self.now)

    def _apply_fault(self, event, arrived: List[JobRuntime]) -> None:
        if event.kind == "restart_delay":
            self._extra_restart_delay += float(event.magnitude)
            self.events.emit(self.now, "fault", fault=event.kind, magnitude=event.magnitude)
            return
        if event.kind == "checkpoint_corrupt":
            self._checkpoints_corrupt += 1
            self.events.emit(self.now, "fault", fault=event.kind, magnitude=event.magnitude)
            return
        victim = self._fault_victim(event, arrived)
        if victim is None:
            self.events.emit(self.now, "fault", fault=event.kind, wasted=True)
            return
        if event.kind == "slowdown":
            self._touch(victim)
            victim.fault_slowdown = max(victim.fault_slowdown, float(event.magnitude))
            victim.faults.append((event.kind, self.now))
            self.events.emit(
                self.now,
                "fault",
                fault=event.kind,
                job=victim.job.job_id,
                magnitude=event.magnitude,
            )
            self.policy.on_slowdown(self, victim, self.now, victim.fault_slowdown)
        elif event.kind == "worker_crash":
            self.preempt(victim, count=0, abrupt=True, kind=event.kind)
        elif event.kind == "gpu_revoke":
            self.preempt(
                victim, count=1, gtype=event.target_gtype(), abrupt=False, kind=event.kind
            )
        elif event.kind == "node_preempt":
            self.preempt(
                victim,
                count=max(1, int(event.magnitude)),
                gtype=event.target_gtype(),
                abrupt=True,
                kind=event.kind,
            )

    # ------------------------------------------------------------------
    # membership: hosts joining and leaving at decision points
    # ------------------------------------------------------------------
    def _evict_host_capacity(
        self, gtype: str, slots: int, arrived: List[JobRuntime], abrupt: bool, kind: str
    ) -> None:
        """Free ``slots`` GPUs of a leaving host's type, then remove them.

        Holders are preempted largest-first (ties by job id) — gracefully
        for drains/reclaims/blacklists (checkpoint at the boundary, zero
        lost work), abruptly for forceful removals (progress since the
        last periodic checkpoint is lost).
        """
        while self.cluster.free_count(gtype) < slots:
            holders = [
                r
                for r in arrived
                if r.status == "running" and r.owned.get(gtype, 0) > 0
            ]
            if not holders:
                break
            victim = max(holders, key=lambda r: (r.owned.get(gtype, 0), r.job.job_id))
            need = slots - self.cluster.free_count(gtype)
            take = min(need, victim.owned.get(gtype, 0))
            self.preempt(victim, take, gtype, abrupt=abrupt, kind=kind)
        self.cluster.remove_free(gtype, min(slots, self.cluster.free_count(gtype)))

    def _add_host(self, host_id: str, gtype: str, slots: int) -> None:
        self.cluster.add_machine(Machine(host_id, gpu_type(gtype), slots))

    def _apply_membership(self, op: str, host_id: str, arrived: List[JobRuntime]) -> None:
        """Apply one due host op to the registry, then to the capacity and
        the policy when it changed what the host serves."""
        host = self.driver.registry.get(host_id)
        was_serving = host.serving
        if not self.driver.registry.apply(op, host_id):
            return
        kind = "host_remove" if op == "forceful_remove" else f"host_{op}"
        joined = host.serving and not was_serving
        if joined:
            self._add_host(host.host_id, host.gtype, host.slots)
        elif was_serving and not host.serving:
            self._evict_host_capacity(
                host.gtype, host.slots, arrived, abrupt=op == "forceful_remove", kind=kind
            )
        self.events.emit(self.now, kind, host=host.host_id, gtype=host.gtype, gpus=host.slots)
        if joined:
            self.policy.on_join(self, self.now, host.gtype, host.slots)

    # ------------------------------------------------------------------
    # decision-point pieces shared by both event cores
    # ------------------------------------------------------------------
    def _claim(self) -> None:
        """Enforce single-shot use: a second run would rewind ``now`` to the
        first arrival over already-finished jobs."""
        if self._ran:
            raise RuntimeError(
                f"ClusterSimulator for policy {self.policy.name!r} already ran; "
                "a simulator is single-shot — build a new one"
            )
        self._ran = True

    def _apply_due(self, arrived: List[JobRuntime]) -> bool:
        """Admit the arrivals, then apply the plan's actions due at ``now``
        (host operations, then faults: :meth:`SimDriver.due`); True when
        any of them fired."""
        changed = False
        while (
            self._arrival_cursor < len(self.runtimes)
            and self.runtimes[self._arrival_cursor].job.arrival_time <= self.now
        ):
            runtime = self.runtimes[self._arrival_cursor]
            self._arrival_cursor += 1
            arrived.append(runtime)
            changed = True
            self.events.emit(self.now, "job_submit", job=runtime.job.job_id)
            self.policy.on_job_arrival(self, runtime)
        if self.driver is not None:
            for _, op, host, event in self.driver.due(self.now):
                if host is None:
                    self._apply_fault(event, arrived)
                else:
                    self._apply_membership(op, host, arrived)
                changed = True
        return changed

    def _complete(self, runtime: JobRuntime) -> None:
        """Mark one running job finished (``release_all`` touches it)."""
        runtime.status = "done"
        runtime.completion_time = self.now
        runtime.rate = 0.0
        released = runtime.total_owned
        self.release_all(runtime)
        self.events.emit(
            self.now, "job_done", job=runtime.job.job_id, released=released
        )
        if obs.is_enabled() and runtime.start_time is not None:
            obs.tracer().add_span(
                f"job:{runtime.job.job_id}",
                start=runtime.start_time,
                end=self.now,
                cat="sched",
                track=runtime.job.job_id,
                policy=self.policy.name,
            )
            obs.metrics().counter(
                "sim_jobs_completed_total", policy=self.policy.name
            ).inc()

    def _result(self) -> SimResult:
        makespan = max(
            (r.completion_time for r in self.runtimes if r.completion_time is not None),
            default=0.0,
        )
        return SimResult(
            policy=self.policy.name,
            jobs=self.runtimes,
            events=self.events,
            makespan=makespan,
            allocation_timeline=self._timeline,
            preemptions=self.preemptions,
            recovery_seconds=self.recovery_seconds,
            lost_work_seconds=self.lost_work_seconds,
        )

    # ------------------------------------------------------------------
    # the event core (heap queue + vectorized decision points)
    # ------------------------------------------------------------------
    def _iterate(
        self, t_next: float, state: "_BatchedState", arrival: bool, scalar: bool
    ) -> None:
        """One decision point of :meth:`run`.

        Identical observable behavior to the loop body of
        :meth:`run_reference`, but:

        - progress accrual runs vectorized over the persistent SoA mirror.
          Only a ``scalar`` point (a plan entry is due, a drain was
          deferred, or the first point) writes it back first — scalar code is about to
          read and move ``remaining_work`` — scans the objects for
          completions and rebuilds the mirror afterwards;
        - every other point (``arrival``, completion, round) reads the
          completions off the mirror and then point-edits the rows of the
          jobs it touched (:meth:`_touch`), leaving the mirror ahead of
          the objects;
        - the policy is *skipped* at decision points where nothing
          observable changed since a reschedule that emitted no events —
          valid only for ``fixpoint_reschedule`` policies, whose
          rescheduling is a pure function of unchanged state (a skipped
          call would have been a no-op and emitted nothing, so the
          :class:`EventLog` is untouched).
        """
        arrived = self._active
        touched = self._touched
        state.advance(self.now, t_next)
        self.now = t_next

        if scalar:
            state.writeback()
            changed = self._apply_due(arrived)
            done = [
                r
                for r in arrived
                if r.status == "running" and r.remaining_work <= self.WORK_EPS
            ]
        else:
            changed = arrival and self._apply_due(arrived)
            # an arrival hook may have started a job: its row must exist
            # before the mirror is asked which rows are finished (the
            # closing sync below edits it again, to the policy's last word)
            state.sync(touched)
            done = state.completed_jobs()
        for runtime in done:
            self._complete(runtime)
            del arrived[bisect_left(arrived, runtime.index, key=_INDEX)]
        if done:
            changed = True

        if changed or not self._quiescent or not self.policy.fixpoint_reschedule:
            events_before = len(self.events)
            self.policy.reschedule(self, self.now)
            self._quiescent = (
                self.policy.fixpoint_reschedule and len(self.events) == events_before
            )
        if scalar:
            state.refresh(arrived)
        else:
            state.sync(touched)
        touched.clear()
        self._timeline.append((self.now, self.cluster.allocated_count()))

    def run(self, max_time: float = 10_000_000.0) -> SimResult:
        """Run the trace on the event core.

        Arrival, fault, membership, periodic-round, and predicted-completion
        events live in one priority queue ordered by ``(time, seq)`` —
        ``seq`` is a monotone push counter, so ties are deterministic and
        never compare payloads.  Completion predictions are *lazily
        invalidated* (a popped entry from an older generation is
        discarded), and entries at or before the last processed decision
        point are likewise discarded — the iteration body already handled
        everything due at that time, mirroring the seed semantics of
        batching coincident events into one decision point.  On top of
        the queue, the scale enablers:

        - an incrementally maintained **active set** (append on arrival,
          prune on completion) replaces the seed's scan over every job
          ever admitted — month-long traces stop paying O(total jobs) per
          decision point;
        - a **structure-of-arrays mirror** of the running jobs turns
          per-job ``advance``/``predicted_completion``/completion checks
          into NumPy float64 expressions bit-identical to the scalar
          ones (``eff_rate * dt`` steps, ``now + min(remaining / rate)``;
          rows in a restart pause as scalars), edited row by row for the
          jobs a decision point moved, not rebuilt;
        - runs of coincident events are **drained in one pass**: every
          queue entry at the chosen timestamp is consumed before the
          decision point executes, instead of being popped and discarded
          one iteration at a time;
        - ``incremental_scheduling`` is switched on, letting
          :class:`~repro.sched.easyscale_policy.EasyScalePolicy` re-derive
          only the jobs a point touched (:meth:`touched_jobs`) and answer
          Role-2 from its standing proposal book.

        Produces an :class:`EventLog` byte-for-byte identical to
        :meth:`run_reference` (asserted by the core-equivalence suite).
        A simulator instance is single-shot: :meth:`run` *or*
        :meth:`run_reference`, once — a second call raises.
        """
        self._claim()
        arrived = self._active = []
        self._touched = []
        self.incremental_scheduling = True
        runtimes = self.runtimes

        seeds = [(r.job.arrival_time, "arrival") for r in runtimes]
        # a plan action at exactly t=0 is never its own decision point in
        # the reference core (candidates are strictly after `now`); it
        # fires via due() at the first real decision point, so it is not
        # enqueued
        if self.driver is not None:
            seeds.extend((t, "plan") for t in self.driver.times() if t > 0.0)
        heap: List[Tuple[float, int, str, object]] = [
            (t, seq, kind, None) for seq, (t, kind) in enumerate(seeds)
        ]
        seq = len(heap)
        heapq.heapify(heap)
        last_round_pushed: Optional[float] = None
        processed_until: Optional[float] = None
        state = _BatchedState()
        #: generation counter for the single min-ETA completion entry;
        #: entries stamped with an older generation are stale predictions
        eta_gen = 0

        while True:
            t_next: Optional[float] = None
            arrival = scalar = False
            while heap:
                time, _, kind, data = heapq.heappop(heap)
                if processed_until is not None and time <= processed_until:
                    continue  # this decision point already handled it
                if kind == "completion":
                    if data != eta_gen:
                        continue  # superseded prediction
                elif kind == "round":
                    # the reference only schedules rounds while work runs;
                    # statuses cannot change between the last mirror edit
                    # and this pop, so the mirror's liveness flag is exact
                    if not state.any_running:
                        continue
                t_next = time
                arrival, scalar = kind == "arrival", kind == "plan"
                break
            if t_next is None or t_next > max_time:
                break
            # drain the whole run of coincident entries now: the decision
            # point below batches everything due at t_next regardless of
            # which entry surfaced it.  Every arrival and every plan action
            # time after t=0 has a queue entry, so the drained kinds tell
            # exactly whether a job arrives and whether the plan's scalar
            # code can fire at this point.  Two points are scalar without
            # an entry: the first, because t<=0 actions fire via due()
            # there, and the one after a drain was deferred, because the
            # reference core releases it at its next decision point
            while heap and heap[0][0] == t_next:
                kind = heapq.heappop(heap)[2]
                arrival = arrival or kind == "arrival"
                scalar = scalar or kind == "plan"
            if processed_until is None or (self.driver is not None and self.driver.deferred):
                scalar = True

            self._iterate(t_next, state, arrival, scalar)
            processed_until = t_next

            if self._arrival_cursor >= len(runtimes) and not arrived:
                break

            # one generation-stamped candidate for the earliest predicted
            # completion — the only future ETA that can become the next
            # decision point; everything is re-predicted after it fires
            eta = state.min_eta(self.now)
            if eta is not None:
                eta_gen += 1
                heapq.heappush(heap, (eta, seq, "completion", eta_gen))
                seq += 1
            if state.any_running:
                next_round = (
                    int(self.now / self.round_interval) + 1
                ) * self.round_interval
                if next_round != last_round_pushed:
                    last_round_pushed = next_round
                    heapq.heappush(heap, (next_round, seq, "round", None))
                    seq += 1

        state.writeback()
        return self._result()

    #: the frozen whole-path benchmark (``benchmarks/e2e``) calls the event
    #: core by the name it had as one of three; nothing else may
    run_batched = run

    # ------------------------------------------------------------------
    # reference event core (the seed linear-scan loop)
    # ------------------------------------------------------------------
    def run_reference(self, max_time: float = 10_000_000.0) -> SimResult:
        """The seed O(n²) candidate-scan loop, kept as equivalence oracle.

        Rebuilds the full candidate-time list (head arrival, every running
        job's predicted completion, the next periodic round, the next
        fault) at every decision point and steps to the minimum, with
        scalar :meth:`JobRuntime.advance`, the full-list
        :meth:`active_jobs` scan, and un-memoized arbitration
        (``incremental_scheduling`` off).  :meth:`run` must reproduce this
        loop's :class:`EventLog` exactly.
        """
        self._claim()
        self.incremental_scheduling = False
        arrived: List[JobRuntime] = []

        while True:
            candidates: List[float] = []
            if self._arrival_cursor < len(self.runtimes):
                head = self.runtimes[self._arrival_cursor]
                candidates.append(max(head.job.arrival_time, self.now))
            for runtime in arrived:
                eta = runtime.predicted_completion(self.now)
                if eta is not None:
                    candidates.append(eta)
            if any(r.status == "running" for r in arrived):
                next_round = (int(self.now / self.round_interval) + 1) * self.round_interval
                candidates.append(next_round)
            if self.driver is not None:
                plan_time = self.driver.next_time(self.now)
                if plan_time is not None:
                    candidates.append(plan_time)
            if not candidates:
                break
            t_next = min(candidates)
            if t_next > max_time:
                break

            for runtime in arrived:
                runtime.advance(self.now, t_next)
            self.now = t_next
            self._apply_due(arrived)
            for runtime in arrived:
                if runtime.status == "running" and runtime.remaining_work <= self.WORK_EPS:
                    self._complete(runtime)
            self.policy.reschedule(self, self.now)
            self._timeline.append((self.now, self.cluster.allocated_count()))

            if self._arrival_cursor >= len(self.runtimes) and all(
                r.status == "done" for r in arrived
            ):
                break

        return self._result()


class _BatchedState:
    """Structure-of-arrays mirror of the running jobs, for ``run()``.

    One row per running job, in arrival order (``completed_jobs``
    promises it, and an elastic policy may start an earlier arrival after
    a later one — so rows are inserted and deleted in place, never
    swap-removed).  :meth:`advance` steps the remaining-work vector in
    place and the objects lag it (``stale``) until a row leaves or
    :meth:`writeback` runs; :meth:`sync` edits the rows of the jobs a
    decision point touched; :meth:`refresh` rebuilds everything from the
    objects — the path of the rare scalar points, and what an edited
    mirror must equal (``tests/sched/test_simulator_batched.py``).

    Three vectors per running job: ``remaining``, ``eff_rate`` (the
    :meth:`advance` multiplier) and ``divisor`` (``+inf`` on a zero-rate
    row, whose ETA is then exactly ``now``, never a candidate).  A restart
    pause is not a vector: ``paused`` maps the arrival index of each
    positive-rate row whose pause ends after the mirror's ``now`` to its
    ``reconfig_until`` (a few rows at most), and :meth:`advance` /
    :meth:`min_eta` redo those rows as scalars.  Every op is the scalar
    arithmetic of :meth:`JobRuntime.advance` / ``predicted_completion``
    in float64 (NumPy does not fuse or reassociate), so fingerprints are
    bit-exact.
    """

    __slots__ = (
        "jobs", "_rows", "remaining", "eff_rate", "divisor", "_scratch",
        "paused", "now", "any_running", "stale",
    )

    def __init__(self, now: float = -_INF) -> None:
        self.jobs: List[JobRuntime] = []
        #: (remaining, eff_rate, divisor, scratch) x capacity, viewed up to ``len(jobs)``
        self._rows = np.empty((4, 0), dtype=np.float64)
        self._view()
        self.paused: Dict[int, float] = {}
        #: the ``t_to`` of the last :meth:`advance`
        self.now = now
        #: True while the remaining-work vector is ahead of the objects
        self.stale = False

    def _view(self) -> None:
        n = len(self.jobs)
        self.remaining, self.eff_rate, self.divisor, self._scratch = self._rows[:, :n]
        self.any_running = n > 0

    def refresh(self, active: List[JobRuntime]) -> None:
        """Rebuild the mirror from the job objects (after syncing them)."""
        self.writeback()
        jobs = self.jobs = [r for r in active if r.status == "running"]
        n = len(jobs)
        rows = self._rows = np.empty((4, n), dtype=np.float64)
        rows[0] = np.fromiter((r.remaining_work for r in jobs), dtype=np.float64, count=n)
        rows[1] = np.fromiter((r.effective_rate for r in jobs), dtype=np.float64, count=n)
        rows[2] = rows[1]
        rows[2, rows[1] <= 0.0] = _INF
        now = self.now
        self.paused = {r.index: r.reconfig_until for r in jobs
                       if r.reconfig_until > now and r.effective_rate > 0.0}
        self._view()

    def sync(self, touched: List[JobRuntime]) -> None:
        """Point-edit the rows of the ``touched`` jobs.

        A job that became ``running`` gets a row at its arrival position,
        with the object's ``remaining_work``; a row that stays re-reads
        ``effective_rate`` / ``reconfig_until`` (its ``remaining`` is the
        mirror's to keep); a row whose job left is written back to the
        object and deleted.  Driven by each job's final state, so a job
        touched twice is edited to the same row twice.  The row views are
        re-sliced only when a row was inserted or deleted.
        """
        if not touched:
            return
        jobs, rows, paused, now = self.jobs, self._rows, self.paused, self.now
        moved = False
        for runtime in touched:
            n = len(jobs)
            row = bisect_left(jobs, runtime.index, key=_INDEX)
            present = row < n and jobs[row] is runtime
            paused.pop(runtime.index, None)
            if runtime.status == "running":
                if not present:
                    if n == rows.shape[1]:
                        rows = np.empty((4, max(8, 2 * n)), dtype=np.float64)
                        rows[:, :n] = self._rows[:, :n]
                        self._rows = rows
                    rows[:, row + 1 : n + 1] = rows[:, row:n]
                    rows[0, row] = runtime.remaining_work
                    jobs.insert(row, runtime)
                    moved = True
                rate = rows[1, row] = runtime.effective_rate
                rows[2, row] = rate if rate > 0.0 else _INF
                if rate > 0.0 and runtime.reconfig_until > now:
                    paused[runtime.index] = runtime.reconfig_until
            elif present:
                runtime.remaining_work = rows.item(0, row)
                rows[:, row : n - 1] = rows[:, row + 1 : n]
                del jobs[row]
                moved = True
        if moved:
            self._view()

    def writeback(self) -> None:
        """Scatter the advanced remaining-work values back to the objects."""
        if not self.stale:
            return
        for runtime, value in zip(self.jobs, self.remaining.tolist()):
            runtime.remaining_work = value
        self.stale = False

    def advance(self, t_from: float, t_to: float) -> None:
        """Vectorized :meth:`JobRuntime.advance` over the running jobs.

        Every row steps by ``eff_rate * (t_to - t_from)``, a paused row by
        the scalar step from its pause's end.  A step of an exact ``0.0``
        (zero rate, or paused throughout) leaves ``remaining`` unchanged.
        """
        self.now = t_to
        if not self.jobs:
            return
        step, remaining = self._scratch, self.remaining
        np.multiply(self.eff_rate, t_to - t_from, out=step)
        if self.paused:
            jobs, rates, paused = self.jobs, self.eff_rate, self.paused
            for index, until in list(paused.items()):
                row = bisect_left(jobs, index, key=_INDEX)
                dt = t_to - max(t_from, until)
                step[row] = rates.item(row) * dt if dt > 0 else 0.0
                if until <= t_to:
                    del paused[index]
        np.subtract(remaining, step, out=remaining)
        np.maximum(0.0, remaining, out=remaining)
        self.stale = True

    def completed_jobs(self) -> List[JobRuntime]:
        """Running jobs at/below the completion epsilon, in arrival order."""
        if not self.jobs or self.remaining.min() > ClusterSimulator.WORK_EPS:
            return []
        (idx,) = (self.remaining <= ClusterSimulator.WORK_EPS).nonzero()
        return [self.jobs[i] for i in idx.tolist()]

    def min_eta(self, now: float) -> Optional[float]:
        """The earliest predicted completion strictly after ``now``.

        ``run()`` enqueues only this single candidate per decision point
        (generation-stamped): the next decision point is the minimum over
        all candidates, and every ETA is re-predicted once it executes.
        An unpaused row predicts ``now + q``, ``q = remaining / divisor``;
        rounding is monotone, so their minimum is ``now + min(q)``.  A row
        paused past ``now`` predicts ``until + q``, a scalar, with its
        ``q`` masked to ``+inf``.  Predictions at or before ``now`` are not
        candidates, as in the reference core's scan: a zero-rate row
        predicts exactly ``now``, so only when the plain minimum is not
        after ``now`` is a masked minimum taken.
        """
        if not self.jobs:
            return None
        q = self._scratch
        np.divide(self.remaining, self.divisor, out=q)
        earliest_paused = _INF
        if self.paused:
            jobs = self.jobs
            for index, until in self.paused.items():
                if until > now:
                    row = bisect_left(jobs, index, key=_INDEX)
                    earliest_paused = min(earliest_paused, until + q.item(row))
                    q[row] = _INF
        earliest = now + float(_minimum(q))
        if not earliest > now:
            np.add(q, now, out=q)
            later = q[q > now]
            earliest = float(_minimum(later)) if later.size else _INF
        earliest = min(earliest, earliest_paused)
        return earliest if earliest != _INF else None
