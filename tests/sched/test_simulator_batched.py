"""``ClusterSimulator.run()`` vs ``run_reference()``: identical event streams.

The event core (one queue, coincident-event draining, vectorized
advance/ETA, quiescent reschedule skipping, memoized arbitration) must
reproduce its oracle (seed linear scan, scalar advance, brute
arbitration) byte-for-byte: same ``EventLog`` fingerprint and the same
result surface across policies, trace shapes, fault plans, and membership
plans.  The hypothesis sweep is the acceptance property; the
deterministic cases pin the regimes the sweep samples only occasionally
(colocation, shapes, membership), and ``GOLDEN`` pins the streams across
the commit that deleted the third (plain ``heapq``) core.

``TestPlanSearchOracle`` is the same idea one layer down: the production
plan search (the NumPy grid kernel in ``repro.sched.companion``) against
a test-side companion that answers every query from the scalar
brute-force enumerator, compared on a whole contended trace.

This module owns the shared plans and the comparison helper;
``test_simulator_fastpath.py`` holds the small fixed-trace cases on top
of them (its 13 ids are on the repo's test floor, more than one PR may
retire, so it stays a module of its own).  Class and module names are
the ones the floor lists (``ThreeCore`` dates from the third core).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import EventPlan, HostSpec, PlanEvent, random_sim_plan
from repro.hw import microbench_cluster, production_cluster
from repro.sched import (
    ClusterSimulator,
    CompanionModule,
    EasyScalePolicy,
    ServingColocationPolicy,
    YarnCapacityScheduler,
    diurnal_trace,
    generate_trace,
    heavy_tail_trace,
)
from repro.sched.simulator import JobRuntime, _BatchedState
from repro.sched.trace import GPU_DEMAND, TraceJob

CORES = ("run", "run_reference")


def _serving_demand(now):
    return {"v100": max(0, int(2 + 2 * math.sin(now / 1800.0)))}


POLICIES = {
    "yarn": YarnCapacityScheduler,
    "homo": lambda: EasyScalePolicy(False),
    "heter": lambda: EasyScalePolicy(True),
    "coloc": lambda: ServingColocationPolicy(_serving_demand),
}

FIXED_PLAN = EventPlan(events=(
    PlanEvent(kind="slowdown", at_time=300.0, magnitude=2.0),
    PlanEvent(kind="restart_delay", at_time=400.0, magnitude=60.0),
    PlanEvent(kind="node_preempt", at_time=600.0, magnitude=2.0),
    PlanEvent(kind="checkpoint_corrupt", at_time=700.0),
    PlanEvent(kind="worker_crash", at_time=900.0),
    PlanEvent(kind="gpu_revoke", at_time=1100.0),
), seed=5)


def membership_plan():
    return EventPlan(
        initial_hosts=(HostSpec("member-v", "v100", 2),),
        events=(
            PlanEvent(kind="announce", host="spot", at_time=90.0,
                      gtype="t4", slots=2, magnitude=30.0),
            PlanEvent(kind="drain", host="member-v", at_time=200.0),
            PlanEvent(kind="blacklist", host="spot", at_time=400.0,
                      magnitude=100.0),
        ),
    )


def combined_plan():
    """``FIXED_PLAN`` plus :func:`membership_plan` plus two one-slot hosts
    drained together at the ``node_preempt`` time: with ``max_unavailable``
    1 one drain is released there, ahead of the fault, and the other is
    deferred.  A host event also meets a fault at t = 400 (``blacklist``
    and ``restart_delay``): the case pins the cross-family order at a
    point, recorded before faults and host events shared one driver."""
    base = membership_plan()
    return EventPlan(
        initial_hosts=base.initial_hosts + (
            HostSpec("member-a", "t4", 1), HostSpec("member-b", "t4", 1),
        ),
        events=base.events + (
            PlanEvent(kind="drain", host="member-a", at_time=600.0),
            PlanEvent(kind="drain", host="member-b", at_time=600.0),
        ),
    ).merged(FIXED_PLAN)


def run_checking_mirror(sim, **kwargs):
    """``sim.run()``, with the edited running-set mirror compared against a
    rebuilt one (``_BatchedState().refresh(active)``) after every decision
    point: the same job objects in the same order, ``eff_rate`` /
    ``reconfig`` equal by bytes, ``any_running`` equal.

    ``remaining`` is compared against the objects wherever the staleness
    flag says they are authoritative.  Where the mirror is ahead of them a
    rebuild cannot see it, so the rows are held against a scalar twin —
    ``JobRuntime.advance`` itself, on copies: a row joins the twin with the
    object's value (authoritative on entry), is advanced like the
    reference core would, and on leaving must have been written back to
    its object with exactly the twin's value.
    """
    iterate = sim._iterate
    twin = {}  # arrival index -> remaining work by scalar arithmetic

    def checked(t_next, state, arrival, scalar):
        for runtime in state.jobs:
            copy = replace(runtime, remaining_work=twin[runtime.index])
            copy.advance(sim.now, t_next)
            twin[runtime.index] = copy.remaining_work
        before = list(state.jobs)
        iterate(t_next, state, arrival, scalar)
        rebuilt = _BatchedState()
        rebuilt.refresh(sim.active_jobs())
        where = f"{sim.policy.name} t={sim.now}"
        assert [id(r) for r in state.jobs] == [id(r) for r in rebuilt.jobs], where
        assert state.any_running == rebuilt.any_running, where
        assert state.eff_rate.tobytes() == rebuilt.eff_rate.tobytes(), where
        assert state.reconfig.tobytes() == rebuilt.reconfig.tobytes(), where
        if state.stale:
            for runtime in before:
                if runtime.status != "running":
                    assert runtime.remaining_work == twin.pop(runtime.index), where
            for runtime in state.jobs:
                twin.setdefault(runtime.index, runtime.remaining_work)
            assert state.remaining.tolist() == [twin[r.index] for r in state.jobs], where
        else:
            assert state.remaining.tobytes() == rebuilt.remaining.tobytes(), where
            twin.clear()
            twin.update((r.index, r.remaining_work) for r in state.jobs)

    sim._iterate = checked
    return sim.run(**kwargs)


def assert_cores_identical(policy_factory, jobs, plan=None, max_time=10_000_000.0, label=""):
    """Replay on both cores (``run()`` under :func:`run_checking_mirror`),
    compare everything a caller can observe, and check GPU conservation on
    each; returns ``run()``'s result."""
    results = {}
    for core in CORES:
        sim = ClusterSimulator(microbench_cluster(), jobs, policy_factory(), plan=plan)
        # the most the inventory can ever hold: the starting roster plus
        # every host the plan announces later
        ceiling = sim.cluster.total() + sum(
            e.slots for e in (plan.events if plan else ()) if e.kind == "announce"
        )
        replay = run_checking_mirror if core == "run" else ClusterSimulator.run_reference
        result = results[core] = replay(sim, max_time=max_time)
        assert all(0 <= gpus <= ceiling for _, gpus in result.allocation_timeline), (
            f"{label} {core}: allocation outside [0, {ceiling}]"
        )
        if len(result.completed) == len(jobs):
            # only the colocation policy's serving tenant may still hold GPUs
            serving = sim.cluster.owned_by(ServingColocationPolicy.SERVING_JOB_ID)
            assert sim.cluster.allocated_count() == len(serving), (
                f"{label} {core}: finished jobs still hold GPUs"
            )
    fast, reference = results["run"], results["run_reference"]
    assert fast.events.fingerprint() == reference.events.fingerprint(), label
    assert fast.events.as_tuples() == reference.events.as_tuples(), label
    assert fast.jcts == reference.jcts, label
    assert fast.makespan == reference.makespan, label
    assert fast.allocation_timeline == reference.allocation_timeline, label
    assert fast.preemptions == reference.preemptions, label
    assert fast.recovery_seconds == reference.recovery_seconds, label
    assert fast.lost_work_seconds == reference.lost_work_seconds, label
    assert [r.remaining_work for r in fast.jobs] == [
        r.remaining_work for r in reference.jobs
    ], label
    return fast


#: ``EventLog.fingerprint()`` of the plain-``heapq`` ``run()`` at b55a7a6, the
#: last commit that had it, on ``generate_trace(num_jobs=20, seed=3)``.  To
#: regenerate: print ``result.events.fingerprint()`` in the two tests that
#: read this table — and say in the commit why the stream moved.
GOLDEN = {
    "yarn": "e3ef21b9ecc1e6d8a2cf28456c631bf3949e36be4879df838dd7a0bd970ab2eb",
    "homo": "5a88a9177ed9ffea308d209f7b0a03d06a76f910ef87fd93b25223fa31dc5112",
    "heter": "5a88a9177ed9ffea308d209f7b0a03d06a76f910ef87fd93b25223fa31dc5112",
    "coloc": "fa6a32280a14d961b16c9caf734983577cda5311f551777143fc15066fa9a0ac",
    "heter+faults": "c134c1fc42eb5fd95e9971fed3f52a47329dabd1c03b0e8adf71dfca716132c8",
    "heter+membership": "979c6b7692b9650892ec31bf0f89362a70b7c1861688e5b06f41eda2874f2d20",
    "heter+faults+membership":
        "96464e5c9fa784400beeb1071f170f032199a9b1a9572788d3d361ad5298472a",
}


#: summed plan-cache ``(hits, misses)`` and proposal-memo ``(hits, misses)``
#: of ``run()`` on the same cases: the events pin *what* was decided, these
#: pin how the caches and the memo are partitioned.  A change that shares or
#: splits either on purpose re-records them and says by how much.  The memo
#: pairs date from 32dd050 (before the class became Role-2's unit).  The
#: plan-cache pairs were re-recorded when the never-filled full-enumeration
#: cache went (its probe was 449–548 misses a case) and the top-K and delta
#: stores became per job class (−5 to −7 misses, +5 to +7 hits), and again
#: when ``best_plan_delta`` began storing one frontier per (ownership, GPU
#: type) instead of one slab per chunk (−94 to −131 misses, as many hits).
GOLDEN_COUNTS = {
    "homo": ((707, 102), (352, 73)),
    "heter": ((707, 102), (352, 73)),
    "coloc": ((743, 108), (433, 111)),
    "heter+faults": ((850, 128), (432, 129)),
    "heter+membership": ((707, 102), (372, 73)),
    "heter+faults+membership": ((850, 128), (446, 129)),
}

#: the plan of each ``heter+...`` golden case
PLANS = {
    "heter+faults": lambda: FIXED_PLAN,
    "heter+membership": membership_plan,
    "heter+faults+membership": combined_plan,
}


class TestThreeCoreEquivalence:
    @given(seed=st.integers(0, 200), num_jobs=st.integers(4, 16))
    @settings(max_examples=8, deadline=None)
    def test_random_traces_with_faults_and_membership(self, seed, num_jobs):
        jobs = generate_trace(num_jobs=num_jobs, seed=seed)
        plan = membership_plan().merged(random_sim_plan(seed=seed, horizon_s=4000.0))
        for name, factory in POLICIES.items():
            assert_cores_identical(factory, jobs, plan, label=f"seed={seed} policy={name}")

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_clean_trace(self, name):
        # both cores equal each other *and* the stream the deleted core
        # produced: no fingerprint moved across the PR boundary
        jobs = generate_trace(num_jobs=20, seed=3)
        result = assert_cores_identical(POLICIES[name], jobs, label=name)
        assert result.events.fingerprint() == GOLDEN[name]

    @pytest.mark.parametrize("case", sorted(PLANS))
    def test_golden_fault_and_membership_plans(self, case):
        jobs = generate_trace(num_jobs=20, seed=3)
        result = assert_cores_identical(POLICIES["heter"], jobs, PLANS[case](), label=case)
        assert result.events.fingerprint() == GOLDEN[case]

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_diurnal_shape(self, name):
        jobs = diurnal_trace(num_jobs=30, seed=7, days=0.5)
        assert_cores_identical(POLICIES[name], jobs, label=name)

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_heavy_tail_shape(self, name):
        jobs = heavy_tail_trace(num_jobs=16, seed=7)
        assert_cores_identical(POLICIES[name], jobs, label=name)

    def test_fixed_fault_plan(self):
        jobs = generate_trace(num_jobs=18, seed=9)
        for name, factory in POLICIES.items():
            result = assert_cores_identical(factory, jobs, FIXED_PLAN, label=name)
            # restart_delay and checkpoint_corrupt have no victim: they
            # surface only through the next preemption's accounting
            assert result.preemptions > 0 and result.recovery_seconds > 0

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_membership_plan(self, name):
        jobs = generate_trace(num_jobs=18, seed=9)
        assert_cores_identical(POLICIES[name], jobs, membership_plan(), label=name)

    @pytest.mark.parametrize("case", sorted(GOLDEN_COUNTS))
    def test_golden_cache_and_memo_counts(self, case):
        plan = PLANS[case]() if case in PLANS else None
        policy = POLICIES[case.split("+")[0]]()
        jobs = generate_trace(num_jobs=20, seed=3)
        result = ClusterSimulator(microbench_cluster(), jobs, policy, plan=plan).run()
        assert result.events.fingerprint() == GOLDEN[case]
        stats = [
            cache for r in result.jobs for cache in r.agent.companion.cache_stats().values()
        ]
        plan_cache = (sum(c["hits"] for c in stats), sum(c["misses"] for c in stats))
        memo = (policy.inter.proposal_memo_hits, policy.inter.proposal_memo_misses)
        assert (plan_cache, memo) == GOLDEN_COUNTS[case]

    def test_max_time_cutoff(self):
        # truncation happens at the same decision point on both cores
        jobs = generate_trace(num_jobs=12, seed=4)
        result = assert_cores_identical(POLICIES["heter"], jobs, max_time=900.0)
        assert 0 < len(result.completed) < len(jobs)


class TestBatchedResultParity:
    def test_full_result_surface_matches_reference(self):
        jobs = diurnal_trace(num_jobs=24, seed=1, days=0.5)
        result = assert_cores_identical(POLICIES["heter"], jobs)
        assert len(result.completed) == len(jobs)

    def test_proposal_memo_shares_searches_across_jobs(self):
        # many same-class pending jobs (one size, one type preference):
        # the class-level memo must answer most Role-2 passes without a
        # fresh plan search
        jobs = generate_trace(
            num_jobs=30, seed=2, demand=[(8, 1.0)], type_weights={"v100": 1.0},
            mean_interarrival_s=30.0,
        )
        policy = EasyScalePolicy(True)
        ClusterSimulator(microbench_cluster(), jobs, policy).run()
        assert policy.inter.proposal_memo_hits > policy.inter.proposal_memo_misses

    def test_memoized_proposals_restamp_job_id(self):
        jobs = generate_trace(num_jobs=30, seed=2)
        policy = EasyScalePolicy(True)
        result = ClusterSimulator(microbench_cluster(), jobs, policy).run()
        granted = {g.job_id for g in policy.inter.grant_log}
        # more than one job received grants, so memo-shared proposals were
        # re-stamped rather than granted under the original asker's id
        assert len(granted) > 1
        assert all(any(r.job.job_id == j for r in result.jobs) for j in granted)

    def test_reference_core_never_touches_the_memos(self):
        # the oracle must stay brute: a memo bug cannot cancel out
        policy = EasyScalePolicy(True)
        sim = ClusterSimulator(microbench_cluster(), generate_trace(6, seed=1), policy)
        sim.run_reference()
        assert not sim.incremental_scheduling
        assert policy.inter.proposal_memo_hits == policy.inter.proposal_memo_misses == 0


class EagerYarn(YarnCapacityScheduler):
    """Admits from the arrival hook, so a grant lands inside ``_apply_due``
    — before the completion scan of an arrival-only decision point."""

    def on_job_arrival(self, sim, runtime):
        super().on_job_arrival(sim, runtime)
        self.reschedule(sim, sim.now)


class TestMirrorEdits:
    """Ways into and out of the running-set mirror that the shipped
    policies on the shared traces reach rarely or never; every replay runs
    under :func:`run_checking_mirror` (edited == rebuilt at each point)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_grant_from_the_arrival_hook(self, seed):
        jobs = generate_trace(num_jobs=30, seed=seed)
        result = assert_cores_identical(EagerYarn, jobs, label=f"seed={seed}")
        submits = {e.time for e in result.events.of_kind("job_submit")}
        assert submits & {e.time for e in result.events.of_kind("scale_out")}

    def test_out_of_order_start_inserts_mid_mirror(self, monkeypatch):
        # EasyScale starts an earlier arrival after a later one is already
        # running: its row goes *between* rows (the slice move), not last
        middle = []
        sync = _BatchedState.sync

        def recording(state, touched):
            old = {id(r) for r in state.jobs}
            sync(state, touched)
            middle.extend(
                i for i, r in enumerate(state.jobs)
                if id(r) not in old and any(id(k) in old for k in state.jobs[i + 1:])
            )

        monkeypatch.setattr(_BatchedState, "sync", recording)
        jobs = generate_trace(num_jobs=30, seed=2, mean_interarrival_s=30.0)
        assert_cores_identical(POLICIES["heter"], jobs)
        assert middle

    def test_preempted_gang_job_reenters_with_the_objects_remaining_work(self):
        # a gang job evicted by a vanishing host waits (pending, out of the
        # mirror) until a completion frees its full gang, then is granted
        # at that completion point — a sync insert, not a rebuild — and
        # its row must start from the object's value, lost work included.
        # (FIXED_PLAN's node_preempt cannot show this: the victim's own
        # GPUs return to the free pool, so it is re-admitted at the fault
        # point itself, through ``refresh``.)
        jobs = [
            TraceJob("gang", "resnet50", 0.0, 32, "v100", 32 * 9.0 * 3000),
            TraceJob("small", "resnet50", 10.0, 2, "v100", 2 * 9.0 * 1500),
        ]
        results = {}
        for core in CORES:
            plan = EventPlan(
                initial_hosts=(HostSpec("member-v", "v100", 2),),
                events=(PlanEvent(kind="forceful_remove", host="member-v", at_time=700.0),),
            )
            sim = ClusterSimulator(microbench_cluster(), jobs, YarnCapacityScheduler(), plan=plan)
            if core == "run":
                gang, seen = sim.runtimes[0], []
                iterate = sim._iterate

                def spying(t_next, state, arrival, scalar):
                    iterate(t_next, state, arrival, scalar)
                    row = [float(v) for r, v in zip(state.jobs, state.remaining) if r is gang]
                    seen.append((sim.now, scalar, row, gang.status, gang.remaining_work))

                sim._iterate = spying
                results[core] = run_checking_mirror(sim)
            else:
                results[core] = sim.run_reference()
        fast, reference = results["run"], results["run_reference"]
        assert fast.events.fingerprint() == reference.events.fingerprint()
        assert [r.remaining_work for r in fast.jobs] == [r.remaining_work for r in reference.jobs]

        (preempt,) = fast.events.of_kind("preempt")
        assert preempt.time == 700.0 and preempt.payload["lost_s"] == 100.0
        evicted = next(i for i, point in enumerate(seen) if point[0] == 700.0)
        assert seen[evicted - 1][2] and seen[evicted][1:4] == (True, [], "pending")
        waiting = seen[evicted][4]
        # 700 s of progress minus the 100 s since the last checkpoint boundary
        assert waiting == pytest.approx(32 * 9.0 * (3000 - 600))
        back = next(i for i in range(evicted, len(seen)) if seen[i][2])
        assert seen[back][0] > 700.0 and not seen[back][1]  # a completion point
        assert seen[back][2:] == ([waiting], "running", waiting)
        assert fast.events.of_kind("job_done")[0].time == seen[back][0]


class MirrorHarness:
    """One :class:`_BatchedState` driven call by call and checked, after
    every call, against scalar twins: a copy of each job that takes the
    mirror's edits when the mirror does (at ``sync`` / ``refresh``) and
    advances by :meth:`JobRuntime.advance` itself.  ETAs are held to
    :meth:`JobRuntime.predicted_completion`, remaining work and written-back
    values by bytes.  Runs under ``np.errstate(all="raise")``: the mirror
    must never divide by zero or make a NaN on the way to those bytes.
    """

    def __init__(self, now, works):
        self.now = now
        self.jobs = [
            JobRuntime(job=TraceJob(f"j{i}", "resnet50", 0.0, 1, "v100", 1.0),
                       remaining_work=work, index=i)
            for i, work in enumerate(works)
        ]
        self.twins = [replace(r) for r in self.jobs]
        self.state = _BatchedState()
        self.touched = []
        #: ``now`` of the last ``min_eta`` while the start it cached is live
        self.eta_at = None
        #: what the run covered: masked-minimum ETAs, and starts dropped
        #: by an edit between ``min_eta`` and the ``advance`` after it
        self.fallbacks = self.dropped_starts = 0

    def running(self):
        return [r for r in self.jobs if self.twins[r.index].status == "running"]

    def check_rows(self):
        rows = self.running()
        assert [id(r) for r in self.state.jobs] == [id(r) for r in rows]
        assert self.state.any_running == bool(rows)
        assert [v.hex() for v in self.state.remaining.tolist()] == [
            self.twins[r.index].remaining_work.hex() for r in rows
        ]

    def edit(self, i, status, rate, slowdown, reconfig, work):
        runtime = self.jobs[i]
        runtime.status, runtime.rate, runtime.fault_slowdown = status, rate, slowdown
        runtime.reconfig_until = self.now + reconfig
        if self.twins[i].status != "running":
            runtime.remaining_work = work  # off the mirror the object is authoritative
        self.touched.append(runtime)

    def _edited(self):
        if self.eta_at == self.now:
            self.dropped_starts += 1
        self.eta_at = None

    def sync(self):
        self.state.sync(self.touched)
        for runtime in self.touched:
            twin = self.twins[runtime.index]
            if runtime.status == "running":
                if twin.status != "running":
                    twin.remaining_work = runtime.remaining_work
            elif twin.status == "running":
                assert runtime.remaining_work.hex() == twin.remaining_work.hex()
            twin.status, twin.rate = runtime.status, runtime.rate
            twin.fault_slowdown, twin.reconfig_until = runtime.fault_slowdown, runtime.reconfig_until
        if self.touched:
            self._edited()
        self.touched.clear()
        self.check_rows()
        # an edited mirror equals a rebuilt one, pads included
        rebuilt = _BatchedState()
        rebuilt.refresh(self.jobs)
        for name in ("eff_rate", "divisor", "reconfig"):
            assert getattr(self.state, name).tobytes() == getattr(rebuilt, name).tobytes(), name

    def refresh(self):
        self.state.refresh(self.jobs)
        for runtime in self.jobs:
            if self.twins[runtime.index].status == "running":
                assert runtime.remaining_work.hex() == self.twins[runtime.index].remaining_work.hex()
        self.twins = [replace(r) for r in self.jobs]
        self.touched.clear()
        self._edited()
        self.check_rows()

    def eta(self):
        etas = [t.predicted_completion(self.now) for t in self.twins]
        later = [eta for eta in etas if eta is not None and eta > self.now]
        want = min(later) if later else None
        if len(later) < sum(t.status == "running" for t in self.twins):
            self.fallbacks += 1
        got = self.state.min_eta(self.now)
        assert (got is None) == (want is None) and (got is None or got.hex() == want.hex())
        self.eta_at = self.now
        return got

    def advance(self, t_to):
        self.state.advance(self.now, t_to)
        for twin in self.twins:
            twin.advance(self.now, t_to)
        self.now, self.eta_at = t_to, None
        self.check_rows()
        eps = ClusterSimulator.WORK_EPS
        assert [r.index for r in self.state.completed_jobs()] == [
            r.index for r in self.running() if self.twins[r.index].remaining_work <= eps
        ]

    def apply(self, op):
        if op[0] == "edit":
            self.edit(*op[1:])
        elif op[0] == "to_eta":  # the run() flow: step to the predicted minimum
            eta = self.eta()
            if eta is not None:
                self.advance(eta)
        elif op[0] == "advance":
            self.advance(self.now + op[1])
        else:
            getattr(self, op[0])()


JUST_ABOVE_EPS = math.nextafter(ClusterSimulator.WORK_EPS, math.inf)
MIRROR_WORKS = st.sampled_from([0.0, ClusterSimulator.WORK_EPS, JUST_ABOVE_EPS, 1e-3, 2.5, 100.0, 5e4])
MIRROR_EDITS = st.lists(st.tuples(
    st.just("edit"), st.integers(0, 5),
    st.sampled_from(["running", "running", "pending", "done"]),
    st.sampled_from([0.0, 1e-3, 0.25, 1.0, 3.0, 1e4]),
    st.sampled_from([1.0, 1.5, 4.0]),
    st.sampled_from([-30.0, 0.0, 1e-9, 5.0, 40.0]),
    MIRROR_WORKS,
), max_size=3)
#: how the mirror takes a batch of edits; ``()`` leaves them pending, so
#: the next advance runs on the rows as they were
MIRROR_TAKES = st.sampled_from([[("sync",)], [("refresh",)], []])
#: one decision point, shaped like run()'s but with every call optional:
#: edits, min_eta, more edits (the start it cached must then be dropped),
#: and a step to the predicted minimum or by a fixed dt
MIRROR_POINTS = st.builds(
    lambda edits, take, eta, late, late_take, step: edits + take + eta + late + late_take + [step],
    MIRROR_EDITS, MIRROR_TAKES, st.sampled_from([[("eta",)], []]), MIRROR_EDITS, MIRROR_TAKES,
    st.one_of(
        st.just(("to_eta",)),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 1e-9, 0.5, 7.0, 60.0])),
    ),
)


class TestMirrorArithmetic:
    """``_BatchedState`` call by call against scalar twins
    (:class:`MirrorHarness`): the unmasked advance, the ``±inf`` pads of
    zero-rate rows, the masked-minimum fallback and the start vector
    ``min_eta`` shares with the next ``advance``."""

    @staticmethod
    def replay(now, works, ops):
        harness = MirrorHarness(now, works)
        with np.errstate(all="raise"):
            for op in ops:
                harness.apply(op)
        return harness

    @given(
        now=st.sampled_from([0.0, 3.0, 1e7, 2.0**34]),
        works=st.lists(MIRROR_WORKS, min_size=6, max_size=6),
        points=st.lists(MIRROR_POINTS, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_call_sequences_match_the_scalar_twins(self, now, works, points):
        self.replay(now, works, [op for point in points for op in point])

    def test_zero_rate_rows_are_never_candidates(self):
        # a suspended job (rate 0) beside a paused one and a finishing one:
        # the plain minimum is the zero-rate row's `now`, so the masked
        # minimum answers; a zero-rate row never moves
        ops = [
            ("edit", 0, "running", 0.0, 1.0, 40.0, 100.0),
            ("edit", 1, "running", 1.0, 1.0, 5.0, 2.5),
            ("edit", 2, "running", 0.25, 4.0, 0.0, 100.0),
            ("sync",), ("to_eta",), ("advance", 60.0), ("to_eta",),
        ]
        harness = self.replay(3.0, [100.0] * 6, ops)
        assert harness.fallbacks == 2
        assert harness.state.remaining[0] == 100.0

    def test_an_eta_that_rounds_to_now_takes_the_fallback(self):
        # at now = 1e7 a step of 1e-10 s is below half an ulp: the fast
        # job's ETA is exactly `now`, not a candidate; the slow one's is
        ops = [
            ("edit", 0, "running", 1e4, 1.0, -30.0, ClusterSimulator.WORK_EPS),
            ("edit", 1, "running", 1.0, 1.0, 0.0, JUST_ABOVE_EPS),
            ("sync",),
        ]
        harness = self.replay(1e7, [0.0] * 6, ops)
        assert harness.jobs[0].predicted_completion(1e7) == 1e7
        assert harness.eta() > 1e7 and harness.fallbacks == 1
        harness.apply(("to_eta",))
        assert [r.index for r in harness.state.completed_jobs()] == [0, 1]

    def test_remaining_work_at_and_just_above_the_epsilon(self):
        ops = [
            ("edit", 0, "running", 1.0, 1.0, 5.0, ClusterSimulator.WORK_EPS),
            ("edit", 1, "running", 1.0, 1.0, 5.0, JUST_ABOVE_EPS),
            ("sync",), ("advance", 0.5),
        ]
        harness = self.replay(0.0, [0.0] * 6, ops)
        assert [r.index for r in harness.state.completed_jobs()] == [0]
        harness.apply(("to_eta",))
        assert [r.index for r in harness.state.completed_jobs()] == [0, 1]

    @pytest.mark.parametrize("edit", ["sync", "refresh"])
    def test_an_edit_between_min_eta_and_advance_drops_the_start(self, edit):
        # min_eta caches max(now, reconfig); the grant below moves a row's
        # reconfig_until into the future before the advance from that same
        # `now`, which must not reuse the cached start
        ops = [
            ("edit", 0, "running", 1.0, 1.0, 0.0, 100.0),
            ("sync",), ("eta",),
            ("edit", 0, "running", 1.0, 1.0, 40.0, 100.0),
            (edit,), ("advance", 60.0),
        ]
        harness = self.replay(3.0, [0.0] * 6, ops)
        assert harness.dropped_starts == 1
        assert harness.state.remaining[0] == 80.0


class TestDeferredDrains:
    @pytest.mark.parametrize("seed", [34, 35, 39])
    def test_a_deferred_drain_is_released_at_the_next_point_on_both_cores(self, seed):
        # three drains due at once under max_unavailable 1: the reference
        # core releases a held-back drain at its very next decision point,
        # whatever kind it is, so run() must make that point scalar too
        # (it used to wait for the next arrival or plan entry)
        roster = (HostSpec("a", "t4", 1), HostSpec("b", "t4", 1), HostSpec("c", "v100", 2))
        plan = EventPlan(
            initial_hosts=roster,
            events=tuple(PlanEvent(kind="drain", host=h.host_id, at_time=333.0) for h in roster),
        )
        result = assert_cores_identical(
            POLICIES["heter"], generate_trace(num_jobs=12, seed=seed), plan
        )
        drains = [e.time for e in result.events.of_kind("host_drain")]
        assert drains[0] == 333.0 and len(drains) == 3 and drains[2] > drains[1] > 333.0


class ScalarOracleCompanion(CompanionModule):
    """Answers every search from the scalar brute-force enumerator: no
    grid kernel, no bound mask, no slab, no cache."""

    searches = 0

    def best_plans(self, available, top_k=3):
        type(self).searches += 1
        return self.enumerate_plans_reference(available)[:top_k]

    def best_plan_delta(self, owned, gtype, chunk):
        hypothetical = dict(owned)
        if gtype in self.capability:
            hypothetical[gtype] = hypothetical.get(gtype, 0) + chunk
        return self.best_plan(hypothetical)


class TestPlanSearchOracle:
    def test_contended_trace_replays_identically_on_the_scalar_search(self, monkeypatch):
        # the whole-trace form of the fast-path property: 60 jobs on 32
        # GPUs queue for hours, so the scheduler searches at every arrival
        # and completion; one throughput bit or one tie broken differently
        # anywhere would move a grant and with it the event stream
        jobs = diurnal_trace(num_jobs=60, seed=2023, days=0.5, demand=GPU_DEMAND)

        def replay():
            sim = ClusterSimulator(production_cluster(32), jobs, EasyScalePolicy(True))
            return sim.run()

        production = replay()
        monkeypatch.setattr(
            "repro.sched.easyscale_policy.CompanionModule", ScalarOracleCompanion
        )
        oracle = replay()
        assert ScalarOracleCompanion.searches > 500
        assert len(production.completed) == len(jobs)
        assert production.average_jct > 10 * 3600  # contended: jobs wait for GPUs
        assert oracle.events.fingerprint() == production.events.fingerprint()
        assert oracle.jcts == production.jcts


class TestSingleShot:
    @pytest.mark.parametrize("first,second", [
        ("run", "run"),
        ("run_reference", "run_reference"),
        ("run", "run_reference"),
    ])
    def test_second_run_raises_instead_of_rewinding(self, first, second):
        sim = ClusterSimulator(
            microbench_cluster(), generate_trace(6, seed=1), EasyScalePolicy(True)
        )
        result = getattr(sim, first)()
        now, points = sim.now, len(result.allocation_timeline)
        with pytest.raises(RuntimeError, match="easyscale-heter.*already ran"):
            getattr(sim, second)()
        assert sim.now == now and len(result.allocation_timeline) == points
