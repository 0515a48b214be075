"""``EasyScalePolicy.reschedule`` under ``run()`` costs what changed.

The policy re-derives a job's key (and re-plans it) only when the job is
dirty — the simulator touched it, it arrived, or its class stamp moved —
and Role-2 reads the inter-job scheduler's standing proposal book, which
re-answers only the dirty agents and the members of a scope whose
free-pool fit key moved.  ``run_reference`` keeps asking every job every
round, so it stays the oracle: a dirty job the set misses shows up as a
differing event.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import EventPlan, PlanEvent, random_sim_plan
from repro.hw import microbench_cluster
from repro.sched import ClusterSimulator, EasyScalePolicy, generate_trace

from tests.sched.test_job_classes import fresh_ask, standing_key
from tests.sched.test_simulator_batched import assert_cores_identical, membership_plan

#: one slowdown fault: its victim is touched by the simulator itself, so a
#: hook that edits *another* job's class leaves that job dirty only
#: through the stamp push
SLOWDOWN_PLAN = EventPlan(events=(
    PlanEvent(kind="slowdown", at_time=300.0, magnitude=2.0),
), seed=5)


def _bystander(sim, victim):
    """The earliest-arrived active job other than the fault's victim that
    can still grow (a job at its requested size proposes nothing, so an
    edit of its class would decide nothing)."""
    return next(
        r for r in sim.active_jobs()
        if r is not victim and r.total_owned < r.job.requested_gpus
    )


class CalibratingPolicy(EasyScalePolicy):
    """On a slowdown, a bystander's profiler reports: its capability table
    is calibrated mid-run (a generation bump on its companion)."""

    def on_slowdown(self, sim, runtime, now, factor):
        agent = _bystander(sim, runtime).agent
        agent.apply_calibration(
            {gtype: 3.0 * rate for gtype, rate in agent.companion.capability.items()}
        )


class RechunkingPolicy(EasyScalePolicy):
    """On a slowdown, a bystander's proposal menu is assigned anew."""

    def on_slowdown(self, sim, runtime, now, factor):
        _bystander(sim, runtime).agent.scaleout_chunks = (1,)


class TestStampPush:
    def _replay(self, policy_class):
        # over-subscribed: one 8-GPU V100 request every 30 s, so jobs are
        # still growing when the fault fires
        jobs = generate_trace(
            num_jobs=30, seed=2, demand=[(8, 1.0)], type_weights={"v100": 1.0},
            mean_interarrival_s=30.0,
        )
        plain = ClusterSimulator(
            microbench_cluster(), jobs, EasyScalePolicy(True), plan=SLOWDOWN_PLAN
        ).run()
        result = assert_cores_identical(
            lambda: policy_class(True), jobs, SLOWDOWN_PLAN, label=policy_class.__name__
        )
        # the edit changed what was decided, so a missed push would show
        assert result.events.fingerprint() != plain.events.fingerprint()

    def test_a_calibrated_bystander_is_rescheduled(self):
        self._replay(CalibratingPolicy)

    def test_a_rechunked_bystander_is_rescheduled(self):
        self._replay(RechunkingPolicy)


class BookCheckingPolicy(EasyScalePolicy):
    """After every ``run()`` reschedule: every active job's standing key is
    the key a fresh derivation gives, the book holds exactly the active
    jobs, and the book's answer at the current free pool is every job's
    brute ``propose`` — what ``run_reference`` collects.  The check's own
    round leaves the memo counters as it found them."""

    checks = 0

    def reschedule(self, sim, now):
        super().reschedule(sim, now)
        if not sim.incremental_scheduling:
            return
        inter = self.inter
        active = [r for r in sim.active_jobs() if r.status != "done"]
        assert set(inter._book) == {r.agent for r in active}, now
        for runtime in active:
            assert standing_key(inter, runtime.agent) == fresh_ask(
                inter, runtime.agent, runtime.owned
            ), (now, runtime.job.job_id)
        free = sim.cluster.free_by_type()
        counters = inter.proposal_memo_hits, inter.proposal_memo_misses
        book = {}
        for proposal in inter.proposals_for(free):
            book.setdefault(proposal.job_id, []).append(proposal)
        inter.proposal_memo_hits, inter.proposal_memo_misses = counters
        brute = {
            r.job.job_id: proposals
            for r in active
            if (proposals := r.agent.propose(r.owned, free))
        }
        assert book == brute, now
        BookCheckingPolicy.checks += 1


@given(seed=st.integers(0, 200), num_jobs=st.integers(4, 16), heterogeneous=st.booleans())
@settings(max_examples=4, deadline=None)
def test_the_book_stands_for_a_fresh_round_after_every_reschedule(seed, num_jobs, heterogeneous):
    # the trace + faults + membership generator of the core-equivalence sweep
    jobs = generate_trace(num_jobs=num_jobs, seed=seed)
    plan = membership_plan().merged(random_sim_plan(seed=seed, horizon_s=4000.0))
    before = BookCheckingPolicy.checks
    assert_cores_identical(
        lambda: BookCheckingPolicy(heterogeneous), jobs, plan, label=f"seed={seed}"
    )
    assert BookCheckingPolicy.checks > before


def test_asks_follow_arrivals_and_grants_not_the_active_set():
    # a fault-free trace touches a live job only by admitting it and by
    # granting it GPUs: one ask each (a completion is forgotten, not
    # asked), where asking every active job every call costs the sum of
    # the active set over the reschedules
    jobs = generate_trace(num_jobs=20, seed=3)
    policy = EasyScalePolicy(True)
    asks, active_sum = [], []
    ask, reschedule = policy.inter.ask, policy.reschedule

    def counting_ask(agent, owned):
        asks.append(agent.job_id)
        return ask(agent, owned)

    def measuring_reschedule(sim, now):
        active_sum.append(len(sim.active_jobs()))
        reschedule(sim, now)

    policy.inter.ask = counting_ask
    policy.reschedule = measuring_reschedule
    ClusterSimulator(microbench_cluster(), jobs, policy).run()
    grants = len(policy.inter.grant_log)
    assert grants > 0
    assert len(asks) == len(jobs) + grants
    assert len(asks) < sum(active_sum)
