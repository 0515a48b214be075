"""The class, not the job, is the unit of Role-2: the standing proposal
book's answers equal a brute ``propose`` per job, and a class can never go
stale.

``InterJobScheduler.ask`` stands a job's ``(JobClass, clamped ownership)``
key in the book; ``proposals_for`` answers one arbitration round from it,
re-answering only the jobs asked since and the members of a scope whose
free-pool fit key moved — each through one memo lookup.  The oracle is
what ``run_reference`` does — a fresh agent per job, Role-1 on its
ownership, then ``agent.propose(owned, free)`` — so a wrong class key, fit
key, standing key or stale entry shows up as one differing proposal.
"""

from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.companion import CompanionModule
from repro.sched.inter import InterJobScheduler
from repro.sched.intra import IntraJobScheduler
from repro.sched.plancache import availability_key

TABLES = [
    {"v100": 10.0, "p100": 5.0, "t4": 3.0},
    {"v100": 10.0, "t4": 3.0},
    {"v100": 8.0, "p100": 6.0},
    {"t4": 2.5},
]
#: ``a100`` is in no capability table: owned or free, it must never matter
TYPES = ["a100", "p100", "t4", "v100"]
MENUS = [(1, 2, 4, 8, 16), (2, 4)]


def make_agent(job_id, table, max_p, homogeneous_only, menu=MENUS[0], top_k=3,
               max_gpus_per_type=16):
    companion = CompanionModule(
        max_p=max_p, capability=dict(table), homogeneous_only=homogeneous_only,
        max_gpus_per_type=max_gpus_per_type,
    )
    return IntraJobScheduler(job_id, companion, scaleout_chunks=menu, top_k=top_k)


def brute(agent, owned, free):
    """What ``run_reference`` would collect from this job: a twin built from
    the agent's *current* parameters, no cache or memo shared with it."""
    companion = agent.companion
    twin = make_agent(
        agent.job_id, companion.capability, companion.max_p,
        companion.homogeneous_only, agent.scaleout_chunks, agent.top_k,
        companion.max_gpus_per_type,
    )
    twin.apply_best_plan(owned)
    return twin.propose(owned, free)


def book_round(inter, jobs, free):
    """One round's Role-2 from the book, in job order: the book promises no
    order (``arbitrate`` ranks by a total order), so each job's run is put
    back where the per-job loop had it, its own order kept."""
    order = {agent.job_id: i for i, (agent, _) in enumerate(jobs)}
    return sorted(inter.proposals_for(free), key=lambda p: order[p.job_id])


def one_round(inter, jobs, free):
    """Role-1 and an ask for every job — all of them dirty, as at their
    arrival in ``EasyScalePolicy.reschedule`` — then the book's round."""
    for agent, owned in jobs:
        agent.apply_best_plan(owned)
        inter.ask(agent, owned)
    return book_round(inter, jobs, free)


# ownership runs past every cap (max_p <= 8, 16 per type) on purpose: the
# clamping edge availability_key documents
ownership = st.dictionaries(st.sampled_from(TYPES), st.integers(0, 24), max_size=3)
job_spec = st.tuples(
    st.integers(0, 3), st.sampled_from([2, 4, 8]), st.booleans(), st.integers(0, 1), ownership
)


@given(
    tables=st.integers(2, 4),
    specs=st.lists(job_spec, min_size=1, max_size=40),
    free=st.dictionaries(st.sampled_from(TYPES), st.integers(0, 20)),
)
@settings(max_examples=60, deadline=None)
def test_per_round_proposals_equal_brute_propose_per_job(tables, specs, free):
    jobs = [
        (make_agent(f"job-{i:02d}", TABLES[t % tables], max_p, homo, MENUS[menu]), owned)
        for i, (t, max_p, homo, menu, owned) in enumerate(specs)
    ]
    inter = InterJobScheduler()
    expected = [p for agent, owned in jobs for p in brute(agent, owned, free)]
    # job by job and in ask order: one flat list, each job's run contiguous
    assert one_round(inter, jobs, free) == expected
    assert inter.proposal_memo_hits + inter.proposal_memo_misses == len(jobs)
    groups = {inter.ask(agent, owned) for agent, owned in jobs}
    assert inter.proposal_memo_misses == len(groups)

    # a different free vector with the same per-type fit counts against
    # every menu is the same question: all hits, same answers
    cuts = sorted({c for menu in MENUS for c in menu})
    widened = {
        t: (cuts[fits] - 1 if (fits := bisect_right(cuts, v)) < len(cuts) else v + 5)
        for t, v in free.items()
    }
    misses = inter.proposal_memo_misses
    assert one_round(inter, jobs, widened) == expected
    assert [p for agent, owned in jobs for p in brute(agent, owned, widened)] == expected
    assert inter.proposal_memo_misses == misses
    assert inter.proposal_memo_hits + misses == 2 * len(jobs)


def test_same_class_jobs_share_one_search_and_keep_their_own_ids():
    inter = InterJobScheduler()
    jobs = [(make_agent(f"job-{i}", TABLES[0], 8, False), {}) for i in range(5)]
    proposals = one_round(inter, jobs, {"v100": 4, "a100": 9})
    assert (inter.proposal_memo_hits, inter.proposal_memo_misses) == (4, 1)
    assert len({inter.job_class(agent) for agent, _ in jobs}) == 1
    per_job = len(proposals) // 5
    assert per_job > 0
    assert [p.job_id for p in proposals] == [f"job-{i}" for i in range(5) for _ in range(per_job)]
    # a pool of a type the class cannot use is not part of the question
    assert one_round(inter, jobs, {"v100": 4, "a100": 1}) == proposals
    assert (inter.proposal_memo_hits, inter.proposal_memo_misses) == (9, 1)


OWNED, FREE = {"v100": 2, "t4": 1}, {"v100": 3, "p100": 2, "t4": 8}


def _past_bias_threshold(agent):
    assert agent.companion.report_measurement("v100", estimated=10.0, measured=16.0)


# every way an agent's class identity can change after it was first asked;
# each must move the agent — and only that agent — to another class
MUTATIONS = {
    "apply_calibration": lambda a: a.apply_calibration({"v100": 12.0, "t4": 2.0}),
    "report_measurement": _past_bias_threshold,
    "capability[t] = r": lambda a: a.companion.capability.__setitem__("t4", 1.0),
    "capability |= {...}": lambda a: a.companion.capability.__ior__({"p100": 7.5}),
    "capability.pop(t)": lambda a: a.companion.capability.pop("t4"),
    "scaleout_chunks = (1, 2)": lambda a: setattr(a, "scaleout_chunks", (1, 2)),
    "top_k = 1": lambda a: setattr(a, "top_k", 1),
    "companion = another": lambda a: setattr(
        a, "companion", CompanionModule(max_p=8, capability={"v100": 4.0, "t4": 3.0})
    ),
}


@pytest.mark.parametrize("how", sorted(MUTATIONS))
def test_a_class_id_can_never_go_stale(how):
    inter = InterJobScheduler()
    jobs = [(make_agent(f"job-{i}", TABLES[0], 8, False), dict(OWNED)) for i in range(3)]
    one_round(inter, jobs, FREE)
    before = [inter.job_class(agent) for agent, _ in jobs]
    assert len(set(before)) == 1

    mutated = jobs[0][0]
    MUTATIONS[how](mutated)
    expected = [p for agent, owned in jobs for p in brute(agent, owned, FREE)]
    assert one_round(inter, jobs, FREE) == expected
    after = [inter.job_class(agent) for agent, _ in jobs]
    assert after[0] is not before[0], "the mutated agent kept its old class"
    assert after[1:] == before[1:], "an untouched agent moved class"


@pytest.mark.parametrize("name,value", [
    ("max_p", 4), ("max_gpus_per_type", 2), ("homogeneous_only", True),
])
def test_plan_shape_scalars_are_refused_not_reinterned(name, value):
    # the companion's plan caches are keyed on ownership clamped by these;
    # assigning one would leave them stale, so it is not possible at all
    agent = make_agent("job-0", TABLES[0], 8, False)
    with pytest.raises(AttributeError):
        setattr(agent.companion, name, value)


def test_calibrating_back_rejoins_the_old_class():
    # interning is by table *contents*, not by generation identity
    inter = InterJobScheduler()
    first, second = (make_agent(f"job-{i}", TABLES[0], 8, False) for i in range(2))
    shared = inter.job_class(first)
    assert inter.job_class(second) is shared
    previous = first.apply_calibration({"v100": 12.0})
    assert inter.job_class(first) is not shared
    first.apply_calibration(previous)
    assert first.companion.generation > second.companion.generation
    assert inter.job_class(first) is shared
    jobs = [(first, dict(OWNED)), (second, dict(OWNED))]
    assert one_round(inter, jobs, FREE) == [
        p for agent, owned in jobs for p in brute(agent, owned, FREE)
    ]
    assert (inter.proposal_memo_hits, inter.proposal_memo_misses) == (1, 1)


def fresh_ask(inter, agent, owned):
    """``ask``'s key derived from nothing it kept: a never-asked twin with the
    agent's current parameters finds the class by content, and the ownership
    is clamped from a copy."""
    twin = make_agent(
        "twin", agent.companion.capability, agent.companion.max_p,
        agent.companion.homogeneous_only, agent.scaleout_chunks, agent.top_k,
        agent.companion.max_gpus_per_type,
    )
    job_class = inter.job_class(twin)
    assert inter.job_class(agent) is job_class
    return job_class, availability_key(dict(owned), job_class.types, job_class.cap,
                                       job_class.cap)


def _in_place(edit):
    def apply(owned):
        edit(owned)
        return owned
    return apply


# every way the simulator or a test can change what ``owned`` holds; each
# returns the dict to ask with next (the same one, unless it is replaced)
OWNED_EDITS = {
    "increment": _in_place(lambda o: o.__setitem__("v100", o.get("v100", 0) + 1)),
    "decrement to 0": _in_place(lambda o: o.__setitem__("t4", 0)),
    "new type": _in_place(lambda o: o.__setitem__("p100", o.get("p100", 0) + 3)),
    "pop": _in_place(lambda o: o.pop("t4", None)),
    "replaced dict": lambda o: {"v100": 1},
    "same contents, other order": lambda o: dict(reversed(o.items())),
}
STAMP_EDITS = {
    "capability[t] = r": MUTATIONS["capability[t] = r"],
    "scaleout_chunks = (1, 2)": MUTATIONS["scaleout_chunks = (1, 2)"],
    "top_k = 1": MUTATIONS["top_k = 1"],
}


@pytest.mark.parametrize("how", sorted(OWNED_EDITS) + sorted(STAMP_EDITS))
def test_an_ask_key_lives_exactly_as_long_as_its_ownership(how):
    inter = InterJobScheduler()
    agent, other = (make_agent(f"job-{i}", TABLES[0], 8, False) for i in range(2))
    owned = dict(OWNED)
    first = inter.ask(agent, owned)
    assert first == fresh_ask(inter, agent, owned)
    assert inter.ask(agent, owned) == first
    inter.ask(other, dict(OWNED))
    if how in OWNED_EDITS:
        owned = OWNED_EDITS[how](owned)
    else:
        STAMP_EDITS[how](agent)
    got = inter.ask(agent, owned)
    assert got == fresh_ask(inter, agent, owned)
    assert got[0] is inter.job_class(agent)
    assert standing_key(inter, agent) == got
    assert standing_key(inter, other) == first, "an untouched agent's key moved"


def standing_key(inter, agent):
    """The key the book holds for ``agent`` — what every round answers
    until the agent is asked again."""
    return inter._book[agent][1]


@given(edits=st.lists(st.tuples(st.sampled_from(sorted(OWNED_EDITS) + sorted(STAMP_EDITS)),
                                st.integers(0, 2),
                                st.dictionaries(st.sampled_from(TYPES), st.integers(0, 20))),
                      max_size=12))
@settings(max_examples=60, deadline=None)
def test_ask_keys_follow_any_edit_sequence(edits):
    # as in a reschedule, only the edited job is asked again (it is the
    # dirty one); every other job's standing key and book entry must still
    # be what a fresh derivation and a brute propose give, whatever pool
    # the round brings
    inter = InterJobScheduler()
    jobs = [[make_agent(f"job-{i}", TABLES[0], 8, False), dict(OWNED)] for i in range(3)]
    one_round(inter, jobs, FREE)
    for how, i, free in edits:
        agent, owned = jobs[i]
        if how in OWNED_EDITS:
            owned = jobs[i][1] = OWNED_EDITS[how](owned)
        else:
            STAMP_EDITS[how](agent)
        agent.apply_best_plan(owned)
        inter.ask(agent, owned)
        for agent, owned in jobs:
            assert standing_key(inter, agent) == fresh_ask(inter, agent, owned)
        assert book_round(inter, jobs, free) == [
            p for agent, owned in jobs for p in brute(agent, owned, free)
        ]
