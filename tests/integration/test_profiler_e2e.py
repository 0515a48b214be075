"""End-to-end: the profiler feedback loop on a heterogeneous job.

The ISSUE-2 acceptance scenario: a 2-GPU-type job with one artificially
slowed worker.  The online profiler must (a) flag exactly that worker as
a straggler, (b) calibrate the per-type capability ``C_i`` to the
perturbed truth within 20 windows, and (c) hand the intra-job scheduler
a table under which it picks a plan with lower true overload than the
static prior would.  And — the determinism contract — attaching the
profiler must not perturb training bitwise.
"""

import pytest

from repro import obs
from repro.core import EasyScaleEngine, EasyScaleJobConfig, WorkerAssignment
from repro.hw import T4, V100
from repro.hw.timing import static_capability
from repro.models import get_workload
from repro.obs import OnlineProfiler, ProfilerConfig, diff_audits
from repro.obs.profiler import profile_from_trace
from repro.sched.companion import CompanionModule
from repro.sched.intra import IntraJobScheduler
from repro.sched.perfmodel import overload_factor
from repro.utils.fingerprint import fingerprint_state_dict

from tests.conftest import sgd_factory

SEED = 7
SLOWDOWN = 2.0
SLOW_WORKER = 2  # the single T4 in the assignment below


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def spec():
    return get_workload("shufflenetv2")


@pytest.fixture(scope="module")
def dataset(spec):
    return spec.build_dataset(128, seed=3)


def hetero_engine(spec, dataset, profiler=None):
    """2 V100 + 1 T4, one EST each."""
    config = EasyScaleJobConfig(num_ests=3, seed=SEED, batch_size=4)
    assignment = WorkerAssignment(gpus=(V100, V100, T4), est_map=((0,), (1,), (2,)))
    return EasyScaleEngine(
        spec, dataset, config, sgd_factory(), assignment, profiler=profiler
    )


@pytest.fixture(scope="module")
def profiled_run(spec, dataset):
    """One 24-step run with the T4 worker slowed 2x; shared by the
    straggler/calibration assertions (the run itself is deterministic)."""
    static = static_capability(spec)
    profiler = OnlineProfiler(
        config=ProfilerConfig(window_size=1, straggler_windows=3),
        static_capability=static,
    )
    engine = hetero_engine(spec, dataset, profiler=profiler)
    engine.workers[SLOW_WORKER].slowdown = SLOWDOWN
    engine.train_steps(24)
    profiler.flush()
    return profiler, static


class TestStragglerFlagging:
    def test_flags_exactly_the_slowed_worker(self, profiled_run):
        profiler, _ = profiled_run
        assert profiler.straggler_events, "slowed worker never flagged"
        assert {e.worker_id for e in profiler.straggler_events} == {SLOW_WORKER}
        assert profiler.stragglers() == [SLOW_WORKER]

    def test_healthy_heterogeneous_peers_not_flagged(self, spec, dataset):
        # same hardware mix, nobody slowed: capability-normalized times
        # must keep the (legitimately slower) T4 off the straggler list
        profiler = OnlineProfiler(
            config=ProfilerConfig(window_size=1, straggler_windows=3),
            static_capability=static_capability(spec),
        )
        engine = hetero_engine(spec, dataset, profiler=profiler)
        engine.train_steps(8)
        profiler.flush()
        assert profiler.straggler_events == []

    def test_streak_length_respected(self, profiled_run):
        profiler, _ = profiled_run
        # first flag only after straggler_windows consecutive slow windows
        first = min(e.window for e in profiler.straggler_events)
        assert first >= profiler.config.straggler_windows - 1
        assert all(
            e.consecutive >= profiler.config.straggler_windows
            for e in profiler.straggler_events
        )


class TestCalibrationConvergence:
    def test_converges_to_perturbed_truth_within_20_windows(self, profiled_run):
        profiler, static = profiled_run
        assert profiler.windows_closed <= 24
        calibrated = profiler.calibrated_capability()
        # the T4's true rate is halved by the slowdown; the V100s are clean.
        # one EST per worker and window_size=1 make the expected medians
        # exact, so EWMA converges geometrically onto the truth
        assert calibrated["t4"] == pytest.approx(static["t4"] / SLOWDOWN, rel=0.05)
        assert calibrated["v100"] == pytest.approx(static["v100"], rel=0.05)
        # p100 never observed: static value passes through untouched
        assert calibrated["p100"] == static["p100"]

    def test_convergence_is_fast(self, spec, dataset):
        """20 windows is the ceiling; EWMA should be within 5% well before."""
        static = static_capability(spec)
        profiler = OnlineProfiler(
            config=ProfilerConfig(window_size=1), static_capability=static
        )
        engine = hetero_engine(spec, dataset, profiler=profiler)
        engine.workers[SLOW_WORKER].slowdown = SLOWDOWN
        truth = static["t4"] / SLOWDOWN
        for _ in range(20):
            engine.run_global_step()
            cal = profiler.calibrated_capability()
            if abs(cal["t4"] - truth) / truth < 0.05:
                return
        pytest.fail(f"t4 capability {cal['t4']:.4f} not within 5% of {truth:.4f}")


class TestCalibratedScheduling:
    def test_calibrated_plan_beats_static_under_truth(self, profiled_run):
        profiler, static = profiled_run
        owned = {"v100": 1, "t4": 1}
        max_p = 6

        sched = IntraJobScheduler("job", CompanionModule(max_p=max_p, capability=static))
        static_best = sched.apply_best_plan(owned)
        sched.apply_calibration(profiler.calibrated_capability())
        calibrated_best = sched.apply_best_plan(owned)

        truth = dict(static)
        truth["t4"] = static["t4"] / SLOWDOWN
        f_static = overload_factor(static_best.plan, truth)
        f_calibrated = overload_factor(calibrated_best.plan, truth)
        assert calibrated_best.plan != static_best.plan
        assert f_calibrated < f_static

    def test_static_prior_overloads_the_slow_t4(self, profiled_run):
        # context for the assertion above: the static table deals the T4
        # an EST it can no longer keep up with
        _, static = profiled_run
        sched = IntraJobScheduler("job", CompanionModule(max_p=6, capability=static))
        best = sched.apply_best_plan({"v100": 1, "t4": 1})
        assert best.plan.ests_per_gpu("t4") >= 1


class TestBitwiseNoOp:
    def test_profiled_run_is_bitwise_identical(self, spec, dataset):
        """Profiling on (calibration not applied) must not move a single bit."""
        obs.configure(enabled=True, audit=True)
        baseline = hetero_engine(spec, dataset)
        baseline.train_steps(6)
        baseline_audit = obs.audit_trail()
        baseline_fp = fingerprint_state_dict(baseline.model.state_dict())

        obs.configure(enabled=True, audit=True)  # fresh trail for run 2
        profiler = OnlineProfiler(
            config=ProfilerConfig(window_size=1),
            static_capability=static_capability(spec),
        )
        engine = hetero_engine(spec, dataset, profiler=profiler)
        engine.workers[SLOW_WORKER].slowdown = SLOWDOWN
        engine.train_steps(6)
        profiled_audit = obs.audit_trail()

        assert profiler.windows_closed > 0  # the profiler really observed
        diff = diff_audits(baseline_audit, profiled_audit)
        assert diff.identical, diff.describe()
        assert fingerprint_state_dict(engine.model.state_dict()) == baseline_fp

    def test_profiler_works_with_observability_disabled(self, spec, dataset):
        """The engine feeds the profiler directly; obs being off only mutes
        the metric/trace side-channels."""
        assert not obs.is_enabled()
        profiler = OnlineProfiler(
            config=ProfilerConfig(window_size=1),
            static_capability=static_capability(spec),
        )
        engine = hetero_engine(spec, dataset, profiler=profiler)
        engine.train_steps(3)
        assert profiler.windows_closed == 3
        assert "v100" in profiler.observed_capability


class TestTraceReplayAcrossScaleEvents:
    def test_replay_matches_the_live_profile_over_two_stages(self, spec, dataset):
        """A scale event restarts the live profiler's per-worker windows;
        the replay of the run's trace restarts them at the recorded
        ``engine.scale_event``, so both read the same windows and the same
        steps and ESTs per worker and per EST."""
        obs.configure(enabled=True)
        live = OnlineProfiler()
        config = EasyScaleJobConfig(num_ests=4, seed=SEED, batch_size=4)
        engine = EasyScaleEngine(
            spec, dataset, config, sgd_factory(),
            WorkerAssignment.balanced([V100, V100], 4), profiler=live,
        )
        engine.train_steps(3)
        engine.reconfigure(WorkerAssignment.balanced([V100, T4], 4)).train_steps(3)
        live.flush()
        replay = profile_from_trace(obs.tracer().records)

        def shape(profiler):
            summary = profiler.summary()
            workers = {
                wid: (w["gpu"], w["num_ests"], w["steps"])
                for wid, w in summary["workers"].items()
            }
            ests = {vrank: e["steps"] for vrank, e in summary["ests"].items()}
            return summary["windows"], workers, ests

        assert shape(replay) == shape(live)
        windows, workers, _ = shape(live)
        assert windows == 2  # one per stage
        assert workers == {"0": ("v100", 2, 3), "1": ("t4", 2, 3)}
