"""Online profiler: windowing, straggler detection, calibration, replay."""

import math

import pytest

from repro import obs
from repro.obs.profiler import (
    OnlineProfiler,
    ProfilerConfig,
    StragglerEvent,
    profile_from_trace,
)
from repro.sched.perfmodel import Plan


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


def feed(profiler, steps, times, start_step=0, num_ests=1):
    """Feed ``times[worker_id] = step_time`` for ``steps`` global steps."""
    for step in range(start_step, start_step + steps):
        for wid, (gpu, t) in times.items():
            profiler.observe_worker_step(step, wid, gpu, num_ests, t)


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = ProfilerConfig()
        assert cfg.window_size > 0 and cfg.straggler_factor > 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_size": 0},
            {"straggler_factor": 1.0},
            {"straggler_windows": 0},
            {"ewma_alpha": 0.0},
            {"ewma_alpha": 1.5},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ProfilerConfig(**kwargs)


class TestWindowing:
    def test_window_closes_every_window_size_steps(self):
        p = OnlineProfiler(ProfilerConfig(window_size=4))
        feed(p, 11, {0: ("v100", 0.1), 1: ("v100", 0.1)})
        assert p.windows_closed == 2  # 11 steps = 2 full windows + 3 pending

    def test_flush_closes_partial_windows(self):
        p = OnlineProfiler(ProfilerConfig(window_size=8))
        feed(p, 3, {0: ("v100", 0.1)})
        assert p.windows_closed == 0
        p.flush()
        assert p.windows_closed == 1

    def test_window_median_is_robust_to_one_spike(self):
        cfg = ProfilerConfig(window_size=5, straggler_factor=1.5, straggler_windows=1)
        p = OnlineProfiler(cfg)
        # worker 1 spikes once per window but its median stays at peer level
        for step in range(10):
            p.observe_worker_step(step, 0, "v100", 1, 0.1)
            spike = 10.0 if step % 5 == 0 else 0.1
            p.observe_worker_step(step, 1, "v100", 1, spike)
        assert p.windows_closed == 2
        assert p.straggler_events == []

    def test_nonpositive_observations_ignored(self):
        p = OnlineProfiler(ProfilerConfig(window_size=2))
        p.observe_worker_step(0, 0, "v100", 1, 0.0)
        p.observe_worker_step(0, 0, "v100", 1, -1.0)
        p.observe_worker_step(0, 0, "v100", 0, 0.1)
        p.flush()
        assert p.windows_closed == 0

    def test_scale_event_resets_windows_but_keeps_history(self):
        cfg = ProfilerConfig(window_size=4, straggler_factor=1.3, straggler_windows=1)
        p = OnlineProfiler(cfg)
        feed(p, 8, {0: ("v100", 0.1), 1: ("v100", 0.2)})
        events_before = len(p.straggler_events)
        assert events_before > 0
        p.on_scale_event(["v100"])
        # new configuration: a single worker, no peers, no new events
        feed(p, 8, {0: ("v100", 0.15)})
        assert len(p.straggler_events) == events_before
        assert p.windows_closed >= 4
        # calibration survived the reset
        assert "v100" in p.observed_capability

    def test_late_joining_worker_does_not_stall_frontier(self):
        p = OnlineProfiler(ProfilerConfig(window_size=2))
        feed(p, 4, {0: ("v100", 0.1)})
        assert p.windows_closed == 2
        # worker 1 appears at step 4; the frontier keeps advancing
        feed(p, 4, {0: ("v100", 0.1), 1: ("v100", 0.1)}, start_step=4)
        assert p.windows_closed == 4


class TestStragglerDetection:
    def test_requires_k_consecutive_windows(self):
        cfg = ProfilerConfig(window_size=2, straggler_factor=1.5, straggler_windows=3)
        p = OnlineProfiler(cfg)
        # 2 slow windows -> no event; the 3rd consecutive fires one
        feed(p, 4, {0: ("v100", 0.1), 1: ("v100", 0.1), 2: ("v100", 0.4)})
        assert p.straggler_events == []
        feed(p, 2, {0: ("v100", 0.1), 1: ("v100", 0.1), 2: ("v100", 0.4)}, start_step=4)
        assert len(p.straggler_events) == 1
        event = p.straggler_events[0]
        assert isinstance(event, StragglerEvent)
        assert event.worker_id == 2
        assert event.consecutive == 3
        assert event.ratio == pytest.approx(4.0)
        assert p.stragglers() == [2]

    def test_recovery_resets_the_streak(self):
        cfg = ProfilerConfig(window_size=2, straggler_factor=1.5, straggler_windows=3)
        p = OnlineProfiler(cfg)
        # slow, slow, fast, slow, slow, slow -> exactly one event at the end
        pattern = [0.4, 0.4, 0.1, 0.4, 0.4, 0.4]
        for w, slow_time in enumerate(pattern):
            feed(
                p, 2,
                {0: ("v100", 0.1), 1: ("v100", 0.1), 2: ("v100", slow_time)},
                start_step=2 * w,
            )
        assert len(p.straggler_events) == 1
        assert p.straggler_events[0].window == 5

    def test_heterogeneous_hardware_is_not_a_straggler(self):
        # a T4 at exactly its modeled speed must not be flagged against
        # V100 peers: times are normalized by the static capability first
        cfg = ProfilerConfig(window_size=2, straggler_factor=1.5, straggler_windows=1)
        p = OnlineProfiler(cfg, static_capability={"v100": 10.0, "t4": 10.0 / 3})
        feed(p, 6, {0: ("v100", 0.1), 1: ("v100", 0.1), 2: ("t4", 0.3)})
        assert p.straggler_events == []
        # ... but a T4 running 2x slower than the T4 model is flagged
        feed(p, 6, {0: ("v100", 0.1), 1: ("v100", 0.1), 2: ("t4", 0.6)}, start_step=6)
        assert {e.worker_id for e in p.straggler_events} == {2}

    def test_single_worker_never_flagged(self):
        cfg = ProfilerConfig(window_size=2, straggler_factor=1.1, straggler_windows=1)
        p = OnlineProfiler(cfg)
        feed(p, 10, {0: ("v100", 5.0)})
        assert p.straggler_events == []

    def test_events_surface_in_metrics_when_enabled(self):
        obs.configure(enabled=True)
        cfg = ProfilerConfig(window_size=2, straggler_factor=1.3, straggler_windows=1)
        p = OnlineProfiler(cfg)
        feed(p, 2, {0: ("v100", 0.1), 1: ("v100", 0.1), 2: ("v100", 0.5)})
        assert len(p.straggler_events) == 1
        snap = obs.metrics().snapshot()
        assert snap["counters"]['profiler_straggler_events_total{gpu="v100"}'] == 1


class TestCalibration:
    def test_converges_to_observed_rate_within_20_windows(self):
        cfg = ProfilerConfig(window_size=2, ewma_alpha=0.25)
        p = OnlineProfiler(cfg, static_capability={"v100": 10.0})
        # true rate is 5 mini-batches/s (0.2 s/step), static says 10
        feed(p, 40, {0: ("v100", 0.2)})
        assert p.windows_closed == 20
        assert p.observed_capability["v100"] == pytest.approx(5.0, rel=0.01)
        cal = p.calibrated_capability()
        assert cal["v100"] == pytest.approx(5.0, rel=0.01)

    def test_calibrated_table_keeps_unobserved_types(self):
        p = OnlineProfiler(ProfilerConfig(window_size=1))
        feed(p, 2, {0: ("v100", 0.1)})
        cal = p.calibrated_capability(static={"v100": 99.0, "p100": 4.5})
        assert cal["v100"] == pytest.approx(10.0, rel=0.01)  # observed wins
        assert cal["p100"] == 4.5  # unobserved: static passes through

    def test_multi_est_workers_normalize_by_est_count(self):
        # 4 ESTs taking 0.4 s -> 10 mini-batches/s of per-GPU capability
        p = OnlineProfiler(ProfilerConfig(window_size=1))
        for step in range(3):
            p.observe_worker_step(step, 0, "v100", 4, 0.4)
        assert p.observed_capability["v100"] == pytest.approx(10.0, rel=0.01)


class TestPredictionError:
    def test_reference_plan_prediction_logged(self):
        plan = Plan.build({"v100": (2, 2)}, max_p=4)
        capability = {"v100": 10.0}
        p = OnlineProfiler(ProfilerConfig(window_size=2))
        p.set_reference(plan, capability)
        # predicted f = A/C = 0.2; observe 0.25 -> +25% relative error
        feed(p, 4, {0: ("v100", 0.25), 1: ("v100", 0.25)}, num_ests=2)
        assert len(p.prediction_log) == 2
        _, f_obs, f_pred, w_obs, w_pred = p.prediction_log[-1]
        assert f_pred == pytest.approx(0.2)
        assert f_obs == pytest.approx(0.25)
        assert w_pred == pytest.approx(0.0)
        assert w_obs > 0.0  # running slower than predicted strands capability
        summary = p.summary()
        assert summary["prediction"]["f_overload_rel_error"] == pytest.approx(0.25)

    def test_prediction_gauges_exported(self):
        obs.configure(enabled=True)
        plan = Plan.build({"v100": (1, 1)}, max_p=1)
        p = OnlineProfiler(ProfilerConfig(window_size=1))
        p.set_reference(plan, {"v100": 10.0})
        feed(p, 1, {0: ("v100", 0.1)})
        gauges = obs.metrics().snapshot()["gauges"]
        assert gauges["profiler_foverload_observed"] == pytest.approx(0.1)
        assert gauges["profiler_foverload_rel_error"] == pytest.approx(0.0, abs=1e-9)


class TestSummary:
    def test_summary_is_json_serializable(self):
        import json

        cfg = ProfilerConfig(window_size=2, straggler_factor=1.3, straggler_windows=1)
        p = OnlineProfiler(cfg, static_capability={"v100": 10.0})
        feed(p, 4, {0: ("v100", 0.1), 1: ("v100", 0.3)})
        p.observe_est_step(0, 0, 0.1)
        text = json.dumps(p.summary())
        assert "stragglers" in text and "calibration" in text

    def test_describe_mentions_stragglers_and_calibration(self):
        cfg = ProfilerConfig(window_size=2, straggler_factor=1.3, straggler_windows=1)
        p = OnlineProfiler(cfg, static_capability={"v100": 10.0})
        feed(p, 4, {0: ("v100", 0.1), 1: ("v100", 0.1), 2: ("v100", 0.5)})
        text = p.describe()
        assert "straggler events: 2" in text
        assert "calibrated capability" in text
        assert "worker 2" in text

    def test_percentiles_match_observations(self):
        p = OnlineProfiler(ProfilerConfig(window_size=4))
        feed(p, 8, {0: ("v100", 0.1)})
        w = p.summary()["workers"]["0"]
        assert w["p50_s"] == pytest.approx(0.1, rel=0.25)
        assert w["steps"] == 8


class TestTraceReplay:
    def test_replay_uses_est_arg_and_flags_slow_worker(self):
        def span(worker, gpu, est):
            return {
                "kind": "span",
                "name": "worker.local_step",
                "t0": 0.0,
                "t1": est,
                "args": {"worker": worker, "gpu": gpu, "vrank": worker, "est": est},
            }

        records = []
        for _ in range(12):
            records.append(span(0, "V100", 0.1))
            records.append(span(1, "V100", 0.1))
            records.append(span(2, "V100", 0.4))
        cfg = ProfilerConfig(window_size=3, straggler_factor=1.5, straggler_windows=2)
        p = profile_from_trace(records, cfg)
        assert {e.worker_id for e in p.straggler_events} == {2}
        # the type-level EWMA blends the healthy 10 mb/s workers with the
        # 2.5 mb/s straggler — it lands strictly between the two rates
        assert 2.5 < p.observed_capability["v100"] < 10.0
        # per-EST percentiles came along
        assert p.summary()["ests"]["2"]["steps"] == 12

    def test_replay_reads_one_worker_step_per_global_step(self):
        # worker 0 hosts two ESTs, worker 1 one: inside an engine step,
        # worker 0's step is its two local steps plus its context switch,
        # the quantity EasyScaleWorker.step_time() feeds the live profiler
        def span(name, t0, t1, **args):
            return {"kind": "span", "name": name, "t0": t0, "t1": t1, "args": args}

        records = []
        for step in range(4):
            base = 10.0 * step
            records += [
                span("worker.local_step", base + 1, base + 2,
                     worker=0, gpu="V100", vrank=0, est=0.1),
                span("worker.context_switch", base + 2, base + 3, worker=0, est=0.01),
                span("worker.local_step", base + 3, base + 4,
                     worker=0, gpu="V100", vrank=1, est=0.1),
                span("worker.local_step", base + 1, base + 2,
                     worker=1, gpu="T4", vrank=2, est=0.3),
                span("engine.global_step", base, base + 5, step=step),
            ]
        # outside every engine step a local step is read alone
        records.append(span("worker.local_step", 100.0, 101.0, worker=1, gpu="T4", est=0.3))
        p = profile_from_trace(records, ProfilerConfig(window_size=2))
        workers = p.summary()["workers"]
        assert [(w["num_ests"], w["steps"]) for w in workers.values()] == [(2, 4), (1, 5)]
        assert workers["0"]["mean_s"] == pytest.approx(0.21)
        assert p.observed_capability["v100"] == pytest.approx(2 / 0.21)
        assert p.summary()["ests"]["1"]["steps"] == 4

    def test_replay_falls_back_to_wall_time(self):
        records = [
            {
                "kind": "span",
                "name": "worker.local_step",
                "t0": 1.0,
                "t1": 1.5,
                "args": {"worker": 0, "gpu": "t4"},
            }
        ] * 4
        p = profile_from_trace(records, ProfilerConfig(window_size=2))
        assert p.observed_capability["t4"] == pytest.approx(2.0, rel=0.01)

    def test_replay_ignores_unrelated_records(self):
        records = [
            {"kind": "span", "name": "engine.sync", "t0": 0, "t1": 1, "args": {}},
            {"kind": "instant", "name": "job_submit", "t0": 0, "args": {}},
        ]
        p = profile_from_trace(records)
        assert p.windows_closed == 0
        assert p.observed_capability == {}

    def test_disabled_obs_mode_profiler_still_works(self):
        # the profiler's own state is independent of the global switch;
        # only the mirrored metrics go to the null registry
        assert not obs.is_enabled()
        p = OnlineProfiler(ProfilerConfig(window_size=1))
        feed(p, 2, {0: ("v100", 0.1)})
        assert p.windows_closed == 2
        assert math.isfinite(p.observed_capability["v100"])
