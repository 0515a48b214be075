"""Cluster utilization report: folding, metrics, renderers, round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.report import (
    ClusterUtilizationReport,
    events_from_trace,
    load_events_jsonl,
    save_events_jsonl,
)
from repro.utils.events import EventLog


def tiny_log() -> EventLog:
    """2-GPU cluster, two jobs: one served at t=0, one queued 10 s."""
    log = EventLog()
    log.emit(0.0, "cluster_capacity", v100=2)
    log.emit(0.0, "job_submit", job="a")
    log.emit(0.0, "scale_out", job="a", gtype="v100", gpus=2)
    log.emit(5.0, "job_submit", job="b")
    log.emit(10.0, "scale_in", job="a", gtype="v100", gpus=1)
    log.emit(10.0, "scale_out", job="b", gtype="v100", gpus=1)
    log.emit(20.0, "job_done", job="a", released=1)
    log.emit(30.0, "job_done", job="b", released=1)
    return log


class TestFolding:
    def test_busy_and_idle_gpu_seconds(self):
        report = ClusterUtilizationReport.from_events(tiny_log())
        # a: 2 GPUs x 10s + 1 GPU x 10s = 30; b: 1 GPU x 20s = 20
        assert report.busy_gpu_seconds["v100"] == pytest.approx(50.0)
        # capacity 2 x horizon 30 = 60 GPU-s total
        assert report.idle_gpu_seconds["v100"] == pytest.approx(10.0)
        assert report.total_idle_gpu_seconds == pytest.approx(10.0)
        assert report.utilization == pytest.approx(50.0 / 60.0)

    def test_queueing_delay_per_job(self):
        report = ClusterUtilizationReport.from_events(tiny_log())
        delays = report.queueing_delays()
        assert delays["a"] == pytest.approx(0.0)
        assert delays["b"] == pytest.approx(5.0)  # submitted 5, granted 10
        assert report.mean_queueing_delay == pytest.approx(2.5)

    def test_fragmentation_counts_starved_idle_time(self):
        # job b waits 5 s while the cluster is fully allocated (no free
        # capacity -> no contended-free seconds), then is served; after a
        # finishes at t=20 one GPU is free but nobody is starving
        report = ClusterUtilizationReport.from_events(tiny_log())
        assert report.contended_free_gpu_seconds == pytest.approx(0.0)
        assert report.fragmentation == pytest.approx(0.0)

    def test_fragmentation_positive_when_free_gpus_starve_a_job(self):
        log = EventLog()
        log.emit(0.0, "cluster_capacity", v100=4)
        log.emit(0.0, "job_submit", job="a")
        log.emit(0.0, "scale_out", job="a", gtype="v100", gpus=1)
        log.emit(0.0, "job_submit", job="b")  # never granted: starves
        log.emit(10.0, "job_done", job="a", released=1)
        report = ClusterUtilizationReport.from_events(log)
        # 3 free GPUs for 10 s while b held nothing
        assert report.contended_free_gpu_seconds == pytest.approx(30.0)
        assert report.fragmentation > 0.5

    def test_capacity_falls_back_to_peak_allocation(self):
        log = EventLog()
        log.emit(0.0, "job_submit", job="a")
        log.emit(0.0, "scale_out", job="a", gtype="t4", gpus=3)
        log.emit(8.0, "job_done", job="a", released=3)
        report = ClusterUtilizationReport.from_events(log)
        assert report.capacity == {"t4": 3}
        assert report.idle_gpu_seconds["t4"] == pytest.approx(0.0)

    def test_explicit_capacity_and_horizon_override(self):
        report = ClusterUtilizationReport.from_events(
            tiny_log(), capacity={"V100": 4}, horizon=40.0
        )
        assert report.capacity == {"v100": 4}
        assert report.horizon == 40.0
        assert report.idle_gpu_seconds["v100"] == pytest.approx(4 * 40 - 50)

    def test_job_done_releases_untracked_holdings(self):
        log = EventLog()
        log.emit(0.0, "cluster_capacity", v100=2)
        log.emit(0.0, "job_submit", job="a")
        log.emit(0.0, "scale_out", job="a", gtype="v100", gpus=2)
        log.emit(4.0, "job_done", job="a", released=2)
        report = ClusterUtilizationReport.from_events(log)
        assert report.allocation_timeline[-1] == (4.0, 0)
        assert report.busy_gpu_seconds["v100"] == pytest.approx(8.0)

    def test_empty_stream(self):
        report = ClusterUtilizationReport.from_events([])
        assert report.horizon == 0.0
        assert report.jobs == {}
        assert report.total_idle_gpu_seconds == 0.0


CAPACITY = {"v100": 4, "t4": 2}


def _by_definition(rows, horizon):
    """Busy GPU-seconds per type as Σ held·dt and contended-free as Σ free·dt
    over the gaps with a starved job — every job looked at in every gap,
    the quadratic definition the one-pass fold has to equal."""
    held, cluster, submitted, done = {}, {}, set(), set()
    busy, contended, last = {}, 0.0, 0.0
    for time, kind, job, gtype, gpus in rows + [(max(horizon, rows[-1][0]), "end", "", "", 0)]:
        for (_, held_type), count in held.items():
            busy[held_type] = busy.get(held_type, 0.0) + count * (time - last)
        if any(not any(n for (j, _), n in held.items() if j == waiting)
               for waiting in submitted - done):
            free = sum(CAPACITY.values()) - sum(cluster.values())
            contended += max(0, free) * (time - last)
        last = time
        if kind == "job_submit":
            submitted.add(job)
        elif kind == "scale_out":
            held[job, gtype] = held.get((job, gtype), 0) + gpus
            cluster[gtype] = cluster.get(gtype, 0) + gpus
        elif kind in ("scale_in", "preempt"):  # a job cannot return what it does not hold
            held[job, gtype] = max(0, held.get((job, gtype), 0) - gpus)
            cluster[gtype] = max(0, cluster.get(gtype, 0) - gpus)
        elif kind == "job_done":
            done.add(job)
            for key in [key for key in held if key[0] == job]:
                cluster[key[1]] = max(0, cluster[key[1]] - held.pop(key))
    return busy, contended


_EVENT = st.tuples(
    st.integers(0, 5),  # seconds since the previous event
    st.sampled_from(["job_submit", "scale_out", "scale_in", "preempt", "job_done"]),
    st.sampled_from(["a", "b", "c"]),  # nothing says a job was ever submitted
    st.sampled_from(list(CAPACITY)),
    st.integers(0, 3),
)


@given(events=st.lists(_EVENT, min_size=1, max_size=40), past_the_end=st.integers(-3, 9))
@settings(max_examples=200, deadline=None)
def test_one_pass_fold_equals_the_definition(events, past_the_end):
    rows, now = [], 0.0
    for gap, kind, job, gtype, gpus in events:
        now += gap
        rows.append((now, kind, job, gtype, gpus))
    horizon = max(0.0, now + past_the_end)
    report = ClusterUtilizationReport.from_events(
        [{"time": 0.0, "kind": "cluster_capacity", "payload": CAPACITY}]
        + [{"time": time, "kind": kind, "payload": {"job": job, "gtype": gtype, "gpus": gpus}}
           for time, kind, job, gtype, gpus in rows],
        horizon=horizon,
    )
    busy, contended = _by_definition(rows, horizon)
    for gtype in CAPACITY:
        assert report.busy_gpu_seconds.get(gtype, 0.0) == pytest.approx(busy.get(gtype, 0.0))
    assert report.contended_free_gpu_seconds == pytest.approx(contended)
    assert report.horizon == horizon


class TestRenderers:
    def test_text_contains_golden_substrings(self):
        text = ClusterUtilizationReport.from_events(tiny_log()).to_text()
        assert "idle GPU-seconds" in text
        assert "allocation timeline" in text
        assert "mean queueing delay" in text
        assert "fragmentation" in text
        # both jobs get a lane with a running segment
        for job in ("a", "b"):
            assert f"{job:>10} |" in text
        assert "#" in text

    def test_text_elides_beyond_max_jobs(self):
        log = EventLog()
        log.emit(0.0, "cluster_capacity", v100=8)
        for i in range(6):
            log.emit(float(i), "job_submit", job=f"j{i}")
            log.emit(float(i), "scale_out", job=f"j{i}", gtype="v100", gpus=1)
        text = ClusterUtilizationReport.from_events(log).to_text(max_jobs=4)
        assert "2 more jobs elided" in text

    def test_html_is_self_contained(self):
        html = ClusterUtilizationReport.from_events(tiny_log()).to_html()
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html  # inline CSS
        assert "idle GPU-seconds" in html
        assert 'class="lane"' in html  # per-job gantt lanes
        assert "src=" not in html and "href=" not in html  # no external assets

    def test_html_escapes_job_ids(self):
        log = EventLog()
        log.emit(0.0, "job_submit", job="<script>")
        log.emit(0.0, "scale_out", job="<script>", gtype="v100", gpus=1)
        html = ClusterUtilizationReport.from_events(log).to_html()
        assert "<script>" not in html
        assert "&lt;script&gt;" in html

    def test_summary_json_serializable(self):
        import json

        payload = json.loads(
            json.dumps(ClusterUtilizationReport.from_events(tiny_log()).summary())
        )
        assert payload["jobs"] == 2
        assert payload["completed"] == 2


class TestRoundTrip:
    def test_jsonl_save_load(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        count = save_events_jsonl(tiny_log(), path)
        assert count == 8
        rows = load_events_jsonl(path)
        direct = ClusterUtilizationReport.from_events(tiny_log())
        reloaded = ClusterUtilizationReport.from_events(rows)
        assert reloaded.summary() == direct.summary()

    def test_saved_bytes_are_the_per_line_dumps_spelling(self, tmp_path):
        # the file is written through one shared encoder; its bytes must be
        # exactly what json.dumps(row, sort_keys=True) per line would give
        import json

        log = EventLog()
        log.emit(-0.0, "fault", job="j\u00e9", detail={"lost": -0.0, "zeta": [1.5, {"b": 2, "a": None}]})
        log.emit(1e-7, "scale_out", job="作业-ü", gtype="t4", gpus=3.0)
        log.emit(12.0, "job_done", job="\U0001f680", released=2, ratio=1 / 3)
        rows = [
            {"time": event.time, "kind": event.kind, "payload": dict(event.payload)}
            for event in log
        ] + [{"kind": "raw", "time": 2.0, "payload": {"nested": {"z": 1e300, "a": 1e-7}}}]
        path = tmp_path / "events.jsonl"
        assert save_events_jsonl(list(log) + rows[-1:], str(path)) == len(rows)
        expected = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_truncated_trailing_line_tolerated(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        save_events_jsonl(tiny_log(), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"time": 99, "kind": "job_su')  # crash mid-write
        rows = load_events_jsonl(path)
        assert len(rows) == 8

    def test_mid_file_damage_is_an_error_not_a_shorter_log(self, tmp_path, capsys):
        # the old reader stopped at the first undecodable line, so a log
        # damaged on line 3 produced a confident report of lines 1-2
        from repro.cli import main

        path = tmp_path / "ev.jsonl"
        save_events_jsonl(tiny_log(), str(path))
        lines = path.read_text().splitlines()
        lines[2] = "garbage"
        path.write_text("\n".join(lines[:5]) + "\n")
        with pytest.raises(ValueError, match=r"ev\.jsonl:3: malformed event line"):
            load_events_jsonl(str(path))
        assert main(["obs", "report", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {path}:3:") and "utilization" not in out

    def test_damaged_last_line_loads_with_a_warning(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "ev.jsonl")
        save_events_jsonl(tiny_log(), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"time": 99, "kind": "job_su')  # crash mid-write
        assert main(["obs", "report", path]) == 0
        out = capsys.readouterr().out
        assert f"warning: {path} has a truncated trailing line (skipped)" in out
        assert "(2 jobs, 2 completed)" in out

    def test_events_from_trace_instants(self):
        records = [
            {"kind": "instant", "cat": "sched", "name": "job_submit",
             "t0": 0.0, "args": {"job": "a"}},
            {"kind": "instant", "cat": "sched", "name": "scale_out",
             "t0": 1.0, "args": {"job": "a", "gtype": "v100", "gpus": 2}},
            {"kind": "span", "cat": "engine", "name": "engine.global_step",
             "t0": 0.0, "t1": 1.0, "args": {}},
            {"kind": "instant", "cat": "engine", "name": "engine.scale_event",
             "t0": 2.0, "args": {}},
        ]
        events = events_from_trace(records)
        assert [e["kind"] for e in events] == ["job_submit", "scale_out"]
        report = ClusterUtilizationReport.from_events(events)
        assert report.jobs["a"].first_grant == pytest.approx(1.0)


class TestSimulatorIntegration:
    def test_report_from_live_simulation(self):
        from repro.hw.cluster import microbench_cluster
        from repro.sched.easyscale_policy import EasyScalePolicy
        from repro.sched.simulator import ClusterSimulator
        from repro.sched.trace import generate_trace

        jobs = generate_trace(num_jobs=6, seed=1)
        sim = ClusterSimulator(microbench_cluster(), jobs, EasyScalePolicy(True))
        sim.run()
        report = ClusterUtilizationReport.from_events(sim.events)
        # capacity came from the leading cluster_capacity event
        assert report.capacity == {"v100": 32, "p100": 16, "t4": 16}
        assert len(report.jobs) == 6
        assert report.total_busy_gpu_seconds > 0
        assert report.total_idle_gpu_seconds > 0
        text = report.to_text()
        assert "idle GPU-seconds" in text
