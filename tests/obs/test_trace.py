"""Span tracer: nesting, exception safety, clocks, exporters, persistence."""

import json
import threading

import pytest

from repro import obs
from repro.obs.trace import SimClock, SpanTracer, flame_summary


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


class TestSpanNesting:
    def test_paths_record_the_stack(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        paths = {r["path"] for r in tracer.records}
        assert paths == {"outer", "outer;inner"}

    def test_depth_matches_nesting(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        by_name = {r["name"]: r for r in tracer.records}
        assert (by_name["a"]["depth"], by_name["b"]["depth"], by_name["c"]["depth"]) == (0, 1, 2)

    def test_sibling_spans_do_not_nest(self):
        tracer = SpanTracer()
        with tracer.span("parent"):
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
        by_name = {r["name"]: r for r in tracer.records}
        assert by_name["first"]["path"] == "parent;first"
        assert by_name["second"]["path"] == "parent;second"

    def test_exception_still_records_and_unwinds(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("boom"):
                    raise RuntimeError("kaput")
        by_name = {r["name"]: r for r in tracer.records}
        assert by_name["boom"]["args"]["error"] == "RuntimeError"
        assert by_name["outer"]["args"]["error"] == "RuntimeError"
        # stack fully unwound: a new span starts at depth 0
        with tracer.span("after"):
            pass
        assert {r["name"]: r for r in tracer.records}["after"]["depth"] == 0

    def test_threads_get_independent_stacks(self):
        tracer = SpanTracer()
        done = threading.Event()

        def other():
            with tracer.span("thread_span"):
                pass
            done.set()

        with tracer.span("main_span"):
            t = threading.Thread(target=other)
            t.start()
            t.join()
        assert done.is_set()
        by_name = {r["name"]: r for r in tracer.records}
        # the other thread's span must not inherit the main thread's stack
        assert by_name["thread_span"]["path"] == "thread_span"
        assert by_name["thread_span"]["tid"] != by_name["main_span"]["tid"]


class TestRingBuffer:
    def test_bounded_memory(self):
        tracer = SpanTracer(ring_size=8)
        for i in range(50):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer) == 8
        assert tracer.emitted == 50
        assert tracer.records[-1]["name"] == "s49"

    def test_bad_ring_size_rejected(self):
        with pytest.raises(ValueError):
            SpanTracer(ring_size=0)


class TestClocks:
    def test_sim_clock_est_advances(self):
        tracer = SpanTracer(clock="sim")
        with tracer.span("fwd", est=3.0):
            pass
        with tracer.span("bwd", est=2.0):
            pass
        r0, r1 = tracer.records
        assert (r0["t0"], r0["t1"]) == (0.0, 3.0)
        assert (r1["t0"], r1["t1"]) == (3.0, 5.0)

    def test_wall_clock_monotone(self):
        tracer = SpanTracer()
        with tracer.span("x"):
            pass
        (r,) = tracer.records
        assert r["t1"] >= r["t0"]

    def test_sim_clock_rejects_backwards(self):
        clock = SimClock(5.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.set(1.0)

    def test_unknown_clock_mode(self):
        with pytest.raises(ValueError):
            SpanTracer(clock="lunar")


class TestExplicitSpans:
    def test_add_span_and_tracks(self):
        tracer = SpanTracer()
        tracer.add_span("job:a", 0.0, 10.0, track="a")
        tracer.add_span("job:b", 5.0, 12.0, track="b")
        tracer.add_span("job:a2", 11.0, 15.0, track="a")
        a, b, a2 = tracer.records
        assert a["tid"] == a2["tid"] != b["tid"]
        with pytest.raises(ValueError):
            tracer.add_span("bad", 10.0, 5.0)

    def test_instant_with_explicit_ts(self):
        tracer = SpanTracer()
        tracer.instant("scale", ts=42.0, gpus=2)
        (r,) = tracer.records
        assert r["kind"] == "instant" and r["t0"] == 42.0


class TestChromeExport:
    def test_round_trip_through_jsonl(self, tmp_path):
        tracer = SpanTracer(clock="sim")
        with tracer.span("outer", est=4.0, step=7):
            with tracer.span("inner", est=1.0):
                pass
        tracer.instant("marker", ts=2.0)
        path = tmp_path / "trace.jsonl"
        tracer.save(str(path))

        loaded = SpanTracer.load(str(path))
        assert not loaded.truncated
        assert loaded.sim_clock is not None  # clock mode restored from meta
        assert [r["name"] for r in loaded.records] == [
            r["name"] for r in tracer.records
        ]

        chrome = loaded.to_chrome_trace()
        events = chrome["traceEvents"]
        # X/i payload events plus M metadata (process/thread lane names)
        assert {e["ph"] for e in events} == {"X", "i", "M"}
        outer = next(e for e in events if e["name"] == "outer")
        assert outer["dur"] == pytest.approx(5.0 * 1e6)  # inner est + own est
        assert outer["args"]["step"] == 7
        # full document is valid JSON
        json.loads(json.dumps(chrome))

    def test_truncated_trailing_line_is_flagged(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("ok"):
            pass
        path = tmp_path / "trace.jsonl"
        tracer.save(str(path))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "span", "name": "part')  # crash mid-write
        loaded = SpanTracer.load(str(path))
        assert loaded.truncated
        assert [r["name"] for r in loaded.records] == ["ok"]

    def test_malformed_middle_line_raises_with_location(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "meta", "version": 1, "clock": "wall"}\nnot json\n{}\n')
        with pytest.raises(ValueError, match=r"trace\.jsonl:2"):
            SpanTracer.load(str(path))


class TestFlameSummary:
    def test_totals_and_self_time(self):
        records = [
            {"kind": "span", "name": "a", "path": "a", "t0": 0.0, "t1": 10.0},
            {"kind": "span", "name": "b", "path": "a;b", "t0": 1.0, "t1": 4.0},
            {"kind": "span", "name": "b", "path": "a;b", "t0": 5.0, "t1": 7.0},
            {"kind": "instant", "name": "i", "path": "i", "t0": 2.0, "t1": 2.0},
        ]
        text = flame_summary(records)
        lines = text.splitlines()
        assert "a" in lines[1] and "10.0" in lines[1]
        # self time of a = 10 - (3 + 2) = 5
        assert "5.0" in lines[1]
        assert "b" in lines[2] and lines[2].rstrip().endswith("b")

    def test_children_print_under_parent(self):
        tracer = SpanTracer()
        with tracer.span("z_parent"):
            with tracer.span("a_child"):
                pass
        with tracer.span("a_parent"):
            pass
        lines = tracer.flame_summary().splitlines()[1:]
        names = [line.split()[-1] for line in lines]
        assert names == ["a_parent", "z_parent", "a_child"]


class TestGlobalSwitch:
    def test_disabled_span_is_shared_noop(self):
        assert obs.span("anything", step=1) is obs.span("other")
        assert len(obs.tracer()) == 0

    def test_disabled_instant_records_nothing(self):
        obs.instant("nope")
        assert len(obs.tracer()) == 0

    def test_configure_installs_fresh_state(self):
        obs.configure(enabled=True)
        with obs.span("x"):
            pass
        assert len(obs.tracer()) == 1
        obs.configure(enabled=True)
        assert len(obs.tracer()) == 0

    def test_sim_clock_accessor(self):
        assert obs.sim_clock() is None
        obs.configure(enabled=True, clock="sim")
        assert obs.sim_clock() is not None


class TestOpenSpansAndClose:
    """Still-open spans: inspectable live, flushed exactly once on close()."""

    def test_open_spans_snapshot_deepest_first(self):
        tracer = SpanTracer()
        with tracer.span("outer", step=1):
            with tracer.span("inner"):
                open_now = tracer.open_spans()
                assert [s["name"] for s in open_now] == ["inner", "outer"]
                assert open_now[1]["args"] == {"step": 1}
                assert open_now[0]["path"] == "outer;inner"
        assert tracer.open_spans() == []

    def test_close_flushes_unclosed_span_once(self):
        tracer = SpanTracer()
        ctx = tracer.span("dangling", step=5)
        ctx.__enter__()
        tracer.close()
        records = [r for r in tracer.records if r["name"] == "dangling"]
        assert len(records) == 1
        assert records[0]["args"]["unclosed"] is True
        assert records[0]["args"]["step"] == 5
        assert records[0]["t1"] >= records[0]["t0"]
        # the with-block exit after close() must NOT record a second copy
        ctx.__exit__(None, None, None)
        assert len([r for r in tracer.records if r["name"] == "dangling"]) == 1

    def test_tracer_usable_after_close(self):
        tracer = SpanTracer()
        ctx = tracer.span("orphan")
        ctx.__enter__()
        tracer.close()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        by_name = {r["name"]: r for r in tracer.records}
        assert by_name["a"]["depth"] == 0  # stack was reset, not corrupted
        assert by_name["b"]["path"] == "a;b"

    def test_closed_spans_export_cleanly_to_chrome(self):
        tracer = SpanTracer()
        outer = tracer.span("outer")
        outer.__enter__()
        inner = tracer.span("inner")
        inner.__enter__()
        tracer.close()
        doc = tracer.to_chrome_trace()
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        assert all(e["dur"] >= 0 for e in complete)

    def test_close_on_clean_tracer_is_noop(self):
        tracer = SpanTracer()
        with tracer.span("done"):
            pass
        before = len(tracer)
        tracer.close()
        assert len(tracer) == before


class TestChromeLanes:
    """Multi-process exports: one pid lane per process, EST/worker tids."""

    def _span(self, name, pid=None, **args):
        rec = {"kind": "span", "name": name, "path": name,
               "t0": 0.0, "t1": 1.0, "tid": 1, "args": args}
        if pid is not None:
            rec["pid"] = pid
        return rec

    def test_child_records_keep_their_pid_lane(self):
        from repro.obs.trace import records_to_chrome_trace

        doc = records_to_chrome_trace([
            self._span("parent_side"),
            self._span("child_side", pid=4242),
        ])
        by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert by_name["parent_side"]["pid"] == 0
        assert by_name["child_side"]["pid"] == 4242

    def test_process_metadata_names_lanes(self):
        from repro.obs.trace import records_to_chrome_trace

        doc = records_to_chrome_trace([
            self._span("a"),
            self._span("b", pid=77),
        ])
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {(e["pid"], e["args"]["name"])
                 for e in meta if e["name"] == "process_name"}
        assert (0, "parent") in names
        assert (77, "pool worker pid 77") in names

    def test_vrank_and_worker_args_pick_lanes(self):
        from repro.obs.trace import (
            EST_LANE_BASE,
            WORKER_LANE_BASE,
            records_to_chrome_trace,
        )

        doc = records_to_chrome_trace([
            self._span("step", vrank=3),
            self._span("task", worker=1),
        ])
        by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert by_name["step"]["tid"] == EST_LANE_BASE + 3
        assert by_name["task"]["tid"] == WORKER_LANE_BASE + 1
        threads = {(e["tid"], e["args"]["name"])
                   for e in doc["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        assert (EST_LANE_BASE + 3, "EST 3") in threads
        assert (WORKER_LANE_BASE + 1, "worker 1") in threads

    def test_non_integer_lane_args_fall_back_to_tid(self):
        from repro.obs.trace import records_to_chrome_trace

        doc = records_to_chrome_trace([self._span("odd", vrank="?")])
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["tid"] == 1  # the record's own tid, not a lane


class TestShards:
    """Records from another process fold into a tracer."""

    def test_ingest_folds_foreign_records(self):
        tracer = SpanTracer()
        with tracer.span("local"):
            pass
        tracer.ingest([
            {"kind": "span", "name": "remote", "path": "remote",
             "t0": 0.0, "t1": 1.0, "pid": 55},
        ])
        names = {r["name"]: r for r in tracer.records}
        assert names["remote"]["pid"] == 55
        assert "pid" not in names["local"]  # parent records stay pid-less
        assert tracer.emitted == 2
