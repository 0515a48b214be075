"""Event log: ordering, queries, timeline folding."""

import pytest

from repro.utils.events import Event, EventLog


class TestEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(time=-1.0, kind="x")
        with pytest.raises(ValueError, match="non-negative"):
            EventLog().emit(-1.0, "x")

    def test_keywords_and_default_payload(self):
        event = Event(time=2.0, kind="job_submit")
        assert (event.time, event.kind, event.payload) == (2.0, "job_submit", {})
        assert Event(time=2.0, kind="x").payload is not event.payload
        assert Event(2.0, "x", {"job": "a"}).payload == {"job": "a"}

    def test_immutable(self):
        event = Event(time=1.0, kind="x")
        with pytest.raises(AttributeError):
            event.time = 2.0
        with pytest.raises(AttributeError):
            event.payload = {}
        with pytest.raises(AttributeError):
            event.extra = 1  # no per-instance dict

    def test_a_tuple_record(self):
        # an Event equals the plain tuple of its fields: readers take its
        # fields by name, never by comparing against a tuple
        log = EventLog()
        event = log.emit(3.0, "scale_out", job="a", gpus=2)
        assert type(event) is Event and list(log) == [event]
        assert event == (3.0, "scale_out", {"job": "a", "gpus": 2})
        assert event.as_tuple() == (3.0, "scale_out", (("gpus", 2), ("job", "a")))


class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog()
        log.emit(0.0, "job_submit", job="a")
        log.emit(1.0, "scale_out", job="a", gpus=2)
        log.emit(2.0, "job_done", job="a")
        assert len(log) == 3
        assert [e.kind for e in log.of_kind("job_submit", "job_done")] == [
            "job_submit",
            "job_done",
        ]

    def test_out_of_order_rejected(self):
        log = EventLog()
        log.emit(5.0, "a")
        with pytest.raises(ValueError):
            log.emit(4.0, "b")

    def test_same_time_allowed(self):
        log = EventLog()
        log.emit(1.0, "a")
        log.emit(1.0, "b")
        assert len(log) == 2

    def test_between(self):
        log = EventLog()
        for t in (0.0, 1.0, 2.0, 3.0):
            log.emit(t, "tick")
        assert len(log.between(1.0, 3.0)) == 2  # [1, 3)

    def test_timeline_folding(self):
        log = EventLog()
        log.emit(0.0, "alloc", gpus=4)
        log.emit(1.0, "alloc", gpus=2)
        log.emit(2.0, "free", gpus=3)
        series = log.timeline(
            lambda e: e.payload["gpus"] if e.kind == "alloc" else -e.payload["gpus"]
        )
        assert series == [(0.0, 4.0), (1.0, 6.0), (2.0, 3.0)]

    def test_timeline_skips_none(self):
        log = EventLog()
        log.emit(0.0, "alloc", gpus=1)
        log.emit(1.0, "note")
        series = log.timeline(lambda e: e.payload.get("gpus"))
        assert series == [(0.0, 1.0)]


class TestCanonicalForm:
    def test_as_tuple_normalizes_payload_order(self):
        a = Event(time=1.0, kind="k", payload={"x": 1, "y": 2})
        b = Event(time=1.0, kind="k", payload={"y": 2, "x": 1})
        assert a.as_tuple() == b.as_tuple() == (1.0, "k", (("x", 1), ("y", 2)))

    def test_as_tuples_covers_whole_log(self):
        log = EventLog()
        log.emit(0.0, "a", n=1)
        log.emit(1.0, "b")
        assert log.as_tuples() == [(0.0, "a", (("n", 1),)), (1.0, "b", ())]

    def test_fingerprint_equal_iff_streams_equal(self):
        one, two, three = EventLog(), EventLog(), EventLog()
        for log in (one, two):
            log.emit(0.0, "a", n=1)
            log.emit(2.0, "b", n=2)
        three.emit(0.0, "a", n=1)
        three.emit(2.0, "b", n=3)  # payload differs
        assert one.fingerprint() == two.fingerprint()
        assert one.fingerprint() != three.fingerprint()

    def test_fingerprint_sensitive_to_time_and_kind(self):
        base = EventLog()
        base.emit(1.0, "a")
        shifted = EventLog()
        shifted.emit(1.5, "a")
        renamed = EventLog()
        renamed.emit(1.0, "b")
        assert len({base.fingerprint(), shifted.fingerprint(), renamed.fingerprint()}) == 3
