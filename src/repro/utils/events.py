"""Structured event logging for the cluster simulator and benchmarks.

The trace and production experiments (Figs. 14–16) report timelines: job
submissions, allocations, scale in/out events, preemptions, completions.
:class:`EventLog` is the single sink that the discrete-event simulator
writes to; the benchmark harnesses then fold the log into the series the
paper plots (allocated GPUs over time, JCT distribution, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Event:
    """A single timestamped simulator event.

    ``kind`` is a short machine-readable tag (``"job_submit"``,
    ``"scale_out"``, ``"preempt"``, ...), ``payload`` carries the details.
    """

    time: float
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be non-negative, got {self.time}")

    def as_tuple(self) -> Tuple[float, str, Tuple[Tuple[str, Any], ...]]:
        """Canonical hashable form: ``(time, kind, sorted payload items)``.

        Payload order is normalized so two logically identical events
        compare equal regardless of keyword order at the emit site.
        """
        return (self.time, self.kind, tuple(sorted(self.payload.items())))


class EventLog:
    """Append-only, time-ordered event collection with simple queries.

    An optional ``tracer`` (a :class:`repro.obs.trace.SpanTracer`) mirrors
    every event as an instant marker at its simulation timestamp, so a
    trace-sim run and any span-producing code export one merged timeline.
    """

    def __init__(self, tracer: Optional[Any] = None) -> None:
        self._events: List[Event] = []
        self._tracer = tracer

    def emit(self, time: float, kind: str, **payload: Any) -> Event:
        event = Event(time=time, kind=kind, payload=payload)
        if self._events and time < self._events[-1].time:
            raise ValueError(
                f"event out of order: {kind} at t={time} after t={self._events[-1].time}"
            )
        self._events.append(event)
        if self._tracer is not None:
            self._tracer.instant(kind, ts=time, cat="sched", **payload)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def as_tuples(self) -> List[Tuple[float, str, Tuple[Tuple[str, Any], ...]]]:
        """The whole log in canonical tuple form (exact-equality checks)."""
        return [e.as_tuple() for e in self._events]

    def fingerprint(self) -> str:
        """SHA-256 over the canonical event stream.

        Two logs fingerprint identically iff every event matches in time,
        kind, and payload — the simulator core-equivalence tests use this
        to assert ``run`` reproduces ``run_reference`` byte-for-byte.
        """
        import hashlib

        digest = hashlib.sha256()
        for event in self._events:
            digest.update(repr(event.as_tuple()).encode("utf-8"))
        return digest.hexdigest()

    def of_kind(self, *kinds: str) -> List[Event]:
        wanted = set(kinds)
        return [e for e in self._events if e.kind in wanted]

    def between(self, start: float, end: float) -> List[Event]:
        return [e for e in self._events if start <= e.time < end]

    def timeline(
        self,
        value: Callable[[Event], Optional[float]],
        initial: float = 0.0,
    ) -> List[Tuple[float, float]]:
        """Fold events into a step series ``[(time, running_value), ...]``.

        ``value(event)`` returns a delta to apply at that event's time, or
        ``None`` to skip the event.  Used e.g. to turn allocation/release
        events into the "allocated GPUs over time" curve of Fig. 15.
        """
        series: List[Tuple[float, float]] = []
        current = initial
        for event in self._events:
            delta = value(event)
            if delta is None:
                continue
            current += delta
            series.append((event.time, current))
        return series
