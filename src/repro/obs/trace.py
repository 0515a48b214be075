"""Span tracer: nestable, thread-aware timing spans with bounded storage.

The production EasyScale runtime streams per-phase timings (forward,
backward, context switch, bucket reduce) to AIMaster dashboards; this is
the local equivalent.  A :class:`SpanTracer` records *spans* — named,
nested intervals opened with ``tracer.span("forward")`` — and *instants*
(zero-duration markers, e.g. scale events).  Two clock modes exist:

- **wall** (default): spans measure real elapsed time via
  ``time.perf_counter``;
- **simulated**: a :class:`SimClock` the caller advances; a span opened
  with ``span("forward", est=3.0)`` advances the clock by its estimated
  duration on exit, so purely-modeled phases still produce a timeline.

Storage is a ring buffer (``collections.deque`` with ``maxlen``), so a
long training run keeps the most recent spans under a fixed memory bound.
Finished records export to Chrome ``trace_event`` JSON (loadable in
``chrome://tracing`` / Perfetto) or to a plain-text flamegraph-style
summary aggregated by span path.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.utils.jsonl import read_jsonl

#: JSONL schema version for saved traces.
TRACE_FORMAT_VERSION = 1

#: Synthetic Chrome-trace thread-id bases for derived lanes.  Real thread
#: ids are masked to 16 bits and simulator tracks start at 0x10000, so
#: these ranges never collide with either.
EST_LANE_BASE = 0x20000
WORKER_LANE_BASE = 0x30000


class SimClock:
    """A manually-advanced clock for simulated-time tracing."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt {dt}")
        self._now += dt
        return self._now

    def set(self, t: float) -> None:
        if t < self._now:
            raise ValueError(f"clock cannot move backwards ({t} < {self._now})")
        self._now = float(t)


class _SpanCtx:
    """One open span; records itself into the tracer on exit.

    Exception-safe: the span is recorded (flagged ``error=True``) and the
    per-thread stack unwound even when the body raises.
    """

    __slots__ = ("_tracer", "name", "cat", "est", "args", "_t0", "_path", "_tid")

    def __init__(
        self,
        tracer: "SpanTracer",
        name: str,
        cat: Optional[str],
        est: Optional[float],
        args: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.est = est
        self.args = args
        self._t0 = 0.0
        self._path = ""
        self._tid = 0

    def __enter__(self) -> "_SpanCtx":
        stack = self._tracer._stack()
        stack.append(self.name)
        self._path = ";".join(stack)
        self._t0 = self._tracer.now()
        self._tid = self._tracer._tid()
        self._tracer._open_add(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        if self.est is not None and tracer.sim_clock is not None:
            tracer.sim_clock.advance(self.est)
        t1 = tracer.now()
        if not tracer._open_remove(self):
            # already flushed by close() — don't record it twice
            return False
        stack = tracer._stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        args = self.args
        if self.est is not None:
            args = dict(args, est=self.est)
        if exc_type is not None:
            args = dict(args, error=exc_type.__name__)
        tracer._record(
            {
                "kind": "span",
                "name": self.name,
                "cat": self.cat or "default",
                "path": self._path,
                "t0": self._t0,
                "t1": t1,
                "tid": tracer._tid(),
                "depth": self._path.count(";"),
                "args": args,
            }
        )
        return False


class SpanTracer:
    """Thread-aware span recorder with a bounded ring buffer."""

    def __init__(
        self,
        clock: Union[str, SimClock] = "wall",
        ring_size: int = 65536,
    ) -> None:
        if ring_size <= 0:
            raise ValueError("ring_size must be positive")
        if isinstance(clock, SimClock):
            self.sim_clock: Optional[SimClock] = clock
        elif clock == "sim":
            self.sim_clock = SimClock()
        elif clock == "wall":
            self.sim_clock = None
        else:
            raise ValueError(f"unknown clock mode {clock!r}; use 'wall', 'sim', or a SimClock")
        self.ring_size = ring_size
        self._records: deque = deque(maxlen=ring_size)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tracks: Dict[str, int] = {}
        #: spans currently open (entered but not yet exited), keyed by
        #: context identity; flushed as complete events by :meth:`close`
        self._open: Dict[int, _SpanCtx] = {}
        #: total records ever emitted (>= len(records) once the ring wraps)
        self.emitted = 0
        #: set by :meth:`load` when the file ended in a partial line
        self.truncated = False

    # ------------------------------------------------------------------
    # clock and per-thread state
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self.sim_clock.now() if self.sim_clock is not None else time.perf_counter()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        return threading.get_ident() & 0xFFFF

    def _record(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._records.append(record)
            self.emitted += 1

    def _open_add(self, ctx: "_SpanCtx") -> None:
        with self._lock:
            self._open[id(ctx)] = ctx

    def _open_remove(self, ctx: "_SpanCtx") -> bool:
        with self._lock:
            return self._open.pop(id(ctx), None) is not None

    def open_spans(self) -> List[Dict[str, Any]]:
        """Snapshot of spans currently entered but not yet exited.

        Deepest-first per thread (the order :meth:`close` would flush
        them); used by the flight recorder to capture what the process
        was inside at dump time.
        """
        with self._lock:
            open_ctxs = list(self._open.values())
        return [
            {
                "name": ctx.name,
                "cat": ctx.cat or "default",
                "path": ctx._path,
                "t0": ctx._t0,
                "tid": ctx._tid,
                "args": dict(ctx.args),
            }
            for ctx in sorted(open_ctxs, key=lambda c: -c._path.count(";"))
        ]

    def close(self) -> None:
        """Flush still-open spans as complete events (``unclosed=True``).

        A crash (or an export taken mid-run) would otherwise silently
        drop every span on the open stack — the Chrome export only emits
        complete ``"X"`` events, so an unexited span simply vanished.
        Closing records each one with ``t1 = now`` and an ``unclosed``
        marker, deepest first so parent/child durations stay nested, and
        clears the per-thread stacks.  The tracer remains usable.
        """
        now = self.now()
        with self._lock:
            open_ctxs = sorted(self._open.values(), key=lambda c: -c._path.count(";"))
            self._open.clear()
        for ctx in open_ctxs:
            self._record(
                {
                    "kind": "span",
                    "name": ctx.name,
                    "cat": ctx.cat or "default",
                    "path": ctx._path,
                    "t0": ctx._t0,
                    "t1": now,
                    "tid": ctx._tid,
                    "depth": ctx._path.count(";"),
                    "args": dict(ctx.args, unclosed=True),
                }
            )
        stack = getattr(self._local, "stack", None)
        if stack:
            del stack[:]

    # ------------------------------------------------------------------
    # recording API
    # ------------------------------------------------------------------
    def span(
        self, name: str, cat: Optional[str] = None, est: Optional[float] = None, **attrs: Any
    ) -> _SpanCtx:
        """Open a nested span: ``with tracer.span("forward", est=3.0): ...``"""
        return _SpanCtx(self, name, cat, est, attrs)

    def instant(
        self, name: str, ts: Optional[float] = None, cat: Optional[str] = None, **attrs: Any
    ) -> None:
        """A zero-duration marker, at ``ts`` if given else the current clock."""
        t = self.now() if ts is None else float(ts)
        self._record(
            {
                "kind": "instant",
                "name": name,
                "cat": cat or "default",
                "path": name,
                "t0": t,
                "t1": t,
                "tid": self._tid(),
                "depth": 0,
                "args": attrs,
            }
        )

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        cat: Optional[str] = None,
        track: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        """Record a completed span with explicit timestamps.

        Used by the cluster simulator, where event times are simulation
        time, not this process's clock.  ``track`` names a logical lane
        (e.g. a job id) mapped to a stable synthetic thread id so each
        lane renders as its own row in Perfetto.
        """
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts ({end} < {start})")
        self._record(
            {
                "kind": "span",
                "name": name,
                "cat": cat or "default",
                "path": name,
                "t0": float(start),
                "t1": float(end),
                "tid": self.track_id(track) if track is not None else self._tid(),
                "depth": 0,
                "args": attrs,
            }
        )

    def track_id(self, label: str) -> int:
        """Stable synthetic thread id for a named timeline lane."""
        with self._lock:
            if label not in self._tracks:
                # offset away from real thread ids' masked range
                self._tracks[label] = 0x10000 + len(self._tracks)
            return self._tracks[label]

    def ingest(self, records: Iterable[Dict[str, Any]]) -> int:
        """Fold externally produced records (e.g. a pool child's) into the ring.

        Records pass through unmodified — in particular a ``pid`` field
        stamped by :func:`repro.obs.export_child` survives, keeping each
        source process on its own lane in the Chrome export.
        """
        count = 0
        with self._lock:
            for record in records:
                self._records.append(record)
                self.emitted += 1
                count += 1
        return count

    @property
    def records(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    # persistence (JSONL; tolerant of a truncated trailing line)
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {
                        "kind": "meta",
                        "version": TRACE_FORMAT_VERSION,
                        "clock": "sim" if self.sim_clock is not None else "wall",
                    }
                )
                + "\n"
            )
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")

    @classmethod
    def load(cls, path: str) -> "SpanTracer":
        """Rebuild a tracer (records only) from a saved JSONL trace.

        A truncated final line — the crash-mid-write case — is skipped and
        flagged via the ``truncated`` attribute; a malformed line anywhere
        else raises with the file path and line number.
        """
        tracer = cls()
        rows, tracer.truncated = read_jsonl(path, "trace line")
        for lineno, payload in rows:
            kind = payload.get("kind")
            if kind == "meta":
                if payload.get("clock") == "sim":
                    tracer.sim_clock = SimClock()
            elif kind in ("span", "instant") and "name" in payload:
                tracer._record(payload)
            else:
                raise ValueError(
                    f"{path}:{lineno}: malformed trace line: not a meta, span "
                    f"or instant record: {sorted(payload)[:6]}"
                )
        return tracer

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` format (one complete/instant event per record)."""
        with self._lock:
            lane_names = {tid: label for label, tid in self._tracks.items()}
        return records_to_chrome_trace(self.records, lane_names=lane_names)

    def save_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh, default=str)

    def flame_summary(self, limit: Optional[int] = None) -> str:
        """Flamegraph-style text: per-path total/self time and call counts."""
        return flame_summary(self.records, limit=limit)


def _lane_for(record: Dict[str, Any]) -> Optional[Union[int, str]]:
    """Derive a stable display lane from a record's worker/EST identity.

    Spans carrying a ``vrank`` (EST-level work) land on one lane per EST;
    worker-level spans (``worker`` but no ``vrank``) on one lane per
    physical worker.  Everything else keeps its raw thread/track id —
    which is exactly the pre-fix behaviour that collapsed a whole serial
    run into a single row.
    """
    args = record.get("args", {})
    try:
        if "vrank" in args:
            return EST_LANE_BASE + int(args["vrank"])
        if "worker" in args:
            return WORKER_LANE_BASE + int(args["worker"])
        if "from_vrank" in args:
            return EST_LANE_BASE + int(args["from_vrank"])
    except (TypeError, ValueError):
        return None
    return None


def records_to_chrome_trace(
    records: Iterable[Dict[str, Any]],
    lane_names: Optional[Dict[int, str]] = None,
) -> Dict[str, Any]:
    """Convert span/instant records to the Chrome ``trace_event`` dict.

    Every record's ``pid`` (0 = the parent process; pool children stamp
    their real pid via :func:`repro.obs.export_child`) becomes a Chrome *process* lane,
    and worker/EST identity becomes a named *thread* lane within it, so a
    merged multi-process trace renders as separate tracks in
    ``chrome://tracing`` / Perfetto instead of one collapsed row.
    ``process_name`` / ``thread_name`` metadata events label the lanes.
    """
    events: List[Dict[str, Any]] = []
    pids: Dict[int, None] = {}
    threads: Dict[Tuple[int, int], str] = {}
    for r in records:
        pid = int(r.get("pid", 0))
        args = r.get("args", {})
        tid = int(r.get("tid", 0))
        lane = _lane_for(r)
        if lane is not None:
            tid = lane
            label = (
                f"EST {args.get('vrank', args.get('from_vrank'))}"
                if lane >= EST_LANE_BASE and lane < WORKER_LANE_BASE
                else f"worker {args.get('worker')}"
            )
            threads.setdefault((pid, tid), label)
        elif lane_names and tid in lane_names:
            threads.setdefault((pid, tid), lane_names[tid])
        pids.setdefault(pid, None)
        base = {
            "name": r["name"],
            "cat": r.get("cat", "default"),
            "pid": pid,
            "tid": tid,
            "ts": r["t0"] * 1e6,  # trace_event timestamps are microseconds
            "args": args,
        }
        if r["kind"] == "instant":
            events.append({**base, "ph": "i", "s": "t"})
        else:
            events.append({**base, "ph": "X", "dur": max(r["t1"] - r["t0"], 0.0) * 1e6})
    meta: List[Dict[str, Any]] = []
    for index, pid in enumerate(sorted(pids)):
        name = "parent" if pid == 0 else f"pool worker pid {pid}"
        meta.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                     "args": {"name": name}})
        meta.append({"ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
                     "args": {"sort_index": index}})
    for (pid, tid), label in sorted(threads.items()):
        meta.append({"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                     "args": {"name": label}})
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def flame_summary(records: Iterable[Dict[str, Any]], limit: Optional[int] = None) -> str:
    """Aggregate records by nesting path into a flamegraph-style table.

    ``self`` time is total minus the total of direct children, so a hot
    leaf stands out even when its parents dominate wall clock.
    """
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for r in records:
        if r["kind"] != "span":
            continue
        path = r.get("path") or r["name"]
        totals[path] = totals.get(path, 0.0) + (r["t1"] - r["t0"])
        counts[path] = counts.get(path, 0) + 1
    child_time: Dict[str, float] = {}
    for path, total in totals.items():
        if ";" in path:
            parent = path.rsplit(";", 1)[0]
            child_time[parent] = child_time.get(parent, 0.0) + total
    lines = [f"{'total_s':>12} {'self_s':>12} {'calls':>8}  span path"]
    # depth-first path order: each subtree prints under its parent
    ordered = sorted(totals, key=lambda p: p.split(";"))
    if limit is not None:
        ordered = ordered[:limit]
    for path in ordered:
        total = totals[path]
        self_time = total - child_time.get(path, 0.0)
        depth = path.count(";")
        label = "  " * depth + path.rsplit(";", 1)[-1]
        lines.append(f"{total:>12.6f} {self_time:>12.6f} {counts[path]:>8}  {label}")
    return "\n".join(lines)
