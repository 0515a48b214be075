"""Cluster utilization report built from simulator event logs.

The trace experiments answer "how busy was the cluster?" with three
numbers the paper cares about (§5.2): job completion time, allocated GPUs
over time, and how much capacity sat idle.  This module folds a
:class:`~repro.utils.events.EventLog` (or a saved JSONL trace of it) into
a :class:`ClusterUtilizationReport`:

- **per-job allocation timelines** — GPUs held by each job over time,
  split by GPU type, rendered as ASCII lanes and as an HTML gantt;
- **per-GPU-type utilization** — busy vs idle GPU-seconds against the
  cluster capacity (from the leading ``cluster_capacity`` event);
- **queueing delay** — submit-to-first-grant per job;
- **fragmentation** — the fraction of free GPU-seconds that accrued while
  at least one submitted job held zero GPUs: capacity that was free *and
  wanted* but not handed out.

Everything is computed from the event stream alone, so the report works
on a live ``EventLog``, on `trace-sim --events` output reloaded from
disk, or on the ``cat="sched"`` instants inside a span trace
(:func:`events_from_trace`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.hw.gpu import type_key
from repro.utils.jsonl import read_jsonl

_INF = float("inf")

#: event kinds the report understands; anything else is ignored
_ALLOC_KINDS = (
    "cluster_capacity",
    "job_submit",
    "scale_out",
    "scale_in",
    "preempt",
    "job_done",
)


def _normalize(event: Any) -> Optional[Tuple[float, str, Dict[str, Any]]]:
    """Accept Event objects, plain dicts, and JSON-loaded rows alike."""
    if hasattr(event, "kind") and hasattr(event, "time"):
        return float(event.time), str(event.kind), dict(event.payload)
    if isinstance(event, Mapping):
        kind = event.get("kind")
        if kind not in _ALLOC_KINDS:
            return None
        time = event.get("time", event.get("t0"))
        payload = event.get("payload", event.get("args", {}))
        if time is None:
            return None
        return float(time), str(kind), dict(payload)
    return None


def events_from_trace(records: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Recover simulator events from a span trace's ``cat="sched"`` instants.

    The :class:`~repro.utils.events.EventLog` mirrors every event into the
    tracer as an instant marker; this inverts that mapping so ``obs
    report`` can consume either representation.
    """
    events = []
    for r in records:
        if r.get("kind") != "instant" or r.get("cat") != "sched":
            continue
        if r.get("name") not in _ALLOC_KINDS:
            continue
        events.append(
            {"time": float(r["t0"]), "kind": r["name"], "payload": dict(r.get("args", {}))}
        )
    return events


@dataclass
class _JobLane:
    """One job's allocation history."""

    job_id: str
    submit_time: Optional[float] = None
    first_grant: Optional[float] = None
    done_time: Optional[float] = None
    #: currently-held GPUs by type key
    held: Dict[str, int] = field(default_factory=dict)
    #: (time, total GPUs held) step series
    timeline: List[Tuple[float, int]] = field(default_factory=list)
    #: accumulated GPU-seconds by type
    gpu_seconds: Dict[str, float] = field(default_factory=dict)
    #: times at which a fault preempted this job (recovery-gap markers)
    preempt_times: List[float] = field(default_factory=list)
    _last_time: float = 0.0

    @property
    def total_held(self) -> int:
        return sum(self.held.values())

    def _accrue(self, now: float) -> None:
        dt = now - self._last_time
        if dt > 0:
            for gtype, count in self.held.items():
                if count:
                    self.gpu_seconds[gtype] = self.gpu_seconds.get(gtype, 0.0) + count * dt
        self._last_time = now

    @property
    def queueing_delay(self) -> Optional[float]:
        if self.submit_time is None or self.first_grant is None:
            return None
        return self.first_grant - self.submit_time


@dataclass
class ClusterUtilizationReport:
    """Folded view of a simulated cluster run."""

    horizon: float
    capacity: Dict[str, int]
    jobs: Dict[str, _JobLane]
    #: GPU-seconds held across all jobs, by type
    busy_gpu_seconds: Dict[str, float]
    #: capacity · horizon − busy, by type (only types with known capacity)
    idle_gpu_seconds: Dict[str, float]
    #: free GPU-seconds accrued while ≥1 submitted job held zero GPUs
    contended_free_gpu_seconds: float
    #: (time, cluster-wide allocated GPUs) step series
    allocation_timeline: List[Tuple[float, int]]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls,
        events: Iterable[Any],
        capacity: Optional[Mapping[str, int]] = None,
        horizon: Optional[float] = None,
    ) -> "ClusterUtilizationReport":
        """Fold an event stream (Event objects or dict rows) into a report.

        ``capacity`` overrides the ``cluster_capacity`` event if both are
        present; with neither, peak concurrent allocation per type is used
        as a lower-bound stand-in (idle numbers then underestimate).

        One pass, linear in events: a job's holdings change only at its own
        events, so it accrues GPU-seconds there (and once at the end) and
        moves the starved-job count by its own before/after state.
        """
        rows = [n for n in (_normalize(e) for e in events) if n is not None]
        rows.sort(key=lambda r: r[0])

        cap = {type_key(k): int(v) for k, v in (capacity or {}).items()}
        jobs: Dict[str, _JobLane] = {}
        total_allocated = 0
        allocation_timeline: List[Tuple[float, int]] = []
        peak_by_type: Dict[str, int] = {}
        held_by_type: Dict[str, int] = {}
        contended_free = 0.0
        last_time = 0.0
        end_time = rows[-1][0] if rows else 0.0
        #: submitted, unfinished jobs holding zero GPUs right now
        starved = 0

        def free_capacity() -> int:  # only asked while ``cap`` is known
            return max(0, sum(cap.values()) - sum(held_by_type.values()))

        def is_starved(j: _JobLane) -> bool:
            return j.submit_time is not None and j.done_time is None and j.total_held == 0

        for time, kind, payload in rows:
            # accrue contended-free GPU-seconds over [last_time, time)
            if time > last_time and cap and starved:
                contended_free += free_capacity() * (time - last_time)
            last_time = time

            if kind == "cluster_capacity":
                if not capacity:
                    cap = {type_key(str(k)): int(v) for k, v in payload.items()}
                continue
            if kind not in _ALLOC_KINDS:
                continue
            job_id = str(payload.get("job", "?"))
            j = jobs.get(job_id) or jobs.setdefault(job_id, _JobLane(job_id=job_id))
            j._accrue(time)
            starved -= is_starved(j)
            if kind == "job_submit":
                j.submit_time = time
            elif kind == "scale_out":
                gtype = type_key(str(payload.get("gtype", "?")))
                count = int(payload.get("gpus", 0))
                if j.first_grant is None and count > 0:
                    j.first_grant = time
                j.held[gtype] = j.held.get(gtype, 0) + count
                held_by_type[gtype] = held_by_type.get(gtype, 0) + count
                peak_by_type[gtype] = max(peak_by_type.get(gtype, 0), held_by_type[gtype])
                total_allocated += count
                j.timeline.append((time, j.total_held))
                allocation_timeline.append((time, total_allocated))
            elif kind in ("scale_in", "preempt"):
                gtype = type_key(str(payload.get("gtype", "?")))
                count = int(payload.get("gpus", 0))
                if count:
                    j.held[gtype] = max(0, j.held.get(gtype, 0) - count)
                    held_by_type[gtype] = max(0, held_by_type.get(gtype, 0) - count)
                    total_allocated = max(0, total_allocated - count)
                    j.timeline.append((time, j.total_held))
                    allocation_timeline.append((time, total_allocated))
                if kind == "preempt":
                    j.preempt_times.append(time)
            elif kind == "job_done":
                j.done_time = time
                released = j.total_held
                for gtype, count in j.held.items():
                    held_by_type[gtype] = max(0, held_by_type.get(gtype, 0) - count)
                j.held = {}
                total_allocated = max(0, total_allocated - released)
                j.timeline.append((time, 0))
                allocation_timeline.append((time, total_allocated))
            starved += is_starved(j)

        span = horizon if horizon is not None else end_time
        # close the books: every job through the last event, and on to the
        # horizon when it lies beyond
        if span > last_time and cap and starved:
            contended_free += free_capacity() * (span - last_time)
        for j in jobs.values():
            j._accrue(max(span, last_time))

        if not cap:
            cap = dict(peak_by_type)
        busy: Dict[str, float] = {}
        for j in jobs.values():
            for gtype, secs in j.gpu_seconds.items():
                busy[gtype] = busy.get(gtype, 0.0) + secs
        idle = {
            gtype: max(0.0, cap[gtype] * span - busy.get(gtype, 0.0)) for gtype in cap
        }
        return cls(
            horizon=span,
            capacity=cap,
            jobs=jobs,
            busy_gpu_seconds=busy,
            idle_gpu_seconds=idle,
            contended_free_gpu_seconds=contended_free,
            allocation_timeline=allocation_timeline,
        )

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    @property
    def total_idle_gpu_seconds(self) -> float:
        return sum(self.idle_gpu_seconds.values())

    @property
    def total_busy_gpu_seconds(self) -> float:
        return sum(self.busy_gpu_seconds.values())

    @property
    def utilization(self) -> float:
        """Busy fraction of total capacity over the horizon."""
        total_capacity = sum(self.capacity.values()) * self.horizon
        if total_capacity <= 0:
            return 0.0
        return self.total_busy_gpu_seconds / total_capacity

    @property
    def preemptions(self) -> int:
        """Total fault-driven preemptions across all job lanes."""
        return sum(len(lane.preempt_times) for lane in self.jobs.values())

    @property
    def fragmentation(self) -> float:
        """Share of idle GPU-seconds that a pending job was starving for."""
        idle = self.total_idle_gpu_seconds
        if idle <= 0:
            return 0.0
        return min(1.0, self.contended_free_gpu_seconds / idle)

    def queueing_delays(self) -> Dict[str, float]:
        return {
            job_id: lane.queueing_delay
            for job_id, lane in sorted(self.jobs.items())
            if lane.queueing_delay is not None
        }

    @property
    def mean_queueing_delay(self) -> float:
        delays = list(self.queueing_delays().values())
        return sum(delays) / len(delays) if delays else 0.0

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable rollup (the CLI's ``--json`` output)."""
        return {
            "horizon_s": self.horizon,
            "capacity": dict(self.capacity),
            "jobs": len(self.jobs),
            "completed": sum(1 for j in self.jobs.values() if j.done_time is not None),
            "busy_gpu_seconds": dict(self.busy_gpu_seconds),
            "idle_gpu_seconds": dict(self.idle_gpu_seconds),
            "total_idle_gpu_seconds": self.total_idle_gpu_seconds,
            "utilization": self.utilization,
            "fragmentation": self.fragmentation,
            "mean_queueing_delay_s": self.mean_queueing_delay,
            "queueing_delays": self.queueing_delays(),
            "preemptions": self.preemptions,
        }

    # ------------------------------------------------------------------
    # renderers
    # ------------------------------------------------------------------
    def _lane_cells(self, lane: _JobLane, width: int) -> str:
        """One job's life as ``width`` characters: . queued, # running,
        ! preempted (fault marker overlays the allocation segments)."""
        if self.horizon <= 0:
            return " " * width
        cells = [" "] * width
        scale = width / self.horizon

        def col(t: float) -> int:
            return min(width - 1, max(0, int(t * scale)))

        submit = lane.submit_time if lane.submit_time is not None else 0.0
        end = lane.done_time if lane.done_time is not None else self.horizon
        for i in range(col(submit), col(end) + 1):
            cells[i] = "."
        # overlay held-GPU segments from the step timeline
        prev_t, prev_held = submit, 0
        for t, held in lane.timeline + [(end, 0)]:
            if prev_held > 0:
                for i in range(col(prev_t), col(t) + 1):
                    cells[i] = "#"
            prev_t, prev_held = t, held
        for t in lane.preempt_times:
            cells[col(t)] = "!"
        return "".join(cells)

    def to_text(self, width: int = 60, max_jobs: int = 40) -> str:
        """Plain-text report: totals, per-type idle, ASCII allocation lanes."""
        lines = [
            f"cluster utilization over {self.horizon:.0f}s "
            f"({len(self.jobs)} jobs, "
            f"{sum(1 for j in self.jobs.values() if j.done_time is not None)} completed)",
            "",
            f"{'type':>8} {'capacity':>9} {'busy GPU-s':>12} {'idle GPU-s':>12} {'util':>7}",
        ]
        for gtype in sorted(self.capacity):
            cap = self.capacity[gtype]
            busy = self.busy_gpu_seconds.get(gtype, 0.0)
            idle = self.idle_gpu_seconds.get(gtype, 0.0)
            denom = cap * self.horizon
            util = busy / denom if denom > 0 else 0.0
            lines.append(
                f"{gtype:>8} {cap:>9} {busy:>12.0f} {idle:>12.0f} {util:>6.1%}"
            )
        lines += [
            "",
            f"idle GPU-seconds (total): {self.total_idle_gpu_seconds:.0f}",
            f"cluster utilization: {self.utilization:.1%}",
            f"fragmentation (starved-idle share): {self.fragmentation:.1%}",
            f"mean queueing delay: {self.mean_queueing_delay:.1f}s",
            f"preemptions: {self.preemptions}",
            "",
            f"per-job allocation timeline (.=queued/idle  #=holding GPUs  "
            f"!=preempted, {self.horizon:.0f}s wide):",
        ]
        shown = 0
        for job_id, lane in sorted(self.jobs.items()):
            if shown >= max_jobs:
                lines.append(f"  ... {len(self.jobs) - shown} more jobs elided")
                break
            peak = max((h for _, h in lane.timeline), default=0)
            lines.append(f"  {job_id:>10} |{self._lane_cells(lane, width)}| peak {peak}")
            shown += 1
        return "\n".join(lines)

    def to_html(self, title: str = "Cluster utilization report") -> str:
        """Self-contained HTML (inline CSS, no external assets)."""
        from html import escape as esc

        rows = []
        for gtype in sorted(self.capacity):
            cap = self.capacity[gtype]
            busy = self.busy_gpu_seconds.get(gtype, 0.0)
            idle = self.idle_gpu_seconds.get(gtype, 0.0)
            denom = cap * self.horizon
            util = busy / denom if denom > 0 else 0.0
            rows.append(
                f"<tr><td>{esc(gtype)}</td><td>{cap}</td>"
                f"<td>{busy:.0f}</td><td>{idle:.0f}</td><td>{util:.1%}</td></tr>"
            )
        lanes = []
        horizon = max(self.horizon, 1e-9)
        for job_id, lane in sorted(self.jobs.items()):
            segments = []
            submit = lane.submit_time if lane.submit_time is not None else 0.0
            end = lane.done_time if lane.done_time is not None else self.horizon
            segments.append(
                f'<div class="queued" style="left:{submit / horizon * 100:.2f}%;'
                f"width:{max(end - submit, 0) / horizon * 100:.2f}%\"></div>"
            )
            prev_t, prev_held = submit, 0
            for t, held in lane.timeline + [(end, 0)]:
                if prev_held > 0:
                    segments.append(
                        f'<div class="alloc" style="left:{prev_t / horizon * 100:.2f}%;'
                        f"width:{max(t - prev_t, 0) / horizon * 100:.2f}%\" "
                        f'title="{prev_held} GPUs"></div>'
                    )
                prev_t, prev_held = t, held
            for t in lane.preempt_times:
                segments.append(
                    f'<div class="preempt" style="left:{t / horizon * 100:.2f}%" '
                    f'title="preempted at {t:.0f}s"></div>'
                )
            delay = lane.queueing_delay
            delay_txt = f"{delay:.0f}s queued" if delay is not None else "never granted"
            lanes.append(
                f'<div class="lane"><span class="job">{esc(job_id)}</span>'
                f'<div class="track">{"".join(segments)}</div>'
                f'<span class="note">{esc(delay_txt)}</span></div>'
            )
        return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{esc(title)}</title>
<style>
body {{ font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em; color: #222; }}
table {{ border-collapse: collapse; margin: 1em 0; }}
td, th {{ border: 1px solid #ccc; padding: 0.3em 0.8em; text-align: right; }}
th {{ background: #f3f3f3; }}
.lane {{ display: flex; align-items: center; margin: 2px 0; }}
.job {{ width: 9em; font-family: monospace; font-size: 0.85em; text-align: right;
        padding-right: 0.6em; }}
.track {{ position: relative; flex: 1; height: 14px; background: #f7f7f7;
          border: 1px solid #ddd; }}
.queued {{ position: absolute; top: 5px; height: 4px; background: #cfd8dc; }}
.alloc {{ position: absolute; top: 1px; height: 12px; background: #4caf50; }}
.preempt {{ position: absolute; top: 0; height: 14px; width: 2px; background: #e53935; }}
.note {{ width: 9em; font-size: 0.8em; color: #777; padding-left: 0.6em; }}
.kpis span {{ display: inline-block; margin-right: 2em; }}
.kpis b {{ font-size: 1.3em; }}
</style></head><body>
<h1>{esc(title)}</h1>
<div class="kpis">
<span><b>{self.horizon:.0f}s</b> horizon</span>
<span><b>{len(self.jobs)}</b> jobs</span>
<span><b>{self.total_idle_gpu_seconds:.0f}</b> idle GPU-seconds</span>
<span><b>{self.utilization:.1%}</b> utilization</span>
<span><b>{self.fragmentation:.1%}</b> fragmentation</span>
<span><b>{self.mean_queueing_delay:.0f}s</b> mean queueing delay</span>
</div>
<h2>Per-GPU-type utilization</h2>
<table><tr><th>type</th><th>capacity</th><th>busy GPU-s</th><th>idle GPU-s</th>
<th>utilization</th></tr>
{''.join(rows)}
</table>
<h2>Per-job allocation timeline</h2>
{''.join(lanes)}
</body></html>
"""


def load_events_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read an event stream saved as JSON lines (tolerates a trailing
    truncated line, mirroring :meth:`SpanTracer.load`; a damaged line
    anywhere else raises ``ValueError("{path}:{lineno}: ...")``)."""
    return [row for _, row in read_jsonl(path, "event line")[0]]


def save_events_jsonl(events: Iterable[Any], path: str) -> int:
    """Write an event stream (Event objects or dicts) as JSON lines.

    Each line is ``json.dumps(row, sort_keys=True)``, through one encoder
    (``json.dumps`` builds one per call).  An event with a finite
    ``float`` time is written from its fields: a cached ``{"kind": …,
    "payload": `` prefix per kind, the payload as it is (not copied) and
    the time as the encoder spells it; anything else is encoded whole.
    """
    encode = json.JSONEncoder(sort_keys=True).encode
    prefixes: Dict[str, str] = {}
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for count, event in enumerate(events, 1):
            if not (hasattr(event, "kind") and hasattr(event, "time")):
                fh.write(encode(dict(event)) + "\n")
            elif type(event.time) is float and -_INF < event.time < _INF:
                if event.kind not in prefixes:
                    prefixes[event.kind] = '{"kind": ' + encode(event.kind) + ', "payload": '
                fh.write(f'{prefixes[event.kind]}{encode(event.payload)}, "time": {event.time!r}}}\n')
            else:
                fh.write(encode({"time": event.time, "kind": event.kind, "payload": event.payload}) + "\n")
    return count
