"""Unified observability layer: tracing, metrics, determinism audit.

One module-level switch governs everything the stack reports:

    from repro import obs

    obs.configure(enabled=True)          # wall-clock tracing + metrics
    obs.configure(enabled=True, clock="sim")      # simulated-clock mode
    obs.configure(enabled=True, audit=True)       # + per-step audit trail
    obs.configure(enabled=False)                  # back to (cheap) no-ops

Instrumented call sites — the engine's global step, the worker's per-EST
local steps, ElasticDDP's bucket reduces, the cluster simulator's event
stream — all go through this module, so a disabled build pays only a
module-attribute check and a shared null context manager per site.

The three sinks:

- :func:`span` / :func:`tracer` — nested timing spans (``obs.trace``),
  exportable to Chrome ``trace_event`` JSON or a flame-style summary;
- :func:`metrics` — counters/gauges/histograms (``obs.metrics``) with a
  Prometheus text exposition;
- :func:`audit_trail` — per-step determinism fingerprints (``obs.audit``)
  with :func:`diff_audits` to localize the first divergence between runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro._lazy import exports

# the global state below is built from these three; every other submodule
# (audit, bench, forensics, profiler, report) loads when first named
from repro.obs import flightrec
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, NullRegistry
from repro.obs.trace import SimClock, SpanTracer

if TYPE_CHECKING:
    from repro.obs.audit import AuditTrail

__all__, __getattr__, __dir__ = exports(__name__, {
    "bench": [
        "BENCH_SCHEMA_VERSION", "ComparisonRow", "Trajectory", "compare_trajectory",
        "gate_trajectory", "make_record",
    ],
    "trace": ["SpanTracer", "SimClock", "flame_summary", "records_to_chrome_trace"],
    "metrics": ["MetricsRegistry", "NullRegistry", "NULL_REGISTRY", "DEFAULT_BUCKETS", "time_into"],
    "audit": ["AuditTrail", "AuditRecord", "AuditDiff", "diff_audits", "fingerprint_rng_states"],
    "flightrec": [
        "BUNDLE_FORMAT_VERSION", "FlightRecorder", "is_bundle_file", "load_bundle",
        "render_bundle",
    ],
    "forensics": ["Cause", "ForensicsReport", "analyze_divergence", "trail_from_bundle"],
    "profiler": ["OnlineProfiler", "ProfilerConfig", "StragglerEvent", "profile_from_trace"],
    "report": [
        "ClusterUtilizationReport", "events_from_trace", "load_events_jsonl",
        "save_events_jsonl",
    ],
}, own=[
    "configure", "reset", "is_enabled", "ObsConfig", "config_snapshot", "configure_from",
    "export_child", "merge_child", "tracer", "metrics", "audit_trail", "span", "instant",
    "sim_clock",
])


class _NullSpan:
    """Shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()

_enabled: bool = False
_tracer: SpanTracer = SpanTracer()
_metrics: MetricsRegistry = MetricsRegistry()
_audit: Optional[AuditTrail] = None
#: bumped by every configure(); lets child processes skip re-applying a
#: snapshot they already hold (see :func:`configure_from`)
_generation: int = 0
#: the parent generation a child last applied via configure_from
_applied_generation: Optional[int] = None
#: tracer.emitted watermark of records already shipped by export_child
_exported: int = 0


@dataclass(frozen=True)
class ObsConfig:
    """A picklable snapshot of the global observability configuration.

    Built by :func:`config_snapshot` in the parent and applied by
    :func:`configure_from` inside spawned/forked pool workers, so child
    processes become first-class obs citizens instead of silently running
    with the module's per-process default (disabled) state.
    """

    enabled: bool = True
    clock: str = "wall"
    ring_size: int = 65536
    generation: int = 0


def configure(
    enabled: bool = True,
    *,
    clock: Union[str, SimClock] = "wall",
    ring_size: int = 65536,
    audit: bool = False,
    audit_path: Optional[str] = None,
    audit_rewind: bool = False,
) -> None:
    """(Re)configure the global observability state.

    Always installs fresh tracer/metrics/audit objects, so successive
    ``configure`` calls never mix records from different runs.  ``audit``
    (or a non-None ``audit_path``) turns on the per-step determinism
    trail; everything else costs nothing until a span/metric fires.
    ``audit_rewind`` permits non-increasing steps on the trail — required
    for fault-recovery runs, which restore to an earlier step and
    re-record the steps they re-execute.
    """
    global _enabled, _tracer, _metrics, _audit, _generation, _exported
    if _audit is not None:
        _audit.close()
    _enabled = bool(enabled)
    _tracer = SpanTracer(clock=clock, ring_size=ring_size)
    _metrics = MetricsRegistry()
    _audit = None
    if (audit or audit_path is not None) and enabled:
        from repro.obs.audit import AuditTrail

        _audit = AuditTrail(audit_path, allow_rewind=audit_rewind)
    _generation += 1
    _exported = 0


def config_snapshot() -> ObsConfig:
    """Snapshot the current global configuration for shipping to children."""
    return ObsConfig(
        enabled=_enabled,
        clock="sim" if _tracer.sim_clock is not None else "wall",
        ring_size=_tracer.ring_size,
        generation=_generation,
    )


def configure_from(config: Optional[ObsConfig]) -> None:
    """Apply a parent's :class:`ObsConfig` inside a child process.

    Idempotent per parent generation: a persistent pool worker receiving
    the same snapshot with every task only reconfigures (and drops its
    span ring) when the parent actually reconfigured.  ``None`` (parent
    had observability off) disables the child's obs state if it was
    previously bootstrapped.
    """
    global _applied_generation
    if config is None:
        if _applied_generation is not None:
            _applied_generation = None
            reset()
        return
    if _applied_generation == config.generation:
        return
    configure(
        enabled=config.enabled,
        clock=config.clock,
        ring_size=config.ring_size,
    )
    _applied_generation = config.generation


def export_child() -> Dict[str, Any]:
    """What a pool child ships home with each task's result (picklable).

    ``spans``: the span records emitted since the previous export, each
    stamped with this process's pid (its own Chrome process lane in the
    parent).  ``metrics``: the registry's :meth:`~MetricsRegistry.to_state`,
    after which a fresh registry is installed — the child ships a delta,
    so the parent's additive merge is exact however often it runs.  Both
    are empty while obs is off.  ``flight``: the flight-recorder events
    since the previous export, always (the recorder is always on).
    """
    global _exported, _metrics
    pid = os.getpid()
    spans: List[Dict[str, Any]] = []
    state: List[Dict[str, Any]] = []
    if _enabled:
        records = _tracer.records
        # the ring may have dropped early records; ship whatever of the
        # unshipped tail it still holds
        pending = min(_tracer.emitted - _exported, len(records))
        spans = [dict(r, pid=pid) for r in records[len(records) - pending:]]
        _exported = _tracer.emitted
        state = _metrics.to_state()
        _metrics = MetricsRegistry()
    flight = [dict(e, pid=pid) for e in flightrec.recorder().export()]
    return {"pid": pid, "spans": spans, "metrics": state, "flight": flight}


def merge_child(payload: Dict[str, Any]) -> None:
    """Fold one :func:`export_child` payload into this process's obs state.

    Spans keep their child ``pid``; child metric series gain a
    ``pid="<pid>"`` label so per-worker counts stay distinguishable;
    flight events join the recorder's ring, where a postmortem finds them.
    """
    _tracer.ingest(payload["spans"])
    _metrics.merge_state(payload["metrics"], extra_labels={"pid": str(payload["pid"])})
    flightrec.recorder().ingest(payload["flight"])


def reset() -> None:
    """Return to the pristine disabled state (used by tests and the CLI)."""
    configure(enabled=False)


def is_enabled() -> bool:
    return _enabled


def tracer() -> SpanTracer:
    """The active tracer (always exists; records only while enabled)."""
    return _tracer


def metrics() -> Union[MetricsRegistry, NullRegistry]:
    """The active metrics registry, or the shared no-op one when disabled."""
    return _metrics if _enabled else NULL_REGISTRY


def audit_trail() -> Optional[AuditTrail]:
    """The active audit trail, or None when auditing is off."""
    return _audit if _enabled else None


def span(name: str, cat: Optional[str] = None, est: Optional[float] = None, **attrs: Any):
    """Open a span on the global tracer; a shared no-op when disabled."""
    if not _enabled:
        return _NULL_SPAN
    return _tracer.span(name, cat=cat, est=est, **attrs)


def instant(name: str, ts: Optional[float] = None, cat: Optional[str] = None, **attrs: Any) -> None:
    """Record an instant marker on the global tracer (no-op when disabled)."""
    if _enabled:
        _tracer.instant(name, ts=ts, cat=cat, **attrs)


def sim_clock() -> Optional[SimClock]:
    """The tracer's simulated clock, when configured with ``clock="sim"``."""
    return _tracer.sim_clock if _enabled else None
