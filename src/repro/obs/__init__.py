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
from typing import Any, Optional, Union

from repro.obs.audit import (
    AuditDiff,
    AuditRecord,
    AuditTrail,
    diff_audits,
    fingerprint_rng_states,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    time_into,
)
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    BenchSpec,
    ComparisonRow,
    Trajectory,
    compare_trajectory,
    gate_trajectories,
    make_record,
    run_benches,
)
from repro.obs.trace import (
    SHARD_SPAN_SUFFIX,
    SimClock,
    SpanTracer,
    flame_summary,
    load_shard_records,
    records_to_chrome_trace,
)
from repro.obs.flightrec import (
    BUNDLE_FORMAT_VERSION,
    FlightRecorder,
    is_bundle_file,
    load_bundle,
    render_bundle,
)
from repro.obs.forensics import (
    Cause,
    ForensicsReport,
    analyze_divergence,
    trail_from_bundle,
)
from repro.obs.profiler import (
    OnlineProfiler,
    ProfilerConfig,
    StragglerEvent,
    profile_from_trace,
)
from repro.obs.report import (
    ClusterUtilizationReport,
    events_from_trace,
    load_events_jsonl,
    save_events_jsonl,
)

__all__ = [
    "configure",
    "reset",
    "is_enabled",
    "ObsConfig",
    "config_snapshot",
    "configure_from",
    "flush_shard",
    "collect_shards",
    "BENCH_SCHEMA_VERSION",
    "BenchSpec",
    "ComparisonRow",
    "Trajectory",
    "compare_trajectory",
    "gate_trajectories",
    "make_record",
    "run_benches",
    "SHARD_SPAN_SUFFIX",
    "load_shard_records",
    "tracer",
    "metrics",
    "audit_trail",
    "span",
    "instant",
    "sim_clock",
    "SpanTracer",
    "SimClock",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "time_into",
    "AuditTrail",
    "AuditRecord",
    "AuditDiff",
    "diff_audits",
    "fingerprint_rng_states",
    "BUNDLE_FORMAT_VERSION",
    "FlightRecorder",
    "is_bundle_file",
    "load_bundle",
    "render_bundle",
    "Cause",
    "ForensicsReport",
    "analyze_divergence",
    "trail_from_bundle",
    "flame_summary",
    "records_to_chrome_trace",
    "OnlineProfiler",
    "ProfilerConfig",
    "StragglerEvent",
    "profile_from_trace",
    "ClusterUtilizationReport",
    "events_from_trace",
    "load_events_jsonl",
    "save_events_jsonl",
]


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
_shard_dir: Optional[str] = None
#: tracer.emitted watermark of records already written to this process's shard
_shard_flushed: int = 0


@dataclass(frozen=True)
class ObsConfig:
    """A picklable snapshot of the global observability configuration.

    Built by :func:`config_snapshot` in the parent and applied by
    :func:`configure_from` inside spawned/forked pool workers, so child
    processes become first-class obs citizens instead of silently running
    with the module's per-process default (disabled) state.  ``shard_dir``
    is where the child's :func:`flush_shard` writes its per-pid span and
    metric shards for the parent to merge via :func:`collect_shards`.
    """

    enabled: bool = True
    clock: str = "wall"
    ring_size: int = 65536
    shard_dir: Optional[str] = None
    generation: int = 0


def configure(
    enabled: bool = True,
    *,
    clock: Union[str, SimClock] = "wall",
    ring_size: int = 65536,
    audit: bool = False,
    audit_path: Optional[str] = None,
    audit_rewind: bool = False,
    shard_dir: Optional[str] = None,
) -> None:
    """(Re)configure the global observability state.

    Always installs fresh tracer/metrics/audit objects, so successive
    ``configure`` calls never mix records from different runs.  ``audit``
    (or a non-None ``audit_path``) turns on the per-step determinism
    trail; everything else costs nothing until a span/metric fires.
    ``audit_rewind`` permits non-increasing steps on the trail — required
    for fault-recovery runs, which restore to an earlier step and
    re-record the steps they re-execute.  ``shard_dir`` makes this
    process write its spans/metrics as per-pid shards on
    :func:`flush_shard` (used inside pool children).
    """
    global _enabled, _tracer, _metrics, _audit, _generation, _shard_dir, _shard_flushed
    if _audit is not None:
        _audit.close()
    _enabled = bool(enabled)
    _tracer = SpanTracer(clock=clock, ring_size=ring_size)
    _metrics = MetricsRegistry()
    _audit = (
        AuditTrail(audit_path, allow_rewind=audit_rewind)
        if (audit or audit_path is not None) and enabled
        else None
    )
    _generation += 1
    _shard_dir = shard_dir
    _shard_flushed = 0


def config_snapshot(shard_dir: Optional[str] = None) -> ObsConfig:
    """Snapshot the current global configuration for shipping to children.

    ``shard_dir`` overrides (or sets) where the receiving process should
    write its shards; the parent itself usually has none.
    """
    return ObsConfig(
        enabled=_enabled,
        clock="sim" if _tracer.sim_clock is not None else "wall",
        ring_size=_tracer.ring_size,
        shard_dir=shard_dir if shard_dir is not None else _shard_dir,
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
        shard_dir=config.shard_dir,
    )
    _applied_generation = config.generation


def flush_shard() -> Optional[str]:
    """Write this process's new span records and metrics to its shards.

    Appends records emitted since the previous flush to
    ``<shard_dir>/shard-<pid>.spans.jsonl`` (each stamped with this
    process's pid) and rewrites ``shard-<pid>.metrics.json`` with the
    full metrics state.  Returns the span-shard path, or ``None`` when
    disabled or no shard directory is configured.
    """
    global _shard_flushed
    if not _enabled or _shard_dir is None:
        return None
    from repro.obs.trace import append_shard_records, shard_span_path

    pid = os.getpid()
    records = _tracer.records
    # the ring may have dropped early records; flush whatever of the
    # unflushed tail is still held
    pending = min(_tracer.emitted - _shard_flushed, len(records))
    path = shard_span_path(_shard_dir, pid)
    if pending > 0:
        append_shard_records(path, records[-pending:], pid=pid)
        _shard_flushed = _tracer.emitted
    metrics_path = os.path.join(_shard_dir, f"shard-{pid}.metrics.json")
    import json

    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump({"pid": pid, "state": _metrics.to_state()}, fh, sort_keys=True)
    return path


def collect_shards(shard_dir: str, label: str = "pid") -> int:
    """Merge child shards into this process's tracer and metrics.

    Every span record is ingested carrying its child ``pid`` (rendered as
    its own process lane by the Chrome exporter); every child metric
    series is folded into the parent registry with an extra
    ``{label}="<pid>"`` label so per-worker counts stay distinguishable.
    Consumed shard files are deleted — collecting twice never
    double-counts.  Returns the number of span records merged.
    """
    import glob
    import json

    from repro.obs.trace import SHARD_SPAN_SUFFIX, load_shard_records

    merged = 0
    for path in sorted(glob.glob(os.path.join(shard_dir, f"shard-*{SHARD_SPAN_SUFFIX}"))):
        records = load_shard_records(path)
        _tracer.ingest(records)
        merged += len(records)
        os.unlink(path)
    for path in sorted(glob.glob(os.path.join(shard_dir, "shard-*.metrics.json"))):
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        _metrics.merge_state(
            payload.get("state", []), extra_labels={label: str(payload.get("pid", "?"))}
        )
        os.unlink(path)
    return merged


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
