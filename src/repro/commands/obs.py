"""``obs``: the offline readers of the span traces, telemetry, audit trails,
postmortem bundles and event logs that ``train`` and ``trace-sim`` write."""

from __future__ import annotations

import argparse
import json

from repro import obs
from repro.cli import DIVERGED, OK, _BadInput, _claim, _load, _workload


def _load_log(loader, path):
    """:func:`~repro.cli._load` for the JSONL logs (telemetry, span trace,
    audit trail): a damaged trailing line is tolerated by the codec and
    reported here; a log with nothing in it cannot answer any question."""
    log = _load(loader, path)
    if log.truncated:
        print(f"warning: {path} has a truncated trailing line (skipped)")
    if not len(log):
        raise _BadInput(f"{path}: no records")
    return log


def _is_telemetry_file(path: str) -> bool:
    """True when the first row looks like a RunLog record rather than a
    span-trace record (telemetry kinds vs meta/span/instant)."""
    from repro.utils.jsonl import read_jsonl
    from repro.utils.telemetry import _ALLOWED_KINDS

    rows, _ = read_jsonl(path, limit=1)
    return bool(rows) and rows[0][1].get("kind") in _ALLOWED_KINDS


def _summarize_telemetry(path: str) -> int:
    from repro.utils.telemetry import RunLog

    log = _load_log(RunLog.load, path)
    kinds = {}
    for record in log.records:
        kinds[record.kind] = kinds.get(record.kind, 0) + 1
    print(f"{len(log)} telemetry records from {path} "
          f"({', '.join(f'{k}: {v}' for k, v in sorted(kinds.items()))})")
    losses = log.loss_series()
    if losses:
        print(f"loss: first {losses[0]:.6f}  last {losses[-1]:.6f}  over {len(losses)} steps")
    for record in log.of_kind("scale_event"):
        print(f"  step {record.step}: scaled to {record.data.get('gpus')}")
    for record in log.of_kind("profile"):
        summary = record.data.get("summary", {})
        workers = summary.get("workers", {})
        print(f"  step {record.step}: profile over {summary.get('windows', 0)} windows, "
              f"{len(workers)} workers, {len(summary.get('stragglers', []))} straggler events")
        for wid, w in sorted(workers.items()):
            print(f"    worker {wid} ({w.get('gpu')}): "
                  f"p50 {w.get('p50_s', 0.0):.6f}s  p99 {w.get('p99_s', 0.0):.6f}s")
        observed = summary.get("calibration", {}).get("observed", {})
        if observed:
            print(f"    calibrated capability: "
                  f"{ {k: round(v, 3) for k, v in sorted(observed.items())} }")
    return OK


def summarize(args: argparse.Namespace) -> int:
    if _load(_is_telemetry_file, args.trace_file):
        return _summarize_telemetry(args.trace_file)
    tracer = _load_log(obs.SpanTracer.load, args.trace_file)
    spans = sum(r["kind"] == "span" for r in tracer.records)
    print(f"{spans} spans, {len(tracer) - spans} instants from {args.trace_file}")
    print(tracer.flame_summary(limit=args.limit))
    return OK


def profile(args: argparse.Namespace) -> int:
    from repro.obs.profiler import ProfilerConfig, profile_from_trace

    tracer = _load_log(obs.SpanTracer.load, args.trace_file)
    _claim(args.json)
    static = None
    if args.workload:
        from repro.hw import static_capability

        static = static_capability(_workload(args.workload))
    config = ProfilerConfig(window_size=args.window, straggler_factor=args.factor,
                            straggler_windows=args.consecutive)
    profiler = profile_from_trace(tracer.records, config=config, static_capability=static)
    if not profiler.windows_closed and not profiler.observed_capability:
        raise _BadInput(f"{args.trace_file}: no worker.local_step spans to profile "
                        "(produce one with: repro train <workload> --trace PATH)")
    print(profiler.describe())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(profiler.summary(), fh, indent=2, sort_keys=True)
        print(f"profile summary written to {args.json}")
    return OK


def report(args: argparse.Namespace) -> int:
    from repro.obs.report import ClusterUtilizationReport, events_from_trace
    from repro.utils.jsonl import read_jsonl

    numbered, truncated = _load(read_jsonl, args.events_file, "event line")
    _claim(args.html, args.json)
    if truncated:
        print(f"warning: {args.events_file} has a truncated trailing line (skipped)")
    rows = [row for _, row in numbered]
    if rows and rows[0].get("kind") in ("meta", "span", "instant"):
        rows = events_from_trace(rows)  # a span trace: use sched instants
    report = ClusterUtilizationReport.from_events(rows)
    if not report.jobs:
        raise _BadInput(f"{args.events_file}: no simulator events found "
                        "(produce a log with: repro trace-sim --events PATH)")
    print(report.to_text())
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(report.to_html(title=f"Cluster utilization — {args.events_file}"))
        print(f"HTML report written to {args.html}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.summary(), fh, indent=2, sort_keys=True)
        print(f"JSON summary written to {args.json}")
    return OK


def export_trace(args: argparse.Namespace) -> int:
    tracer = _load_log(obs.SpanTracer.load, args.trace_file)
    out = args.output or (args.trace_file + ".chrome.json")
    _load(tracer.save_chrome_trace, out)
    print(f"{len(tracer)} records exported to {out} "
          f"(load in chrome://tracing or https://ui.perfetto.dev)")
    return OK


def diff_audit(args: argparse.Namespace) -> int:
    a = _load_log(obs.AuditTrail.load, args.audit_a)
    b = _load_log(obs.AuditTrail.load, args.audit_b)
    diff = obs.diff_audits(a, b)
    print(f"A: {len(a)} steps ({args.audit_a})")
    print(f"B: {len(b)} steps ({args.audit_b})")
    print(diff.describe())
    return OK if diff.identical else DIVERGED


def postmortem(args: argparse.Namespace) -> int:
    bundle = _load(obs.load_bundle, args.bundle)
    print(obs.render_bundle(bundle, tail=args.tail))
    return OK


def _load_side(path: str):
    """An ``obs why`` side: an audit-trail JSONL or a postmortem bundle."""
    if obs.is_bundle_file(path):
        bundle = _load(obs.load_bundle, path)
        return obs.trail_from_bundle(bundle), bundle.get("events") or []
    return _load_log(obs.AuditTrail.load, path), None


def why(args: argparse.Namespace) -> int:
    trail_a, events_a = _load_side(args.trail_a)
    trail_b, events_b = _load_side(args.trail_b)
    report = obs.analyze_divergence(
        trail_a, trail_b, events_a=events_a, events_b=events_b, window=args.window
    )
    print(f"A: {len(trail_a)} steps ({args.trail_a})")
    print(f"B: {len(trail_b)} steps ({args.trail_b})")
    print(report.describe())
    return OK if report.identical else DIVERGED
