"""Always-on flight recorder: bounded ring of recent events + postmortems.

Every observability surface in :mod:`repro.obs` is opt-in, so a run that
crashes with tracing off leaves zero evidence.  The flight recorder is
the opposite contract: it is **on by default**, costs one small-dict
append into a bounded :class:`collections.deque` per recorded event (a
few per global step), and only ever touches the filesystem when
something goes wrong — an unhandled exception, an injected fault's
cold-restart fallback, or an explicit :func:`dump`.

What the ring holds (most recent first out the other end):

- engine step / scale / checkpoint events,
- worker local-step completions,
- fault-injector detections and resilience replan/restore actions,
- intra-/inter-job scheduler decisions,
- the last K :class:`~repro.obs.audit.AuditRecord`\\ s (a separate,
  smaller tail — the forensic anchor :mod:`repro.obs.forensics` walks).

On :func:`dump` everything is written as ONE self-contained JSON bundle,
``postmortem-<step>.json``: ring contents, the last audit records, the
obs metrics snapshot and open spans (when obs is enabled), the active
context (determinism label, kernel dialects, workload, backend), the
environment/machine fingerprint, and the git SHA.  ``repro obs
postmortem <bundle>`` renders it; ``repro obs why`` feeds its events to
the divergence forensics.

Pool children ship the events recorded since their last export with
every task result (:func:`repro.obs.export_child`; a failed task attaches
them to the exception it raises), and the parent folds them into its ring
before the step returns or re-raises — so a dump, even one triggered by
an exception out of a child task, holds every process's recent history.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

#: Bundle schema version.
BUNDLE_FORMAT_VERSION = 1

#: Default ring capacity (events) and audit-tail length (records).
DEFAULT_RING_SIZE = 512
DEFAULT_AUDIT_KEEP = 32

#: Environment variable overriding the postmortem output directory.
POSTMORTEM_DIR_ENV = "REPRO_POSTMORTEM_DIR"


class FlightRecorder:
    """Bounded, thread-safe event ring with postmortem-bundle dumping.

    One module-level instance (see :func:`recorder`) serves the whole
    process; call sites use the module-level :func:`record` /
    :func:`note_audit` helpers, which stay O(1) deque appends.
    """

    def __init__(
        self,
        ring_size: int = DEFAULT_RING_SIZE,
        audit_keep: int = DEFAULT_AUDIT_KEEP,
        directory: Optional[str] = None,
        enabled: bool = True,
    ) -> None:
        if ring_size <= 0:
            raise ValueError("ring_size must be positive")
        if audit_keep <= 0:
            raise ValueError("audit_keep must be positive")
        self.ring_size = ring_size
        self.audit_keep = audit_keep
        self.enabled = enabled
        self._directory = directory
        self._events: deque = deque(maxlen=ring_size)
        self._audits: deque = deque(maxlen=audit_keep)
        self._context: Dict[str, Any] = {}
        self._lock = threading.Lock()
        #: watermark of events already shipped by :meth:`export`
        self._exported = 0
        #: total events ever recorded (>= len(ring) once it wraps)
        self.seq = 0
        #: path of the most recent bundle written by :meth:`dump`
        self.last_dump: Optional[str] = None
        #: pid this recorder was created in (fork-inheritance detector)
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    # recording (the hot path — keep it to one lock + one append)
    # ------------------------------------------------------------------
    def record(self, kind: str, /, **fields: Any) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.seq += 1
            # reserved keys win over same-named payload fields
            self._events.append({**fields, "seq": self.seq, "t": time.time(), "kind": kind})

    def note_audit(self, record: Any) -> None:
        """Keep the last K audit records (accepts AuditRecord or dict)."""
        if not self.enabled:
            return
        payload = record if isinstance(record, dict) else json.loads(record.to_json())
        with self._lock:
            self._audits.append(payload)

    def set_context(self, **fields: Any) -> None:
        """Merge ambient run context (policy label, dialects, workload...)."""
        with self._lock:
            self._context.update(fields)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events)

    @property
    def audits(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._audits)

    @property
    def context(self) -> Dict[str, Any]:
        with self._lock:
            return dict(self._context)

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # cross-process hand-off (see repro.obs.export_child / merge_child)
    # ------------------------------------------------------------------
    def export(self) -> List[Dict[str, Any]]:
        """The events recorded since the previous export (a pool child's share)."""
        with self._lock:
            pending = min(self.seq - self._exported, len(self._events))
            self._exported = self.seq
            return list(self._events)[len(self._events) - pending:]

    def ingest(self, events: List[Dict[str, Any]]) -> None:
        """Append another process's exported events, re-sequenced into this ring."""
        with self._lock:
            for event in events:
                self.seq += 1
                self._events.append(dict(event, seq=self.seq))

    # ------------------------------------------------------------------
    # postmortem bundles
    # ------------------------------------------------------------------
    def _resolve_directory(self) -> str:
        if self._directory is not None:
            return self._directory
        return os.environ.get(POSTMORTEM_DIR_ENV, ".")

    def dump(
        self,
        reason: str,
        exc: Optional[BaseException] = None,
        crash: Optional[Dict[str, Any]] = None,
        path: Optional[str] = None,
    ) -> str:
        """Write one self-contained postmortem bundle; returns its path.

        ``crash`` carries structured blame — ``{"step", "worker",
        "vrank", "dialect", "kind"}`` — filled in by whoever observed the
        failure (the engine resolves the dialect from its assignment, so
        the bundle names the failing hardware even with tracing off).
        """
        from repro.obs.bench import git_sha, machine_fingerprint

        metrics_snapshot = None
        open_spans: List[Dict[str, Any]] = []
        from repro import obs as _obs

        if _obs.is_enabled():
            metrics_snapshot = _obs.metrics().snapshot()
            open_spans = _obs.tracer().open_spans()
        bundle = {
            "version": BUNDLE_FORMAT_VERSION,
            "reason": reason,
            "created": time.time(),
            "step": (crash or {}).get("step", self._last_step()),
            "exception": (
                {"type": type(exc).__name__, "message": str(exc)} if exc is not None else None
            ),
            "crash": crash,
            "context": self.context,
            "events": self.events,
            "audits": self.audits,
            "metrics": metrics_snapshot,
            "open_spans": open_spans,
            "env": {
                "python": sys.version.split()[0],
                "pid": os.getpid(),
                "argv": list(sys.argv),
                "cwd": os.getcwd(),
                "repro_env": {
                    k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")
                },
            },
            "machine": machine_fingerprint(),
            "git_sha": git_sha(),
        }
        if path is None:
            path = self._bundle_path(bundle["step"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, sort_keys=True, default=str)
        self.last_dump = path
        return path

    def _last_step(self) -> Optional[int]:
        with self._lock:
            for event in reversed(self._events):
                if "step" in event:
                    try:
                        return int(event["step"])
                    except (TypeError, ValueError):
                        continue
        return None

    def _bundle_path(self, step: Optional[int]) -> str:
        directory = self._resolve_directory()
        stem = f"postmortem-{step if step is not None else 'unknown'}"
        path = os.path.join(directory, f"{stem}.json")
        suffix = 1
        while os.path.exists(path):
            path = os.path.join(directory, f"{stem}-{suffix}.json")
            suffix += 1
        return path


# ---------------------------------------------------------------------------
# module-level singleton + convenience API (the instrumented-site surface)
# ---------------------------------------------------------------------------

_recorder = FlightRecorder()


def recorder() -> FlightRecorder:
    """The process-wide flight recorder (always exists, always cheap)."""
    return _recorder


def configure(
    ring_size: Optional[int] = None,
    audit_keep: Optional[int] = None,
    directory: Optional[str] = None,
    enabled: Optional[bool] = None,
) -> FlightRecorder:
    """Replace the global recorder; unspecified knobs keep their defaults.

    Unlike :func:`repro.obs.configure`, this never needs to be called for
    the recorder to work — it exists to redirect postmortem output
    (tests point ``directory`` at a tmpdir) or resize the ring.
    """
    global _recorder
    _recorder = FlightRecorder(
        ring_size=ring_size if ring_size is not None else DEFAULT_RING_SIZE,
        audit_keep=audit_keep if audit_keep is not None else DEFAULT_AUDIT_KEEP,
        directory=directory,
        enabled=enabled if enabled is not None else True,
    )
    return _recorder


def reset() -> None:
    """Fresh default recorder (ring, context, and export watermark cleared)."""
    configure()


def ensure_child() -> FlightRecorder:
    """Give a pool child its own recorder, dropping fork-inherited state.

    A ``fork``-started child inherits the parent's ring with a zero
    export watermark, so its first export would re-ship the parent's
    events and the merge would double-count them.  Called at
    the top of every pool task; a no-op in the process that created the
    current recorder (including ``spawn`` children, whose module state
    is fresh).
    """
    global _recorder
    if _recorder._pid != os.getpid():
        _recorder = FlightRecorder(
            ring_size=_recorder.ring_size,
            audit_keep=_recorder.audit_keep,
            directory=_recorder._directory,
            enabled=_recorder.enabled,
        )
    return _recorder


def record(kind: str, /, **fields: Any) -> None:
    _recorder.record(kind, **fields)


def note_audit(record_: Any) -> None:
    _recorder.note_audit(record_)


def set_context(**fields: Any) -> None:
    _recorder.set_context(**fields)


def dump(
    reason: str,
    exc: Optional[BaseException] = None,
    crash: Optional[Dict[str, Any]] = None,
    path: Optional[str] = None,
) -> str:
    return _recorder.dump(reason, exc=exc, crash=crash, path=path)


# ---------------------------------------------------------------------------
# bundle loading / rendering (the ``repro obs postmortem`` surface)
# ---------------------------------------------------------------------------


def load_bundle(path: str) -> Dict[str, Any]:
    """Read a postmortem bundle, validating just enough to render it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            bundle = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: not a postmortem bundle: {err}") from err
    if not isinstance(bundle, dict) or "version" not in bundle or "events" not in bundle:
        raise ValueError(f"{path}: not a postmortem bundle (missing version/events)")
    return bundle


def is_bundle_file(path: str) -> bool:
    """Cheap sniff: does this file look like a postmortem bundle?

    Bundles are a single JSON object starting with ``{``; audit trails
    are JSONL whose records also start with ``{`` but never parse as one
    document with a ``version``+``events`` pair.
    """
    try:
        load_bundle(path)
        return True
    except (ValueError, OSError):
        return False


def render_bundle(bundle: Dict[str, Any], tail: int = 20) -> str:
    """Human-readable postmortem: blame line first, then the event tail."""
    lines: List[str] = []
    step = bundle.get("step")
    reason = bundle.get("reason", "?")
    lines.append(f"postmortem: reason={reason} step={step if step is not None else '?'}")
    exc = bundle.get("exception")
    if exc:
        lines.append(f"exception: {exc.get('type', '?')}: {exc.get('message', '')}")
    crash = bundle.get("crash")
    if crash:
        parts = [f"{k}={crash[k]}" for k in ("kind", "step", "worker", "vrank", "dialect")
                 if crash.get(k) is not None]
        lines.append("crash: " + " ".join(parts))
    context = bundle.get("context") or {}
    if context:
        lines.append(
            "context: " + " ".join(f"{k}={context[k]}" for k in sorted(context))
        )
    machine = bundle.get("machine") or {}
    lines.append(
        f"machine: {machine.get('platform', '?')} python {machine.get('python', '?')} "
        f"@ {bundle.get('git_sha', '?')}"
    )
    audits = bundle.get("audits") or []
    if audits:
        last = audits[-1]
        lines.append(
            f"last audit: step {last.get('step')} policy {last.get('policy') or '?'} "
            f"dialects {'/'.join(last.get('dialects', [])) or '?'}"
        )
    open_spans = bundle.get("open_spans") or []
    if open_spans:
        lines.append(f"open spans at dump ({len(open_spans)}):")
        for span in open_spans:
            lines.append(f"  {span.get('path', span.get('name', '?'))}")
    events = bundle.get("events") or []
    lines.append(f"events: {len(events)} in ring; last {min(tail, len(events))}:")
    for event in events[-tail:]:
        extra = " ".join(
            f"{k}={event[k]}" for k in sorted(event) if k not in ("seq", "t", "kind")
        )
        lines.append(f"  #{event.get('seq', '?'):>6} {event.get('kind', '?'):<24} {extra}")
    return "\n".join(lines)
