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

Pool children flush their ring as per-pid ``shard-<pid>.flight.jsonl``
files (the same shard idiom as :func:`repro.obs.flush_shard`); the
parent attaches the shard directory so a dump — even one triggered by an
exception propagating out of a child task — merges every process's
recent history into the bundle.
"""

from __future__ import annotations

import glob as _glob
import json
import os
import sys
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.utils.jsonl import read_jsonl

#: Bundle schema version.
BUNDLE_FORMAT_VERSION = 1

#: File suffix of per-pid flight shards written by pool children.
SHARD_FLIGHT_SUFFIX = ".flight.jsonl"

#: Default ring capacity (events) and audit-tail length (records).
DEFAULT_RING_SIZE = 512
DEFAULT_AUDIT_KEEP = 32

#: Environment variable overriding the postmortem output directory.
POSTMORTEM_DIR_ENV = "REPRO_POSTMORTEM_DIR"


def shard_flight_path(shard_dir: str, pid: int) -> str:
    return os.path.join(shard_dir, f"shard-{pid}{SHARD_FLIGHT_SUFFIX}")


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
        self._shard_dirs: List[str] = []
        #: watermark of events already written to this process's shard
        self._shard_flushed = 0
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
    # cross-process shards (the PR-6 idiom, flight-event flavored)
    # ------------------------------------------------------------------
    def attach_shard_dir(self, shard_dir: str) -> None:
        """Register a directory where children flush flight shards.

        :meth:`dump` and :func:`collect_shards` consume shards from every
        attached directory, so a parent-side postmortem covers the pool
        children's recent history too.
        """
        with self._lock:
            if shard_dir not in self._shard_dirs:
                self._shard_dirs.append(shard_dir)

    def detach_shard_dir(self, shard_dir: str) -> None:
        with self._lock:
            if shard_dir in self._shard_dirs:
                self._shard_dirs.remove(shard_dir)

    def flush_shard(self, shard_dir: str) -> Optional[str]:
        """Append this process's unflushed events to its per-pid shard.

        Called by pool children after each task (mirroring
        :func:`repro.obs.flush_shard`).  Returns the shard path, or
        ``None`` when there was nothing new to write.
        """
        with self._lock:
            pending = min(self.seq - self._shard_flushed, len(self._events))
            if pending <= 0:
                return None
            tail = list(self._events)[-pending:]
            self._shard_flushed = self.seq
        pid = os.getpid()
        path = shard_flight_path(shard_dir, pid)
        with open(path, "a", encoding="utf-8") as fh:
            for event in tail:
                fh.write(json.dumps(dict(event, pid=pid), sort_keys=True, default=str) + "\n")
        return path

    def collect_shards(self, shard_dir: Optional[str] = None) -> int:
        """Merge (and consume) child flight shards into this ring.

        With no argument, drains every attached directory.  A shard line
        truncated by a dying child is skipped, like every other JSONL
        loader in :mod:`repro.obs`.
        """
        dirs = [shard_dir] if shard_dir is not None else list(self._shard_dirs)
        merged = 0
        for directory in dirs:
            pattern = os.path.join(directory, f"shard-*{SHARD_FLIGHT_SUFFIX}")
            for path in sorted(_glob.glob(pattern)):
                events = [row for _, row in read_jsonl(path, "flight shard")[0]]
                with self._lock:
                    for event in events:
                        self.seq += 1
                        self._events.append(dict(event, seq=self.seq))
                merged += len(events)
                os.unlink(path)
        return merged

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
        Child flight shards from attached directories are merged first.
        """
        try:
            self.collect_shards()
        except OSError:  # a shard dir may already be gone at teardown
            pass
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
    """Fresh default recorder (ring, context, and shard watermark cleared)."""
    configure()


def ensure_child() -> FlightRecorder:
    """Give a pool child its own recorder, dropping fork-inherited state.

    A ``fork``-started child inherits the parent's ring with a zero
    shard watermark, so its first :func:`flush_shard` would re-ship the
    parent's events and the merge would double-count them.  Called at
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


def flush_shard(shard_dir: str) -> Optional[str]:
    return _recorder.flush_shard(shard_dir)


def collect_shards(shard_dir: Optional[str] = None) -> int:
    return _recorder.collect_shards(shard_dir)


def attach_shard_dir(shard_dir: str) -> None:
    _recorder.attach_shard_dir(shard_dir)


def detach_shard_dir(shard_dir: str) -> None:
    _recorder.detach_shard_dir(shard_dir)


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
