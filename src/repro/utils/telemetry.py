"""Training telemetry: structured run records with JSONL persistence.

The production deployment streams per-step metrics from the EasyScale
runtime to AIMaster and the cluster dashboards.  This module is the
local equivalent: a :class:`RunLog` collects typed records (step metrics,
scale events, checkpoints), streams them to JSON-lines on disk, and loads
them back for analysis — the format the benchmark harnesses and any
downstream notebooks can consume.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.utils.jsonl import read_jsonl

_ALLOWED_KINDS = ("step", "scale_event", "checkpoint", "eval", "note", "profile")


@dataclass(frozen=True)
class Record:
    """One telemetry record: a kind, a monotonically-increasing step, data."""

    kind: str
    step: int
    data: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _ALLOWED_KINDS:
            raise ValueError(f"unknown record kind {self.kind!r}; allowed: {_ALLOWED_KINDS}")
        if self.step < 0:
            raise ValueError("step must be non-negative")

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "step": self.step, **self.data}, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "Record":
        return cls.from_row(json.loads(line))

    @classmethod
    def from_row(cls, row: Dict[str, Any]) -> "Record":
        """Build a record from an already-decoded JSON object."""
        payload = dict(row)
        try:
            kind = payload.pop("kind")
            step = payload.pop("step")
        except KeyError as err:
            raise ValueError(f"telemetry record missing required field {err}") from err
        return cls(kind=kind, step=int(step), data=payload)


class RunLog:
    """Append-only telemetry sink, optionally mirrored to a JSONL file."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.records: List[Record] = []
        #: set by :meth:`load` when the file ended in a partial line
        self.truncated = False
        self._path = os.fspath(path) if path is not None else None
        self._fh = open(self._path, "a", encoding="utf-8") if self._path else None

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def _emit(self, record: Record) -> None:
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(record.to_json() + "\n")
            self._fh.flush()

    def step(self, step: int, losses: List[float], **extra: Any) -> None:
        self._emit(
            Record(
                kind="step",
                step=step,
                data={"losses": [float(l) for l in losses], **extra},
            )
        )

    def scale_event(self, step: int, gpus: List[str], **extra: Any) -> None:
        self._emit(Record(kind="scale_event", step=step, data={"gpus": gpus, **extra}))

    def checkpoint(self, step: int, digest: str, **extra: Any) -> None:
        self._emit(Record(kind="checkpoint", step=step, data={"digest": digest, **extra}))

    def eval(self, step: int, metric: str, value: float, **extra: Any) -> None:
        self._emit(
            Record(kind="eval", step=step, data={"metric": metric, "value": float(value), **extra})
        )

    def note(self, step: int, message: str) -> None:
        self._emit(Record(kind="note", step=step, data={"message": message}))

    def profile(self, step: int, summary: Dict[str, Any], **extra: Any) -> None:
        """Final (or periodic) online-profiler summary: per-worker
        p50/p99 step times, straggler events, and calibration deltas, as
        produced by ``OnlineProfiler.summary()``."""
        self._emit(Record(kind="profile", step=step, data={"summary": summary, **extra}))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def of_kind(self, kind: str) -> List[Record]:
        return [r for r in self.records if r.kind == kind]

    def loss_series(self) -> List[float]:
        """Mean loss per recorded step, in order."""
        out = []
        for record in self.of_kind("step"):
            losses = record.data.get("losses", [])
            if losses:
                out.append(sum(losses) / len(losses))
        return out

    def __len__(self) -> int:
        return len(self.records)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str) -> "RunLog":
        """Load a JSONL run log.

        A truncated trailing line — what a crash mid-``write`` leaves
        behind — is tolerated and flagged via the ``truncated`` attribute
        instead of making the whole log unreadable.  A malformed line
        anywhere else, or a structurally invalid record, raises a
        :class:`ValueError` carrying the file path and line number.
        """
        log = cls()
        rows, log.truncated = read_jsonl(path, "telemetry line")
        for lineno, row in rows:
            try:
                log.records.append(Record.from_row(row))
            except (TypeError, ValueError) as err:
                raise ValueError(f"{path}:{lineno}: {err}") from err
        return log
