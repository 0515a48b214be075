"""Determinism audit trail: per-step fingerprints and divergence diffing.

The bitwise-consistency claim (§3) is all-or-nothing: a single flipped
mantissa bit anywhere voids it.  When two runs that *should* match do not,
the end-of-training fingerprint only says "different" — this module says
**where**.  An :class:`AuditTrail` records, per global step:

- the model parameter fingerprint (after the optimizer step),
- one fingerprint per gradient bucket (the granularity at which D1's
  bucket-mapping bugs and D0's reconstruction fallback first bite),
- the combined EST RNG-state fingerprint,
- the loader cursor (epoch / step-in-epoch),
- the active determinism label and kernel dialects (context, not compared).

:func:`diff_audits` aligns two trails by step and reports the first
divergent step, which fields and which buckets diverged, and the kernel
policy/dialect active on each side at that point — turning "the bits
differ" into "bucket 3 diverged at step 17 while run B was on D0/t4".
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.utils.jsonl import read_jsonl

#: Fields compared for divergence; policy/dialects are context only.
COMPARED_FIELDS = ("params", "buckets", "rng", "loader")

AUDIT_FORMAT_VERSION = 1


def fingerprint_rng_states(states: Sequence[Mapping[str, Any]]) -> str:
    """Stable digest of a sequence of RNG-state dicts (one per EST)."""
    h = hashlib.sha256()
    for state in states:
        h.update(json.dumps(state, sort_keys=True, default=repr).encode())
        h.update(b"\x00")
    return h.hexdigest()


@dataclass(frozen=True)
class AuditRecord:
    """One global step's determinism fingerprints."""

    step: int
    params: str
    buckets: Dict[str, str] = field(default_factory=dict)
    rng: str = ""
    loader: Dict[str, Any] = field(default_factory=dict)
    policy: str = ""
    dialects: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("audit step must be non-negative")

    def to_json(self) -> str:
        return json.dumps(
            {
                "step": self.step,
                "params": self.params,
                "buckets": self.buckets,
                "rng": self.rng,
                "loader": self.loader,
                "policy": self.policy,
                "dialects": list(self.dialects),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "AuditRecord":
        return cls.from_row(json.loads(line))

    @classmethod
    def from_row(cls, payload: Mapping[str, Any]) -> "AuditRecord":
        """Build a record from an already-decoded JSON object."""
        try:
            return cls(
                step=int(payload["step"]),
                params=str(payload["params"]),
                buckets=dict(payload.get("buckets", {})),
                rng=str(payload.get("rng", "")),
                loader=dict(payload.get("loader", {})),
                policy=str(payload.get("policy", "")),
                dialects=tuple(payload.get("dialects", ())),
            )
        except KeyError as err:
            raise ValueError(f"audit record missing required field {err}") from err


class AuditTrail:
    """Append-only per-step fingerprint stream, optionally mirrored to JSONL.

    By default steps must strictly increase — re-recording a step is a
    caller bug.  Fault-recovery runs are the sanctioned exception: a
    restore rewinds the engine to an earlier step and *re-executes* it, so
    a trail created with ``allow_rewind=True`` accepts a non-increasing
    step by truncating the stale tail (every in-memory record at or past
    the new step) first.  The JSONL mirror intentionally keeps the full
    history including rewound records — that is the forensic log — and
    :meth:`by_step` on a loaded trail takes the *last* occurrence of each
    step, so a replayed trail compares equal to a fault-free one exactly
    when the re-executed steps were bitwise identical.
    """

    def __init__(self, path: Optional[str] = None, allow_rewind: bool = False) -> None:
        self.records: List[AuditRecord] = []
        self.allow_rewind = allow_rewind
        #: set by :meth:`load` when the file ended in a partial line
        self.truncated = False
        self._path = os.fspath(path) if path is not None else None
        self._fh = open(self._path, "a", encoding="utf-8") if self._path else None

    def record(self, record: AuditRecord) -> None:
        if self.records and record.step <= self.records[-1].step:
            if not self.allow_rewind:
                raise ValueError(
                    f"audit steps must increase: {record.step} after {self.records[-1].step}"
                )
            while self.records and self.records[-1].step >= record.step:
                self.records.pop()
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(record.to_json() + "\n")
            self._fh.flush()

    def capture(
        self,
        step: int,
        params: str,
        buckets: Mapping[str, str],
        rng: str,
        loader: Mapping[str, Any],
        policy: str,
        dialects: Sequence[str],
    ) -> AuditRecord:
        record = AuditRecord(
            step=step,
            params=params,
            buckets=dict(buckets),
            rng=rng,
            loader=dict(loader),
            policy=policy,
            dialects=tuple(dialects),
        )
        self.record(record)
        return record

    def by_step(self) -> Dict[int, AuditRecord]:
        return {r.step: r for r in self.records}

    def __len__(self) -> int:
        return len(self.records)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "AuditTrail":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @classmethod
    def load(cls, path: str) -> "AuditTrail":
        """Load a trail; tolerant of a truncated trailing line (flagged via
        ``truncated``), strict elsewhere with path/line-number context."""
        trail = cls()
        rows, trail.truncated = read_jsonl(path, "audit record")
        for lineno, row in rows:
            try:
                trail.records.append(AuditRecord.from_row(row))
            except (TypeError, ValueError) as err:
                raise ValueError(f"{path}:{lineno}: malformed audit record: {err}") from err
        return trail


@dataclass(frozen=True)
class AuditDiff:
    """Outcome of comparing two audit trails."""

    #: first step present in both trails where any compared field differs
    first_divergent_step: Optional[int]
    #: which of :data:`COMPARED_FIELDS` differ at that step
    fields: Tuple[str, ...] = ()
    #: bucket ids whose gradient fingerprints differ at that step
    buckets: Tuple[str, ...] = ()
    #: determinism label / dialects active on each side at that step
    policy_a: str = ""
    policy_b: str = ""
    dialects_a: Tuple[str, ...] = ()
    dialects_b: Tuple[str, ...] = ()
    #: steps present in both trails
    common_steps: int = 0
    #: steps present in exactly one trail
    only_in_a: int = 0
    only_in_b: int = 0

    @property
    def identical(self) -> bool:
        return self.first_divergent_step is None and self.only_in_a == 0 and self.only_in_b == 0

    def describe(self) -> str:
        lines = [f"compared {self.common_steps} common steps"]
        if self.only_in_a or self.only_in_b:
            lines.append(
                f"step coverage differs: {self.only_in_a} only in A, {self.only_in_b} only in B"
            )
        if self.first_divergent_step is None:
            lines.append("no divergence on common steps")
        else:
            lines.append(
                f"first divergence at step {self.first_divergent_step} "
                f"in {', '.join(self.fields)}"
            )
            if self.buckets:
                lines.append(f"divergent gradient buckets: {', '.join(self.buckets)}")
            lines.append(
                f"active policy: A={self.policy_a or '?'} ({'/'.join(self.dialects_a) or '?'})"
                f" vs B={self.policy_b or '?'} ({'/'.join(self.dialects_b) or '?'})"
            )
        return "\n".join(lines)


def diff_audits(a: AuditTrail, b: AuditTrail) -> AuditDiff:
    """Find the first divergent step between two runs' audit trails."""
    by_a, by_b = a.by_step(), b.by_step()
    common = sorted(set(by_a) & set(by_b))
    only_a = len(set(by_a) - set(by_b))
    only_b = len(set(by_b) - set(by_a))
    for step in common:
        ra, rb = by_a[step], by_b[step]
        fields = []
        if ra.params != rb.params:
            fields.append("params")
        divergent_buckets = tuple(
            sorted(
                key
                for key in set(ra.buckets) | set(rb.buckets)
                if ra.buckets.get(key) != rb.buckets.get(key)
            )
        )
        if divergent_buckets:
            fields.append("buckets")
        if ra.rng != rb.rng:
            fields.append("rng")
        if ra.loader != rb.loader:
            fields.append("loader")
        if fields:
            return AuditDiff(
                first_divergent_step=step,
                fields=tuple(fields),
                buckets=divergent_buckets,
                policy_a=ra.policy,
                policy_b=rb.policy,
                dialects_a=ra.dialects,
                dialects_b=rb.dialects,
                common_steps=len(common),
                only_in_a=only_a,
                only_in_b=only_b,
            )
    return AuditDiff(
        first_divergent_step=None,
        common_steps=len(common),
        only_in_a=only_a,
        only_in_b=only_b,
    )
