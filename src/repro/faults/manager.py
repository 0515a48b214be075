"""Periodic checkpoint manager: retention, integrity, corruption fallback.

On-demand checkpoints cover the *graceful* path (the scheduler announces
a scale event, the engine snapshots at the next step boundary).  Crashes
and preemptions give no warning, so the resilience controller also keeps
**periodic** snapshots: every ``interval`` global steps, the engine state
is serialized to the hardened wire format (CRC32 + version framing from
:mod:`repro.utils.serialization`) and retained newest-first up to
``retention`` entries.

Snapshots are stored as *bytes*, not live objects — that is the point:
restore must survive the round trip a real preemption forces, and the
``checkpoint_corrupt`` fault can flip a bit in the stored blob to prove
the CRC layer catches it and the controller falls back to an older copy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.core.checkpoint import Checkpoint, CheckpointCorruptError
from repro.utils.serialization import verify_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import EasyScaleEngine


@dataclass
class Snapshot:
    """One retained periodic checkpoint."""

    step: int
    data: bytes
    #: path on disk when the manager persists (None = memory only)
    path: Optional[str] = None
    #: set once a restore attempt failed integrity verification
    corrupt: bool = False

    @property
    def size_bytes(self) -> int:
        return len(self.data)


class CheckpointManager:
    """Keep the last ``retention`` periodic snapshots of an engine.

    ``directory=None`` retains blobs in memory (the common test/simulation
    mode); with a directory, every snapshot is also written atomically via
    :meth:`Checkpoint.save` semantics so it survives process death.
    """

    def __init__(
        self,
        interval: int = 5,
        retention: int = 3,
        directory: Optional[str] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("snapshot interval must be positive")
        if retention <= 0:
            raise ValueError("retention must be positive")
        self.interval = interval
        self.retention = retention
        self.directory = os.fspath(directory) if directory is not None else None
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
        self.snapshots: List[Snapshot] = []
        #: lifetime counters (observability)
        self.taken = 0
        self.corrupted_detected = 0

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    def take(self, engine: "EasyScaleEngine") -> Snapshot:
        """Snapshot the engine now (always allowed at a step boundary)."""
        data = engine.checkpoint().to_bytes()
        step = engine.global_step
        # re-snapshotting the same step (e.g. after a recovery rewound to
        # it) replaces the stale copy instead of duplicating the step
        self.snapshots = [s for s in self.snapshots if s.step != step]
        snapshot = Snapshot(step=step, data=data)
        if self.directory is not None:
            snapshot.path = os.path.join(self.directory, f"step-{step:08d}.ckpt")
            tmp = snapshot.path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, snapshot.path)
        self.snapshots.append(snapshot)
        self.snapshots.sort(key=lambda s: s.step)
        self.taken += 1
        self._trim()
        return snapshot

    def maybe_take(self, engine: "EasyScaleEngine") -> Optional[Snapshot]:
        """Take a snapshot when the engine sits on an interval boundary."""
        if engine.global_step % self.interval == 0:
            return self.take(engine)
        return None

    def _trim(self) -> None:
        while len(self.snapshots) > self.retention:
            victim = self._eviction_victim()
            self.snapshots.remove(victim)
            if victim.path is not None and os.path.exists(victim.path):
                os.unlink(victim.path)

    def _eviction_victim(self) -> Snapshot:
        """Choose what retention drops: oldest *invalid* snapshot first.

        Age-only eviction had a fatal interplay with corruption: when the
        ``checkpoint_corrupt`` fault damages the newest blobs, the oldest
        snapshot can be the **last CRC-valid restore point** — evicting it
        leaves only garbage and turns the next crash into a cold restart
        (or a :class:`RecoveryFailedError`).  Integrity is probed with the
        cheap frame/CRC check (:func:`repro.utils.serialization.verify_bytes`),
        so known-corrupt and silently-bit-flipped blobs are reclaimed
        before any valid one; with all snapshots valid this degrades to
        the original drop-the-oldest behaviour.
        """
        for snapshot in self.snapshots:  # sorted oldest-first by step
            if snapshot.corrupt or not verify_bytes(snapshot.data):
                return snapshot
        return self.snapshots[0]

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------
    def candidates(self, at_or_before: Optional[int] = None) -> List[Snapshot]:
        """Restore candidates newest-first, excluding known-corrupt copies."""
        pool = [
            s
            for s in self.snapshots
            if not s.corrupt and (at_or_before is None or s.step <= at_or_before)
        ]
        return sorted(pool, key=lambda s: -s.step)

    def decode(self, snapshot: Snapshot) -> Checkpoint:
        """Decode a snapshot, marking it corrupt when verification fails."""
        try:
            ckpt = Checkpoint.from_bytes(snapshot.data)
        except CheckpointCorruptError:
            snapshot.corrupt = True
            self.corrupted_detected += 1
            raise
        if ckpt.extra.get("global_step") != snapshot.step:
            snapshot.corrupt = True
            self.corrupted_detected += 1
            raise CheckpointCorruptError(
                f"snapshot labeled step {snapshot.step} decodes to step "
                f"{ckpt.extra.get('global_step')}"
            )
        return ckpt

    def latest(self) -> Optional[Snapshot]:
        good = self.candidates()
        return good[0] if good else None

    # ------------------------------------------------------------------
    # fault surface
    # ------------------------------------------------------------------
    def corrupt_latest(self) -> Optional[Snapshot]:
        """Flip one payload bit in the newest snapshot (the
        ``checkpoint_corrupt`` fault).  Deterministic: always bit 7
        of the byte at 2/3 of the blob (inside the pickled payload, past
        the header, so the CRC — not the frame parser — must catch it)."""
        target = self.latest()
        if target is None:
            return None
        blob = bytearray(target.data)
        pos = (len(blob) * 2) // 3
        blob[pos] ^= 1 << 7
        target.data = bytes(blob)
        if target.path is not None:
            with open(target.path, "wb") as fh:
                fh.write(target.data)
        return target

    def describe(self) -> str:
        lines = [
            f"checkpoint manager: every {self.interval} steps, "
            f"retain {self.retention} ({self.taken} taken, "
            f"{self.corrupted_detected} corruption(s) detected)"
        ]
        for snapshot in self.snapshots:
            flag = "  CORRUPT" if snapshot.corrupt else ""
            lines.append(
                f"  step {snapshot.step:>6}  {snapshot.size_bytes:>8} B{flag}"
            )
        return "\n".join(lines)
