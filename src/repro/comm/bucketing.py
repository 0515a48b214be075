"""Gradient bucketing (PyTorch DDP semantics) and its D1 fix.

DDP gathers gradients into fixed-capacity buckets for fewer, larger
all-reduces.  The mapping of parameters to buckets starts as the *reverse
registration (≈ reverse topological) order* and is **rebuilt at the end of
the first mini-batch** according to the order gradients actually became
ready during backward (§3.3, "communication mechanism").

Under elasticity the workers restart, channels are rebuilt, and the bucket
layout can end up different — changing flat-buffer element positions, and
with them the ring association, and with *that* the model bits.  D1's fix:
store the bucket index mapping in the checkpoint, reinstate it on restore,
and disable reconstruction.  Both the broken and the fixed path are
implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

#: Hashable identity of one bucket layout (used as a cache key).
LayoutKey = Tuple[Tuple[str, ...], ...]


@dataclass
class BucketAssignment:
    """Ordered buckets of parameter names, with flatten/unflatten."""

    buckets: List[List[str]]

    def __post_init__(self) -> None:
        seen = set()
        for bucket in self.buckets:
            for name in bucket:
                if name in seen:
                    raise ValueError(f"parameter {name!r} appears in multiple buckets")
                seen.add(name)
        if not seen:
            raise ValueError("bucket assignment is empty")

    @property
    def all_names(self) -> List[str]:
        return [name for bucket in self.buckets for name in bucket]

    def layout_key(self) -> LayoutKey:
        """Hashable identity of this layout (flat-buffer cache key)."""
        return tuple(tuple(bucket) for bucket in self.buckets)

    def flatten_bucket(
        self, bucket_idx: int, grads: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        """Concatenate one bucket's gradients into a flat float32 buffer."""
        parts = [np.asarray(grads[name], dtype=np.float32).reshape(-1) for name in self.buckets[bucket_idx]]
        return np.concatenate(parts)

    def flatten_bucket_into(
        self, bucket_idx: int, grads: Mapping[str, np.ndarray], out: np.ndarray
    ) -> np.ndarray:
        """Flatten one bucket into a caller-provided float32 buffer.

        Writes the same bytes :meth:`flatten_bucket` would produce, but
        without allocating — the hot path when a
        :class:`FlatBufferCache` supplies a persistent staging buffer.
        """
        offset = 0
        for name in self.buckets[bucket_idx]:
            part = np.asarray(grads[name], dtype=np.float32).reshape(-1)
            end = offset + part.size
            if end > out.size:
                raise ValueError(
                    f"bucket {bucket_idx} needs more than the {out.size} "
                    f"elements of the supplied buffer"
                )
            out[offset:end] = part
            offset = end
        if offset != out.size:
            raise ValueError(
                f"bucket {bucket_idx} flat size mismatch: {offset} vs {out.size}"
            )
        return out

    def unflatten_bucket(
        self,
        bucket_idx: int,
        flat: np.ndarray,
        shapes: Mapping[str, Tuple[int, ...]],
    ) -> Dict[str, np.ndarray]:
        """Split a flat bucket buffer back into per-parameter arrays.

        Every returned array **owns its memory** — it never aliases
        ``flat``.  (Returning views was a latent corruption bug: a caller
        mutating one unflattened gradient silently rewrote its
        bucket-mates through the shared flat buffer.)
        """
        out: Dict[str, np.ndarray] = {}
        offset = 0
        for name in self.buckets[bucket_idx]:
            size = int(np.prod(shapes[name]))
            out[name] = flat[offset : offset + size].copy().reshape(shapes[name])
            offset += size
        if offset != flat.size:
            raise ValueError(f"bucket {bucket_idx} flat size mismatch: {offset} vs {flat.size}")
        return out

    def to_state(self) -> List[List[str]]:
        """Serializable form, recorded in D1 checkpoints."""
        return [list(bucket) for bucket in self.buckets]

    @classmethod
    def from_state(cls, state: Sequence[Sequence[str]]) -> "BucketAssignment":
        return cls([list(bucket) for bucket in state])


class FlatBufferCache:
    """Reusable flat float32 staging buffers, keyed by bucket layout.

    Gradient synchronization flattens every bucket for every virtual rank
    on every step; allocating (and concatenating into) fresh buffers each
    time is pure churn, because the layout — and therefore every buffer
    size — is pinned between reconstructions.  The cache hands out one
    persistent buffer per ``(layout, bucket, slot)``; when the layout
    changes (the one-time DDP arrival-order rebuild, or a D0 restore),
    the stale entries are dropped wholesale.

    Buffers are *reused, not shared*: callers must fully overwrite a
    buffer before reading it back, and must never hold one across a
    layout change.  Consumers that need an owning result (e.g.
    :meth:`BucketAssignment.unflatten_bucket`) copy out of it.
    """

    def __init__(self) -> None:
        self._layout: LayoutKey | None = None
        self._buffers: Dict[Tuple[int, int], np.ndarray] = {}
        #: lifetime counters (observability / tests)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._buffers)

    def clear(self) -> None:
        self._layout = None
        self._buffers.clear()

    def buffer(
        self, layout: LayoutKey, bucket_idx: int, slot: int, size: int
    ) -> np.ndarray:
        """A float32 buffer of ``size`` elems for (bucket, slot) under ``layout``.

        ``slot`` distinguishes concurrent users of the same bucket (one
        per virtual rank).  Contents are unspecified on a miss; on a hit
        they are whatever the caller last wrote.
        """
        if size <= 0:
            raise ValueError("buffer size must be positive")
        if layout != self._layout:
            # layout changed: every cached size/offset is suspect
            self._buffers.clear()
            self._layout = layout
        key = (bucket_idx, slot)
        buf = self._buffers.get(key)
        if buf is None or buf.size != size:
            buf = np.empty(size, dtype=np.float32)
            self._buffers[key] = buf
            self.misses += 1
        else:
            self.hits += 1
        return buf


def build_initial_buckets(
    param_order: Sequence[str],
    param_sizes: Mapping[str, int],
    capacity_elems: int = 2048,
) -> BucketAssignment:
    """Initial DDP mapping: reverse registration order, capacity-capped.

    PyTorch's default capacity is 25 MB; ``capacity_elems`` plays that role
    at mini-model scale so models still produce several buckets.
    """
    if capacity_elems <= 0:
        raise ValueError("capacity must be positive")
    buckets: List[List[str]] = []
    current: List[str] = []
    used = 0
    for name in reversed(list(param_order)):
        size = param_sizes[name]
        if current and used + size > capacity_elems:
            buckets.append(current)
            current = []
            used = 0
        current.append(name)
        used += size
    if current:
        buckets.append(current)
    return BucketAssignment(buckets)


def rebuild_from_arrival(
    arrival_order: Sequence[str],
    param_sizes: Mapping[str, int],
    capacity_elems: int = 2048,
) -> BucketAssignment:
    """Post-first-iteration rebuild by gradient readiness order."""
    expected = set(param_sizes)
    got = list(arrival_order)
    seen: set = set()
    for name in got:
        # reject duplicates here, where the cause is visible — letting one
        # through surfaces later as BucketAssignment's "appears in multiple
        # buckets", far from the arrival sink that produced it
        if name in seen:
            raise ValueError(f"arrival order records {name!r} more than once")
        seen.add(name)
    if seen != expected:
        missing = expected - seen
        if missing:
            raise ValueError(
                f"arrival order missing parameters: {sorted(missing)[:5]}"
            )
        unknown = seen - expected
        raise ValueError(f"arrival order has unknown parameters: {sorted(unknown)[:5]}")
    buckets: List[List[str]] = []
    current: List[str] = []
    used = 0
    for name in got:
        size = param_sizes[name]
        if current and used + size > capacity_elems:
            buckets.append(current)
            current = []
            used = 0
        current.append(name)
        used += size
    if current:
        buckets.append(current)
    return BucketAssignment(buckets)
