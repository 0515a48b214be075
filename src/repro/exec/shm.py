"""Zero-copy shared-memory transport for the process-pool backend.

Model state travels *to* every pool child and every flat gradient bucket
travels *back* through ``multiprocessing.shared_memory`` slabs, so
neither direction is serialized through the pool's pipes:

- one **state slab**, written once per step by the parent and read by
  every child (the broadcast is a single memcpy into the slab, however
  many children read it);
- one **gradient slab per virtual-rank slot**, sized from the bucket
  layout exactly like a :class:`~repro.comm.bucketing.FlatBufferCache`
  buffer row, written by the child that hosts the vrank this step and
  read by the parent.

Ownership is one-writer-per-region and phase-alternating
(:meth:`SlabPlan.ownership`): the parent writes the state slab only
between dispatches, children write their gradient regions only while
their task runs, and a reader never touches a region until the writer
has published it — the parent publishes by dispatching the task, a child
by returning the task's result, which lists the buckets it wrote (the
result travels over the pool's OS pipe, which gives the cross-process
happens-before that a bare flag in shared memory would not).  Both sides
hand out **read-only** views to the non-owner, so an ownership violation
fails loudly instead of corrupting gradients.

Lifecycle: slabs are keyed by :meth:`SlabPlan.key` — bucket layout,
state-array specs, and vrank set — and rebuilt wholesale when the key
changes (the one-time DDP arrival-order rebuild, a D0 restore, an engine
rebuild with a different model).  The parent unlinks every slab exactly
once in :meth:`ShmTransport.close`; children attach by name and
explicitly *untrack* their attachments so the ``resource_tracker`` never
double-unlinks (or warns about) a segment the parent owns — required
under both ``fork`` and ``spawn`` start methods on Python < 3.13, where
``SharedMemory`` has no ``track=False``.
"""

from __future__ import annotations

import os
import sys
from multiprocessing import shared_memory as _shared_memory
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: (name, dtype string, shape) — the identity of one state-dict array
ArraySpec = Tuple[str, str, Tuple[int, ...]]

#: process-wide counter so two transports in one process never collide
_SLAB_SERIAL = 0

#: float32 gradient element size in bytes
_F32 = 4

#: region offsets are aligned so every view is at least 8-byte aligned
_ALIGN = 8


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


def state_specs_of(state: Mapping[str, np.ndarray]) -> List[ArraySpec]:
    """The :data:`ArraySpec` list of a model ``state_dict`` (plan input)."""
    return [
        (name, np.asarray(value).dtype.str, tuple(np.asarray(value).shape))
        for name, value in state.items()
    ]


class SlabPlan:
    """Byte layout of the state slab and per-slot gradient slabs.

    Pure arithmetic over the bucket layout and the state-dict specs — no
    shared memory is touched.  A plan is shipped to children inside the
    task dict (it is small: names, offsets, shapes), so both sides agree
    on every region's position without re-deriving it.
    """

    def __init__(
        self,
        layout_key: Tuple[Tuple[str, ...], ...],
        param_sizes: Mapping[str, int],
        state_specs: Sequence[ArraySpec],
        vranks: Sequence[int],
    ) -> None:
        self.layout_key = tuple(tuple(bucket) for bucket in layout_key)
        self.state_specs = [
            (name, dtype, tuple(shape)) for name, dtype, shape in state_specs
        ]
        self.vranks = tuple(sorted(vranks))
        if not self.vranks:
            raise ValueError("slab plan needs at least one virtual rank")

        # state slab: one aligned region per state array, in spec order
        self.state_offsets: Dict[str, int] = {}
        cursor = 0
        for name, dtype, shape in self.state_specs:
            self.state_offsets[name] = cursor
            cursor += _aligned(int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize)
        self.state_nbytes = max(cursor, _ALIGN)

        # per-vrank gradient slab: one aligned float32 region per bucket,
        # sized for the full bucket (a step may publish a subset)
        self.bucket_elems: List[int] = [
            sum(int(param_sizes[name]) for name in bucket)
            for bucket in self.layout_key
        ]
        self.grad_offsets: List[int] = []
        cursor = 0
        for elems in self.bucket_elems:
            self.grad_offsets.append(cursor)
            cursor += _aligned(max(elems, 1) * _F32)
        self.grad_nbytes = max(cursor, _ALIGN)
        self.num_buckets = len(self.bucket_elems)

    def key(self) -> Tuple:
        """Hashable identity: layout + state specs + vrank set.  Any
        change invalidates every offset, so the transport rebuilds."""
        return (self.layout_key, tuple(self.state_specs), self.vranks)

    def ownership(self) -> Dict[str, str]:
        """The one-writer-per-region map the transport enforces."""
        owners = {"state": "parent"}
        for vrank in self.vranks:
            owners[f"grad[{vrank}]"] = f"child(vrank={vrank})"
        return owners

    # -- views ----------------------------------------------------------
    # Every view is made with ``np.frombuffer``, which holds an export of
    # the slab's buffer for as long as the view (or anything derived from
    # it) lives: closing the slab then fails with ``BufferError`` instead
    # of unmapping memory a live array still points into.
    def state_views(
        self, buf: memoryview, writable: bool
    ) -> Dict[str, np.ndarray]:
        """Per-array views into a state slab buffer."""
        views: Dict[str, np.ndarray] = {}
        for name, dtype, shape in self.state_specs:
            view = np.frombuffer(
                buf, dtype=np.dtype(dtype),
                count=int(np.prod(shape, dtype=np.int64)),
                offset=self.state_offsets[name],
            ).reshape(shape)
            view.flags.writeable = writable
            views[name] = view
        return views

    def grad_view(
        self, buf: memoryview, bucket_idx: int, elems: int, writable: bool
    ) -> np.ndarray:
        """A float32 view over the first ``elems`` of one bucket region."""
        if not 0 <= bucket_idx < self.num_buckets:
            raise IndexError(f"bucket {bucket_idx} outside plan")
        if elems > self.bucket_elems[bucket_idx]:
            raise ValueError(
                f"bucket {bucket_idx} holds {self.bucket_elems[bucket_idx]} "
                f"elems, {elems} requested"
            )
        view = np.frombuffer(
            buf, dtype=np.float32, count=elems,
            offset=self.grad_offsets[bucket_idx],
        )
        view.flags.writeable = writable
        return view


def _close(shm) -> bool:
    """Close one attachment; False when a live view still pins it.

    A pinned slab's mapping is handed to the views that pin it: the
    ``SharedMemory`` object lets go of its buffer, mapping and file
    descriptor, and the mapping is unmapped when the last view is
    dropped, so neither a read through a view nor the object's own
    finalizer can meet an unmapped or busy slab.
    """
    try:
        shm.close()
        return True
    except BufferError:
        shm._buf = shm._mmap = None  # the views' buffer export keeps the mmap
        if getattr(shm, "_fd", -1) >= 0:
            os.close(shm._fd)
            shm._fd = -1
        return False
    except OSError:  # pragma: no cover - already-closed mapping
        return True


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class SlabInUseError(RuntimeError):
    """A slab was torn down while an array outside the transport still
    viewed it.  The slab's name is unlinked, but its mapping stays until
    the last such view is gone, so reading the view stays safe."""

    def __init__(self, names: Sequence[str]) -> None:
        self.names = list(names)
        super().__init__(
            "slab(s) " + ", ".join(self.names) + " still viewed at teardown: "
            "a gradient or state view outlived its step (unlinked; the "
            "mapping is released when the last view is dropped)"
        )


class ShmTransport:
    """Parent-owned slab set: create, broadcast, read back, unlink once."""

    def __init__(self) -> None:
        self.plan: Optional[SlabPlan] = None
        self._state_shm = None
        self._grad_shm: Dict[int, Any] = {}
        self._state_views: Dict[str, np.ndarray] = {}
        self._closed = False
        #: lifetime counter (observability / tests)
        self.rebuilds = 0

    # -- lifecycle ------------------------------------------------------
    def ensure(self, plan: SlabPlan) -> bool:
        """(Re)build the slabs for ``plan``; True when a rebuild happened.

        Reuses the live slabs when the plan key is unchanged; otherwise
        the old slabs are closed and unlinked *before* the new ones are
        created, so a layout change never doubles the job's shm
        footprint.
        """
        if self._closed:
            raise RuntimeError("transport is closed")
        if self.plan is not None and self.plan.key() == plan.key():
            return False
        self._teardown_slabs()
        global _SLAB_SERIAL
        _SLAB_SERIAL += 1
        prefix = f"repro-{os.getpid()}-{_SLAB_SERIAL}"
        self._state_shm = _shared_memory.SharedMemory(
            create=True, size=plan.state_nbytes, name=f"{prefix}-s"
        )
        for vrank in plan.vranks:
            self._grad_shm[vrank] = _shared_memory.SharedMemory(
                create=True, size=plan.grad_nbytes, name=f"{prefix}-g{vrank}"
            )
        self.plan = plan
        self._state_views = plan.state_views(self._state_shm.buf, writable=True)
        self.rebuilds += 1
        return True

    def close(self) -> None:
        """Close and unlink every slab, exactly once.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._teardown_slabs()

    def _teardown_slabs(self) -> None:
        # the transport's own views go first: they are exports too
        self._state_views = {}
        self.plan = None
        slabs = list(self._grad_shm.values())
        if self._state_shm is not None:
            slabs.append(self._state_shm)
        self._state_shm = None
        self._grad_shm = {}
        busy = []
        for shm in slabs:
            # the parent created these, so it closes AND unlinks; a slab
            # torn down here is gone and can never be unlinked twice
            if not _close(shm):
                busy.append(shm.name)
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - racing cleanup
                pass
        if busy:
            raise SlabInUseError(busy)

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            # the state views pin the state slab, whose own finalizer
            # would fail under them: drop them first, even at shutdown
            self._state_views = {}
            if sys.is_finalizing():
                return
            self.close()
        except Exception:
            pass

    # -- broadcast direction (parent writes) ----------------------------
    def write_state(self, state: Mapping[str, np.ndarray]) -> int:
        """Copy ``state`` into the state slab; returns bytes written.

        The single per-step serialization cost of the broadcast: one
        typed memcpy per array, no pickling, no per-task copies.
        """
        if self.plan is None:
            raise RuntimeError("ensure() a plan before writing state")
        nbytes = 0
        for name, view in self._state_views.items():
            value = np.asarray(state[name])
            if value.shape != view.shape or value.dtype != view.dtype:
                raise ValueError(
                    f"state array {name!r} changed identity "
                    f"({value.dtype}{value.shape} vs {view.dtype}{view.shape}); "
                    "the slab plan is stale"
                )
            np.copyto(view, value)
            nbytes += value.nbytes
        return nbytes

    # -- gradient direction (parent reads) ------------------------------
    def read_bucket(self, vrank: int, bucket_idx: int, elems: int) -> np.ndarray:
        """Read-only view of a published bucket region.

        Only call after the task that owns ``vrank`` returned a result
        listing (bucket, elems) for the current step; the view aliases the
        slab, which the next step's child rewrites, so consumers that
        outlive the step must copy (``ElasticDDP.synchronize`` returns
        owning arrays).  The view pins the slab's mapping: a re-key or
        ``close()`` while it lives raises :class:`SlabInUseError`.
        """
        if self.plan is None:
            raise RuntimeError("transport has no live plan")
        return self.plan.grad_view(
            self._grad_shm[vrank].buf, bucket_idx, elems, writable=False
        )

    # -- descriptor shipped to children ---------------------------------
    def descriptor(self) -> Dict[str, Any]:
        """Everything a child needs to attach: slab names + the plan."""
        if self.plan is None:
            raise RuntimeError("transport has no live plan")
        return {
            "state_name": self._state_shm.name,
            "grad_names": {v: shm.name for v, shm in self._grad_shm.items()},
            "plan": self.plan,
        }


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------

#: per-child attachment cache: slab name -> SharedMemory.  Slabs persist
#: for the pool's lifetime; stale names (a parent-side rebuild) are
#: evicted lazily when a task arrives naming slabs the cache doesn't hold.
_ATTACHED: Dict[str, Any] = {}


def _attach(name: str):
    """Attach to a parent-owned slab without resource-tracker ownership.

    Attaching registers the segment with the resource tracker on
    Python < 3.13 — and pool children *share* the parent's tracker
    process (the fd is inherited under fork and shipped in the spawn
    preparation data), so a child must neither add nor remove tracker
    entries for a segment the parent owns: ``unregister`` after
    attaching would strip the parent's own registration and make the
    parent's later ``unlink`` a tracker error.  The child is a guest —
    suppress the registration at attach time instead.
    """
    shm = _ATTACHED.get(name)
    if shm is not None:
        return shm
    try:
        shm = _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track flag — mute register()
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = _shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
    _ATTACHED[name] = shm
    return shm


def _evict_stale(live_names: Sequence[str]) -> None:
    """Close cached attachments whose slabs were rebuilt away."""
    for name in [n for n in _ATTACHED if n not in live_names]:
        _close(_ATTACHED.pop(name))


def child_read_state(desc: Mapping[str, Any]) -> Dict[str, np.ndarray]:
    """Read-only per-array views of the parent's state slab.

    Callers must copy before the next step (``load_state_dict`` does) —
    the parent rewrites the slab for the next broadcast.
    """
    plan: SlabPlan = desc["plan"]
    _evict_stale(
        [desc["state_name"], *desc["grad_names"].values()]
    )
    shm = _attach(desc["state_name"])
    return plan.state_views(shm.buf, writable=False)


def child_grad_view(
    desc: Mapping[str, Any], vrank: int, bucket_idx: int, elems: int
) -> np.ndarray:
    """Writable float32 view over the child's own bucket region.

    Flatten straight into this (``flatten_bucket_into``); no array is
    built or sent back.  The parent reads the region only after the
    task's result, which lists (bucket, elems), has come back.
    """
    plan: SlabPlan = desc["plan"]
    shm = _attach(desc["grad_names"][vrank])
    return plan.grad_view(shm.buf, bucket_idx, elems, writable=True)
