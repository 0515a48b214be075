"""Simulated cluster inventory: machines and GPU pools.

Two canonical configurations mirror the paper's testbeds:

- :func:`microbench_cluster` — the 64-GPU cloud cluster of §5 (4 servers x
  8 V100, 8 servers x 2 P100, 4 servers x 4 T4);
- :func:`production_cluster` — a parameterized large pool for the §5.3
  co-location experiment (3,000+ GPUs).

The inventory is *indexed*: per-type free lists (kept sorted by pool
position) and an owner map make ``free_by_type``/``allocated_count``/
``owned_by`` independent of cluster size, which is what lets the
discrete-event simulator replay month-long traces on 3,000-GPU pools —
the seed implementation rescanned every GPU on each of those queries.
``allocated_count()`` over the whole pool — read at every decision
point, for the allocation timeline — is a counter: registering a held
GPU, ``allocate`` and ``_refile`` (so ``release``, ``release_all``)
keep it equal to ``total() - free_count()``, which ``remove_free``
(free GPUs only) leaves unchanged.
The sorted order is kept by insertion, never by re-sorting: a released
GPU is bisected into its free list (``insort`` on the pool position, so
refiling a gang costs O(log n) comparisons per GPU, not a keyed sort of
the whole ~1,000-GPU list), a granted one is bisected into its owner's
list, a joined GPU is appended (its position is the largest yet), and
taking from either end of a free list keeps it sorted.
Allocation still hands out the lowest-position free GPUs and
``remove_free`` still takes the highest-position ones, so every consumer
sees exactly the seed pool-order semantics.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, Optional

from repro.hw.gpu import GPU, GPUType, P100, T4, V100

_pool_position = attrgetter("_pool_index")


@dataclass
class Machine:
    """A server hosting several GPUs of one type."""

    name: str
    gpus: List[GPU]

    @classmethod
    def build(cls, name: str, gtype: GPUType, count: int) -> "Machine":
        return cls(name=name, gpus=[GPU(type=gtype, machine=name) for _ in range(count)])


class Cluster:
    """GPU inventory with per-type allocation tracking."""

    def __init__(self, machines: Iterable[Machine]) -> None:
        self.machines: List[Machine] = list(machines)
        self.gpus: List[GPU] = [gpu for machine in self.machines for gpu in machine.gpus]
        if not self.gpus:
            raise ValueError("cluster has no GPUs")
        #: monotone registration counter: a GPU's position in the pool,
        #: preserved across removals (newly joined capacity always sorts
        #: after everything registered before it)
        self._next_position = 0
        self._totals: Dict[str, int] = {}
        #: per-type free GPUs, sorted ascending by pool position
        self._free_lists: Dict[str, List[GPU]] = {}
        #: job id -> held GPUs, sorted ascending by pool position
        self._owned: Dict[str, List[GPU]] = {}
        #: GPUs not in a free list, over every type
        self._allocated = 0
        for gpu in self.gpus:
            self._register(gpu)

    def _register(self, gpu: GPU) -> None:
        gpu._pool_index = self._next_position
        self._next_position += 1
        name = gpu.type.name
        self._totals[name] = self._totals.get(name, 0) + 1
        if gpu.free:
            self._free_lists.setdefault(name, []).append(gpu)
        else:
            insort(self._owned.setdefault(gpu.owner, []), gpu, key=_pool_position)
            self._allocated += 1

    # ------------------------------------------------------------------
    # inventory queries
    # ------------------------------------------------------------------
    def total(self, type_name: Optional[str] = None) -> int:
        if type_name is None:
            return sum(self._totals.values())
        return self._totals.get(type_name, 0)

    def free_count(self, type_name: Optional[str] = None) -> int:
        if type_name is None:
            return sum(len(lst) for lst in self._free_lists.values())
        return len(self._free_lists.get(type_name, ()))

    def allocated_count(self, type_name: Optional[str] = None) -> int:
        if type_name is None:
            return self._allocated
        return self.total(type_name) - self.free_count(type_name)

    def free_by_type(self) -> Dict[str, int]:
        return {name: len(lst) for name, lst in self._free_lists.items() if lst}

    def type_names(self) -> List[str]:
        return sorted(name for name, count in self._totals.items() if count > 0)

    # ------------------------------------------------------------------
    # membership: capacity joining and leaving at runtime
    # ------------------------------------------------------------------
    def add_machine(self, machine: Machine) -> None:
        """Grow the inventory: a host joined the cluster."""
        if not machine.gpus:
            raise ValueError(f"machine {machine.name!r} has no GPUs")
        self.machines.append(machine)
        self.gpus.extend(machine.gpus)
        for gpu in machine.gpus:
            self._register(gpu)

    def remove_free(self, type_name: str, count: int) -> int:
        """Shrink the inventory by ``count`` *free* GPUs of one type.

        Takes from the end of the pool (the most recently joined capacity
        leaves first), prunes machines left without GPUs, and refuses to
        empty the cluster — callers must free capacity (preempt owners)
        before removing it.
        """
        if count <= 0:
            return 0
        free_list = self._free_lists.get(type_name, [])
        if len(free_list) < count:
            raise RuntimeError(
                f"cannot remove {count} {type_name}: only {len(free_list)} free"
            )
        if len(self.gpus) - count == 0:
            raise RuntimeError("cannot remove the last GPUs in the cluster")
        victims = free_list[-count:]
        del free_list[-count:]
        doomed = set(map(id, victims))
        self.gpus = [g for g in self.gpus if id(g) not in doomed]
        for machine in self.machines:
            machine.gpus = [g for g in machine.gpus if id(g) not in doomed]
        self.machines = [m for m in self.machines if m.gpus]
        self._totals[type_name] -= count
        return count

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(self, job_id: str, type_name: str, count: int) -> List[GPU]:
        """Grab ``count`` free GPUs of one type for a job (all or nothing)."""
        available = self._free_lists.get(type_name, [])
        if len(available) < count:
            raise RuntimeError(
                f"cannot allocate {count} {type_name} for {job_id}: only {len(available)} free"
            )
        taken = available[:count]
        del available[:count]
        self._allocated += len(taken)
        for gpu in taken:
            gpu.allocate(job_id)
        owned = self._owned.setdefault(job_id, [])
        for gpu in taken:
            insort(owned, gpu, key=_pool_position)
        return taken

    def release(self, job_id: str, gpus: Iterable[GPU]) -> None:
        released: List[GPU] = []
        try:
            for gpu in gpus:
                gpu.release(job_id)
                released.append(gpu)
        finally:
            if released:
                self._untrack(job_id, released)

    def release_all(self, job_id: str) -> int:
        owned = self._owned.pop(job_id, [])
        for gpu in owned:
            gpu.release(job_id)
        self._refile(owned)
        return len(owned)

    def owned_by(self, job_id: str) -> List[GPU]:
        return list(self._owned.get(job_id, ()))

    def _untrack(self, job_id: str, gpus: List[GPU]) -> None:
        owned = self._owned.get(job_id)
        if owned is not None:
            doomed = set(map(id, gpus))
            owned[:] = [g for g in owned if id(g) not in doomed]
            if not owned:
                del self._owned[job_id]
        self._refile(gpus)

    def _refile(self, gpus: List[GPU]) -> None:
        """Return released GPUs to their per-type free lists, in order."""
        free_lists = self._free_lists
        for gpu in gpus:
            insort(free_lists.setdefault(gpu.type.name, []), gpu, key=_pool_position)
        self._allocated -= len(gpus)


def microbench_cluster() -> Cluster:
    """The paper's 64-GPU evaluation cluster (§5): 32 V100 + 16 P100 + 16 T4."""
    machines: List[Machine] = []
    for i in range(4):
        machines.append(Machine.build(f"v100-node{i}", V100, 8))
    for i in range(8):
        machines.append(Machine.build(f"p100-node{i}", P100, 2))
    for i in range(4):
        machines.append(Machine.build(f"t4-node{i}", T4, 4))
    return Cluster(machines)


def production_cluster(num_gpus: int = 3000) -> Cluster:
    """A large heterogeneous pool for the §5.3 co-location experiment.

    Mix skews toward inference-class GPUs (T4) like the paper's serving
    cluster, with a V100/P100 training-capable share.
    """
    if num_gpus < 10:
        raise ValueError("production cluster needs at least 10 GPUs")
    n_t4 = num_gpus // 2
    n_p100 = num_gpus // 4
    n_v100 = num_gpus - n_t4 - n_p100
    machines: List[Machine] = []
    for i in range(0, n_v100, 8):
        machines.append(Machine.build(f"prod-v100-{i // 8}", V100, min(8, n_v100 - i)))
    for i in range(0, n_p100, 4):
        machines.append(Machine.build(f"prod-p100-{i // 4}", P100, min(4, n_p100 - i)))
    for i in range(0, n_t4, 4):
        machines.append(Machine.build(f"prod-t4-{i // 4}", T4, min(4, n_t4 - i)))
    return Cluster(machines)
