"""Simulated cluster inventory: machines and GPU pools.

Two canonical configurations mirror the paper's testbeds:

- :func:`microbench_cluster` — the 64-GPU cloud cluster of §5 (4 servers x
  8 V100, 8 servers x 2 P100, 4 servers x 4 T4);
- :func:`production_cluster` — a parameterized large pool for the §5.3
  co-location experiment (3,000+ GPUs).

The inventory is a set of *counts*: per GPU type key (``"v100"``, see
:mod:`repro.hw.gpu`; every method takes and returns keys) a total and a
free count, plus one counter of allocated GPUs over the whole pool (read
at every decision point, for the allocation timeline).  No GPU has an
identity the simulator can observe — events, policies, the allocation
timeline and every report read counts — so ``allocate`` and ``release``
are O(1) whatever the cluster size, which is what lets the
discrete-event simulator replay month-long traces on 3,000-GPU pools.

The inventory does not know who holds what.  The holder keeps the one
book of its holdings (``JobRuntime.owned`` in the simulator, a serving
tenant's reservations in its policy) and hands back exactly what it
took; the cluster only refuses to hand out more than is free
(``allocate`` is all or nothing) or to take back more than is allocated.

Capacity joins and leaves by machine.  ``add_machine`` appends a host;
``remove_free`` removes *free* GPUs only (callers preempt holders
first) and takes the slots from the newest machines of that type,
pruning any machine it leaves empty — the most recently joined capacity
leaves first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.hw.gpu import GPUType, P100, T4, V100


@dataclass
class Machine:
    """A server hosting ``slots`` GPUs of one type."""

    name: str
    type: GPUType
    slots: int


class Cluster:
    """GPU inventory: totals and free counts per type key."""

    def __init__(self, machines: Iterable[Machine]) -> None:
        self.machines: List[Machine] = []
        self._totals: Dict[str, int] = {}
        self._free: Dict[str, int] = {}
        #: GPUs handed out and not yet released, over every type
        self._allocated = 0
        for machine in machines:
            self.add_machine(machine)
        if not self.machines:
            raise ValueError("cluster has no GPUs")

    # ------------------------------------------------------------------
    # inventory queries
    # ------------------------------------------------------------------
    def total(self, type_name: Optional[str] = None) -> int:
        if type_name is None:
            return sum(self._totals.values())
        return self._totals.get(type_name, 0)

    def free_count(self, type_name: Optional[str] = None) -> int:
        if type_name is None:
            return sum(self._free.values())
        return self._free.get(type_name, 0)

    def allocated_count(self, type_name: Optional[str] = None) -> int:
        if type_name is None:
            return self._allocated
        return self.total(type_name) - self.free_count(type_name)

    def free_by_type(self) -> Dict[str, int]:
        return {name: count for name, count in self._free.items() if count}

    def type_names(self) -> List[str]:
        return sorted(name for name, count in self._totals.items() if count > 0)

    # ------------------------------------------------------------------
    # membership: capacity joining and leaving at runtime
    # ------------------------------------------------------------------
    def add_machine(self, machine: Machine) -> None:
        """Grow the inventory: a host joined the cluster."""
        if machine.slots <= 0:
            raise ValueError(f"machine {machine.name!r} has no GPUs")
        self.machines.append(machine)
        name = machine.type.key
        self._totals[name] = self._totals.get(name, 0) + machine.slots
        self._free[name] = self._free.get(name, 0) + machine.slots

    def remove_free(self, type_name: str, count: int) -> int:
        """Shrink the inventory by ``count`` *free* GPUs of one type.

        Takes the slots from the newest machines of that type (the most
        recently joined capacity leaves first), prunes machines left
        without GPUs, and refuses to empty the cluster — callers must
        free capacity (preempt owners) before removing it.
        """
        if count <= 0:
            return 0
        free = self.free_count(type_name)
        if free < count:
            raise RuntimeError(f"cannot remove {count} {type_name}: only {free} free")
        if self.total() - count == 0:
            raise RuntimeError("cannot remove the last GPUs in the cluster")
        self._free[type_name] = free - count
        self._totals[type_name] -= count
        left = count
        for machine in reversed(self.machines):
            if left and machine.type.key == type_name:
                taken = min(left, machine.slots)
                machine.slots -= taken
                left -= taken
        self.machines = [m for m in self.machines if m.slots]
        return count

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(self, type_name: str, count: int) -> None:
        """Take ``count`` free GPUs of one type (all or nothing)."""
        free = self._free.get(type_name, 0)
        if not 0 <= count <= free:
            raise RuntimeError(f"cannot allocate {count} {type_name}: only {free} free")
        self._free[type_name] = free - count
        self._allocated += count

    def release(self, type_name: str, count: int) -> None:
        """Return ``count`` allocated GPUs of one type to the free pool."""
        free = self._free.get(type_name, 0)
        held = self._totals.get(type_name, 0) - free
        if not 0 <= count <= held:
            raise RuntimeError(f"cannot release {count} {type_name}: only {held} allocated")
        self._free[type_name] = free + count
        self._allocated -= count


def microbench_cluster() -> Cluster:
    """The paper's 64-GPU evaluation cluster (§5): 32 V100 + 16 P100 + 16 T4."""
    machines: List[Machine] = []
    for i in range(4):
        machines.append(Machine(f"v100-node{i}", V100, 8))
    for i in range(8):
        machines.append(Machine(f"p100-node{i}", P100, 2))
    for i in range(4):
        machines.append(Machine(f"t4-node{i}", T4, 4))
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
        machines.append(Machine(f"prod-v100-{i // 8}", V100, min(8, n_v100 - i)))
    for i in range(0, n_p100, 4):
        machines.append(Machine(f"prod-p100-{i // 4}", P100, min(4, n_p100 - i)))
    for i in range(0, n_t4, 4):
        machines.append(Machine(f"prod-t4-{i // 4}", T4, min(4, n_t4 - i)))
    return Cluster(machines)
