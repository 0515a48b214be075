"""Cluster inventory: composition, allocation counts, membership edits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import Cluster, Machine, P100, T4, V100, microbench_cluster, production_cluster
from repro.hw.gpu import GPU_TYPES, gpu_type


class TestGPUTypes:
    def test_lookup(self):
        assert gpu_type("V100").dialect == "v100"
        with pytest.raises(KeyError):
            gpu_type("A100")

    @pytest.mark.parametrize("gtype", [V100, P100, T4], ids=lambda t: t.key)
    def test_either_spelling_names_one_type(self, gtype):
        assert gpu_type(gtype.key) is gpu_type(gtype.name) is gtype
        assert GPU_TYPES[gtype.key] is gtype
        with pytest.raises(KeyError, match="unknown GPU type"):
            gpu_type(gtype.key + "x")

    def test_memory_profile(self):
        assert V100.memory_gb == 32.0
        assert P100.memory_gb == 16.0 and T4.memory_gb == 16.0

    def test_gpu_allocate_release(self):
        cluster = Cluster([Machine("v0", V100, 2)])
        cluster.allocate("v100", 2)
        # over-allocation and over-release raise and leave the counts alone
        with pytest.raises(RuntimeError):
            cluster.allocate("v100", 1)
        cluster.release("v100", 1)
        with pytest.raises(RuntimeError):
            cluster.release("v100", 2)
        assert (cluster.free_count("v100"), cluster.allocated_count()) == (1, 1)
        cluster.release("v100", 1)
        assert cluster.free_count("v100") == 2 and cluster.allocated_count() == 0


class TestMicrobenchCluster:
    def test_paper_composition(self):
        cluster = microbench_cluster()
        assert cluster.total() == 64
        assert cluster.total("v100") == 32
        assert cluster.total("p100") == 16
        assert cluster.total("t4") == 16

    def test_machine_shapes(self):
        cluster = microbench_cluster()
        by_prefix = {}
        for machine in cluster.machines:
            prefix = machine.name.rsplit("-", 1)[0]
            by_prefix.setdefault(prefix, []).append(machine.slots)
        assert by_prefix["v100"] == [8, 8, 8, 8]
        assert by_prefix["p100"] == [2] * 8
        assert by_prefix["t4"] == [4] * 4


class TestAllocation:
    def test_allocate_and_release(self):
        cluster = microbench_cluster()
        cluster.allocate("v100", 5)
        assert cluster.free_count("v100") == 27
        assert cluster.allocated_count() == 5
        cluster.release("v100", 2)
        assert cluster.free_count("v100") == 29
        cluster.release("v100", 3)
        assert cluster.allocated_count() == 0

    def test_all_or_nothing(self):
        cluster = microbench_cluster()
        with pytest.raises(RuntimeError):
            cluster.allocate("p100", 17)
        assert cluster.free_count("p100") == 16

    def test_free_by_type(self):
        cluster = microbench_cluster()
        cluster.allocate("t4", 10)
        assert cluster.free_by_type() == {"v100": 32, "p100": 16, "t4": 6}

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster([])


class PerGPUInventory:
    """The inventory one device at a time, as it was kept before it became
    counts: one ``[type, machine, held]`` record per GPU in pool order.
    ``allocate`` holds the lowest free records of a type and ``release``
    frees the highest held ones.  ``remove_free`` deletes the type's last
    records (the newest machines' slots) and, GPUs being fungible, moves
    the holdings that sat on them onto surviving free records."""

    def __init__(self, machines):
        self.gpus = []
        for name, gtype, slots in machines:
            self.add_machine(name, gtype, slots)

    def of_type(self, name, held):
        return [g for g in self.gpus if g[0] == name and g[2] == held]

    def allocate(self, name, count):
        free = self.of_type(name, False)
        if not 0 <= count <= len(free):
            raise RuntimeError
        for gpu in free[:count]:
            gpu[2] = True

    def release(self, name, count):
        held = self.of_type(name, True)
        if not 0 <= count <= len(held):
            raise RuntimeError
        for gpu in held[len(held) - count:]:
            gpu[2] = False

    def remove_free(self, name, count):
        if count <= 0:
            return 0
        if len(self.of_type(name, False)) < count or len(self.gpus) == count:
            raise RuntimeError
        victims = [g for g in self.gpus if g[0] == name][-count:]
        moved = sum(g[2] for g in victims)
        self.gpus = [g for g in self.gpus if not any(g is v for v in victims)]
        for gpu in self.of_type(name, False)[:moved]:
            gpu[2] = True
        return count

    def add_machine(self, name, gtype, slots):
        if slots <= 0:
            raise ValueError
        self.gpus.extend([gtype, name, False] for _ in range(slots))

    def machines(self):
        shapes = []
        for _, machine, _ in self.gpus:
            if shapes and shapes[-1][0] == machine:
                shapes[-1][1] += 1
            else:
                shapes.append([machine, 1])
        return [tuple(shape) for shape in shapes]

    def counts(self, name):
        free, held = len(self.of_type(name, False)), len(self.of_type(name, True))
        return free, free + held, held


SMALL_POOL = (
    [(f"v{i}", "v100", 8) for i in range(2)]
    + [(f"p{i}", "p100", 2) for i in range(3)]
    + [(f"t{i}", "t4", 4) for i in range(2)]
)
GTYPES = {"v100": V100, "p100": P100, "t4": T4}
TYPES = st.sampled_from(sorted(GTYPES))
INVENTORY_OPS = st.one_of(
    st.tuples(st.just("allocate"), TYPES, st.integers(-1, 9)),
    st.tuples(st.just("release"), TYPES, st.integers(-1, 9)),
    st.tuples(st.just("remove_free"), TYPES, st.integers(-1, 5)),
    st.tuples(st.just("add_machine"), TYPES, st.integers(0, 4)),
)


def apply_inventory_op(inventory, op, serial):
    """Run one op on either inventory; return its result or the type of
    the exception it raised."""
    name, gtype, count = op
    try:
        if name != "add_machine":
            return getattr(inventory, name)(gtype, count)
        if isinstance(inventory, Cluster):
            return inventory.add_machine(Machine(f"joined{serial}", GTYPES[gtype], count))
        return inventory.add_machine(f"joined{serial}", gtype, count)
    except (RuntimeError, ValueError) as exc:
        return type(exc)


class TestCountInventory:
    @given(ops=st.lists(INVENTORY_OPS, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_counts_match_a_per_gpu_reference(self, ops):
        cluster = Cluster([Machine(name, GTYPES[gtype], slots) for name, gtype, slots in SMALL_POOL])
        twin = PerGPUInventory(SMALL_POOL)
        for serial, op in enumerate(ops):
            got = apply_inventory_op(cluster, op, serial)
            assert got == apply_inventory_op(twin, op, serial), op
            for name in GTYPES:
                assert (
                    cluster.free_count(name), cluster.total(name), cluster.allocated_count(name)
                ) == twin.counts(name), (op, name)
            assert [(m.name, m.slots) for m in cluster.machines] == twin.machines(), op
            assert cluster.free_by_type() == {
                name: twin.counts(name)[0] for name in GTYPES if twin.counts(name)[0]
            }, op
            # the pool-wide counter agrees with the per-type counts
            assert cluster.allocated_count() == cluster.total() - cluster.free_count(), op


class TestProductionCluster:
    def test_size_and_mix(self):
        cluster = production_cluster(1000)
        assert cluster.total() == 1000
        assert cluster.total("t4") == 500
        assert cluster.total("p100") == 250
        assert cluster.total("v100") == 250

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            production_cluster(5)
