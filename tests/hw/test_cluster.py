"""Cluster inventory: composition, allocation bookkeeping."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import Cluster, Machine, P100, T4, V100, microbench_cluster, production_cluster
from repro.hw.gpu import GPU, gpu_type


class TestGPUTypes:
    def test_lookup(self):
        assert gpu_type("V100").dialect == "v100"
        with pytest.raises(KeyError):
            gpu_type("A100")

    def test_memory_profile(self):
        assert V100.memory_gb == 32.0
        assert P100.memory_gb == 16.0 and T4.memory_gb == 16.0

    def test_gpu_allocate_release(self):
        gpu = GPU(type=V100)
        gpu.allocate("job-a")
        with pytest.raises(RuntimeError):
            gpu.allocate("job-b")
        with pytest.raises(RuntimeError):
            gpu.release("job-b")
        gpu.release("job-a")
        assert gpu.free


class TestMicrobenchCluster:
    def test_paper_composition(self):
        cluster = microbench_cluster()
        assert cluster.total() == 64
        assert cluster.total("V100") == 32
        assert cluster.total("P100") == 16
        assert cluster.total("T4") == 16

    def test_machine_shapes(self):
        cluster = microbench_cluster()
        by_prefix = {}
        for machine in cluster.machines:
            prefix = machine.name.rsplit("-", 1)[0]
            by_prefix.setdefault(prefix, []).append(len(machine.gpus))
        assert by_prefix["v100"] == [8, 8, 8, 8]
        assert by_prefix["p100"] == [2] * 8
        assert by_prefix["t4"] == [4] * 4


class TestAllocation:
    def test_allocate_and_release(self):
        cluster = microbench_cluster()
        taken = cluster.allocate("job", "V100", 5)
        assert len(taken) == 5
        assert cluster.free_count("V100") == 27
        assert cluster.allocated_count() == 5
        cluster.release("job", taken[:2])
        assert cluster.free_count("V100") == 29
        assert cluster.release_all("job") == 3
        assert cluster.allocated_count() == 0

    def test_all_or_nothing(self):
        cluster = microbench_cluster()
        with pytest.raises(RuntimeError):
            cluster.allocate("job", "P100", 17)
        assert cluster.free_count("P100") == 16

    def test_free_by_type(self):
        cluster = microbench_cluster()
        cluster.allocate("j", "T4", 10)
        assert cluster.free_by_type() == {"V100": 32, "P100": 16, "T4": 6}

    def test_owned_by(self):
        cluster = microbench_cluster()
        cluster.allocate("a", "V100", 2)
        cluster.allocate("b", "V100", 3)
        assert len(cluster.owned_by("a")) == 2

    def test_a_held_gpu_counts_as_allocated_from_registration(self):
        held = Machine.build("v0", V100, 4)
        held.gpus[1].allocate("early")
        cluster = Cluster([held, Machine.build("t0", T4, 2)])
        assert cluster.allocated_count() == 1 and cluster.allocated_count("V100") == 1
        assert cluster.release_all("early") == 1
        assert cluster.allocated_count() == 0

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster([])


class KeyedSortCluster(Cluster):
    """The inventory as it kept its lists before insertion: released GPUs
    appended to the free list and the whole list re-sorted by pool
    position, and an owner's list re-sorted after every grant."""

    def allocate(self, job_id, type_name, count):
        taken = super().allocate(job_id, type_name, count)
        self._owned[job_id].sort(key=lambda gpu: gpu._pool_index)
        return taken

    def _refile(self, gpus):
        self._allocated -= len(gpus)
        by_type = {}
        for gpu in gpus:
            by_type.setdefault(gpu.type.name, []).append(gpu)
        for name, batch in by_type.items():
            free_list = self._free_lists.setdefault(name, [])
            free_list.extend(batch)
            free_list.sort(key=lambda gpu: gpu._pool_index)


def small_pool(cls):
    return cls(
        [Machine.build(f"v{i}", V100, 8) for i in range(2)]
        + [Machine.build(f"p{i}", P100, 2) for i in range(3)]
        + [Machine.build(f"t{i}", T4, 4) for i in range(2)]
    )


TYPES = st.sampled_from(["V100", "P100", "T4"])
JOBS = st.sampled_from(["a", "b", "c"])
INVENTORY_OPS = st.one_of(
    st.tuples(st.just("allocate"), JOBS, TYPES, st.integers(1, 9)),
    st.tuples(st.just("release"), JOBS, st.integers(0, 2**16)),
    st.tuples(st.just("release_all"), JOBS),
    st.tuples(st.just("remove_free"), TYPES, st.integers(0, 4)),
    st.tuples(st.just("add_machine"), TYPES, st.integers(1, 4)),
)


def positions(gpus):
    return [gpu._pool_index for gpu in gpus]


def apply_inventory_op(cluster, op, serial):
    """Run one op; return what it handed back (pool positions) or the
    exception type it raised."""
    name, *args = op
    try:
        if name == "allocate":
            return positions(cluster.allocate(*args))
        if name == "release":
            job, seed = args
            owned = cluster.owned_by(job)
            picked = random.Random(seed).sample(owned, random.Random(seed).randint(0, len(owned)))
            cluster.release(job, picked)
            return positions(picked)
        if name == "release_all":
            return cluster.release_all(*args)
        if name == "remove_free":
            return cluster.remove_free(*args)
        gtype = {"V100": V100, "P100": P100, "T4": T4}[args[0]]
        cluster.add_machine(Machine.build(f"joined{serial}", gtype, args[1]))
        return None
    except RuntimeError as exc:
        return type(exc)


class TestFreeListOrder:
    @given(ops=st.lists(INVENTORY_OPS, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_lists_stay_sorted_and_hand_out_the_keyed_sort_gpus(self, ops):
        cluster, twin = small_pool(Cluster), small_pool(KeyedSortCluster)
        for serial, op in enumerate(ops):
            got = apply_inventory_op(cluster, op, serial)
            assert got == apply_inventory_op(twin, op, serial), op
            for name, free_list in cluster._free_lists.items():
                indices = positions(free_list)
                assert all(a < b for a, b in zip(indices, indices[1:])), (op, name)
                assert indices == positions(twin._free_lists[name]), (op, name)
            for job in "abc":
                indices = positions(cluster.owned_by(job))
                assert all(a < b for a, b in zip(indices, indices[1:])), (op, job)
                assert indices == positions(twin.owned_by(job)), (op, job)
            assert cluster.free_by_type() == twin.free_by_type()
            # allocated_count() is a counter every inventory edit keeps
            for inventory in (cluster, twin):
                assert inventory.allocated_count() == inventory.total() - inventory.free_count()
                for name in ("V100", "P100", "T4"):
                    assert inventory.allocated_count(name) == (
                        inventory.total(name) - inventory.free_count(name)
                    ), (op, name)
            assert cluster.allocated_count() == twin.allocated_count(), op


class TestProductionCluster:
    def test_size_and_mix(self):
        cluster = production_cluster(1000)
        assert cluster.total() == 1000
        assert cluster.total("T4") == 500
        assert cluster.total("P100") == 250
        assert cluster.total("V100") == 250

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            production_cluster(5)
