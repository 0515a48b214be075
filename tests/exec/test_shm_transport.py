"""Shared-memory transport: slab plans, lifecycle, and pool integration.

The transport's contract is carried by three layers, each pinned here:

- :class:`SlabPlan` is pure arithmetic — aligned offsets, full-bucket
  sizing, a one-writer ownership map, and a key that changes whenever
  any offset could.
- :class:`ShmTransport` owns the slabs — rebuild on key change, unlink
  exactly once, loud failure when the model's state plan goes stale.
- ``ProcessPoolBackend`` moves every step through those slabs (its bits
  equal the serial loop's: ``tests/exec/test_backends.py``); shm is the
  only transport, and any other name is refused.
"""

import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.comm.bucketing import BucketAssignment
from repro.core import (
    EasyScaleEngine,
    EasyScaleJobConfig,
    WorkerAssignment,
    determinism_from_label,
)
from repro.exec import ProcessPoolBackend
from repro.exec import shm as shm_mod
from repro.exec.shm import ShmTransport, SlabPlan, state_specs_of
from repro.hw import gpu_type
from repro.models import get_workload
from tests.conftest import sgd_factory


def _plan(buckets, sizes, state, vranks=(0,)):
    return SlabPlan(
        BucketAssignment([list(b) for b in buckets]).layout_key(),
        sizes,
        state_specs_of(state),
        list(vranks),
    )


def _detach_all():
    """Drop this process's child-side attachment cache."""
    shm_mod._evict_stale([])


# ---------------------------------------------------------------------------
# SlabPlan arithmetic
# ---------------------------------------------------------------------------


class TestSlabPlan:
    def test_offsets_are_aligned_and_disjoint(self):
        state = {
            "a": np.zeros(3, np.float32),       # 12 bytes -> padded to 16
            "b": np.zeros((), np.int64),        # 8 bytes
            "c": np.zeros((2, 2), np.float32),  # 16 bytes
        }
        plan = _plan([["a", "c"]], {"a": 3, "c": 4}, state)
        offsets = plan.state_offsets
        assert offsets["a"] == 0
        assert offsets["b"] == 16  # 12 rounded up to the 8-byte grid
        assert offsets["c"] == 24
        assert plan.state_nbytes == 40
        assert all(off % 8 == 0 for off in offsets.values())

    def test_grad_regions_sized_for_full_buckets(self):
        state = {"w": np.zeros(5, np.float32)}
        plan = _plan([["w", "v"], ["u"]], {"w": 5, "v": 2, "u": 3}, state)
        assert plan.bucket_elems == [7, 3]
        assert plan.grad_offsets == [0, 32]  # 7*4=28 -> 32
        assert plan.num_buckets == 2

    def test_ownership_is_one_writer_per_region(self):
        state = {"w": np.zeros(1, np.float32)}
        plan = _plan([["w"]], {"w": 1}, state, vranks=(0, 2))
        assert plan.ownership() == {
            "state": "parent",
            "grad[0]": "child(vrank=0)",
            "grad[2]": "child(vrank=2)",
        }

    def test_key_tracks_layout_state_and_vranks(self):
        state = {"w": np.zeros(2, np.float32)}
        base = _plan([["w"]], {"w": 2}, state)
        assert base.key() == _plan([["w"]], {"w": 2}, state).key()
        relaid = _plan([["w"]], {"w": 2}, state, vranks=(0, 1))
        assert base.key() != relaid.key()
        retyped = _plan([["w"]], {"w": 2}, {"w": np.zeros(2, np.float64)})
        assert base.key() != retyped.key()

    def test_grad_view_bounds(self):
        state = {"w": np.zeros(4, np.float32)}
        plan = _plan([["w"]], {"w": 4}, state)
        buf = bytearray(plan.grad_nbytes)
        with pytest.raises(IndexError):
            plan.grad_view(memoryview(buf), 1, 4, writable=True)
        with pytest.raises(ValueError):
            plan.grad_view(memoryview(buf), 0, 5, writable=True)

    def test_empty_vranks_rejected(self):
        with pytest.raises(ValueError, match="virtual rank"):
            _plan([["w"]], {"w": 1}, {"w": np.zeros(1, np.float32)}, vranks=())


# ---------------------------------------------------------------------------
# ShmTransport lifecycle
# ---------------------------------------------------------------------------


class TestShmTransport:
    def test_ensure_is_idempotent_until_key_changes(self):
        state = {"w": np.arange(4, dtype=np.float32)}
        transport = ShmTransport()
        try:
            plan = _plan([["w"]], {"w": 4}, state)
            assert transport.ensure(plan) is True
            assert transport.ensure(_plan([["w"]], {"w": 4}, state)) is False
            assert transport.rebuilds == 1
            # a layout change re-keys and rebuilds, old slabs are unlinked
            old_name = transport.descriptor()["state_name"]
            relaid = _plan([["w"], []], {"w": 4}, state)
            assert transport.ensure(relaid) is True
            assert transport.rebuilds == 2
            assert transport.descriptor()["state_name"] != old_name
            from multiprocessing import shared_memory

            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=old_name)
        finally:
            transport.close()

    def test_close_unlinks_exactly_once(self):
        state = {"w": np.zeros(2, np.float32)}
        transport = ShmTransport()
        transport.ensure(_plan([["w"]], {"w": 2}, state))
        names = [transport.descriptor()["state_name"]] + list(
            transport.descriptor()["grad_names"].values()
        )
        transport.close()
        transport.close()  # idempotent, no double-unlink error
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        with pytest.raises(RuntimeError, match="closed"):
            transport.ensure(_plan([["w"]], {"w": 2}, state))

    def test_write_state_rejects_stale_plan(self):
        state = {"w": np.arange(4, dtype=np.float32)}
        transport = ShmTransport()
        try:
            transport.ensure(_plan([["w"]], {"w": 4}, state))
            with pytest.raises(ValueError, match="stale"):
                transport.write_state({"w": np.zeros(5, np.float32)})
            with pytest.raises(ValueError, match="stale"):
                transport.write_state({"w": np.zeros(4, np.float64)})
        finally:
            transport.close()

    def test_state_roundtrip_is_byte_identical(self):
        state = {
            "w": np.arange(6, dtype=np.float32).reshape(2, 3),
            "n": np.array(7, dtype=np.int64),
        }
        transport = ShmTransport()
        try:
            transport.ensure(_plan([["w"]], {"w": 6}, state))
            assert transport.write_state(state) == 32  # 24 + 8 payload bytes
            views = shm_mod.child_read_state(transport.descriptor())
            for name, value in state.items():
                assert views[name].tobytes() == value.tobytes()
                assert not views[name].flags.writeable
        finally:
            _detach_all()
            transport.close()


# ---------------------------------------------------------------------------
# slab round trip == flatten_bucket + pickle (hypothesis)
# ---------------------------------------------------------------------------


@given(
    sizes=st.lists(st.integers(1, 32), min_size=1, max_size=6),
    present_mask=st.lists(st.booleans(), min_size=6, max_size=6),
    seed=st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_slab_roundtrip_matches_flatten_pickle(sizes, present_mask, seed):
    """The slab carries the exact bytes the pickle transport would.

    A random bucket of random-size gradients (some absent, as under
    gradient accumulation edge cases) flattened into the slab and read
    back must be byte-identical to ``flatten_bucket`` + a pickle round
    trip of the same subset.
    """
    rng = np.random.default_rng(seed)
    names = [f"p{i}" for i in range(len(sizes))]
    grads = {
        n: rng.normal(size=s).astype(np.float32) for n, s in zip(names, sizes)
    }
    present = [n for n, keep in zip(names, present_mask) if keep] or names[:1]
    state = {"w": np.zeros(1, np.float32)}
    plan = _plan([names], dict(zip(names, sizes)), state)
    transport = ShmTransport()
    try:
        transport.ensure(plan)
        sub = BucketAssignment([present])
        elems = sum(grads[n].size for n in present)
        view = shm_mod.child_grad_view(transport.descriptor(), 0, 0, elems)
        sub.flatten_bucket_into(0, {n: grads[n] for n in present}, view)
        via_slab = transport.read_bucket(0, 0, elems).tobytes()
        via_pickle = pickle.loads(
            pickle.dumps(sub.flatten_bucket(0, {n: grads[n] for n in present}))
        ).tobytes()
        assert via_slab == via_pickle
    finally:
        _detach_all()
        transport.close()


# ---------------------------------------------------------------------------
# pool integration
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def env():
    spec = get_workload("resnet18")
    dataset = spec.build_dataset(64, seed=7)
    return spec, dataset


def _engine(env, backend, num_ests=2):
    spec, dataset = env
    config = EasyScaleJobConfig(
        num_ests=num_ests, seed=0, batch_size=8,
        determinism=determinism_from_label("D1+D2"),
    )
    return EasyScaleEngine(
        spec, dataset, config, sgd_factory(),
        WorkerAssignment.balanced(
            [gpu_type("V100"), gpu_type("T4")], num_ests
        ),
        backend=backend,
    )


class TestPoolIntegration:
    def test_unknown_transport_rejected(self):
        # shm is the only transport; serial == pool is
        # tests/exec/test_backends.py::test_headline_elastic_bitwise_across_backends
        for name in ("carrier-pigeon", "pickle"):
            with pytest.raises(ValueError, match="transport"):
                ProcessPoolBackend(transport=name)

    def test_slabs_survive_reconfigure_and_rekey_on_layout_change(self, env):
        with ProcessPoolBackend(max_workers=2) as backend:
            engine = _engine(env, backend)
            engine.run_global_step()  # arrival-order rebuild happens after
            assert backend._shm is not None
            assert backend._shm.rebuilds == 1
            engine.run_global_step()  # new layout: exactly one re-key
            assert backend._shm.rebuilds == 2
            engine.run_global_step()  # steady state: no churn
            assert backend._shm.rebuilds == 2
            engine = engine.reconfigure(engine.assignment)
            engine.run_global_step()
            # the D1 checkpoint carried the layout: still no slab churn
            assert backend._shm.rebuilds == 2
        assert backend._shm is None  # close() released the slabs

    def test_transport_metrics_and_overlap_spans(self, env):
        obs.configure(enabled=True)
        try:
            with ProcessPoolBackend(max_workers=2) as backend:
                engine = _engine(env, backend)
                engine.train_steps(1)
                registry = obs.metrics()
                assert registry.counter(
                    "exec_shm_bytes_total", direction="broadcast"
                ).value > 0
                assert registry.counter(
                    "exec_shm_bytes_total", direction="gradients"
                ).value > 0
            records = obs.tracer().records
            assert [r for r in records if r["name"] == "exec.state_broadcast"]
            assert [r for r in records if r["name"] == "exec.overlap_collect"]
            assert [r for r in records if r["name"] == "exec.collect_bucket"]
        finally:
            obs.reset()


# ---------------------------------------------------------------------------
# satellite regressions: child obs across an obs switch, and shutdown safety
# ---------------------------------------------------------------------------


def test_close_collects_shards_even_after_obs_disabled(env):
    """Regression: child spans recorded while obs was on must survive the
    parent turning it off before ``close()``.  They ride each task result
    and are merged as the step returns, into the tracer of that step."""
    spec, dataset = env
    obs.configure(enabled=True)
    try:
        backend = ProcessPoolBackend(max_workers=2)
        engine = _engine((spec, dataset), backend)
        engine.train_steps(1)
        tracer = obs.tracer()
        # flip observability off between the last step and close(): this
        # installs a fresh (empty) tracer, and the step's tracer keeps
        # what its children shipped
        obs.configure(enabled=False)
        assert not obs.tracer().records
        backend.close()
        child_spans = [
            r
            for r in tracer.records
            if r["name"] == "exec.child_local_step"
        ]
        assert child_spans, "child spans were dropped"
        assert not obs.tracer().records  # close() merges nothing late
    finally:
        obs.reset()


def test_del_during_interpreter_shutdown_is_silent():
    """A backend leaked to interpreter shutdown must not raise through
    half-torn-down module globals (the old ``__del__`` did)."""
    script = textwrap.dedent(
        """
        from repro.core import (
            EasyScaleEngine, EasyScaleJobConfig, WorkerAssignment,
            determinism_from_label,
        )
        from repro.exec import ProcessPoolBackend
        from repro.hw import gpu_type
        from repro.models import get_workload
        from repro.optim import SGD

        spec = get_workload("resnet18")
        dataset = spec.build_dataset(16, seed=0)
        config = EasyScaleJobConfig(
            num_ests=1, seed=0, batch_size=8,
            determinism=determinism_from_label("D1+D2"),
        )
        backend = ProcessPoolBackend(max_workers=1)
        engine = EasyScaleEngine(
            spec, dataset, config,
            lambda m: SGD(m.named_parameters(), lr=0.05, momentum=0.9),
            WorkerAssignment.balanced([gpu_type("V100")], 1),
            backend=backend,
        )
        engine.train_steps(1)
        print("STEP-OK")
        # no close(): the backend object dies with the interpreter
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    assert "STEP-OK" in proc.stdout
    assert "Traceback" not in proc.stderr, proc.stderr
    assert "Exception ignored" not in proc.stderr, proc.stderr
