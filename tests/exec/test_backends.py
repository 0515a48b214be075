"""Execution backends: the bitwise serial/parallel contract.

The headline acceptance test of the backend abstraction: a heterogeneous
V100+T4 job driven through scale-in/scale-out — and, separately, through a
replayed fault plan — finishes with a ``diff_audits``-clean audit trail and
bitwise-identical model parameters whether the per-worker compute ran in
the calling process (:class:`SerialBackend`) or in a persistent process
pool (:class:`ProcessPoolBackend`).  Tier-1 keeps the pool capped at two
processes; the wider sweeps live under ``-m parallel``.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import (
    EasyScaleEngine,
    EasyScaleJobConfig,
    WorkerAssignment,
    determinism_from_label,
)
from repro.core.determinism import DeterminismConfig
from repro.exec import (
    BACKENDS,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.faults import ResilienceController, random_plan
from repro.hw import gpu_type
from repro.models import get_workload
from repro.obs import fingerprint_rng_states
from repro.tensor.kernels import (
    KernelPolicy,
    MATMUL_VARIANTS,
    _matmul_splitk,
    export_matmul_variants,
    register_matmul_variant,
    rehydrate_matmul_variants,
    unregister_matmul_variant,
)
from repro.utils.fingerprint import fingerprint_state_dict
from tests.conftest import sgd_factory

POOL = ["V100", "V100", "T4", "T4"]
TOTAL_STEPS = 9  # 3 per allocation phase below


@pytest.fixture(scope="module")
def env():
    spec = get_workload("resnet18")
    dataset = spec.build_dataset(64, seed=7)
    config = EasyScaleJobConfig(
        num_ests=4, seed=0, batch_size=8,
        determinism=determinism_from_label("D1+D2"),
    )
    return spec, dataset, config


def _assignment(names, num_ests=4):
    return WorkerAssignment.balanced([gpu_type(n) for n in names], num_ests)


# ---------------------------------------------------------------------------
# resolve_backend
# ---------------------------------------------------------------------------


class TestResolveBackend:
    def test_none_is_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("process"), ProcessPoolBackend)
        assert isinstance(resolve_backend("pool"), ProcessPoolBackend)
        assert set(BACKENDS) == {"serial", "process", "pool"}

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="process"):
            resolve_backend("threadpool")

    def test_wrong_type(self):
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_context_manager_closes(self):
        backend = ProcessPoolBackend(max_workers=1)
        with backend as b:
            assert b is backend
        assert backend._pool is None  # close() is safe before first use


# ---------------------------------------------------------------------------
# policy guard: process-global nondeterminism cannot be pooled
# ---------------------------------------------------------------------------


def test_pool_rejects_baseline_policy(env):
    spec, dataset, _ = env
    config = EasyScaleJobConfig(
        num_ests=2, seed=0, batch_size=8,
        determinism=determinism_from_label("BASELINE"),
    )
    with ProcessPoolBackend(max_workers=2) as backend:
        engine = EasyScaleEngine(
            spec, dataset, config, sgd_factory(),
            _assignment(["V100"], num_ests=2), backend=backend,
        )
        with pytest.raises(ValueError, match="disable_autotune"):
            engine.run_global_step()
    # the guard fires before any dispatch: no pool was ever created
    assert backend._pool is None


# ---------------------------------------------------------------------------
# headline: scale-in/scale-out, serial vs pool, bitwise
# ---------------------------------------------------------------------------


def _elastic_run(env, backend):
    """V100x2+T4x2 -> scale-in to V100+T4 -> scale-out back, 3 steps each."""
    spec, dataset, config = env
    obs.configure(enabled=True, audit=True)
    try:
        engine = EasyScaleEngine(
            spec, dataset, config, sgd_factory(),
            _assignment(POOL), backend=backend,
        )
        losses = engine.train_steps(3)
        engine = engine.reconfigure(_assignment(["V100", "T4"]))
        losses += engine.train_steps(3)
        engine = engine.reconfigure(_assignment(POOL))
        losses += engine.train_steps(3)
        trail = obs.audit_trail()
        out = {
            "losses": losses,
            "params": fingerprint_state_dict(engine.model.state_dict()),
            "rng": fingerprint_rng_states(
                [est.rng.get_state() for est in engine.ests]
            ),
            "checkpoint": engine.checkpoint().to_bytes(),
            "trail": trail,
        }
    finally:
        obs.reset()
    return out


@pytest.fixture(scope="module")
def serial_elastic(env):
    return _elastic_run(env, SerialBackend())


def test_headline_elastic_bitwise_across_backends(env, serial_elastic):
    with ProcessPoolBackend(max_workers=2) as backend:
        pooled = _elastic_run(env, backend)
    diff = obs.diff_audits(serial_elastic["trail"], pooled["trail"])
    assert diff.identical, diff.describe()
    assert pooled["losses"] == serial_elastic["losses"]
    assert pooled["params"] == serial_elastic["params"]
    # RNG streams advanced identically in the children and were written back
    assert pooled["rng"] == serial_elastic["rng"]
    # the full checkpoint (params, optimizer, EST contexts, loader cursor)
    # is byte-identical — state write-back is complete, not just the model
    assert pooled["checkpoint"] == serial_elastic["checkpoint"]


def test_pool_survives_reconfigure_with_one_pool(env):
    """reconfigure() rebuilds the engine but reuses the same backend."""
    with ProcessPoolBackend(max_workers=2) as backend:
        spec, dataset, config = env
        engine = EasyScaleEngine(
            spec, dataset, config, sgd_factory(),
            _assignment(POOL), backend=backend,
        )
        engine.train_steps(1)
        pool_before = backend._pool
        assert pool_before is not None
        engine = engine.reconfigure(_assignment(["V100", "T4"]))
        assert engine.backend is backend
        engine.train_steps(1)
        assert backend._pool is pool_before


# ---------------------------------------------------------------------------
# headline: replayed fault plan, serial vs pool, bitwise
# ---------------------------------------------------------------------------


def _fault_run(env, backend, seed):
    spec, dataset, config = env
    plan = random_plan(seed, horizon_steps=TOTAL_STEPS, num_gpus=len(POOL))
    obs.configure(enabled=True, audit=True, audit_rewind=True)
    try:
        controller = ResilienceController(
            spec, dataset, config, sgd_factory(), list(POOL), plan,
            snapshot_interval=4, backend=backend,
        )
        stats = controller.run(TOTAL_STEPS)
        trail = obs.audit_trail()
        fingerprint = fingerprint_state_dict(
            controller.engine.model.state_dict()
        )
    finally:
        obs.reset()
    assert stats.faults_injected == len(plan)
    return trail, fingerprint


def test_headline_fault_plan_replay_bitwise(env):
    ref_trail, ref_fingerprint = _fault_run(env, SerialBackend(), seed=5)
    with ProcessPoolBackend(max_workers=2) as backend:
        trail, fingerprint = _fault_run(env, backend, seed=5)
    diff = obs.diff_audits(ref_trail, trail)
    assert diff.identical, diff.describe()
    assert fingerprint == ref_fingerprint


# ---------------------------------------------------------------------------
# kernel-registry rehydration (custom D2 kernels in pool children)
# ---------------------------------------------------------------------------


def _test_gemm(a, b):
    """Module-level so pool children can unpickle it by reference."""
    return _matmul_splitk(a, b, block=8)


class _CustomKernelConfig(DeterminismConfig):
    """D1+D2 with the GEMM routed through a user-registered variant."""

    @property
    def kernel_policy(self):
        return KernelPolicy(hardware_agnostic=True, custom_kernel="test_splitk8")


def test_export_rehydrate_roundtrip():
    register_matmul_variant("test_splitk8", _test_gemm)
    try:
        exported = export_matmul_variants()
        assert exported["test_splitk8"] is _test_gemm
        assert "v100" not in exported and "agnostic" not in exported
        unregister_matmul_variant("test_splitk8")
        assert "test_splitk8" not in MATMUL_VARIANTS
        rehydrate_matmul_variants(exported)
        assert MATMUL_VARIANTS["test_splitk8"] is _test_gemm
        # built-in dialects are never overwritten by shipped variants
        rehydrate_matmul_variants({"v100": _test_gemm})
        assert MATMUL_VARIANTS["v100"] is not _test_gemm
    finally:
        unregister_matmul_variant("test_splitk8")


def test_custom_kernel_bitwise_under_pool(env):
    spec, dataset, _ = env
    config = EasyScaleJobConfig(
        num_ests=2, seed=0, batch_size=8,
        determinism=_CustomKernelConfig(
            static=True, elastic=True, heterogeneous=True
        ),
    )
    register_matmul_variant("test_splitk8", _test_gemm)
    try:
        serial = EasyScaleEngine(
            spec, dataset, config, sgd_factory(),
            _assignment(["V100", "T4"], num_ests=2),
        )
        serial.train_steps(3)
        with ProcessPoolBackend(max_workers=2) as backend:
            pooled = EasyScaleEngine(
                spec, dataset, config, sgd_factory(),
                _assignment(["V100", "T4"], num_ests=2), backend=backend,
            )
            pooled.train_steps(3)
        assert fingerprint_state_dict(
            pooled.model.state_dict()
        ) == fingerprint_state_dict(serial.model.state_dict())
    finally:
        unregister_matmul_variant("test_splitk8")


def test_serial_equals_pool_under_spawn():
    """A spawned child inherits nothing — registry, replica cache, slab
    attachments all start cold from the pool initializer's arguments —
    and still trains the parent's bits."""
    spec = get_workload("neumf")
    dataset = spec.build_dataset(64, seed=7)
    config = EasyScaleJobConfig(
        num_ests=4, seed=0, batch_size=8,
        determinism=determinism_from_label("D1+D2"),
    )
    serial = EasyScaleEngine(
        spec, dataset, config, sgd_factory(), _assignment(["V100", "T4"])
    )
    serial.train_steps(2)
    with ProcessPoolBackend(max_workers=2, start_method="spawn") as backend:
        pooled = EasyScaleEngine(
            spec, dataset, config, sgd_factory(),
            _assignment(["V100", "T4"]), backend=backend,
        )
        pooled.train_steps(2)
    assert fingerprint_state_dict(
        pooled.model.state_dict()
    ) == fingerprint_state_dict(serial.model.state_dict())


# ---------------------------------------------------------------------------
# observability: per-backend labels
# ---------------------------------------------------------------------------


def test_backend_labels_on_spans_and_metrics(env):
    spec, dataset, config = env
    obs.configure(enabled=True)
    try:
        with ProcessPoolBackend(max_workers=2) as backend:
            engine = EasyScaleEngine(
                spec, dataset, config, sgd_factory(),
                _assignment(POOL), backend=backend,
            )
            engine.train_steps(1)
        records = obs.tracer().records
        step_spans = [r for r in records if r["name"] == "engine.global_step"]
        assert step_spans and all(
            r["args"]["backend"] == "process" for r in step_spans
        )
        task_spans = [r for r in records if r["name"] == "exec.worker_task"]
        assert len(task_spans) == len(POOL)
        assert {r["args"]["gpu"] for r in task_spans} == {"V100", "T4"}
        registry = obs.metrics()
        assert registry.counter("exec_steps_total", backend="process").value == 1
        assert registry.counter(
            "exec_pool_tasks_total", backend="process"
        ).value == len(POOL)
    finally:
        obs.reset()


def test_serial_backend_counts_steps(env):
    spec, dataset, config = env
    obs.configure(enabled=True)
    try:
        engine = EasyScaleEngine(
            spec, dataset, config, sgd_factory(), _assignment(POOL),
        )
        engine.train_steps(2)
        assert obs.metrics().counter(
            "exec_steps_total", backend="serial"
        ).value == 2
    finally:
        obs.reset()


# ---------------------------------------------------------------------------
# gradient shipping plumbing
# ---------------------------------------------------------------------------


def test_pool_grads_never_alias_each_other(env):
    """Unflattened per-parameter gradients from the pool own their memory."""
    spec, dataset, config = env
    with ProcessPoolBackend(max_workers=2) as backend:
        engine = EasyScaleEngine(
            spec, dataset, config, sgd_factory(),
            _assignment(POOL), backend=backend,
        )
        request_grads = []

        original = backend.run_step

        def capture(request):
            results = original(request)
            request_grads.extend(r.grads for r in results)
            return results

        backend.run_step = capture
        engine.run_global_step()
    assert request_grads
    for grads in request_grads:
        arrays = list(grads.values())
        for i in range(len(arrays)):
            for j in range(i + 1, len(arrays)):
                assert not np.shares_memory(arrays[i], arrays[j])


def test_pool_hands_slab_views_straight_to_the_allreduce(env, monkeypatch):
    """The parent copies no gradient byte before the reduce: every flat
    ``allreduce_mean`` reads is vrank ``i``'s read-only slab region."""
    import repro.core.elastic_ddp as elastic_ddp

    spec, dataset, config = env
    reduce = elastic_ddp.allreduce_mean
    seen = []

    def capture(flats, algorithm="ring"):
        slabs = backend._shm._grad_shm
        for vrank, flat in enumerate(flats):
            slab = np.frombuffer(slabs[vrank].buf, dtype=np.uint8)
            seen.append((np.shares_memory(flat, slab), flat.flags.writeable))
        return reduce(flats, algorithm)

    monkeypatch.setattr(elastic_ddp, "allreduce_mean", capture)
    with ProcessPoolBackend(max_workers=2) as backend:
        engine = EasyScaleEngine(
            spec, dataset, config, sgd_factory(),
            _assignment(POOL), backend=backend,
        )
        # the second step runs on the rebuilt layout, in re-keyed slabs
        engine.train_steps(2)
    assert seen
    assert all(shared and not writable for shared, writable in seen)
