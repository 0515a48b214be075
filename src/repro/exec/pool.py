"""ProcessPoolBackend: real parallel worker execution, bitwise-equal to serial.

Each physical worker's per-step compute (one local step per hosted EST)
runs as one task in a persistent :mod:`multiprocessing` pool.  The
determinism argument, in the order things happen:

1. **Parent-side sequencing.**  Fault hooks and ``load_batch`` calls
   mutate parent state (injector exactly-once bookkeeping, loader
   round-robin cursors, queue consumption).  The backend runs them in
   the exact serial order — worker 0's ESTs, then worker 1's — *before*
   dispatching any compute, so that state evolves identically to the
   serial loop.
2. **Identical numerics in children.**  A child keeps a cached model
   replica (rebuilt deterministically from the workload spec + job seed,
   so its construction cost is paid once per process), loads the
   parent's ``state_dict`` for the step, and runs
   :func:`repro.core.worker.execute_local_step` — the same function the
   serial path calls — under the worker's dialect/policy and the EST's
   shipped RNG state.
3. **Per-bucket flat shipping is byte-pure.**  Children flatten
   gradients into the engine's current bucket layout, straight into a
   shared-memory slab (:mod:`repro.exec.shm`); flatten/unflatten are
   pure byte moves (no arithmetic), so the reconstructed per-parameter
   gradients are bitwise what the serial path produced.
4. **Fixed merge order.**  Results are assembled in *submission* order
   (worker 0 first), never completion order, and each worker's ESTs stay
   in local order.  Finished buckets are *collected* in publication
   order — overlapping the parent's unflatten copies with still-running
   child compute — but collection fills a keyed staging map; the merge
   that the engine's reduction sees is always the submission order, so
   the association cannot depend on which child finished first.
5. **State write-back, every step.**  Advanced RNG states are restored
   into the parent's EST objects, gradients are staged, and BN journal
   entries are re-bound (by module name) to the parent's layers so
   folding happens on the authoritative replica in virtual-rank order.

What cannot be parallelized: policies that keep *process-global* mutable
kernel state — the autotuner's profiling counters and the "atomic"
scatter/reduce interleave counter.  Those counters live per process and
are deliberately not checkpointable (that is the non-determinism they
model), so a pool run could never replicate their serial evolution.  The
backend rejects such policies up front with a clear error.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import sys
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.obs import flightrec
from repro.comm.bucketing import BucketAssignment
from repro.exec import shm as shm_mod
from repro.exec.base import ExecutionBackend, StepRequest
from repro.exec.shm import ShmTransport, SlabPlan, state_specs_of
from repro.hw.timing import context_switch_time, minibatch_time
from repro.utils.rng import RNGBundle

# ---------------------------------------------------------------------------
# child-process side
# ---------------------------------------------------------------------------

#: per-child replica cache: (workload name, seed) -> (model, named_params,
#: param-id->name, module-id->name).  Lives for the pool's lifetime.
_REPLICAS: Dict[Tuple[str, int], Tuple[Any, Dict[str, Any], Dict[int, str], Dict[int, str]]] = {}

#: the backend's bucket-publication queue, installed by the pool
#: initializer
_READY_QUEUE = None


def _child_init(variants: Dict[str, Any], ready_queue) -> None:
    """Pool initializer: re-hydrate user-registered D2 kernel variants and
    install the bucket-publication queue.

    Under the ``spawn`` start method the child's kernel registry holds
    only the built-in dialects; a D2 policy with ``custom_kernel`` set
    would fail its registry lookup.  The parent exports the custom
    entries at pool creation and every child re-installs them here.
    (Under ``fork`` the registry is inherited and this is a no-op.)
    """
    from repro.tensor.kernels import rehydrate_matmul_variants

    global _READY_QUEUE
    _READY_QUEUE = ready_queue
    rehydrate_matmul_variants(variants)


def _get_replica(spec, seed: int):
    from repro.utils.rng import derive_seed

    key = (spec.name, seed)
    cached = _REPLICAS.get(key)
    if cached is None:
        model = spec.build_model(RNGBundle(derive_seed(seed, "model")))
        named_params = dict(model.named_parameters())
        names_by_id = {id(p): n for n, p in named_params.items()}
        modules_by_id = {id(m): n for n, m in model.named_modules()}
        cached = (model, named_params, names_by_id, modules_by_id)
        _REPLICAS[key] = cached
    return cached


def _run_worker_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one physical worker's local steps in a pool child.

    Gradients leave through the slab: each bucket is flattened into this
    vrank's region and published on the ready queue.  Returns
    ``{"ests": [...], "obs": ...}``.  ``ests`` holds one payload per EST,
    in local order: the loss, the advanced RNG state, the BN journal
    keyed by module *name* (layer objects don't cross process
    boundaries), and — for vrank 0 on a reconstruction step — the
    gradient arrival order.  ``obs`` is :func:`repro.obs.export_child`.

    Observability: the parent ships its :class:`~repro.obs.ObsConfig`
    snapshot with every task; the child bootstraps ``repro.obs`` from it
    (a per-process global the pool would otherwise leave disabled) and
    spans its per-EST compute.  A failed task attaches its export to the
    exception as ``child_obs``, so the parent's postmortem still sees
    this child's flight events.  Pure observation — none of it touches
    the numerics.
    """
    from repro.core.worker import execute_local_step

    obs.configure_from(task.get("obs"))
    flightrec.ensure_child()
    try:
        ests = _run_worker_task_inner(task, execute_local_step)
    except Exception as exc:
        exc.child_obs = obs.export_child()
        raise
    return {"ests": ests, "obs": obs.export_child()}


def _run_worker_task_inner(
    task: Dict[str, Any], execute_local_step
) -> List[Dict[str, Any]]:
    spec = task["spec"]
    model, named_params, names_by_id, modules_by_id = _get_replica(spec, task["seed"])
    desc = task["shm"]
    # zero-copy broadcast: the parent wrote its state into the slab once
    # for the whole step; load_state_dict copies out of the read-only
    # views into this child's replica
    model.load_state_dict(shm_mod.child_read_state(desc))
    layout = BucketAssignment.from_state(task["layout"])
    seq = task["seq"]
    out: List[Dict[str, Any]] = []
    for vrank, rng_state, x, y in task["ests"]:
        rng = RNGBundle(0)
        rng.set_state(rng_state)
        arrival: Optional[List[str]] = (
            [] if (task["need_arrival"] and vrank == 0) else None
        )
        flightrec.record(
            "exec.child_local_step",
            worker=task.get("worker", -1),
            vrank=vrank,
            gpu=task.get("gpu", "?"),
            dialect=task["dialect"],
        )
        with obs.span(
            "exec.child_local_step",
            cat="exec",
            worker=task.get("worker", -1),
            vrank=vrank,
            gpu=task.get("gpu", "?"),
        ):
            loss, grads, journal = execute_local_step(
                model,
                spec,
                rng,
                x,
                y,
                dialect=task["dialect"],
                policy=task["policy"],
                micro_batches=task["micro_batches"],
                named_params=named_params,
                arrival_sink=arrival,
                param_names_by_id=names_by_id,
            )
        if obs.is_enabled():
            obs.metrics().counter(
                "exec_child_local_steps_total", gpu=task.get("gpu", "?")
            ).inc()
        for bucket_idx, names in enumerate(layout.buckets):
            # flatten straight into this vrank's slab region, then publish
            # through the queue — the queue send is the cross-process
            # happens-before for the slab bytes
            present = tuple(n for n in names if n in grads)
            elems = sum(int(grads[n].size) for n in present)
            if present:
                sub = BucketAssignment([list(present)])
                sub.flatten_bucket_into(
                    0, grads, shm_mod.child_grad_view(desc, vrank, bucket_idx, elems)
                )
            _READY_QUEUE.put((seq, vrank, bucket_idx, present, elems))
        out.append(
            {
                "vrank": vrank,
                "loss": loss,
                "rng": rng.get_state(),
                "journal": [
                    (modules_by_id[id(layer)], mean, var) for layer, mean, var in journal
                ],
                "arrival": arrival,
            }
        )
    return out


# ---------------------------------------------------------------------------
# parent-process side
# ---------------------------------------------------------------------------


class ProcessPoolBackend(ExecutionBackend):
    """Run each physical worker's step compute in a persistent process pool.

    ``max_workers`` caps the slot row (default 4).  Slots are placement
    units, not throughput units: one child per *physical worker*, created
    lazily as worker ids appear, even on a single-core machine — the
    children idle between steps, and per-process isolation (replica
    cache, flight ring, trace lane) is the point.  ``start_method``
    defaults to ``fork`` where available — cheapest, and it inherits
    registered kernels — falling back to ``spawn``, where
    :func:`_child_init` re-hydrates them.

    The heavy per-step payloads travel through
    :class:`~repro.exec.shm.ShmTransport` slabs: model state is broadcast
    and flat gradient buckets are collected zero-copy, with per-bucket
    collection overlapped against still-running child compute.
    ``transport`` names that one carrier: the keyword exists because the
    frozen ``benchmarks/e2e`` passes it, and any value but ``"shm"`` is a
    ``ValueError``.

    Placement is *sticky*: the pool is a row of single-child slots and
    physical worker ``w`` always dispatches to slot ``w % max_workers``.
    A shared task queue would let one hot child drain every task (tiny
    steps finish before sibling processes wake), which both defeats the
    per-child replica cache — a cold child rebuilds the model — and
    collapses the trace into one process lane.  Sticky slots give each
    child exactly one replica build and a stable pid lane in the merged
    Chrome trace.

    The pool is created lazily on the first step and survives engine
    rebuilds (reconfigure / fault recovery): pass the same backend object
    to every engine and ``close()`` it once at the end of the job.  The
    shm slabs survive rebuilds the same way and are re-keyed
    automatically when the bucket layout (or the model's state plan)
    changes; ``close()`` unlinks them exactly once.
    """

    name = "process"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        transport: str = "shm",
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        if transport != "shm":
            raise ValueError(f"unknown transport {transport!r}; only 'shm' exists")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self.max_workers = int(max_workers or 4)
        self._pool = None
        #: shm slab set (lazily built on the first step)
        self._shm: Optional[ShmTransport] = None
        #: bucket-publication queue shared by every slot's child
        self._ready_queue = None
        #: per-step sequence number tagged onto every publication, so a
        #: step aborted mid-collection can never leak stale buckets into
        #: the next step's drain loop
        self._seq = 0

    # -- lifecycle ------------------------------------------------------
    def _ensure_slot(self, index: int):
        """Lazily create slot ``index`` (a one-child pool) and return it.

        The row (``self._pool``) is one list object for the backend's
        lifetime once any slot exists, so callers may hold its identity
        across engine rebuilds.
        """
        if self._pool is None:
            self._pool = []
        if self._ready_queue is None:
            self._ready_queue = self._ctx.Queue()
        while len(self._pool) <= index:
            from repro.tensor.kernels import export_matmul_variants

            self._pool.append(
                self._ctx.Pool(
                    processes=1,
                    initializer=_child_init,
                    initargs=(export_matmul_variants(), self._ready_queue),
                )
            )
        return self._pool[index]

    def close(self) -> None:
        if self._pool is not None:
            # each step merged its tasks' obs before returning or
            # re-raising: there is nothing left to collect here
            for slot in self._pool:
                slot.close()
            for slot in self._pool:
                slot.join()
            self._pool = None
        if self._ready_queue is not None:
            self._ready_queue.close()
            self._ready_queue.join_thread()
            self._ready_queue = None
        if self._shm is not None:
            # children are gone (slots joined above): unlink exactly once
            self._shm.close()
            self._shm = None

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            if sys.is_finalizing():
                # interpreter shutdown: module globals (obs, the mp
                # machinery) may already be torn down — close() would
                # raise through them, and the OS reclaims pools and shm
                # anyway (the parent's resource tracker unlinks slabs)
                return
            self.close()
        except Exception:
            pass

    # -- validation -----------------------------------------------------
    @staticmethod
    def _check_policy(worker) -> None:
        policy = worker.policy
        if not policy.disable_autotune or not policy.deterministic_algorithms:
            raise ValueError(
                "ProcessPoolBackend requires a kernel policy with "
                "disable_autotune=True and deterministic_algorithms=True: "
                "autotuner warm-up counters and atomic-kernel interleave "
                "counters are process-global and uncheckpointable, so their "
                "serial evolution cannot be replicated across pool children "
                f"(worker {worker.worker_id} has {policy})"
            )

    # -- execution ------------------------------------------------------
    def run_step(self, request: StepRequest) -> List["LocalStepResult"]:  # noqa: F821
        for worker in request.workers:
            self._check_policy(worker)

        # Phase 1 (parent, serial order): fault hooks + batch loads.
        # These mutate injector/loader state and may raise a FaultSignal;
        # nothing has been dispatched yet when they do.
        need_arrival = request.arrival_sink is not None
        obs_snapshot = obs.config_snapshot() if obs.is_enabled() else None
        layout_state = request.layout.to_state()
        est_by_vrank = {
            est.vrank: est for worker in request.workers for est in worker.ests
        }
        tasks = []
        for worker in request.workers:
            ests = []
            for est in worker.ests:
                if worker.fault_hook is not None:
                    worker.fault_hook(worker.worker_id, est.vrank)
                x, y = request.load_batch(est.vrank)
                ests.append((est.vrank, est.rng.get_state(), x, y))
            tasks.append(
                {
                    "spec": request.spec,
                    "seed": request.seed,
                    "dialect": worker.gpu.dialect,
                    "policy": worker.policy,
                    "micro_batches": worker.micro_batches,
                    "ests": ests,
                    "layout": layout_state,
                    "need_arrival": need_arrival,
                    "worker": worker.worker_id,
                    "gpu": worker.gpu.name,
                    "obs": obs_snapshot,
                }
            )

        # Phase 2: broadcast state (one slab write), then dispatch
        # everything (worker w -> slot w % max_workers)
        self._seq += 1
        self._broadcast_state(request, tasks, est_by_vrank)
        handles = [
            self._ensure_slot(task["worker"] % self.max_workers).apply_async(
                _run_worker_task, (task,)
            )
            for task in tasks
        ]

        grads_by_vrank = self._collect_buckets(request, handles, est_by_vrank)
        results = self._assemble(request, handles, est_by_vrank, grads_by_vrank)
        if obs.is_enabled():
            registry = obs.metrics()
            registry.counter("exec_steps_total", backend=self.name).inc()
            registry.counter("exec_pool_tasks_total", backend=self.name).inc(len(tasks))
        return results

    # -- phase 2 helper: broadcast --------------------------------------
    def _broadcast_state(self, request, tasks, est_by_vrank) -> None:
        """Write state into the slab once and attach descriptors to tasks."""
        if self._shm is None:
            self._shm = ShmTransport()
        live_state = {n: p.data for n, p in request.named_params.items()}
        for name, buf in request.model.named_buffers():
            live_state[name] = np.asarray(buf)
        plan = SlabPlan(
            request.layout.layout_key(),
            {n: p.data.size for n, p in request.named_params.items()},
            state_specs_of(live_state),
            list(est_by_vrank),
        )
        if self._shm.ensure(plan):
            flightrec.record(
                "exec.shm_rebuild",
                buckets=plan.num_buckets,
                state_bytes=plan.state_nbytes,
                grad_bytes=plan.grad_nbytes,
                slots=len(plan.vranks),
            )
            if obs.is_enabled():
                obs.metrics().counter(
                    "exec_shm_slab_rebuilds_total", backend=self.name
                ).inc()
        with obs.span("exec.state_broadcast", cat="exec", backend=self.name):
            nbytes = self._shm.write_state(live_state)
        if obs.is_enabled():
            obs.metrics().counter(
                "exec_shm_bytes_total", direction="broadcast"
            ).inc(nbytes)
        desc = self._shm.descriptor()
        for task in tasks:
            task["shm"] = desc
            task["seq"] = self._seq

    # -- phase 3: overlapped collection ----------------------------------
    def _collect_buckets(
        self, request, handles, est_by_vrank
    ) -> Dict[int, Dict[str, np.ndarray]]:
        """Drain bucket publications as children produce them.

        Children publish each finished (vrank, bucket) through the ready
        queue the moment its slab region is written; the parent unflattens
        it immediately — overlapping its own copy-out with the remaining
        child compute instead of blocking on whole-worker ``handle.get()``.
        Publications land in the returned vrank-keyed map, so arrival
        order never reaches the caller: :meth:`_assemble` walks submission
        order regardless.  A failed child task ends the drain through
        :meth:`_wait_all`, which re-raises its exception.
        """
        grads_by_vrank: Dict[int, Dict[str, np.ndarray]] = {}
        param_shapes = {n: p.data.shape for n, p in request.named_params.items()}
        expected = len(est_by_vrank) * self._shm.plan.num_buckets
        got = 0
        shm_bytes = 0
        with obs.span(
            "exec.overlap_collect", cat="exec", backend=self.name,
            buckets=expected,
        ):
            while got < expected:
                try:
                    seq, vrank, bucket_idx, names, elems = self._ready_queue.get(
                        timeout=0.05
                    )
                except queue_mod.Empty:
                    # surface a failed child task instead of spinning
                    if any(h.ready() and not h.successful() for h in handles):
                        self._wait_all(request, handles)
                    continue
                if seq != self._seq:
                    continue  # stale publication from an aborted step
                got += 1
                if not names:
                    continue
                with obs.span(
                    "exec.collect_bucket", cat="exec", vrank=vrank,
                    bucket=bucket_idx, elems=elems,
                ):
                    flat = self._shm.read_bucket(vrank, bucket_idx, elems)
                    sub = BucketAssignment([list(names)])
                    grads_by_vrank.setdefault(vrank, {}).update(
                        sub.unflatten_bucket(0, flat, param_shapes)
                    )
                shm_bytes += elems * 4
        if obs.is_enabled() and shm_bytes:
            obs.metrics().counter(
                "exec_shm_bytes_total", direction="gradients"
            ).inc(shm_bytes)
        return grads_by_vrank

    # -- phase 4: fixed-order assembly + write-back ----------------------
    def _wait_all(self, request, handles) -> List[List[Dict[str, Any]]]:
        """Wait for every task of the step and merge each child's obs.

        Merges run in submission order and cover failed tasks too (their
        export rides the exception as ``child_obs``), so a crash
        postmortem holds every child's flight events.  The first failure
        is re-raised only once the last handle is in.  Returns each
        task's per-EST payloads, in submission order.
        """
        ests: List[List[Dict[str, Any]]] = []
        failure: Optional[BaseException] = None
        for worker, handle in zip(request.workers, handles):
            with obs.span(
                "exec.worker_task",
                cat="exec",
                backend=self.name,
                worker=worker.worker_id,
                gpu=worker.gpu.name,
            ):
                try:
                    result = handle.get()
                except Exception as exc:
                    failure = failure or exc
                    result = {"ests": [], "obs": getattr(exc, "child_obs", None)}
            if result["obs"] is not None:
                obs.merge_child(result["obs"])
            ests.append(result["ests"])
        if failure is not None:
            raise failure
        return ests

    def _assemble(self, request, handles, est_by_vrank, grads_by_vrank):
        from repro.core.worker import LocalStepResult

        parent_layers = dict(request.model.named_modules())
        arrival_seen = (
            set(request.arrival_sink) if request.arrival_sink is not None else None
        )
        results: List[LocalStepResult] = []
        for worker, payloads in zip(request.workers, self._wait_all(request, handles)):
            per_batch = minibatch_time(worker.spec, worker.gpu, worker.policy) * worker.slowdown
            switch = context_switch_time(worker.spec, worker.gpu) * worker.slowdown
            for position, payload in enumerate(payloads):
                vrank = payload["vrank"]
                grads = grads_by_vrank.get(vrank, {})
                est = est_by_vrank[vrank]
                est.rng.set_state(payload["rng"])
                est.staged_grads = grads
                if payload["arrival"] is not None and request.arrival_sink is not None:
                    # seen-set merge: the sink stays an ordered list, but
                    # membership checks no longer rescan it per parameter
                    for name in payload["arrival"]:
                        if name not in arrival_seen:
                            arrival_seen.add(name)
                            request.arrival_sink.append(name)
                results.append(
                    LocalStepResult(
                        vrank=vrank,
                        loss=payload["loss"],
                        grads=grads,
                        bn_journal=[
                            (parent_layers[name], mean, var)
                            for name, mean, var in payload["journal"]
                        ],
                        compute_time=per_batch,
                        exposed_copy_time=(
                            switch if position < len(payloads) - 1 else 0.0
                        ),
                    )
                )
        return results
