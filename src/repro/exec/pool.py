"""ProcessPoolBackend: real parallel worker execution, bitwise-equal to serial.

A step over ``n`` physical workers runs on the parent plus ``n - 1``
children: workers 1…n−1 each run their per-step compute (one local step
per hosted EST) as one task in a persistent :mod:`multiprocessing` pool,
while the parent — which holds the authoritative model and would
otherwise sit idle waiting for them — runs worker 0's ESTs itself.  A
single-worker stage therefore starts no child at all.  The determinism
argument, in the order things happen:

1. **Parent-side sequencing.**  Fault hooks and ``load_batch`` calls
   mutate parent state (injector exactly-once bookkeeping, loader
   round-robin cursors, queue consumption).  The backend runs them in
   the exact serial order — worker 0's ESTs, then worker 1's — *before*
   dispatching any compute, so that state evolves identically to the
   serial loop.
2. **Identical numerics on both sides.**  Worker 0 runs
   :meth:`repro.core.worker.EasyScaleWorker.run_local_step` — the serial
   path's own per-EST step — on the parent's model, so it needs no state
   load and no slab.  A child keeps a cached model replica (rebuilt
   deterministically from the workload spec + job seed, so its
   construction cost is paid once per process), loads the parent's
   ``state_dict`` for the step, and runs
   :func:`repro.core.worker.execute_local_step` — the function that
   per-EST step calls — under the worker's dialect/policy and the EST's
   shipped RNG state.
3. **Per-bucket flat shipping is byte-pure.**  Children flatten
   gradients into the engine's current bucket layout, straight into a
   shared-memory slab (:mod:`repro.exec.shm`), with the same
   :meth:`~repro.comm.bucketing.BucketAssignment.flatten_into_buckets`
   the serial worker stages with; flattening is a pure byte move (no
   arithmetic), and the parent hands the read-only slab views to the
   all-reduce as they are, so they are bitwise the serial path's flats.
4. **Fixed merge order.**  Results are assembled in *submission* order
   (worker 0 first), never completion order, and each worker's ESTs stay
   in local order.  A task's result lists the buckets it wrote; the
   parent reads them only after every task returned (the result pipe is
   the cross-process happens-before for the slab bytes), walking the
   results in submission order, so the association cannot depend on
   which child finished first.  If worker 0's step raises, the parent
   still collects every child task first — no slab is unmapped under a
   running child, and the postmortem holds each child's flight events.
5. **State write-back, every step.**  Advanced RNG states are restored
   into the parent's EST objects, gradients are staged, and BN journal
   entries are re-bound (by module name) to the parent's layers so
   folding happens on the authoritative replica in virtual-rank order.
   Worker 0 advances, stages and journals on the parent's objects
   directly, as the serial loop does.

What cannot be parallelized: policies that keep *process-global* mutable
kernel state — the autotuner's profiling counters and the "atomic"
scatter/reduce interleave counter.  Those counters live per process and
are deliberately not checkpointable (that is the non-determinism they
model), so a pool run could never replicate their serial evolution.  The
backend rejects such policies up front with a clear error.
"""

from __future__ import annotations

import multiprocessing
import sys
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.obs import flightrec
from repro.comm.bucketing import BucketAssignment
from repro.exec import shm as shm_mod
from repro.exec.base import ExecutionBackend, StepRequest
from repro.exec.shm import ShmTransport, SlabInUseError, SlabPlan, state_specs_of
from repro.hw.timing import context_switch_time, minibatch_time
from repro.utils.rng import RNGBundle

# ---------------------------------------------------------------------------
# child-process side
# ---------------------------------------------------------------------------

#: per-child replica cache: (workload name, seed) -> (model, named_params,
#: param-id->name, module-id->name).  Lives for the pool's lifetime.
_REPLICAS: Dict[Tuple[str, int], Tuple[Any, Dict[str, Any], Dict[int, str], Dict[int, str]]] = {}


def _child_init(variants: Dict[str, Any]) -> None:
    """Pool initializer: re-hydrate user-registered D2 kernel variants.

    Under the ``spawn`` start method the child's kernel registry holds
    only the built-in dialects; a D2 policy with ``custom_kernel`` set
    would fail its registry lookup.  The parent exports the custom
    entries at pool creation and every child re-installs them here.
    (Under ``fork`` the registry is inherited and this is a no-op.)
    """
    from repro.tensor.kernels import rehydrate_matmul_variants

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
    vrank's region, and the result only lists what was written.  Returns
    ``{"ests": [...], "obs": ...}``.  ``ests`` holds one payload per EST,
    in local order: the loss, the advanced RNG state, the BN journal
    keyed by module *name* (layer objects don't cross process
    boundaries), the ``((bucket_idx, names), elems)`` of every non-empty
    bucket written to the slab, and — for vrank 0 on a reconstruction
    step — the gradient arrival order.  ``obs`` is :func:`repro.obs.export_child`.

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
        # flatten straight into this vrank's slab regions; the parent
        # reads them once this task's result has come back
        flats = layout.flatten_into_buckets(
            grads,
            lambda bucket_idx, elems: shm_mod.child_grad_view(
                desc, vrank, bucket_idx, elems
            ),
        )
        out.append(
            {
                "vrank": vrank,
                "loss": loss,
                "rng": rng.get_state(),
                "journal": [
                    (modules_by_id[id(layer)], mean, var) for layer, mean, var in journal
                ],
                "buckets": [(key, flat.size) for key, flat in flats.items()],
                "arrival": arrival,
            }
        )
    return out


# ---------------------------------------------------------------------------
# parent-process side
# ---------------------------------------------------------------------------


class ProcessPoolBackend(ExecutionBackend):
    """Run a step on the parent plus one pooled child per further worker.

    Worker 0 runs in the calling process, on the authoritative model;
    workers 1…n−1 run in persistent children, so a step over ``n``
    workers starts ``min(n - 1, max_workers)`` children and a
    single-worker stage none.  ``max_workers`` caps the slot row
    (default 4).  Slots are placement units, not throughput units: one
    child per dispatched worker, created lazily as worker ids appear,
    even on a single-core machine — the children idle between steps, and
    per-process isolation (replica cache, flight ring, trace lane) is the
    point.  ``start_method`` defaults to ``fork`` where available —
    cheapest, and it inherits registered kernels — falling back to
    ``spawn``, where :func:`_child_init` re-hydrates them.

    The heavy per-step payloads of the children travel through
    :class:`~repro.exec.shm.ShmTransport` slabs: model state is broadcast
    and flat gradient buckets come back zero-copy: each task's result
    lists the slab regions it wrote, and once every task of the step has
    returned the parent hands read-only views of them to the all-reduce.
    Worker 0's buckets are its own staging buffers, as under the serial
    backend.  ``transport`` names that one carrier: the keyword exists
    because the frozen ``benchmarks/e2e`` passes it, and any value but
    ``"shm"`` is a ``ValueError``.

    Placement is *sticky*: the pool is a row of single-child slots and
    physical worker ``w >= 1`` always dispatches to slot
    ``(w - 1) % max_workers``.  A shared task queue would let one hot
    child drain every task (tiny steps finish before sibling processes
    wake), which both defeats the per-child replica cache — a cold child
    rebuilds the model — and collapses the trace into one process lane.
    Sticky slots give each child exactly one replica build and a stable
    pid lane in the merged Chrome trace; worker 0's spans sit on the
    parent's lane.

    The pool is created lazily on the first step that dispatches and
    survives engine rebuilds (reconfigure / fault recovery): pass the same
    backend object to every engine and ``close()`` it once at the end of
    the job.  The shm slabs survive rebuilds the same way and are re-keyed
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

    # -- lifecycle ------------------------------------------------------
    def _ensure_slot(self, index: int):
        """Lazily create slot ``index`` (a one-child pool) and return it.

        The row (``self._pool``) is one list object for the backend's
        lifetime once any slot exists, so callers may hold its identity
        across engine rebuilds.
        """
        if self._pool is None:
            self._pool = []
        while len(self._pool) <= index:
            from repro.tensor.kernels import export_matmul_variants

            self._pool.append(
                self._ctx.Pool(
                    processes=1,
                    initializer=_child_init,
                    initargs=(export_matmul_variants(),),
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
        if self._shm is not None:
            # children are gone (slots joined above): unlink exactly once
            shm, self._shm = self._shm, None
            shm.close()

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except SlabInUseError:
            if exc is None:
                raise
            # the failing step's traceback still holds its slab views: the
            # step's error is the one to report, and the slabs' mappings
            # go with the traceback

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
        own, *dispatched = request.workers
        tasks = []
        for worker in request.workers:
            batches = {}
            for est in worker.ests:
                if worker.fault_hook is not None:
                    worker.fault_hook(worker.worker_id, est.vrank)
                batches[est.vrank] = request.load_batch(est.vrank)
            if worker is own:
                own_batches = batches
                continue
            tasks.append(
                {
                    "spec": request.spec,
                    "seed": request.seed,
                    "dialect": worker.gpu.dialect,
                    "policy": worker.policy,
                    "micro_batches": worker.micro_batches,
                    "ests": [
                        (est.vrank, est.rng.get_state(), *batches[est.vrank])
                        for est in worker.ests
                    ],
                    "layout": layout_state,
                    "need_arrival": need_arrival,
                    "worker": worker.worker_id,
                    "gpu": worker.gpu.name,
                    "obs": obs_snapshot,
                }
            )

        # Phase 2: broadcast state (one slab write), then dispatch workers
        # 1..n-1 (worker w -> slot (w - 1) % max_workers); a single-worker
        # stage needs neither
        handles = []
        if tasks:
            self._broadcast_state(request, tasks, est_by_vrank)
            handles = [
                self._ensure_slot(k % self.max_workers).apply_async(
                    _run_worker_task, (task,)
                )
                for k, task in enumerate(tasks)
            ]

        # Phase 3: while the children run, the parent runs worker 0's
        # ESTs on its own model, through the serial path's local step
        try:
            with self._task_span(own):
                own_results = [
                    own.run_local_step(
                        request.model,
                        est,
                        own_batches.__getitem__,
                        request.named_params,
                        request.layout,
                        arrival_sink=request.arrival_sink,
                        param_names_by_id=request.param_names_by_id,
                    )
                    for est in own.ests
                ]
                own.end_global_step(request.model)
        except BaseException:
            # no slab may be unmapped under a running child, and the
            # postmortem wants every child's evidence: collect them all
            try:
                self._wait_all(dispatched, handles)
            except Exception:
                pass  # worker 0's failure comes first in submission order
            raise

        results = own_results + self._assemble(
            request, dispatched, self._wait_all(dispatched, handles), est_by_vrank
        )
        if obs.is_enabled():
            registry = obs.metrics()
            registry.counter("exec_steps_total", backend=self.name).inc()
            registry.counter("exec_pool_tasks_total", backend=self.name).inc(
                len(request.workers)
            )
        return results

    def _task_span(self, worker):
        """The ``exec.worker_task`` span of one worker's share of a step."""
        return obs.span(
            "exec.worker_task",
            cat="exec",
            backend=self.name,
            worker=worker.worker_id,
            gpu=worker.gpu.name,
        )

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

    # -- phase 4: fixed-order assembly + write-back ----------------------
    def _wait_all(self, workers, handles) -> List[List[Dict[str, Any]]]:
        """Wait for every dispatched task of the step and merge each child's obs.

        Merges run in submission order and cover failed tasks too (their
        export rides the exception as ``child_obs``), so a crash
        postmortem holds every child's flight events.  The first failure
        is re-raised only once the last handle is in.  Returns each
        task's per-EST payloads, in submission order.
        """
        ests: List[List[Dict[str, Any]]] = []
        failure: Optional[BaseException] = None
        for worker, handle in zip(workers, handles):
            with self._task_span(worker):
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

    def _assemble(self, request, workers, task_payloads, est_by_vrank):
        from repro.core.worker import LocalStepResult

        parent_layers = dict(request.model.named_modules())
        shm_bytes = 0
        arrival_seen = (
            set(request.arrival_sink) if request.arrival_sink is not None else None
        )
        results: List[LocalStepResult] = []
        for worker, payloads in zip(workers, task_payloads):
            per_batch = minibatch_time(worker.spec, worker.gpu, worker.policy) * worker.slowdown
            switch = context_switch_time(worker.spec, worker.gpu) * worker.slowdown
            for position, payload in enumerate(payloads):
                vrank = payload["vrank"]
                # the slab views themselves are the hand-off: synchronize
                # reads them before the next step's children rewrite them
                grads = {
                    key: self._shm.read_bucket(vrank, key[0], elems)
                    for key, elems in payload["buckets"]
                }
                shm_bytes += sum(flat.nbytes for flat in grads.values())
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
        if obs.is_enabled() and shm_bytes:
            obs.metrics().counter(
                "exec_shm_bytes_total", direction="gradients"
            ).inc(shm_bytes)
        return results
