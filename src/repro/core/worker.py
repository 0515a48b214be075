"""EasyScale worker: one process, one GPU, one CUDA context, many ESTs.

A worker executes its assigned ESTs in the time-slicing manner of §3.2:
for each global step it runs one *local step* (one mini-batch) per EST,
context-switching at mini-batch boundaries.  The worker owns the gradient
staging area — the only EST state that must leave the GPU — and models the
paper's overlap: the D2H copy of EST *i*'s gradients hides under EST
*i+1*'s compute, and the final EST's synchronization finds all sibling
gradients already staged (Fig. 13).

The numerical work happens against the *shared* model replica (one per
worker in the real system; one per job in this in-process simulation —
legitimate because replicas are bitwise identical between global steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.obs import flightrec
from repro.comm.bucketing import BucketAssignment, FlatBufferCache, FlatGrads
from repro.core.est import EasyScaleThread
from repro.ddp.ddp import micro_slices
from repro.hw.gpu import GPUType
from repro.hw.memory import check_fits, easyscale_memory_gb
from repro.hw.timing import context_switch_time, minibatch_time
from repro.models.registry import WorkloadSpec
from repro.nn.module import Module
from repro.nn.runtime import collect_bn_stats, use_rng
from repro.tensor.context import execution_context
from repro.tensor.kernels import KernelPolicy


@dataclass
class LocalStepResult:
    """Output of one EST's local step."""

    vrank: int
    loss: float
    #: the EST's gradients as flat buckets of the step's layout, valid
    #: until the next step overwrites the staging area they live in
    grads: FlatGrads
    bn_journal: list
    compute_time: float
    exposed_copy_time: float


def execute_local_step(
    model: Module,
    spec: WorkloadSpec,
    rng,
    x: np.ndarray,
    y: np.ndarray,
    *,
    dialect: str,
    policy: KernelPolicy,
    micro_batches: int,
    named_params: Dict[str, object],
    arrival_sink: Optional[List[str]] = None,
    param_names_by_id: Optional[Dict[int, str]] = None,
) -> Tuple[float, Dict[str, np.ndarray], list]:
    """One EST's forward/backward over one mini-batch.

    This is the single numerical definition of a local step: the
    in-process :class:`EasyScaleWorker` path, the process-pool execution
    backend and the TorchElastic / Pollux baseline trainer
    (:class:`repro.elastic.base.ElasticBaselineTrainer`) all call exactly
    this function, which is what makes the serial/parallel bitwise
    contract hold by construction rather than by parallel-maintained
    copies of the math.

    ``arrival_sink``, when given, records gradient readiness order during
    backward (callers gate it to virtual rank 0, matching DDP's bucket
    reconstruction observer).  Returns ``(mean micro loss, grads by
    parameter name, BN journal)``; gradients are scaled for gradient
    accumulation.  A leaf's ``.grad`` is an array nothing else refers to
    (``Tensor._accumulate``) and the next ``zero_grad`` only drops the
    model's reference, so it is handed over as it is, not copied.
    """
    from repro.tensor.tensor import leaf_grad_hook

    model.zero_grad()
    micro_losses = []
    with execution_context(dialect, policy), use_rng(rng), collect_bn_stats() as journal:
        for micro_x, micro_y in micro_slices(x, y, micro_batches):
            loss = spec.forward_loss(model, micro_x, micro_y)
            if arrival_sink is not None:
                arrived = set(arrival_sink)

                def on_grad(tensor) -> None:
                    name = (param_names_by_id or {}).get(id(tensor))
                    if name is not None and name not in arrived:
                        arrived.add(name)
                        arrival_sink.append(name)

                with leaf_grad_hook(on_grad):
                    loss.backward()
            else:
                loss.backward()
            micro_losses.append(loss.item())
    scale = np.float32(1.0 / micro_batches)
    grads = {
        name: (param.grad * scale if micro_batches > 1 else param.grad)
        for name, param in named_params.items()
        if param.grad is not None
    }
    return float(np.mean(micro_losses)), grads, journal


class EasyScaleWorker:
    """One physical worker hosting a slice of the job's ESTs."""

    def __init__(
        self,
        worker_id: int,
        gpu: GPUType,
        ests: List[EasyScaleThread],
        spec: WorkloadSpec,
        policy: KernelPolicy,
        validate_memory: bool = True,
        micro_batches: int = 1,
        fault_hook: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        if not ests:
            raise ValueError(f"worker {worker_id} has no ESTs assigned")
        if micro_batches <= 0:
            raise ValueError("micro_batches must be positive")
        self.worker_id = worker_id
        self.gpu = gpu
        self.ests = list(ests)
        self.spec = spec
        self.policy = policy
        self.micro_batches = micro_batches
        #: multiplier on this worker's *modeled* time only (a degraded or
        #: contended device); numerics are untouched, so a slowed worker
        #: still produces bitwise-identical gradients — it just lets the
        #: profiler's straggler detection be exercised deterministically
        self.slowdown = 1.0
        #: called as ``fault_hook(worker_id, vrank)`` before every EST local
        #: step; a fault injector may raise from it to simulate the worker
        #: process dying mid-step (sibling ESTs have already staged state)
        self.fault_hook = fault_hook
        #: the gradient staging area: one flat buffer per (bucket, vrank),
        #: rewritten every step
        self._staging = FlatBufferCache()
        if validate_memory:
            check_fits(easyscale_memory_gb(spec, len(ests)), gpu)

    @property
    def vranks(self) -> List[int]:
        return [est.vrank for est in self.ests]

    def run_global_step(
        self,
        model: Module,
        load_batch: Callable[[int], Tuple[np.ndarray, np.ndarray]],
        named_params: Dict[str, object],
        layout: BucketAssignment,
        arrival_sink: Optional[List[str]] = None,
        param_names_by_id: Optional[Dict[int, str]] = None,
    ) -> List[LocalStepResult]:
        """Execute one local step per EST, in local order, time-sliced.

        The sequencing half of a step: each EST's fault hook fires, then
        :meth:`run_local_step` loads its mini-batch and computes it.  The
        process pool runs the same two halves apart — every hook and load
        first, in this order, then worker 0's compute in the parent — so
        both backends share one per-EST compute.
        """
        results: List[LocalStepResult] = []
        for est in self.ests:
            if self.fault_hook is not None:
                self.fault_hook(self.worker_id, est.vrank)
            results.append(
                self.run_local_step(
                    model,
                    est,
                    load_batch,
                    named_params,
                    layout,
                    arrival_sink=arrival_sink,
                    param_names_by_id=param_names_by_id,
                )
            )
        self.end_global_step(model)
        return results

    def run_local_step(
        self,
        model: Module,
        est: EasyScaleThread,
        load_batch: Callable[[int], Tuple[np.ndarray, np.ndarray]],
        named_params: Dict[str, object],
        layout: BucketAssignment,
        arrival_sink: Optional[List[str]] = None,
        param_names_by_id: Optional[Dict[int, str]] = None,
    ) -> LocalStepResult:
        """One EST's local step: load, compute, stage; the context switch.

        ``load_batch(vrank)`` supplies the EST's mini-batch; gradients are
        flattened into ``layout``'s buckets in the staging area and staged
        on the EST ("swapped to CPU"), which is exactly the context
        switch.  If ``arrival_sink`` is given, vrank 0's backward records
        gradient arrival order into it (bucket-reconstruction
        observation).  Call :meth:`end_global_step` after the last EST.
        """
        per_batch = minibatch_time(self.spec, self.gpu, self.policy) * self.slowdown
        flightrec.record(
            "worker.local_step",
            worker=self.worker_id,
            vrank=est.vrank,
            gpu=self.gpu.name,
            dialect=self.gpu.dialect,
        )
        with obs.span(
            "worker.local_step",
            cat="worker",
            est=per_batch,
            worker=self.worker_id,
            vrank=est.vrank,
            gpu=self.gpu.name,
        ):
            x, y = load_batch(est.vrank)
            mean_loss, grads, journal = execute_local_step(
                model,
                self.spec,
                est.rng,
                x,
                y,
                dialect=self.gpu.dialect,
                policy=self.policy,
                micro_batches=self.micro_batches,
                named_params=named_params,
                arrival_sink=arrival_sink if est.vrank == 0 else None,
                param_names_by_id=param_names_by_id,
            )
            layout_key = layout.layout_key()
            flats = layout.flatten_into_buckets(
                grads,
                lambda bucket_idx, elems: self._staging.buffer(
                    layout_key, bucket_idx, est.vrank, elems
                ),
            )
            est.staged_grads = flats
        # copy of this EST's grads overlaps the *next* EST's compute;
        # only the last EST in the slice exposes its staging latency,
        # and even that hides under gradient synchronization setup
        exposed = 0.0
        if est is not self.ests[-1]:
            exposed = context_switch_time(self.spec, self.gpu) * self.slowdown
        if exposed and obs.is_enabled():
            with obs.span(
                "worker.context_switch",
                cat="worker",
                est=exposed,
                worker=self.worker_id,
                from_vrank=est.vrank,
            ):
                pass
        return LocalStepResult(
            vrank=est.vrank,
            loss=mean_loss,
            grads=flats,
            bn_journal=journal,
            compute_time=per_batch,
            exposed_copy_time=exposed,
        )

    def end_global_step(self, model: Module) -> None:
        """Clear the model's gradients after this worker's last EST."""
        model.zero_grad()
        if obs.is_enabled():
            registry = obs.metrics()
            registry.counter("worker_local_steps_total", gpu=self.gpu.name).inc(len(self.ests))
            registry.histogram("worker_minibatch_sim_seconds", gpu=self.gpu.name).observe(
                minibatch_time(self.spec, self.gpu, self.policy) * self.slowdown
            )

    def step_time(self) -> float:
        """Simulated wall-clock of one global step on this worker."""
        per_batch = minibatch_time(self.spec, self.gpu, self.policy)
        switches = max(len(self.ests) - 1, 0) * context_switch_time(self.spec, self.gpu)
        return (len(self.ests) * per_batch + switches) * self.slowdown
