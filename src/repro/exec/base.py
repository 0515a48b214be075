"""Execution backends: how one global step's worker compute is scheduled.

The engine decides *what* runs (one local step per EST, on each physical
worker, in virtual-rank order within the worker) — a backend decides
*where* it runs: every worker in-process
(:class:`~repro.exec.serial.SerialBackend`), or worker 0 in-process and
workers 1…n−1 in a persistent process pool
(:class:`~repro.exec.pool.ProcessPoolBackend`).

The contract every backend must honour, and the tests pin bitwise:

1. **Same numerics.**  Each EST's local step is
   :func:`repro.core.worker.execute_local_step` — the single definition
   of forward/backward — regardless of which process executes it.  In
   the calling process it runs through
   :meth:`~repro.core.worker.EasyScaleWorker.run_local_step`, the one
   per-EST compute both backends share.
2. **Fixed merge order.**  The returned :class:`LocalStepResult` list is
   ordered by (worker, EST-position), exactly like the serial loop, so
   the engine's virtual-rank sort and the downstream reduction order are
   independent of process completion order.
3. **Parent-side sequencing of stateful calls.**  ``load_batch`` and the
   workers' fault hooks mutate parent state (loader cursors, injector
   exactly-once bookkeeping); backends must invoke them in the serial
   order: worker 0's ESTs, then worker 1's, ...
4. **State write-back, every step.**  EST RNG streams advance, the
   ESTs' flat gradient buckets (one layout, ``request.layout``) are
   staged as ``staged_grads``, and BN journals reference the *parent's*
   model layers on return — a checkpoint taken after any step is
   byte-identical across backends.  Staged buckets live for the step
   only: the engine clears them when the step ends, raised or not.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.comm.bucketing import BucketAssignment
    from repro.core.worker import EasyScaleWorker, LocalStepResult
    from repro.models.registry import WorkloadSpec
    from repro.nn.module import Module


@dataclass
class StepRequest:
    """Everything a backend needs to execute one global step's compute.

    Built fresh by the engine every step; backends must not cache any of
    it across steps except via their own explicit keying (the process
    pool keys its model replicas on ``(spec.name, seed)``).
    """

    #: physical workers in engine order (worker 0 first)
    workers: Sequence["EasyScaleWorker"]
    #: the parent's single model replica (authoritative parameters)
    model: "Module"
    spec: "WorkloadSpec"
    seed: int
    named_params: Dict[str, object]
    param_names_by_id: Dict[int, str]
    #: ``load_batch(vrank)`` — mutates loader state; call in serial order
    load_batch: Callable[[int], Tuple[np.ndarray, np.ndarray]]
    #: gradient arrival-order sink (only vrank 0 records into it);
    #: None once buckets are reconstructed
    arrival_sink: Optional[List[str]]
    #: current bucket layout — the unit of gradient shipping
    layout: "BucketAssignment"


class ExecutionBackend(ABC):
    """Strategy for executing the per-worker compute of a global step."""

    #: short identifier used for span/metric ``backend`` labels
    name: str = "abstract"

    @abstractmethod
    def run_step(self, request: StepRequest) -> List["LocalStepResult"]:
        """Execute every worker's local steps; results in (worker,
        EST-position) order.  May raise a ``FaultSignal`` out of a
        worker's fault hook exactly like the serial loop does."""

    def commit(self) -> None:
        """No-op, every step writes back; the frozen benchmarks/e2e epilogue calls it."""

    def close(self) -> None:
        """Release backend resources (pools).  Idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
