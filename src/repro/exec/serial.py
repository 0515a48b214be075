"""SerialBackend: the engine's historical in-process worker loop, extracted."""

from __future__ import annotations

from typing import List

from repro import obs
from repro.exec.base import ExecutionBackend, StepRequest


class SerialBackend(ExecutionBackend):
    """Step every physical worker sequentially in the calling process.

    This is byte-for-byte the loop the engine ran before backends
    existed — it delegates to ``EasyScaleWorker.run_global_step``, which
    interleaves fault hooks, batch loading, and compute per EST.  It is
    the default backend and the reference the process pool is tested
    against.
    """

    name = "serial"

    def run_step(self, request: StepRequest) -> List["LocalStepResult"]:  # noqa: F821
        results = []
        for worker in request.workers:
            results.extend(
                worker.run_global_step(
                    request.model,
                    load_batch=request.load_batch,
                    named_params=request.named_params,
                    layout=request.layout,
                    arrival_sink=request.arrival_sink,
                    param_names_by_id=request.param_names_by_id,
                )
            )
        if obs.is_enabled():
            obs.metrics().counter("exec_steps_total", backend=self.name).inc()
        return results
