"""User-facing porting API: bring-your-own training loop.

The paper's workloads were "implemented based on PyTorch 1.8 LTS, and
ported to EasyScale with a few lines of code changing" (§5): EasyScale
"hooks the key steps of model training, such as data loading, model
backward, and model updating through users' annotations" (§3.2).

This module is that annotation surface.  Instead of using the turnkey
:class:`~repro.core.engine.EasyScaleEngine` loop, a user keeps their own
step function and wraps it:

    session = PortedTrainingSession(
        model=my_model,
        optimizer=my_optimizer,
        num_ests=4,
        seed=7,
        assignment=WorkerAssignment.balanced([V100] * 2, 4),
    )

    def my_step(batch):                    # the user's existing code
        x, y = batch
        loss = cross_entropy(my_model(Tensor(x)), y)
        loss.backward()
        return loss

    for _ in range(100):
        session.global_step_with(my_step, my_loader)   # one annotation

The session supplies exactly what the engine would: per-EST execution
contexts (device dialect + kernel policy + RNG stream + BN journal),
gradient staging, virtual-rank synchronization, and on-demand
checkpointing — so a ported loop keeps the bitwise guarantee.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.comm.bucketing import FlatGrads
from repro.core.checkpoint import Checkpoint
from repro.core.determinism import DeterminismConfig, determinism_from_label
from repro.core.elastic_ddp import ElasticDDP
from repro.core.est import EasyScaleThread
from repro.core.engine import WorkerAssignment
from repro.core.worker import record_arrival
from repro.nn.module import Module
from repro.nn.runtime import collect_bn_stats, use_rng
from repro.optim.optimizer import Optimizer
from repro.tensor.context import execution_context
from repro.tensor.tensor import Tensor


class PortedTrainingSession:
    """Elastic, accuracy-consistent execution for a user-owned step function."""

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        num_ests: int,
        seed: int,
        assignment: WorkerAssignment,
        determinism: Optional[DeterminismConfig] = None,
    ) -> None:
        if assignment.num_ests != num_ests:
            raise ValueError(
                f"assignment covers {assignment.num_ests} ESTs, session declares {num_ests}"
            )
        self.model = model
        self.optimizer = optimizer
        self.num_ests = num_ests
        self.seed = seed
        self.determinism = determinism or determinism_from_label("D1")
        self._named_params = dict(model.named_parameters())
        self._param_names_by_id = {id(p): n for n, p in self._named_params.items()}
        self.elastic_ddp = ElasticDDP(
            param_order=list(self._named_params),
            param_sizes={n: p.data.size for n, p in self._named_params.items()},
            param_shapes={n: p.data.shape for n, p in self._named_params.items()},
            num_ests=num_ests,
            record_mapping=self.determinism.record_bucket_mapping,
        )
        self.ests = [EasyScaleThread(seed, v) for v in range(num_ests)]
        self.assignment = assignment
        self.global_step = 0

    # ------------------------------------------------------------------
    # the single annotation the user adds to their loop
    # ------------------------------------------------------------------
    def global_step_with(
        self,
        step_fn: Callable[[object], Tensor],
        load_batch: Callable[[int, int], object],
    ) -> List[float]:
        """Run one global step of the user's ``step_fn``.

        ``step_fn(batch)`` must run forward + ``loss.backward()`` on the
        session's model and return the loss tensor; ``load_batch(vrank,
        global_step)`` supplies each EST's mini-batch (use a
        :class:`~repro.data.dataloader.SharedDataLoader` or anything with
        the same determinism contract).
        """
        policy = self.determinism.kernel_policy
        est_by_vrank = {est.vrank: est for est in self.ests}
        arrival: Optional[List[str]] = [] if not self.elastic_ddp.reconstructed else None
        grads_by_vrank: Dict[int, FlatGrads] = {}
        journals: Dict[int, list] = {}
        losses: Dict[int, float] = {}

        for gpu, vranks in zip(self.assignment.gpus, self.assignment.est_map):
            for vrank in vranks:
                est = est_by_vrank[vrank]
                batch = load_batch(vrank, self.global_step)
                self.model.zero_grad()
                with execution_context(gpu.dialect, policy), use_rng(
                    est.rng
                ), collect_bn_stats() as journal, record_arrival(
                    arrival if vrank == 0 else None, self._param_names_by_id
                ):
                    loss = step_fn(batch)
                losses[vrank] = loss.item()
                journals[vrank] = journal
                grads_by_vrank[vrank] = self.elastic_ddp.buckets.flatten_into_buckets(
                    {n: p.grad for n, p in self._named_params.items() if p.grad is not None},
                    lambda _bucket, elems: np.empty(elems, np.float32),
                )

        ordered = [grads_by_vrank[v] for v in range(self.num_ests)]
        averaged = self.elastic_ddp.synchronize(ordered)
        for name, grad in averaged.items():
            self._named_params[name].grad = grad
        for vrank in range(self.num_ests):
            for layer, mean, var in journals[vrank]:
                layer.fold_stats(mean, var)
        self.optimizer.step()
        self.model.zero_grad()
        if arrival is not None:
            self.elastic_ddp.maybe_reconstruct(arrival)
        self.global_step += 1
        return [losses[v] for v in range(self.num_ests)]

    # ------------------------------------------------------------------
    # elasticity
    # ------------------------------------------------------------------
    def reassign(self, assignment: WorkerAssignment) -> None:
        """Scale in/out in place (the session owns no processes to restart,
        so unlike the engine this is just a mapping change — state is
        already fully captured by the ESTs + shared replica)."""
        if assignment.num_ests != self.num_ests:
            raise ValueError("new assignment must cover the same EST count")
        self.assignment = assignment

    def checkpoint(self) -> Checkpoint:
        return Checkpoint(
            est_contexts=[est.save_context().to_state() for est in self.ests],
            extra={
                "global_step": self.global_step,
                "bucket_mapping": self.elastic_ddp.export_mapping(),
                "determinism": self.determinism.label,
            },
            params={
                "model": self.model.state_dict(),
                "optimizer": self.optimizer.state_dict(),
            },
            meta={"num_ests": self.num_ests, "seed": self.seed},
        )

    def restore(self, ckpt: Checkpoint) -> None:
        if ckpt.num_ests != self.num_ests:
            raise ValueError("checkpoint EST count mismatch")
        self.model.load_state_dict(ckpt.params["model"])
        self.optimizer.load_state_dict(ckpt.params["optimizer"])
        for est in self.ests:
            est.load_context(ckpt.context_for(est.vrank))
        self.elastic_ddp.import_mapping(ckpt.extra.get("bucket_mapping"))
        self.global_step = int(ckpt.extra["global_step"])
