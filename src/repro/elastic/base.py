"""Elastic-training baselines: the systems EasyScale is motivated against.

TorchElastic, ElasticDL, and Pollux adapt the *training configuration* to
the resources at hand — per-worker batch size stays fixed so the global
batch grows with workers, and the learning rate is rescaled (linearly for
TorchElastic's recipe, adaptively for Pollux).  That coupling is exactly
what breaks accuracy consistency: run the same job on 1, 2, 4, 8 GPUs and
you run four *different* optimization problems (Figs. 2–4).

:class:`ElasticBaselineTrainer` implements the shared machinery —
synchronized data-parallel steps over a current world size, checkpoint/
restart on scale events (parameters survive, data order and hyper-params
do not) — while a :class:`ScalingStrategy` supplies each framework's
hyper-parameter policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.comm.allreduce import allreduce_mean
from repro.core.worker import execute_local_step
from repro.data.dataloader import SharedDataLoader
from repro.data.datasets import Dataset
from repro.models.registry import WorkloadSpec
from repro.optim.lr_scheduler import LRScheduler, StepLR
from repro.optim.sgd import SGD
from repro.tensor.kernels import D0_POLICY
from repro.utils.rng import RNGBundle, derive_seed


class ScalingStrategy:
    """Maps (world size, training feedback) → (learning rate, batch size)."""

    name = "abstract"

    def configure(
        self, world_size: int, base_lr: float, base_batch: int, feedback: Dict[str, float]
    ) -> Tuple[float, int]:
        """Return (learning rate, per-worker batch size) for a segment."""
        raise NotImplementedError


@dataclass
class TrainSegment:
    """A stretch of training at a fixed world size (between scale events)."""

    world_size: int
    epochs: int


class ElasticBaselineTrainer:
    """Data-parallel training whose hyper-params track the world size."""

    def __init__(
        self,
        spec: WorkloadSpec,
        dataset: Dataset,
        strategy: ScalingStrategy,
        base_lr: float = 0.05,
        base_batch: int = 8,
        seed: int = 0,
        gamma: float = 0.1,
        lr_step_epochs: int = 20,
    ) -> None:
        self.spec = spec
        self.dataset = dataset
        self.strategy = strategy
        self.base_lr = base_lr
        self.base_batch = base_batch
        self.seed = seed
        self.model = spec.build_model(RNGBundle(derive_seed(seed, "model")))
        self.optimizer = SGD(self.model.named_parameters(), lr=base_lr, momentum=0.9)
        self.scheduler: LRScheduler = StepLR(self.optimizer, step_size=lr_step_epochs, gamma=gamma)
        self._named_params = dict(self.model.named_parameters())
        self.epoch = 0
        self.restarts = 0
        #: strategy feedback: gradient-noise-scale EMA etc.
        self.feedback: Dict[str, float] = {"gns": 1.0}
        self.loss_history: List[float] = []
        self.lr_history: List[float] = []

    # ------------------------------------------------------------------
    def _epoch_loader(self, world_size: int, batch_size: int) -> SharedDataLoader:
        # a restart re-rendezvouses and rebuilds loaders: the shard
        # assignment depends on the *current* world size, unlike EasyScale
        return SharedDataLoader(
            self.dataset,
            num_replicas=world_size,
            batch_size=batch_size,
            seed=derive_seed(self.seed, "restart", self.restarts),
            num_workers=2,
        )

    def _update_feedback(self, per_rank_grads: List[Dict[str, np.ndarray]]) -> None:
        """Estimate the gradient noise scale across workers (Pollux input)."""
        if len(per_rank_grads) < 2:
            return
        names = list(per_rank_grads[0])
        stacked = [
            np.stack([g[name].reshape(-1) for g in per_rank_grads]) for name in names
        ]
        mean_sq = sum(float((s.mean(axis=0) ** 2).sum()) for s in stacked)
        var = sum(float(s.var(axis=0).sum()) for s in stacked)
        gns = var / max(mean_sq, 1e-8)
        self.feedback["gns"] = 0.9 * self.feedback["gns"] + 0.1 * gns

    def train_epoch(self, world_size: int) -> float:
        """One epoch at the given world size; returns mean loss."""
        lr, batch_size = self.strategy.configure(
            world_size, self.scheduler.get_lr() if self.epoch else self.base_lr,
            self.base_batch, self.feedback,
        )
        self.optimizer.lr = lr
        self.lr_history.append(lr)
        loader = self._epoch_loader(world_size, batch_size)
        loader.set_epoch(self.epoch)
        rank_rngs = [
            RNGBundle(derive_seed(self.seed, "elastic-worker", self.restarts, r))
            for r in range(world_size)
        ]
        losses: List[float] = []
        for step in range(loader.steps_per_epoch):
            per_rank_grads: List[Dict[str, np.ndarray]] = []
            journals: List[list] = []
            for rank in range(world_size):
                x, y = loader.load(rank, self.epoch, step)
                loss, grads, journal = execute_local_step(
                    self.model, self.spec, rank_rngs[rank], x, y,
                    dialect="v100", policy=D0_POLICY, micro_batches=1,
                    named_params=self._named_params,
                )
                losses.append(loss)
                per_rank_grads.append(grads)
                journals.append(journal)
            self._update_feedback(per_rank_grads)
            names = per_rank_grads[0].keys()
            for name in names:
                flats = [g[name].reshape(-1) for g in per_rank_grads]
                avg = allreduce_mean(flats, "ring")
                self._named_params[name].grad = avg.reshape(
                    self._named_params[name].data.shape
                )
            for journal in journals:
                for layer, mean, var in journal:
                    layer.fold_stats(mean, var)
            self.optimizer.step()
            self.model.zero_grad()
        self.epoch += 1
        self.scheduler.step()
        return float(np.mean(losses)) if losses else float("nan")

    def run_schedule(self, segments: Sequence[TrainSegment]) -> List[float]:
        """Train through a schedule of (world size, epochs) segments.

        Each segment boundary is a scale event: the framework checkpoints
        parameters, restarts, and re-shards data — as TorchElastic does.
        Returns the per-epoch mean losses.
        """
        epoch_losses: List[float] = []
        for i, segment in enumerate(segments):
            if i > 0:
                self.restarts += 1  # re-rendezvous: data order reshuffles
            for _ in range(segment.epochs):
                epoch_losses.append(self.train_epoch(segment.world_size))
                self.loss_history.append(epoch_losses[-1])
        return epoch_losses
