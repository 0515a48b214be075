"""Distributed sampling keyed by *virtual* rank.

The sampler is where EasyScale's decoupling becomes concrete: samples are
sharded over the **number of logical workers (ESTs)**, never over physical
GPUs.  EST ``i`` of ``n`` receives the same index stream whether it runs on
its own V100 or time-slices a T4 with three siblings — so the mini-batch
contents (and therefore gradients) are independent of allocation.

Semantics mirror ``torch.utils.data.DistributedSampler``: a seeded
permutation per epoch, padded with wrapped-around indices so every rank
gets the same number of samples, then strided sharding.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

import numpy as np

from repro.utils.rng import derive_seed


class DistributedSampler:
    """Per-rank deterministic index stream for one epoch."""

    def __init__(
        self,
        dataset_len: int,
        num_replicas: int,
        rank: int,
        shuffle: bool = True,
        seed: int = 0,
    ) -> None:
        if num_replicas <= 0:
            raise ValueError(f"num_replicas must be positive, got {num_replicas}")
        if not 0 <= rank < num_replicas:
            raise ValueError(f"rank {rank} out of range for {num_replicas} replicas")
        if dataset_len <= 0:
            raise ValueError("dataset_len must be positive")
        self.dataset_len = dataset_len
        self.num_replicas = num_replicas
        self.rank = rank
        self.shuffle = shuffle
        self.seed = seed
        self.epoch = 0
        self.num_samples = -(-dataset_len // num_replicas)  # ceil
        self.total_size = self.num_samples * num_replicas
        #: the latest epoch's padded global order, ``{epoch: order}``; the
        #: samplers :meth:`replicas` builds share one, so a job draws each
        #: epoch's permutation once, not once per rank
        self._orders: Dict[int, np.ndarray] = {}

    @classmethod
    def replicas(
        cls, dataset_len: int, num_replicas: int, seed: int = 0
    ) -> List["DistributedSampler"]:
        """One sampler per rank, all reading the same per-epoch permutation."""
        samplers = [
            cls(dataset_len, num_replicas, rank, seed=seed)
            for rank in range(num_replicas)
        ]
        for sampler in samplers:
            sampler._orders = samplers[0]._orders
        return samplers

    def set_epoch(self, epoch: int) -> None:
        """Reseed the shuffle for a new epoch (same call as PyTorch DDP).

        The epoch is the *only* input (besides the fixed seed) to
        ``_global_order``, so a malformed value here silently changes
        every rank's index stream — validate instead of coercing.
        """
        if isinstance(epoch, bool) or not isinstance(epoch, (int, np.integer)):
            raise TypeError(
                f"epoch must be an integer, got {type(epoch).__name__}"
            )
        if epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch}")
        self.epoch = int(epoch)

    def _global_order(self) -> np.ndarray:
        if self.shuffle:
            rng = np.random.Generator(np.random.PCG64(derive_seed(self.seed, "epoch", self.epoch)))
            order = rng.permutation(self.dataset_len)
        else:
            order = np.arange(self.dataset_len)
        # pad by wrapping (cyclically, so it works even when the pad
        # exceeds the dataset size) so total is divisible by num_replicas
        if self.total_size > self.dataset_len:
            order = np.resize(order, self.total_size)
        return order

    def indices(self) -> np.ndarray:
        """This rank's index stream for the current epoch (a read-only view)."""
        order = self._orders.get(self.epoch)
        if order is None:
            order = self._global_order()
            order.setflags(write=False)  # every rank's batches are views of it
            self._orders.clear()
            self._orders[self.epoch] = order
        return order[self.rank :: self.num_replicas]

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices().tolist())

    def __len__(self) -> int:
        return self.num_samples


class BatchPlan:
    """The per-epoch mini-batch schedule of one virtual rank.

    ``batch(step)`` returns the sample indices of global step ``step`` for
    this rank.  All ranks have the same number of steps per epoch (drop_last
    semantics), so global steps line up across ESTs — the precondition for
    synchronized gradient aggregation.
    """

    def __init__(self, sampler: DistributedSampler, batch_size: int) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.sampler = sampler
        self.batch_size = batch_size

    @property
    def steps_per_epoch(self) -> int:
        return self.sampler.num_samples // self.batch_size

    def batch(self, step: int) -> np.ndarray:
        if not 0 <= step < self.steps_per_epoch:
            raise IndexError(f"step {step} out of range [0, {self.steps_per_epoch})")
        return self.sampler.indices()[step * self.batch_size : (step + 1) * self.batch_size]

    def batches(self) -> List[np.ndarray]:
        return [self.batch(i) for i in range(self.steps_per_epoch)]
