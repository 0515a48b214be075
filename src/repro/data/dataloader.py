"""Data loading with shared data workers and the queuing buffer (Fig. 7).

PyTorch launches ``num_workers`` CPU processes *per training worker*; naive
elasticity would launch ``num_workers x nEST`` processes when ESTs pack
onto few GPUs (the paper's example: 8 workers x 16 ESTs = 128 processes).
EasyScale instead shares one pool per EasyScale worker, because only one
EST computes at a time, so the consumption rate matches a single worker's.

Determinism contract: the augmented bytes of (EST ``i``, epoch ``e``, step
``t``) are a pure function of the job seed — *not* of which pool worker ran
the transform, how far ahead the pool prefetched, or how many physical
GPUs exist.  The pool realizes this by handing each mini-batch task an RNG
state drawn from the :class:`QueuingBuffer`; states for prefetched-but-
unconsumed batches are part of the checkpoint's extra state, so a resumed
job replays identical augmentation.

What is a pure function is computed once: a data worker gathers samples
through :meth:`Dataset.gather` (built on first touch, then one fancy-index
copy per batch), the loader's ranks share one permutation per epoch, and
a batch nobody prefetched derives its RNG state on demand — only if a
transform is about to draw from it (``int64`` inputs and transform-less
jobs never do).  The queue entry is consumed either way, so ``pending()``
and the checkpoint bytes do not depend on whether anything drew.

The pool also carries an explicit *timing model* (worker launch latency,
per-sample cost) so the benchmarks can report the paper's first-batch
latency effect (§5.1.2: sharing cut first-mini-batch time by 67.1% by
launching 4 instead of 32 workers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.data.datasets import Dataset
from repro.data.sampler import BatchPlan, DistributedSampler
from repro.data.transforms import Transform
from repro.utils.rng import derive_seed


BatchKey = Tuple[int, int, int]  # (est_rank, epoch, step)


def batch_rng_state(seed: int, est_rank: int, epoch: int, step: int) -> Dict[str, Any]:
    """Initial RNG state for one mini-batch's augmentation.

    Derived from (seed, est, epoch, step) only — the core of worker-sharing
    determinism.
    """
    bitgen = np.random.PCG64(derive_seed(seed, "databatch", est_rank, epoch, step))
    return bitgen.state


class QueuingBuffer:
    """Tracks RNG states of produced-but-unconsumed mini-batches.

    Data workers run ahead of training; any batch they have produced whose
    EST has not consumed it yet must have its state recorded so a
    checkpoint/restore replays it identically.  ``pending()`` is what the
    on-demand checkpoint embeds as extra state.
    """

    def __init__(self) -> None:
        self._states: Dict[BatchKey, Dict[str, Any]] = {}

    def commit(self, key: BatchKey, state: Dict[str, Any]) -> None:
        if key in self._states:
            raise KeyError(f"batch {key} already committed")
        self._states[key] = state

    def consume(self, key: BatchKey) -> Dict[str, Any]:
        try:
            return self._states.pop(key)
        except KeyError:
            raise KeyError(f"batch {key} was never produced") from None

    def pending(self) -> Dict[BatchKey, Dict[str, Any]]:
        return dict(self._states)

    def restore(self, states: Dict[BatchKey, Dict[str, Any]]) -> None:
        self._states = dict(states)

    def __len__(self) -> int:
        return len(self._states)


@dataclass
class DataWorker:
    """One simulated CPU data worker (Ri-j in Fig. 7)."""

    worker_id: int
    batches_processed: int = 0

    def process(
        self,
        dataset: Dataset,
        indices: np.ndarray,
        transform: Optional[Transform],
        rng_state: Callable[[], Dict[str, Any]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Materialize one mini-batch under the handed-in RNG state.

        ``rng_state()`` is called only when the transform is about to
        draw; samples are augmented in batch order from that one stream.
        """
        x_batch, y_batch = dataset.gather(indices)
        if transform is not None and x_batch.dtype != np.int64:
            rng = np.random.Generator(np.random.PCG64(0))
            rng.bit_generator.state = rng_state()
            x_batch = np.stack([transform(x, rng) for x in x_batch])
        self.batches_processed += 1
        return x_batch, y_batch


@dataclass(frozen=True)
class LoaderTiming:
    """Cost model for the latency benchmarks (seconds)."""

    worker_launch_time: float = 0.5
    per_sample_time: float = 0.002

    def first_batch_latency(self, num_workers: int, batch_size: int) -> float:
        """Time to first batch: launch all workers, then parallel processing."""
        if num_workers <= 0:
            raise ValueError("need at least one data worker")
        launch = self.worker_launch_time * num_workers
        processing = self.per_sample_time * batch_size  # one batch, one worker
        return launch + processing

    def steady_batch_latency(self, num_workers: int, batch_size: int) -> float:
        return self.per_sample_time * batch_size / num_workers


class SharedDataLoader:
    """Elastic data loader: one worker pool shared by all local ESTs.

    ``load(est_rank, epoch, step)`` returns the mini-batch for that EST's
    global step.  Workers are assigned round-robin, the batch's RNG state
    comes from the queuing buffer (prefetch) or is derived on demand.
    """

    def __init__(
        self,
        dataset: Dataset,
        num_replicas: int,
        batch_size: int,
        seed: int,
        num_workers: int = 2,
        transform: Optional[Transform] = None,
        shuffle: bool = True,
        timing: LoaderTiming = LoaderTiming(),
    ) -> None:
        self.dataset = dataset
        self.num_replicas = num_replicas
        self.batch_size = batch_size
        self.seed = seed
        self.transform = transform
        self.shuffle = shuffle
        self.timing = timing
        self.workers = [DataWorker(i) for i in range(num_workers)]
        self._next_worker = 0
        self.queue = QueuingBuffer()
        self._plans: Dict[int, BatchPlan] = {
            sampler.rank: BatchPlan(sampler, batch_size)
            for sampler in DistributedSampler.replicas(
                len(dataset), num_replicas, shuffle=shuffle, seed=seed
            )
        }

    @property
    def steps_per_epoch(self) -> int:
        return self._plans[0].steps_per_epoch

    def set_epoch(self, epoch: int) -> None:
        for plan in self._plans.values():
            plan.sampler.set_epoch(epoch)

    def prefetch(self, est_rank: int, epoch: int, step: int) -> None:
        """Simulate a data worker running ahead: commit the batch state."""
        key = (est_rank, epoch, step)
        self.queue.commit(key, batch_rng_state(self.seed, est_rank, epoch, step))

    def load(self, est_rank: int, epoch: int, step: int) -> Tuple[np.ndarray, np.ndarray]:
        if not 0 <= est_rank < self.num_replicas:
            raise IndexError(f"est_rank {est_rank} out of range")
        with obs.span("data.load", cat="data", vrank=est_rank, epoch=epoch, step=step):
            plan = self._plans[est_rank]
            plan.sampler.set_epoch(epoch)
            indices = plan.batch(step)
            key = (est_rank, epoch, step)
            try:
                prefetched = self.queue.consume(key)
            except KeyError:
                prefetched = None

            def rng_state() -> Dict[str, Any]:
                if prefetched is not None:
                    return prefetched
                return batch_rng_state(self.seed, *key)

            worker = self.workers[self._next_worker]
            self._next_worker = (self._next_worker + 1) % len(self.workers)
            return worker.process(self.dataset, indices, self.transform, rng_state)

    # ------------------------------------------------------------------
    # checkpoint plumbing (extra state)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        return {"pending": self.queue.pending()}

    def import_state(self, state: Dict[str, Any]) -> None:
        self.queue.restore(state["pending"])
