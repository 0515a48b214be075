"""ElasticDDP: gradient aggregation over virtual ranks (§3.3 D1, §4).

The C++ library of the paper ("supports communication among multiple ESTs
for all-reducing gradients and building communication buckets consistently
during resource elasticity") maps to this module:

- gradients of all ``nEST`` logical workers are aggregated with the same
  ring association DDP-with-nEST-GPUs would use — over **virtual** ranks,
  so the physical worker count never enters the arithmetic;
- the bucket mapping starts in reverse-registration order, is rebuilt by
  arrival order after the job's very first mini-batch (matching DDP), and
  from then on is **pinned**: under D1 it is recorded in checkpoints and
  reinstated on restore with reconstruction disabled; without D1 a restore
  falls back to the initial mapping and re-runs reconstruction — the exact
  failure mode that makes D0 diverge after its first scale event (Fig. 9).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.comm.allreduce import allreduce_mean
from repro.comm.bucketing import (
    BucketAssignment,
    FlatGrads,
    build_initial_buckets,
    rebuild_from_arrival,
)


class ElasticDDP:
    """Bucketed virtual-rank gradient synchronization."""

    def __init__(
        self,
        param_order: Sequence[str],
        param_sizes: Mapping[str, int],
        param_shapes: Mapping[str, Tuple[int, ...]],
        num_ests: int,
        bucket_capacity_elems: int = 2048,
        allreduce_algorithm: str = "ring",
        record_mapping: bool = True,
    ) -> None:
        if num_ests <= 0:
            raise ValueError("num_ests must be positive")
        self.param_order = list(param_order)
        self.param_sizes = dict(param_sizes)
        self.param_shapes = dict(param_shapes)
        self.num_ests = num_ests
        self.capacity = bucket_capacity_elems
        self.algorithm = allreduce_algorithm
        self.record_mapping = record_mapping
        self.forget_mapping()

    def forget_mapping(self) -> None:
        """(Re)start from the reverse-registration mapping, unreconstructed.

        The state of a fresh process — and what a scale event leaves a job
        without D1 in, since nothing recorded the mapping across it.
        """
        self.buckets = build_initial_buckets(self.param_order, self.param_sizes, self.capacity)
        #: True once arrival-order reconstruction has happened (or has been
        #: restored from a checkpoint) — reconstruction runs at most once
        self.reconstructed = False

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def synchronize(self, flats_by_vrank: Sequence[FlatGrads]) -> Dict[str, np.ndarray]:
        """All-reduce-average flat gradient buckets across virtual ranks.

        ``flats_by_vrank[i]`` must be EST ``i``'s buckets as its local step
        handed them over (:meth:`BucketAssignment.flatten_into_buckets`);
        the list order *is* the communication rank order, so callers must
        pass virtual ranks 0..nEST-1 regardless of which workers produced
        them.  The flats are only read, so they may be read-only views of
        a transport's slab; the averaged gradients own their memory.
        """
        if len(flats_by_vrank) != self.num_ests:
            raise ValueError(
                f"expected gradients from {self.num_ests} ESTs, got {len(flats_by_vrank)}"
            )
        averaged: Dict[str, np.ndarray] = {}
        for (bucket_idx, names), first in flats_by_vrank[0].items():
            elems = first.size
            with obs.span(
                "ddp.bucket_reduce", cat="comm", bucket=bucket_idx, elems=elems
            ):
                # a vrank that packed this bucket otherwise is a KeyError
                flats = [theirs[bucket_idx, names] for theirs in flats_by_vrank]
                reduced = allreduce_mean(flats, self.algorithm)
                # unflatten_bucket returns owning copies: the averaged grads
                # outlive the flats, which the next step overwrites
                averaged.update(
                    BucketAssignment([list(names)]).unflatten_bucket(
                        0, reduced, self.param_shapes
                    )
                )
            if obs.is_enabled():
                obs.metrics().histogram(
                    "ddp_bucket_elems",
                    buckets=(256, 512, 1024, 2048, 4096, 8192, 16384, 65536),
                ).observe(elems)
        return averaged

    # ------------------------------------------------------------------
    # bucket reconstruction (DDP-compatible)
    # ------------------------------------------------------------------
    def maybe_reconstruct(self, arrival_order: Sequence[str]) -> bool:
        """Rebuild buckets from gradient arrival order, once per process
        lifetime (mirrors DDP's end-of-first-iteration rebuild).  Returns
        True if a rebuild happened."""
        if self.reconstructed:
            return False
        missing = [n for n in self.param_order if n not in arrival_order]
        self.buckets = rebuild_from_arrival(
            list(arrival_order) + missing, self.param_sizes, self.capacity
        )
        self.reconstructed = True
        return True

    # ------------------------------------------------------------------
    # D1 checkpoint plumbing
    # ------------------------------------------------------------------
    def export_mapping(self) -> Optional[Dict[str, object]]:
        """Bucket state for the checkpoint (None when D1 is off)."""
        if not self.record_mapping:
            return None
        return {"buckets": self.buckets.to_state(), "reconstructed": self.reconstructed}

    def import_mapping(self, state: Optional[Mapping[str, object]]) -> None:
        """Reinstate a recorded mapping and disable reconstruction (D1).

        With no recorded state (D0 restore), the mapping stays at the
        initial reverse-registration order and reconstruction re-runs
        after the next mini-batch — the divergence source of Fig. 9.
        """
        if state is None:
            return
        self.buckets = BucketAssignment.from_state(state["buckets"])  # type: ignore[arg-type]
        self.reconstructed = bool(state["reconstructed"])
