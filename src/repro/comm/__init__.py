"""Simulated collective communication: allreduce algorithms + bucketing."""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "allreduce": [
        "ALGORITHMS", "allreduce_mean", "ring_allreduce_sum", "tree_allreduce_sum",
        "sequential_allreduce_sum",
    ],
    "bucketing": [
        "BucketAssignment", "FlatBufferCache", "build_initial_buckets", "rebuild_from_arrival",
    ],
})
