"""Simulated heterogeneous GPU hardware: devices, memory, timing, clusters."""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "gpu": ["GPUType", "GPU_TYPES", "V100", "P100", "T4", "gpu_type", "type_key",
            "CUDA_CONTEXT_GB"],
    "memory": [
        "EST_CONTEXT_GB", "OutOfMemoryError", "check_fits", "packing_memory_gb",
        "easyscale_memory_gb", "max_packed_workers", "max_easyscale_ests",
    ],
    "timing": [
        "minibatch_time", "static_capability", "context_switch_time", "easyscale_step_time",
        "easyscale_aggregate_throughput", "packing_aggregate_throughput",
    ],
    "cluster": ["Cluster", "Machine", "microbench_cluster", "production_cluster"],
})
