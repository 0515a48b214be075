"""NumPy-backed autograd tensor library with a device-dialect kernel registry."""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "tensor": ["Tensor", "no_grad", "grad_enabled"],
    "context": ["ExecContext", "current_context", "execution_context"],
    "kernels": [
        "BASELINE_POLICY", "D0_POLICY", "D2_POLICY", "KernelPolicy", "global_autotuner",
        "register_matmul_variant", "unregister_matmul_variant",
    ],
})
