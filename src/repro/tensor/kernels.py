"""Kernel registry: per-device float32 dialects and deterministic variants.

This module is the numeric heart of the reproduction.  The paper identifies
*operator implementation selection* as a root cause of non-determinism
(§3.3): vendor libraries pick different kernels per GPU type and per
profiling outcome, and different kernels accumulate float32 partial sums in
different orders — bitwise-different results.  Real CUDA is unavailable
here, but float32 non-associativity is a property of IEEE-754, not of GPUs,
so we recreate the exact phenomenon with NumPy:

- each simulated GPU type (**V100 / P100 / T4**) has a *vendor dialect* — a
  distinct accumulation strategy for matmul (and hence conv, which lowers to
  matmul via im2col) and for reductions;
- a **deterministic hardware-agnostic** variant (fixed split-K blocking,
  fixed sequential reduction) stands in for the paper's D2 kernels: the same
  bits on every device type, at a simulated performance penalty;
- an **autotuner** stands in for cuDNN benchmark mode: during a warm-up
  window it cycles candidate variants per input shape ("profiling"), then
  locks in a shape-dependent choice.  Because the warm-up counter resets on
  restart, elasticity changes the chosen kernel — exactly the
  profiling-based non-determinism D0 disables.

``KernelPolicy`` encodes which guarantees are requested; the policy plus
the executing device's dialect fully determine every kernel choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

VENDOR_DIALECTS = ("v100", "p100", "t4")
AGNOSTIC_DIALECT = "agnostic"


@dataclass(frozen=True)
class KernelPolicy:
    """Requested kernel-level determinism guarantees.

    ``disable_autotune``
        D0 ingredient 1: pin kernel selection instead of profiling across
        mini-batches (the analogue of ``torch.backends.cudnn.benchmark=False``).
    ``deterministic_algorithms``
        D0 ingredient 2: forbid "atomic-add" style kernels whose reduction
        order is scheduling-dependent (the analogue of
        ``torch.use_deterministic_algorithms(True)``).
    ``hardware_agnostic``
        D2: use the fixed-order kernels on every device type (pin
        ``algo_id``; fixed SM/thread shape in the paper's terms).
    ``custom_kernel``
        Name of a user-registered D2 GEMM variant (the paper's future-work
        path: "allow the users to customize D2 kernels via Cutlass").
        Consulted only when ``hardware_agnostic`` is set; must have been
        registered via :func:`register_matmul_variant`.
    """

    disable_autotune: bool = True
    deterministic_algorithms: bool = True
    hardware_agnostic: bool = False
    custom_kernel: Optional[str] = None

    def effective_dialect(self, device_dialect: str) -> str:
        if self.hardware_agnostic:
            if self.custom_kernel is not None:
                if self.custom_kernel not in MATMUL_VARIANTS:
                    raise KeyError(
                        f"custom kernel {self.custom_kernel!r} is not registered; "
                        f"call register_matmul_variant first"
                    )
                return self.custom_kernel
            return AGNOSTIC_DIALECT
        if device_dialect not in VENDOR_DIALECTS:
            raise ValueError(f"unknown device dialect {device_dialect!r}")
        return device_dialect


#: Mimics stock PyTorch: cudnn.benchmark on, atomics allowed, vendor kernels.
BASELINE_POLICY = KernelPolicy(
    disable_autotune=False, deterministic_algorithms=False, hardware_agnostic=False
)
#: D0/D1 kernel policy: reproducible on a fixed device type.
D0_POLICY = KernelPolicy(
    disable_autotune=True, deterministic_algorithms=True, hardware_agnostic=False
)
#: D2 kernel policy: bitwise identical across device types.
D2_POLICY = KernelPolicy(
    disable_autotune=True, deterministic_algorithms=True, hardware_agnostic=True
)


# ---------------------------------------------------------------------------
# Matmul variants
# ---------------------------------------------------------------------------
#
# All variants compute C = A @ B for float32 A (m,k), B (k,n); they differ
# only in partial-sum association, which is what flips low-order mantissa
# bits.  The "vendor" variants model tensor-core / split-K / blocked GEMMs.


def _matmul_f64_accumulate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """V100 dialect: high-precision accumulate (tensor-core style FP32->FP64->FP32)."""
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)


def _matmul_f32_direct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """P100 dialect: straight float32 BLAS accumulation."""
    return np.matmul(a.astype(np.float32, copy=False), b.astype(np.float32, copy=False))


def _matmul_splitk(a: np.ndarray, b: np.ndarray, block: int) -> np.ndarray:
    """Split-K GEMM: accumulate K-dimension in ``block``-sized float32 chunks.

    One BLAS call per chunk on views of the operands, partials added in
    place left to right.  Stacking the chunks into one batched ``matmul``
    would route them through NumPy's strided fallback — a different
    accumulation order, different bits.
    """
    a = a.astype(np.float32, copy=False)
    b = b.astype(np.float32, copy=False)
    out = np.matmul(a[..., :block], b[..., :block, :])
    for start in range(block, a.shape[-1], block):
        out += np.matmul(a[..., start : start + block], b[..., start : start + block, :])
    return out


def _matmul_t4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """T4 dialect: split-K with a large block (few low-precision partials)."""
    return _matmul_splitk(a, b, block=max(8, a.shape[-1] // 2))


def _matmul_agnostic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """D2 kernel: fixed split-K block of 16 on every device."""
    return _matmul_splitk(a, b, block=16)


MATMUL_VARIANTS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "v100": _matmul_f64_accumulate,
    "p100": _matmul_f32_direct,
    "t4": _matmul_t4,
    AGNOSTIC_DIALECT: _matmul_agnostic,
}

def register_matmul_variant(
    name: str,
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    validate: bool = True,
) -> None:
    """Register a user-supplied deterministic GEMM as a D2 kernel.

    The paper's future-work hook ("customize D2 kernels via Cutlass"):
    the variant becomes selectable with
    ``KernelPolicy(hardware_agnostic=True, custom_kernel=name)``, and —
    because every device routes to the same function — it preserves D2's
    cross-device bitwise guarantee by construction.

    ``validate`` runs two cheap checks before accepting the kernel:
    numerical agreement with a float64 reference on a probe input, and
    bitwise self-determinism across repeated calls.
    """
    if name in VENDOR_DIALECTS or name == AGNOSTIC_DIALECT:
        raise ValueError(f"variant name {name!r} collides with a built-in dialect")
    if validate:
        rng = np.random.default_rng(0)
        a = rng.normal(size=(13, 37)).astype(np.float32)
        b = rng.normal(size=(37, 11)).astype(np.float32)
        out = fn(a, b)
        ref = a.astype(np.float64) @ b.astype(np.float64)
        if out.shape != (13, 11) or not np.allclose(out, ref, rtol=1e-3, atol=1e-3):
            raise ValueError(f"variant {name!r} failed numerical validation")
        if fn(a, b).tobytes() != out.tobytes():
            raise ValueError(f"variant {name!r} is not self-deterministic")
    MATMUL_VARIANTS[name] = fn


def unregister_matmul_variant(name: str) -> None:
    """Remove a user-registered variant (built-ins are protected)."""
    if name in VENDOR_DIALECTS or name == AGNOSTIC_DIALECT:
        raise ValueError(f"cannot unregister built-in dialect {name!r}")
    MATMUL_VARIANTS.pop(name, None)


def export_matmul_variants() -> Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """The user-registered (non-built-in) D2 GEMM variants.

    Worker processes do not share the parent's registry: a policy with
    ``custom_kernel`` set would hit an unknown-kernel error in a child
    that never ran :func:`register_matmul_variant`.  Execution backends
    export the custom entries here, ship them (pickled) to each child,
    and re-install them via :func:`rehydrate_matmul_variants`.
    """
    return {
        name: fn
        for name, fn in MATMUL_VARIANTS.items()
        if name not in VENDOR_DIALECTS and name != AGNOSTIC_DIALECT
    }


def rehydrate_matmul_variants(
    variants: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]],
) -> None:
    """Install parent-exported variants in a worker process.

    Validation is skipped: the parent already ran the numerical and
    self-determinism checks before shipping, and re-validating in every
    child would add per-process startup cost for no new information.
    Built-in dialect names are ignored defensively.
    """
    for name, fn in variants.items():
        if name in VENDOR_DIALECTS or name == AGNOSTIC_DIALECT:
            continue
        MATMUL_VARIANTS[name] = fn


#: Relative per-op cost of the agnostic kernels vs the vendor kernel, used by
#: the hardware timing model.  Matmul/conv pay heavily (Fig. 12's ~236% conv
#: overhead); elementwise ops pay almost nothing.
AGNOSTIC_SLOWDOWN = {"matmul": 3.4, "conv2d": 3.4, "reduce": 1.05, "elementwise": 1.0}


# ---------------------------------------------------------------------------
# Reduction variants
# ---------------------------------------------------------------------------


def _reduce_pairwise(x: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    """NumPy's default pairwise summation (vendor fast path)."""
    return np.sum(x, axis=axis, keepdims=keepdims, dtype=np.float32)


def _reduce_f64(x: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    """V100 dialect reduction: f64 accumulate then round."""
    return np.sum(x, axis=axis, keepdims=keepdims, dtype=np.float64).astype(np.float32)


def _reduce_sequential(x: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    """D2 reduction: strict left-to-right float32 accumulation.

    Implemented with a fixed-size blocked loop so it stays vectorized but
    has one canonical association on every device.
    """
    x = np.asarray(x, dtype=np.float32)
    if axis is None:
        flat = x.reshape(-1)
        total = np.float32(0.0)
        block = 4096
        for start in range(0, flat.size, block):
            chunk = flat[start : start + block]
            # within-block: left-fold via cumulative add in f32
            total = np.float32(total + np.add.reduce(chunk, dtype=np.float32))
        out = np.float32(total)
        return np.reshape(out, (1,) * x.ndim) if keepdims else np.asarray(out, dtype=np.float32)
    shape = list(x.shape)
    if keepdims:
        shape[axis] = 1
    else:
        del shape[axis]
    # starting from zeros is part of the bits: 0.0 + -0.0 is +0.0
    acc = np.zeros(shape, dtype=np.float32)
    window = [slice(None)] * x.ndim
    block = 64
    for start in range(0, x.shape[axis], block):
        window[axis] = slice(start, start + block)
        acc += np.add.reduce(x[tuple(window)], axis=axis, dtype=np.float32, keepdims=keepdims)
    return acc


REDUCE_VARIANTS: Dict[str, Callable] = {
    "v100": _reduce_f64,
    "p100": _reduce_pairwise,
    "t4": _reduce_pairwise,
    AGNOSTIC_DIALECT: _reduce_sequential,
}


# ---------------------------------------------------------------------------
# Scatter-add (embedding backward): atomic vs deterministic
# ---------------------------------------------------------------------------


def scatter_add_deterministic(target: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
    """Sort-by-index scatter add: one canonical accumulation order."""
    order = np.argsort(indices, kind="stable")
    np.add.at(target, indices[order], values[order])


_atomic_interleave = 0


def scatter_add_atomic(target: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
    """'Atomic' scatter add: accumulation order depends on a scheduling
    counter, modelling GPU atomics whose arrival order is nondeterministic.

    The counter is process-global and untracked by checkpoints, so restarts
    reshuffle the order — which is precisely why D0 forbids these kernels.
    """
    global _atomic_interleave
    _atomic_interleave += 1
    n = len(indices)
    if n == 0:
        return
    stride = (_atomic_interleave % 7) + 2
    order = np.concatenate([np.arange(start, n, stride) for start in range(stride)])
    np.add.at(target, indices[order], values[order])


# ---------------------------------------------------------------------------
# Autotuner (cudnn.benchmark analogue)
# ---------------------------------------------------------------------------


class Autotuner:
    """Profiling-based kernel selection across mini-batches.

    For each (op, shape-signature) it "profiles" for ``warmup`` calls by
    cycling through candidate variants, then locks a shape-hash-dependent
    choice.  State is process-local and never checkpointed; a restart
    re-profiles and may lock a different phase — recreating the
    elastic-restart kernel churn the paper observed.
    """

    def __init__(self, warmup: int = 3) -> None:
        self.warmup = warmup
        self._calls: Dict[Tuple[str, Tuple[int, ...]], int] = {}

    def reset(self) -> None:
        """Forget all profiling state (what a worker restart does)."""
        self._calls.clear()

    def choose(self, op: str, signature: Tuple[int, ...], candidates: List[str]) -> str:
        key = (op, signature)
        count = self._calls.get(key, 0)
        self._calls[key] = count + 1
        if count < self.warmup:
            return candidates[count % len(candidates)]
        return candidates[hash(signature) % len(candidates)]


_GLOBAL_AUTOTUNER = Autotuner()


def global_autotuner() -> Autotuner:
    """The process-wide autotuner (reset it to model a worker restart)."""
    return _GLOBAL_AUTOTUNER


# ---------------------------------------------------------------------------
# Dispatch entry points used by ops.py
# ---------------------------------------------------------------------------


def matmul(a: np.ndarray, b: np.ndarray, *, dialect: str, policy: KernelPolicy) -> np.ndarray:
    """Dispatch a GEMM according to policy + device dialect."""
    eff = policy.effective_dialect(dialect)
    if not policy.disable_autotune and not policy.hardware_agnostic:
        candidates = list(VENDOR_DIALECTS)
        eff = _GLOBAL_AUTOTUNER.choose("matmul", tuple(a.shape) + tuple(b.shape), candidates)
    return MATMUL_VARIANTS[eff](a, b)


def reduce_sum(
    x: np.ndarray, axis=None, keepdims: bool = False, *, dialect: str, policy: KernelPolicy
) -> np.ndarray:
    """Dispatch a sum-reduction according to policy + device dialect."""
    eff = policy.effective_dialect(dialect)
    if not policy.deterministic_algorithms and not policy.hardware_agnostic:
        # Atomic-style reductions: emulate scheduling-dependent association
        # by reducing over a counter-dependent permutation of the axis.
        return _reduce_atomic(x, axis, keepdims)
    # custom D2 variants supply a GEMM only; reductions use the agnostic one
    if eff not in REDUCE_VARIANTS:
        eff = AGNOSTIC_DIALECT
    return REDUCE_VARIANTS[eff](x, axis, keepdims)


def _reduce_atomic(x: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    global _atomic_interleave
    _atomic_interleave += 1
    x = np.asarray(x, dtype=np.float32)
    if axis is None:
        flat = x.reshape(-1)
        stride = (_atomic_interleave % 5) + 2
        order = np.concatenate([np.arange(s, flat.size, stride) for s in range(stride)])
        out = np.add.reduce(flat[order], dtype=np.float32)
        return np.reshape(out, (1,) * x.ndim) if keepdims else np.asarray(out, dtype=np.float32)
    moved = np.moveaxis(x, axis, -1)
    stride = (_atomic_interleave % 5) + 2
    n = moved.shape[-1]
    order = np.concatenate([np.arange(s, n, stride) for s in range(stride)])
    out = np.add.reduce(moved[..., order], axis=-1, dtype=np.float32)
    if keepdims:
        out = np.expand_dims(out, axis)
    return out


def scatter_add(
    target: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    *,
    policy: KernelPolicy,
) -> None:
    """Dispatch embedding-style gradient scatter according to policy."""
    if policy.deterministic_algorithms:
        scatter_add_deterministic(target, indices, values)
    else:
        scatter_add_atomic(target, indices, values)
