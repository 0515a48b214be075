"""Figure 12 — The overhead of ensuring accuracy-consistency.

Paper: per-iteration time normalized to stock PyTorch, for each workload
on V100 / P100 / T4.  D1 (elastic determinism) costs <1% everywhere.
D1+D2 (hardware-agnostic kernels) also costs ~1% for the GEMM/attention
models (NeuMF, Bert, Electra, SwinTransformer) but ~236% on average for
the conv models (ShuffleNetV2, ResNet50, VGG19, YOLOv3), whose vendor
convolution kernels D2 must disable.

Regenerates: the normalized-time table from the calibrated timing model,
plus two *measured* wall-clock comparisons on this machine: the real
vendor vs. agnostic GEMM kernels in isolation (the slowdown is genuine,
not just a model constant), and the whole ResNet-18 training step under
D1 vs D1+D2 on each simulated GPU type.  The second number is the NumPy
substrate's own Fig. 12 and it does *not* reproduce the analytical 3.4x:
see ``measure_step_overhead``.
"""

import time

import numpy as np

from repro.core import (
    EasyScaleEngine,
    EasyScaleJobConfig,
    WorkerAssignment,
    determinism_from_label,
)
from repro.hw import P100, T4, V100, minibatch_time
from repro.models import TABLE1, get_workload
from repro.optim import SGD
from repro.tensor import kernels
from repro.tensor.kernels import AGNOSTIC_SLOWDOWN, D0_POLICY, D2_POLICY

from benchmarks.conftest import print_header, print_table, smoke_scale

GPUS = (V100, P100, T4)
CONV_MODELS = {"shufflenetv2", "resnet50", "vgg19", "yolov3"}


def model_table():
    rows = []
    for name in TABLE1:
        spec = get_workload(name)
        row = {"model": name}
        for gpu in GPUS:
            base = 1.0 / spec.throughput[gpu.name.lower()]
            row[f"{gpu.name}_d1"] = minibatch_time(spec, gpu, D0_POLICY) / base
            row[f"{gpu.name}_d1d2"] = minibatch_time(spec, gpu, D2_POLICY) / base
        rows.append(row)
    return rows


def measure_kernel_slowdown(size=192, repeats=5):
    """Wall-clock the real NumPy kernels: vendor dialect vs D2 agnostic.

    Returns ``(slowdown_ratio, vendor_seconds, agnostic_seconds)`` —
    min-of-repeats timings of a 20-matmul loop per policy.
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(size, size)).astype(np.float32)
    b = rng.normal(size=(size, size)).astype(np.float32)

    def clock(policy):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(20):
                kernels.matmul(a, b, dialect="p100", policy=policy)
            best = min(best, time.perf_counter() - start)
        return best

    vendor = clock(D0_POLICY)
    agnostic = clock(D2_POLICY)
    return agnostic / vendor, vendor, agnostic


def measure_step_overhead(steps=None):
    """Wall-clock whole ResNet-18 global steps: D1 vs D1+D2, per GPU type.

    The ``train_conv_serial`` shape of ``benchmarks/e2e`` (4 ESTs on 2
    GPUs, batch 8), one warm-up step, then the median of ``steps``
    interleaved steps per configuration.  Returns
    ``{gpu: (d1_seconds, d1d2_seconds)}``.

    Where this disagrees with the analytical table — and it does, by an
    order of magnitude — the table is the paper's hardware and this is
    ours: ``AGNOSTIC_SLOWDOWN`` models losing cuDNN's fused convolution
    kernels on a GPU, while on the NumPy substrate "vendor" and "agnostic"
    are both im2col + BLAS and differ only in how K is split (V100: one
    float64 GEMM with two operand up-casts; agnostic: ceil(K/16) float32
    GEMMs), at matrix sizes where per-call overhead, not arithmetic, is
    the cost.  The scheduler experiments keep using the analytical
    constant (they model GPUs); this number is what ``repro train`` pays.
    """
    steps = steps or smoke_scale(16, 4)
    spec = get_workload("resnet18")
    dataset = spec.build_dataset(256, seed=7)
    out = {}
    for gpu in GPUS:
        engines = [
            EasyScaleEngine(
                spec, dataset,
                EasyScaleJobConfig(num_ests=4, seed=7, batch_size=8,
                                   determinism=determinism_from_label(label)),
                lambda model: SGD(model.named_parameters(), lr=0.05, momentum=0.9),
                WorkerAssignment.balanced([gpu] * 2, 4),
            )
            for label in ("D1", "D1+D2")
        ]
        samples = [[], []]
        # the two configurations take turns step by step, so a slow phase
        # of the host lands on both
        for step in range(1 + steps):
            for engine, seconds in zip(engines, samples):
                start = time.perf_counter()
                engine.run_global_step()
                if step:  # step 0 warms up
                    seconds.append(time.perf_counter() - start)
        out[gpu.name] = tuple(float(np.median(seconds)) for seconds in samples)
    return out


def run_experiment():
    return model_table(), measure_kernel_slowdown(), measure_step_overhead()


def test_fig12_determinism_overhead(run_once):
    rows, (measured_slowdown, _, _), step_seconds = run_once(run_experiment)

    print_header("Figure 12: per-iteration time normalized to stock PyTorch")
    print_table(
        ["model"]
        + [f"{g.name} {lvl}" for g in GPUS for lvl in ("D1", "D1+D2")],
        [
            [r["model"]]
            + [f"{r[f'{g.name}_{k}']:.3f}" for g in GPUS for k in ("d1", "d1d2")]
            for r in rows
        ],
        fmt="11",
    )

    conv_overhead = np.mean(
        [r["V100_d1d2"] - 1.0 for r in rows if r["model"] in CONV_MODELS]
    )
    light_overhead = np.mean(
        [r["V100_d1d2"] - 1.0 for r in rows if r["model"] not in CONV_MODELS]
    )
    print(f"\nD1+D2 mean overhead: conv models +{100 * conv_overhead:.0f}% "
          f"(paper: +236%), others +{100 * light_overhead:.1f}% (paper: <1%)")
    print(f"measured agnostic-vs-vendor GEMM slowdown on this host: "
          f"x{measured_slowdown:.2f} (the D2 cost is a real kernel property)")

    print_header("Measured on the NumPy substrate: whole ResNet-18 step, D1 vs D1+D2")
    print_table(
        ["GPU dialect", "D1 ms", "D1+D2 ms", "measured", "analytical"],
        [
            [name, f"{1e3 * d1:.1f}", f"{1e3 * d1d2:.1f}", f"x{d1d2 / d1:.2f}",
             f"x{AGNOSTIC_SLOWDOWN['conv2d']:.1f}"]
            for name, (d1, d1d2) in step_seconds.items()
        ],
        fmt="11",
    )
    print("the two columns disagree, and should: the analytical one models losing cuDNN's "
          "fused conv kernels on a GPU; here both sides are im2col + BLAS on small matrices, "
          "the step is bound by per-call overhead, and D2 moves it by percent either way "
          "(the V100 dialect's float64 up-cast can cost more than the agnostic split-K)")

    for r in rows:
        for gpu in GPUS:
            assert r[f"{gpu.name}_d1"] < 1.01, "D1 must stay under 1%"
            if r["model"] in CONV_MODELS:
                assert r[f"{gpu.name}_d1d2"] > 2.0
            else:
                assert r[f"{gpu.name}_d1d2"] < 1.02
    # min-of-5 repeats makes this robust to background load; the observed
    # ratio is ~2x, so 1.1 leaves wide margin while still proving the cost
    assert measured_slowdown > 1.1, "agnostic split-K GEMM should be measurably slower"

    for name, (d1, d1d2) in step_seconds.items():
        # a whole-step D2 cost anywhere near the GPU figure would mean the
        # substrate's agnostic path regressed
        assert d1d2 / d1 < AGNOSTIC_SLOWDOWN["conv2d"], name
