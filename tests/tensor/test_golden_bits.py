"""The parent's bits, pinned: a refactor of ``repro.tensor`` may not move one.

The benchmark's ``correct`` flag and the D0/D1/D2 audit tests compare two
runs of the *same* code, so they cannot catch a substrate change that
moves both sides.  ``GOLDEN`` was recorded at the commit *before* the
fused batch-norm / conv / mean nodes landed (PR 17's parent, 375efa5):
per model and kernel configuration a sha256 over two iterations' loss,
parameter gradients and buffers, per model the order in which leaf
parameters received their gradient (it feeds DDP's ``rebuild_from_arrival``
and so decides bucket layout), and the final ``EasyScaleEngine``
fingerprint of the ``train_conv_serial`` benchmark configuration.  Two
entries were added later, each recorded at the parent of the PR that first
touched the code they pin (PR 24's parent, 784bf59, existing values
reproduced in the same run): ``swintransformer`` and ``"engine neumf
elastic"``, the ``train_rec_elastic`` configuration.  The two ``"baseline
..."`` entries pin the TorchElastic / Pollux trainer of Figs 2–4 (state,
per-epoch losses and learning rates), recorded at 3957255 the same way,
before that trainer moved onto the engine's one local step.

GEMM bits depend on the BLAS build and the kernels it picks for this CPU,
so the table carries a ``STAMP``; on any other stamp every test here
skips with that reason rather than passing or failing on someone else's
bits.  Re-record (only from a commit whose bits are trusted) with
``PYTHONPATH=src python tests/tensor/test_golden_bits.py``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.models import get_workload
from repro.nn import use_rng
from repro.tensor import D0_POLICY, D2_POLICY, execution_context, global_autotuner
from repro.tensor.tensor import leaf_grad_hook
from repro.utils.fingerprint import fingerprint_state_dict
from repro.utils.rng import RNGBundle

MODELS = (
    "resnet18", "resnet50", "vgg19", "shufflenetv2", "yolov3", "neumf", "electra",
    "swintransformer",
)
CONFIGS = {
    "v100/D0": ("v100", D0_POLICY),
    "p100/D0": ("p100", D0_POLICY),
    "t4/D0": ("t4", D0_POLICY),
    "v100/D2": ("v100", D2_POLICY),
}
BATCH = 4


def _blas_probe() -> str:
    """Digest of a few fixed GEMMs/sums: what this BLAS does on this CPU."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(16, 72)).astype(np.float32)
    b = rng.normal(size=(4, 72, 130)).astype(np.float32)
    h = hashlib.sha256()
    h.update(np.matmul(a, b).tobytes())
    h.update(np.matmul(a[:, :16], b[:, :16, :]).tobytes())
    h.update((a.astype(np.float64) @ b.astype(np.float64)).tobytes())
    h.update(np.sum(b, axis=2, dtype=np.float32).tobytes())
    return h.hexdigest()[:16]


def current_stamp() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"numpy {np.__version__} / {blas.get('name')} {blas.get('version')} / "
        f"probe {_blas_probe()}"
    )


def model_bits(model_name: str, dialect: str, policy) -> Tuple[str, List[str]]:
    """(sha256 of two iterations' loss + grads + buffers, leaf arrival order)."""
    spec = get_workload(model_name)
    rng = RNGBundle(7)
    model = spec.build_model(rng.spawn("model"))
    dataset = spec.build_dataset(2 * BATCH, seed=7)
    names = {id(param): name for name, param in model.named_parameters()}
    arrival: List[str] = []
    digest = hashlib.sha256()
    global_autotuner().reset()
    with execution_context(dialect, policy), use_rng(rng.spawn("framework")):
        for iteration in range(2):
            xs, ys = zip(*[dataset[iteration * BATCH + i] for i in range(BATCH)])
            model.zero_grad()
            loss = spec.forward_loss(model, np.stack(xs), np.asarray(ys))
            with leaf_grad_hook(lambda tensor: arrival.append(names[id(tensor)])):
                loss.backward()
            arrival.append("|")
            digest.update(loss.data.tobytes())
            for name, param in model.named_parameters():
                digest.update(name.encode())
                digest.update(param.grad.tobytes())
            for name, buffer in model.named_buffers():
                digest.update(name.encode())
                digest.update(np.ascontiguousarray(buffer).tobytes())
    return digest.hexdigest(), arrival


def train_conv_serial_fingerprint(steps: int = 12) -> str:
    """``benchmarks/e2e`` ``train_conv_serial`` at seed 7: warm-up + ``steps``."""
    from repro.core import (
        EasyScaleEngine,
        EasyScaleJobConfig,
        WorkerAssignment,
        determinism_from_label,
    )
    from repro.exec import SerialBackend
    from repro.hw import gpu_type
    from repro.optim import SGD

    spec = get_workload("resnet18")
    config = EasyScaleJobConfig(
        num_ests=4, seed=7, batch_size=8, determinism=determinism_from_label("D1+D2")
    )
    engine = EasyScaleEngine(
        spec,
        spec.build_dataset(256, seed=7),
        config,
        lambda model: SGD(model.named_parameters(), lr=0.05, momentum=0.9),
        WorkerAssignment.balanced([gpu_type("V100")] * 2, 4),
        backend=SerialBackend(),
    )
    for _ in range(1 + steps):
        engine.run_global_step()
    return fingerprint_state_dict(engine.model.state_dict())


#: ``benchmarks/e2e/workloads.py::ELASTIC_STAGES``, spelled out (that tree is frozen)
ELASTIC_STAGES = (
    ("V100",) * 4,
    ("V100",) * 2,
    ("V100", "P100", "T4"),
    ("T4",),
    ("P100", "P100", "T4", "T4"),
)


def neumf_elastic_fingerprint(steps: int = 20) -> str:
    """``train_rec_elastic`` at seed 7: 8 ESTs, a new GPU mix every 2 steps."""
    from repro.core import (
        EasyScaleEngine,
        EasyScaleJobConfig,
        WorkerAssignment,
        determinism_from_label,
    )
    from repro.exec import SerialBackend
    from repro.hw import gpu_type
    from repro.optim import SGD

    def assignment(stage):
        return WorkerAssignment.balanced([gpu_type(name) for name in stage], 8)

    spec = get_workload("neumf")
    config = EasyScaleJobConfig(
        num_ests=8, seed=7, batch_size=8, determinism=determinism_from_label("D1+D2")
    )
    engine = EasyScaleEngine(
        spec,
        spec.build_dataset(512, seed=7),
        config,
        lambda model: SGD(model.named_parameters(), lr=0.05, momentum=0.9),
        assignment(ELASTIC_STAGES[0]),
        backend=SerialBackend(),
    )
    engine.run_global_step()
    for index in range(steps):
        if index and index % 2 == 0:
            engine = engine.reconfigure(assignment(ELASTIC_STAGES[(index // 2) % 5]))
        engine.run_global_step()
    return fingerprint_state_dict(engine.model.state_dict())


#: ``(strategy, model)`` per baseline entry: one conv and one recommendation model
BASELINES = (("te", "resnet18"), ("pollux", "neumf"))


def baseline_fingerprint(strategy_name: str, model_name: str) -> str:
    """``ElasticBaselineTrainer`` over a 2 → 1 worker schedule at seed 7.

    One sha256 over the final state dict, every epoch's loss and every
    epoch's learning rate (``float.hex``): the TE / Pollux side of Figs 2–4.
    """
    from repro.elastic import (
        ElasticBaselineTrainer,
        PolluxScaling,
        TorchElasticScaling,
        TrainSegment,
    )

    strategy = {"te": TorchElasticScaling, "pollux": PolluxScaling}[strategy_name]()
    spec = get_workload(model_name)
    trainer = ElasticBaselineTrainer(
        spec, spec.build_dataset(32, seed=7), strategy, seed=7, base_batch=4
    )
    losses = trainer.run_schedule([TrainSegment(2, 1), TrainSegment(1, 1)])
    digest = hashlib.sha256(fingerprint_state_dict(trainer.model.state_dict()).encode())
    digest.update(" ".join(float(loss).hex() for loss in losses).encode())
    digest.update(" ".join(float(lr).hex() for lr in trainer.lr_history).encode())
    return digest.hexdigest()


def _arrival_digest(arrival: List[str]) -> str:
    return hashlib.sha256(" ".join(arrival).encode()).hexdigest()[:16]


def record() -> Dict[str, object]:
    golden: Dict[str, object] = {
        "engine": train_conv_serial_fingerprint(),
        "engine neumf elastic": neumf_elastic_fingerprint(),
    }
    for strategy_name, model_name in BASELINES:
        golden[f"baseline {strategy_name} {model_name}"] = baseline_fingerprint(
            strategy_name, model_name
        )
    for model_name in MODELS:
        arrivals = set()
        for label, (dialect, policy) in CONFIGS.items():
            bits, arrival = model_bits(model_name, dialect, policy)
            golden[f"{model_name} {label}"] = bits
            arrivals.add(_arrival_digest(arrival))
        assert len(arrivals) == 1, f"{model_name}: arrival order depends on the dialect"
        golden[f"{model_name} arrival"] = arrivals.pop()
    return golden


STAMP = "numpy 2.4.6 / scipy-openblas 0.3.31.188.0 / probe 79f563334e3a09cb"
GOLDEN: Dict[str, str] = {
    "engine": "a57555d973cd08e452e763ceca359f92b0f4b48015105d4e599c89c2af74d93f",
    "engine neumf elastic": "0d26109ef43b19dd960b1e99d8d26b0525a7f4c076258c7d8217044e2108ce91",
    "baseline te resnet18": "378b1043c5ade38facee8ebae817261156abb0f2e45688db09451a3f4d507ffb",
    "baseline pollux neumf": "14198606e5024f2611f441e20cda571c19e49bca4d2d709f8ab84666e06a8ffc",
    "resnet18 v100/D0": "c1ad5030075159923c9c457f80d95426f344ce3336cfef012b6a1d8e9faf7c59",
    "resnet18 p100/D0": "094b9f46b8603a880fddfdfd291066e9692a17cdad14af59dd9ddd4451a1874b",
    "resnet18 t4/D0": "9df1c55dc7a417b4ee3f8c8bf2592233a55bea386db13c567b1cb708345d3db4",
    "resnet18 v100/D2": "7f7053d743fbf0bd2c01bbd1e600543e86e5afb56551fd0cdae64edb4d521620",
    "resnet18 arrival": "1cc59d71fec08b3d",
    "resnet50 v100/D0": "fb907dd64065b1c9c56cee147d2aab27dc326bc9580faa1c0e77e8df0b419c52",
    "resnet50 p100/D0": "84b3bec0d9db7c5599f364b7e88006e1f6311e2e5aa42ec46df8efa75d6c8680",
    "resnet50 t4/D0": "143713338ac4790d890798361100461237bb1763a55f02e183ddd052fe3d150a",
    "resnet50 v100/D2": "20ad9038e88d8bab7e6153f402ce314ccd7ad85c2993832eb008f39b6b535ebe",
    "resnet50 arrival": "de9ecdb161d53158",
    "vgg19 v100/D0": "6a08cbbcc1fe24106e2241f90204538832211a3364c03cfd14883b5354b50b83",
    "vgg19 p100/D0": "b58674f277ebb247931f93e08e6f7e3c180ed71c002378556560348fa8ef9791",
    "vgg19 t4/D0": "423c6779fc9a92b2867778af2ac91c9163755069d4b6a8d4f0240209e7963e20",
    "vgg19 v100/D2": "dd1ad0874a5bee2b6a5b3fbda22f0ee18328ae3d2a1a5e12b335974232ee67b6",
    "vgg19 arrival": "b7f237c593813a0c",
    "shufflenetv2 v100/D0": "f3ce08c4bc4fea75509da4fd77d575ca5225225924690b62b23e83022d1317e7",
    "shufflenetv2 p100/D0": "58e9b9c7a41d83031ec604a086f8a2bbacec4e986af9034853708cea1d561c33",
    "shufflenetv2 t4/D0": "be91799f8a8b0ba0d5b685e723e07fffeb84328c1c7a929dde0d6eabefa8dc48",
    "shufflenetv2 v100/D2": "21288da6f3f39db892f2874433565992548d725ba859f3a1a10261f031fa9764",
    "shufflenetv2 arrival": "87717ac07f3a1e46",
    "yolov3 v100/D0": "35e6a19918f635e6944dea5ee9414b23052762681f98f6e1c137fde2e5e7eea8",
    "yolov3 p100/D0": "baf5def6e60e4e4d0a6757585e724a9529fc4671e462a2343252e01dc962ad3b",
    "yolov3 t4/D0": "304069a8bd9cf522a2b9bc3101fb36d3246af5e41fa22395daf8245b070359d1",
    "yolov3 v100/D2": "10d80db26adffc52f7c9f4895f64bcd7eaa99a799eba0caf80ff40f9f3075bf9",
    "yolov3 arrival": "f377ce0d1bfa7db7",
    "neumf v100/D0": "a7dda86617355c9f6d3a01f0b563629bd73ce6a41ba3a0d58b83222afe515c93",
    "neumf p100/D0": "f148938e257e15d6e137e83ddfd741c5c32d46967878f50bfb78cac3b1cf74e2",
    "neumf t4/D0": "4afbae5a1b7429e198de8d17cf7c6ae2e836547fdd2bea0aea13e19836890b2e",
    "neumf v100/D2": "f148938e257e15d6e137e83ddfd741c5c32d46967878f50bfb78cac3b1cf74e2",
    "neumf arrival": "ad758323bd63dd8d",
    "electra v100/D0": "23c0db2c486ebd268c866953b289c673932089cc5643a8758b092ec75343797d",
    "electra p100/D0": "5c1d7963475c69039a5a97aee24b6a413731b0fab4256816f330a3ec3ca332cc",
    "electra t4/D0": "2ebebdabba20c042e43cc45ab2efea22ef4eb6f59d95ff163db298af315adead",
    "electra v100/D2": "722ce7e9a2117d5480ad908643821fe57bfcad3ec6e21a33e644ff9e206767ab",
    "electra arrival": "c7f6212dac8200bd",
    "swintransformer v100/D0": "99435ef8f00cddd3b6fdd9fb162f147167318ca1c4c2247dc064638258243c3d",
    "swintransformer p100/D0": "9d13c17877252dce94f5008546fe4ad80e6f1186305da40dffd5899de52e9549",
    "swintransformer t4/D0": "316547049a5a701eb86cb97fd43b461fe688da275e191eac7b44636b74e57266",
    "swintransformer v100/D2": "6645c84ce138011591c8efd8f2b2e2f3ba3f7c2ace686ab5aaa0c5a2d38a5dfc",
    "swintransformer arrival": "dcd816c7900a4979",
}


def _require_stamp() -> None:
    stamp = current_stamp()
    if stamp != STAMP:
        pytest.skip(f"GOLDEN was recorded on [{STAMP}], this is [{stamp}]: GEMM bits differ by BLAS build")


@pytest.mark.parametrize("model_name", MODELS)
def test_model_bits_and_arrival_order_unchanged(model_name):
    _require_stamp()
    for label, (dialect, policy) in CONFIGS.items():
        bits, arrival = model_bits(model_name, dialect, policy)
        assert _arrival_digest(arrival) == GOLDEN[f"{model_name} arrival"], (
            f"{model_name} {label}: leaf arrival order moved (bucket layout follows it): {arrival}"
        )
        assert bits == GOLDEN[f"{model_name} {label}"], f"{model_name} {label}: bits moved"


def test_train_conv_serial_engine_fingerprint_unchanged():
    _require_stamp()
    assert train_conv_serial_fingerprint() == GOLDEN["engine"]


def test_train_rec_elastic_engine_fingerprint_unchanged():
    _require_stamp()
    assert neumf_elastic_fingerprint() == GOLDEN["engine neumf elastic"]


@pytest.mark.parametrize("strategy_name,model_name", BASELINES)
def test_baseline_trainer_fingerprint_unchanged(strategy_name, model_name):
    _require_stamp()
    assert (
        baseline_fingerprint(strategy_name, model_name)
        == GOLDEN[f"baseline {strategy_name} {model_name}"]
    )


if __name__ == "__main__":
    print(f'STAMP = "{current_stamp()}"')
    print("GOLDEN: Dict[str, str] = {")
    for key, value in record().items():
        print(f'    "{key}": "{value}",')
    print("}")
