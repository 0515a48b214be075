"""EasyScaleWorker: time-sliced execution, staging, memory validation."""

import numpy as np
import pytest

from repro.comm.bucketing import build_initial_buckets
from repro.core.est import EasyScaleThread
from repro.core.worker import EasyScaleWorker
from repro.data.dataloader import SharedDataLoader
from repro.hw import P100, V100
from repro.hw.memory import OutOfMemoryError
from repro.models import get_workload
from repro.tensor.kernels import D0_POLICY
from repro.utils.rng import RNGBundle, derive_seed


def _layout(model):
    named = dict(model.named_parameters())
    return build_initial_buckets(list(named), {n: p.data.size for n, p in named.items()})


@pytest.fixture(scope="module")
def spec():
    return get_workload("resnet18")


@pytest.fixture()
def setup(spec):
    model = spec.build_model(RNGBundle(derive_seed(5, "model")))
    dataset = spec.build_dataset(128, seed=3)
    loader = SharedDataLoader(dataset, num_replicas=4, batch_size=8, seed=5)
    ests = [EasyScaleThread(5, v) for v in range(4)]
    return model, loader, ests


class TestRunGlobalStep:
    def test_one_result_per_local_est(self, spec, setup):
        model, loader, ests = setup
        worker = EasyScaleWorker(0, V100, ests[:3], spec, D0_POLICY, validate_memory=False)
        results = worker.run_global_step(
            model,
            load_batch=lambda v: loader.load(v, 0, 0),
            named_params=dict(model.named_parameters()),
            layout=_layout(model),
        )
        assert [r.vrank for r in results] == [0, 1, 2]
        assert all(np.isfinite(r.loss) for r in results)

    def test_gradients_staged_per_est(self, spec, setup):
        model, loader, ests = setup
        worker = EasyScaleWorker(0, V100, ests[:2], spec, D0_POLICY, validate_memory=False)
        results = worker.run_global_step(
            model,
            load_batch=lambda v: loader.load(v, 0, 0),
            named_params=dict(model.named_parameters()),
            layout=_layout(model),
        )
        # staged on the EST objects, cleared from the model
        assert ests[0].staged_grads is not None
        assert all(p.grad is None for p in model.parameters())
        # different data -> different gradients
        name = next(iter(results[0].grads))
        assert results[0].grads[name].tobytes() != results[1].grads[name].tobytes()

    def test_copy_overlap_accounting(self, spec, setup):
        model, loader, ests = setup
        worker = EasyScaleWorker(0, V100, ests, spec, D0_POLICY, validate_memory=False)
        results = worker.run_global_step(
            model,
            load_batch=lambda v: loader.load(v, 0, 0),
            named_params=dict(model.named_parameters()),
            layout=_layout(model),
        )
        # ESTs 0..n-2 expose their staging cost; the last one hides under sync
        assert all(r.exposed_copy_time > 0 for r in results[:-1])
        assert results[-1].exposed_copy_time == 0.0

    def test_arrival_capture_only_for_vrank0(self, spec, setup):
        model, loader, ests = setup
        worker = EasyScaleWorker(0, V100, ests[:2], spec, D0_POLICY, validate_memory=False)
        named = dict(model.named_parameters())
        arrival = []
        worker.run_global_step(
            model,
            load_batch=lambda v: loader.load(v, 0, 0),
            named_params=named,
            layout=_layout(model),
            arrival_sink=arrival,
            param_names_by_id={id(p): n for n, p in named.items()},
        )
        assert sorted(arrival) == sorted(named)


class TestConstruction:
    def test_requires_ests(self, spec):
        with pytest.raises(ValueError):
            EasyScaleWorker(0, V100, [], spec, D0_POLICY)

    def test_memory_validation(self):
        spec = get_workload("shufflenetv2")  # bs 512 -> ~15 GB/worker
        ests = [EasyScaleThread(0, v) for v in range(60)]
        with pytest.raises(OutOfMemoryError):
            EasyScaleWorker(0, P100, ests, spec, D0_POLICY, validate_memory=True)

    def test_step_time_grows_with_ests(self, spec):
        few = EasyScaleWorker(
            0, V100, [EasyScaleThread(0, 0)], spec, D0_POLICY, validate_memory=False
        )
        many = EasyScaleWorker(
            0,
            V100,
            [EasyScaleThread(0, v) for v in range(4)],
            spec,
            D0_POLICY,
            validate_memory=False,
        )
        assert many.step_time() > 3 * few.step_time()
