"""Shared fixtures and helpers for the EasyScale reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import get_workload
from repro.obs import flightrec
from repro.optim import SGD
from repro.utils.rng import RNGBundle


@pytest.fixture(autouse=True)
def _flightrec_sandbox(tmp_path):
    """Point postmortem bundles at a tmpdir and reset the ring per test.

    The flight recorder is always on, so fault-injection tests would
    otherwise litter the repository root with ``postmortem-*.json``.
    """
    flightrec.configure(directory=str(tmp_path))
    yield
    flightrec.reset()


@pytest.fixture
def rng() -> RNGBundle:
    return RNGBundle(1234)


@pytest.fixture
def resnet18_spec():
    return get_workload("resnet18")


@pytest.fixture
def small_image_dataset(resnet18_spec):
    return resnet18_spec.build_dataset(128, seed=7)


def sgd_factory(lr: float = 0.05, momentum: float = 0.9):
    """Factory-of-factories used across trainer tests."""

    def make(model):
        return SGD(model.named_parameters(), lr=lr, momentum=momentum)

    return make


def assert_delivered_once(controller, total: int) -> None:
    """Exactly-once delivery over a controller run to ``total`` steps: the
    step events still pending are exactly those at or past ``total``, and
    every fired fault-family event and forceful removal was injected once."""
    events = controller.plan.step_events
    assert controller.injector.pending_events() == [e for e in events if e.at_step >= total]
    fired = [e for e in events if e.at_step < total]
    assert controller.stats.faults_injected == sum(
        e.family == "fault" or e.kind == "forceful_remove" for e in fired
    )


def numeric_grad(fn, array: np.ndarray, index, eps: float = 1e-3) -> float:
    """Central-difference derivative of scalar ``fn()`` w.r.t. array[index]."""
    original = float(array[index])
    array[index] = original + eps
    hi = fn()
    array[index] = original - eps
    lo = fn()
    array[index] = original
    return (hi - lo) / (2 * eps)
