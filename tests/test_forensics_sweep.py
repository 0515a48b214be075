"""Forensics sweep (tier-2, ``-m forensics``): crash dumps + attribution.

Two properties over many seeded fault plans on a heterogeneous pool:

1. **Crash evidence** — every abrupt fault (worker_crash, node_preempt)
   that strikes a supervised run leaves a postmortem bundle naming the
   failing step and fault kind, with tracing off, and recovery still
   reaches the fault-free bitwise state.
2. **Attribution** — for a seeded kernel-variant swap at any step *k*,
   :func:`~repro.obs.forensics.analyze_divergence` pins the divergence to
   step *k* and the dialect switch, never just "params differ".

Deselected from tier-1 by default; run with ``pytest -m forensics``.
"""

import glob
import os

import pytest

from repro import obs
from repro.core import (
    EasyScaleEngine,
    EasyScaleJobConfig,
    WorkerAssignment,
    determinism_from_label,
)
from repro.faults import ResilienceController, random_plan
from repro.faults.schedule import kinds
from repro.hw import gpu_type
from repro.models import get_workload
from repro.obs import flightrec
from repro.obs.audit import AuditTrail
from repro.obs.forensics import analyze_divergence
from repro.utils.fingerprint import fingerprint_state_dict
from tests.conftest import sgd_factory

pytestmark = pytest.mark.forensics

TOTAL_STEPS = 12
NUM_SEEDS = 5
POOL = ["V100", "V100", "T4", "T4"]


@pytest.fixture(scope="module")
def env():
    spec = get_workload("resnet18")
    dataset = spec.build_dataset(64, seed=7)
    config = EasyScaleJobConfig(
        num_ests=4, seed=0, batch_size=8,
        determinism=determinism_from_label("D1+D2"),
    )
    return spec, dataset, config


@pytest.fixture(scope="module")
def reference(env):
    spec, dataset, config = env
    obs.configure(enabled=True, audit=True)
    try:
        engine = EasyScaleEngine(
            spec, dataset, config, sgd_factory(),
            WorkerAssignment.balanced([gpu_type(g) for g in POOL], 4),
        )
        engine.train_steps(TOTAL_STEPS)
        trail = obs.audit_trail()
        fingerprint = fingerprint_state_dict(engine.model.state_dict())
    finally:
        obs.reset()
    return trail, fingerprint


def _bundles(directory):
    out = []
    for path in sorted(glob.glob(os.path.join(directory, "postmortem-*.json"))):
        out.append(flightrec.load_bundle(path))
    return out


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_abrupt_faults_leave_crash_bundles_and_recover_bitwise(
    env, reference, seed, tmp_path
):
    spec, dataset, config = env
    ref_trail, ref_fingerprint = reference
    plan = random_plan(seed, horizon_steps=TOTAL_STEPS, num_gpus=len(POOL))
    bundle_dir = tmp_path / "bundles"
    bundle_dir.mkdir()
    flightrec.configure(directory=str(bundle_dir))

    obs.configure(enabled=True, audit=True, audit_rewind=True)
    try:
        controller = ResilienceController(
            spec, dataset, config, sgd_factory(), list(POOL), plan,
            snapshot_interval=4,
        )
        stats = controller.run(TOTAL_STEPS)
        trail = obs.audit_trail()
    finally:
        obs.reset()

    # recovery still bitwise — the recorder must observe, never perturb
    diff = obs.diff_audits(ref_trail, trail)
    assert diff.identical, (
        f"plan seed {seed} diverged:\n{plan.describe()}\n{diff.describe()}"
    )
    assert fingerprint_state_dict(
        controller.engine.model.state_dict()
    ) == ref_fingerprint
    assert stats.faults_injected == len(plan)

    # every abrupt fault left an exception bundle naming (kind, step)
    abrupt = {
        (e.kind, e.at_step) for e in plan.events if e.kind in kinds("fault", graceful=False)
    }
    crash_bundles = [b for b in _bundles(str(bundle_dir)) if b["reason"] == "exception"]
    dumped = {(b["crash"]["kind"], b["crash"]["step"]) for b in crash_bundles}
    assert abrupt <= dumped, (
        f"plan seed {seed}: abrupt faults {sorted(abrupt - dumped)} left no "
        f"postmortem bundle (have {sorted(dumped)})"
    )
    for bundle in crash_bundles:
        assert bundle["context"]["determinism"] == "D1+D2"
        if bundle["crash"]["kind"] == "worker_crash":
            assert bundle["crash"]["worker"] is not None
            assert bundle["crash"]["dialect"] in ("v100", "t4")
        recorded = [e["kind"] for e in bundle["events"]]
        assert "fault.detect" in recorded and "engine.crash" in recorded


def _train_audited(tmp_path, name, swap_step):
    """8 steps of resnet18 under D1; optionally worker 1 moves to a T4
    after ``swap_step`` — the seeded kernel-variant swap."""
    spec = get_workload("resnet18")
    dataset = spec.build_dataset(64, seed=3)
    path = tmp_path / f"{name}.jsonl"
    obs.configure(enabled=True, audit_path=str(path))
    config = EasyScaleJobConfig(
        num_ests=2, seed=3, batch_size=4, determinism=determinism_from_label("D1")
    )
    engine = EasyScaleEngine(
        spec, dataset, config, sgd_factory(),
        WorkerAssignment.named(["V100", "V100"], 2),
    )
    if swap_step is None:
        engine.train_steps(8)
    else:
        engine.train_steps(swap_step)
        engine = engine.reconfigure(WorkerAssignment.named(["V100", "T4"], 2))
        engine.train_steps(8 - swap_step)
    obs.audit_trail().close()
    obs.reset()
    return path


@pytest.mark.parametrize("swap_step", [1, 2, 3, 4, 5])
def test_dialect_swap_attributed_at_every_step(tmp_path, swap_step):
    path_a = _train_audited(tmp_path, "steady", swap_step=None)
    path_b = _train_audited(tmp_path, "swapped", swap_step=swap_step)
    report = analyze_divergence(
        AuditTrail.load(str(path_a)), AuditTrail.load(str(path_b))
    )
    assert report.diff.first_divergent_step == swap_step
    assert report.attributed
    top = report.top_cause
    assert top.kind in ("dialect_switch", "dialect_mismatch")
    assert top.step == swap_step
    assert "t4" in top.detail
    assert "dialect" in report.headline()
