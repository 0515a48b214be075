"""Contrast experiment: EasyScale stays bitwise, restart baselines drift."""

import pytest

from repro.core import EasyScaleJobConfig, determinism_from_label
from repro.faults import (
    EventPlan,
    PlanEvent,
    run_contrast,
    segments_from_plan,
)
from repro.models import get_workload
from tests.conftest import sgd_factory


class TestSegmentsFromPlan:
    def test_no_capacity_events_is_one_segment(self):
        plan = EventPlan(events=(
            PlanEvent(kind="slowdown", at_step=3, magnitude=2.0),
            PlanEvent(kind="checkpoint_corrupt", at_step=5),
        ))
        segments = segments_from_plan(plan, initial_world=4, total_epochs=3,
                                      horizon_steps=10)
        assert [(s.world_size, s.epochs) for s in segments] == [(4, 3)]

    def test_capacity_events_cut_and_shrink(self):
        plan = EventPlan(events=(
            PlanEvent(kind="gpu_revoke", at_step=5),
            PlanEvent(kind="node_preempt", at_step=8, magnitude=2.0),
        ))
        segments = segments_from_plan(plan, initial_world=4, total_epochs=4,
                                      horizon_steps=10)
        # cuts at epochs round(5/10*4)=2 and round(8/10*4)=3
        assert [(s.world_size, s.epochs) for s in segments] == [
            (4, 2), (3, 1), (1, 1),
        ]

    def test_world_never_drops_below_one(self):
        plan = EventPlan(events=(
            PlanEvent(kind="node_preempt", at_step=2, magnitude=9.0),
        ))
        segments = segments_from_plan(plan, initial_world=2, total_epochs=2,
                                      horizon_steps=4)
        assert segments[-1].world_size == 1

    def test_validation(self):
        plan = EventPlan(events=())
        with pytest.raises(ValueError):
            segments_from_plan(plan, initial_world=0, total_epochs=2,
                               horizon_steps=4)
        with pytest.raises(ValueError):
            segments_from_plan(plan, initial_world=2, total_epochs=0,
                               horizon_steps=4)
        with pytest.raises(ValueError):
            segments_from_plan(plan, initial_world=2, total_epochs=2,
                               horizon_steps=0)


class TestRunContrast:
    def test_easyscale_consistent_baseline_divergent(self):
        spec = get_workload("resnet18")
        dataset = spec.build_dataset(64, seed=7)
        config = EasyScaleJobConfig(
            num_ests=4, seed=0, batch_size=8,
            determinism=determinism_from_label("D1+D2"),
        )
        plan = EventPlan(events=(
            PlanEvent(kind="gpu_revoke", at_step=4),
        ), seed=42)
        result = run_contrast(
            spec, dataset, config, sgd_factory(),
            ["V100", "V100", "T4", "T4"], plan, total_steps=8,
        )
        assert result.easyscale_consistent
        # the restart baseline re-derives LR/sharding from the new world
        # size, so the same capacity loss changes its trajectory
        assert not result.baseline_consistent
        assert result.baseline_name == "torchelastic"
        worlds = [s.world_size for s in result.baseline_segments]
        assert worlds[0] == 4 and worlds[-1] == 3
        assert result.resilience is not None
        assert result.resilience.recoveries == 1

        payload = result.to_dict()
        assert payload["easyscale_consistent"] is True
        assert payload["baseline_consistent"] is False

        text = result.describe()
        assert "BITWISE-IDENTICAL" in text and "DIVERGED" in text
