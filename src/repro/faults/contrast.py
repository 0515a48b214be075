"""Fig-2-style contrast: the same fault plan vs. elastic baselines.

EasyScale's resilience story is only interesting against the backdrop the
paper paints in Fig. 2: conventional elastic frameworks *also* survive
faults — checkpoint, restart, re-shard — but surviving is not the same as
being **consistent**.  A TorchElastic-style restart rebuilds loaders from
the new world size and rescales the learning rate, so the faulted run
optimizes a different trajectory than the fault-free one.

This module runs the four-way experiment for one :class:`EventPlan`:

=====================  ==========================================
EasyScale, fault-free  reference parameter fingerprint
EasyScale, faulted     :class:`ResilienceController` recovery
baseline, fault-free   single segment at the initial world size
baseline, faulted      world size drops at each capacity event
=====================  ==========================================

and reports whether each system's faulted fingerprint matches its own
fault-free reference.  The expected outcome — EasyScale bitwise-equal,
baseline divergent whenever the plan removes capacity — is asserted by
``tests/faults/test_contrast.py`` and rendered by ``repro faults replay
--contrast``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.engine import EasyScaleEngine, EasyScaleJobConfig, WorkerAssignment
from repro.data.datasets import Dataset
from repro.elastic.base import ElasticBaselineTrainer, ScalingStrategy, TrainSegment
from repro.elastic.torchelastic import TorchElasticScaling
from repro.faults.controller import ResilienceController, ResilienceStats
from repro.faults.schedule import EventPlan, kinds
from repro.hw.gpu import GPUType, gpu_type
from repro.models.registry import WorkloadSpec
from repro.utils.fingerprint import fingerprint_state_dict


def segments_from_plan(
    plan: EventPlan,
    initial_world: int,
    total_epochs: int,
    horizon_steps: int,
) -> List[TrainSegment]:
    """Translate a fault plan into a baseline's world-size schedule.

    Baselines think in (world size, epochs) segments, not steps: each
    capacity-removing event becomes a restart boundary at the epoch
    proportional to its step position, after which the world shrinks by
    the event's cost (never below one worker).  Non-capacity events are
    invisible to the baseline — a slowdown or corrupted checkpoint does
    not change its hyper-parameters.
    """
    if initial_world < 1:
        raise ValueError("initial_world must be positive")
    if total_epochs < 1:
        raise ValueError("total_epochs must be positive")
    if horizon_steps < 1:
        raise ValueError("horizon_steps must be positive")
    # epoch boundary (0..total_epochs) for each capacity event, in order
    cuts: List[tuple] = []
    for event in plan.step_events:
        if event.kind not in kinds("fault", removes=True):
            continue
        cost = int(event.magnitude) if event.kind == "node_preempt" else 1
        epoch = round((event.at_step / horizon_steps) * total_epochs)
        cuts.append((min(max(epoch, 0), total_epochs), cost))

    segments: List[TrainSegment] = []
    world = initial_world
    start = 0
    for epoch, cost in cuts:
        if epoch > start:
            segments.append(TrainSegment(world_size=world, epochs=epoch - start))
            start = epoch
        world = max(1, world - cost)
    if start < total_epochs or not segments:
        segments.append(
            TrainSegment(world_size=world, epochs=max(total_epochs - start, 1))
        )
    return segments


def _baseline_fingerprint(
    spec: WorkloadSpec,
    dataset: Dataset,
    segments: Sequence[TrainSegment],
    strategy: ScalingStrategy,
    seed: int,
    base_lr: float,
    base_batch: int,
) -> tuple:
    trainer = ElasticBaselineTrainer(
        spec, dataset, strategy, base_lr=base_lr, base_batch=base_batch, seed=seed
    )
    losses = trainer.run_schedule(segments)
    digest = fingerprint_state_dict(
        {name: p.data for name, p in trainer.model.named_parameters()}
    )
    return digest, losses, list(trainer.lr_history)


def _engine_fingerprint(engine: EasyScaleEngine) -> str:
    return fingerprint_state_dict(
        {name: p.data for name, p in engine.model.named_parameters()}
    )


@dataclass
class ContrastResult:
    """Outcome of the four-way consistency experiment."""

    plan_seed: int
    total_steps: int
    easyscale_reference: str
    easyscale_faulted: str
    baseline_reference: str
    baseline_faulted: str
    baseline_name: str
    baseline_segments: List[TrainSegment] = field(default_factory=list)
    baseline_lr_reference: List[float] = field(default_factory=list)
    baseline_lr_faulted: List[float] = field(default_factory=list)
    resilience: Optional[ResilienceStats] = None

    @property
    def easyscale_consistent(self) -> bool:
        return self.easyscale_faulted == self.easyscale_reference

    @property
    def baseline_consistent(self) -> bool:
        return self.baseline_faulted == self.baseline_reference

    def to_dict(self) -> Dict[str, object]:
        return {
            "plan_seed": self.plan_seed,
            "total_steps": self.total_steps,
            "easyscale_consistent": self.easyscale_consistent,
            "baseline_consistent": self.baseline_consistent,
            "baseline": self.baseline_name,
            "fingerprints": {
                "easyscale_reference": self.easyscale_reference,
                "easyscale_faulted": self.easyscale_faulted,
                "baseline_reference": self.baseline_reference,
                "baseline_faulted": self.baseline_faulted,
            },
            "resilience": self.resilience.to_dict() if self.resilience else None,
        }

    def describe(self) -> str:
        def verdict(consistent: bool) -> str:
            return "BITWISE-IDENTICAL" if consistent else "DIVERGED"

        lines = [
            f"consistency contrast (plan seed {self.plan_seed}, "
            f"{self.total_steps} steps)",
            f"  easyscale : {verdict(self.easyscale_consistent)}  "
            f"{self.easyscale_faulted[:16]} vs {self.easyscale_reference[:16]}",
            f"  {self.baseline_name:<10}: {verdict(self.baseline_consistent)}  "
            f"{self.baseline_faulted[:16]} vs {self.baseline_reference[:16]}",
        ]
        worlds = "->".join(str(s.world_size) for s in self.baseline_segments)
        lines.append(f"  baseline world-size schedule: {worlds}")
        if self.resilience is not None and self.resilience.incidents:
            lines.append(
                f"  easyscale recoveries: {self.resilience.recoveries} "
                f"(lost {self.resilience.lost_steps} step(s), "
                f"mean MTTR {self.resilience.mean_mttr_s:.1f}s)"
            )
        return "\n".join(lines)


def run_contrast(
    spec: WorkloadSpec,
    dataset: Dataset,
    config: EasyScaleJobConfig,
    optimizer_factory: Callable,
    gpus: Sequence[Union[str, GPUType]],
    plan: EventPlan,
    total_steps: int,
    baseline_epochs: int = 2,
    strategy: Optional[ScalingStrategy] = None,
    base_lr: float = 0.05,
) -> ContrastResult:
    """Run the four-way experiment for one plan on one GPU pool."""
    if total_steps < 1:
        raise ValueError("total_steps must be positive")
    pool: List[GPUType] = [
        g if isinstance(g, GPUType) else gpu_type(str(g).upper()) for g in gpus
    ]
    if not pool:
        raise ValueError("need at least one GPU")
    strategy = strategy or TorchElasticScaling()

    # EasyScale reference: same config, no faults
    reference = EasyScaleEngine(
        spec,
        dataset,
        config,
        optimizer_factory,
        WorkerAssignment.balanced(pool[: config.num_ests], config.num_ests),
    )
    for _ in range(total_steps):
        reference.run_global_step()

    # EasyScale under the plan
    controller = ResilienceController(
        spec, dataset, config, optimizer_factory, pool, plan
    )
    stats = controller.run(total_steps)

    # baseline, fault-free vs. the plan's world-size schedule
    faulted_segments = segments_from_plan(
        plan, len(pool), baseline_epochs, total_steps
    )
    free_segments = [TrainSegment(world_size=len(pool), epochs=baseline_epochs)]
    base_ref, _, lr_ref = _baseline_fingerprint(
        spec, dataset, free_segments, strategy, config.seed, base_lr, config.batch_size
    )
    base_fault, _, lr_fault = _baseline_fingerprint(
        spec, dataset, faulted_segments, strategy, config.seed, base_lr, config.batch_size
    )

    return ContrastResult(
        plan_seed=plan.seed,
        total_steps=total_steps,
        easyscale_reference=_engine_fingerprint(reference),
        easyscale_faulted=_engine_fingerprint(controller.engine),
        baseline_reference=base_ref,
        baseline_faulted=base_fault,
        baseline_name=strategy.name,
        baseline_segments=faulted_segments,
        baseline_lr_reference=lr_ref,
        baseline_lr_faulted=lr_fault,
        resilience=stats,
    )
