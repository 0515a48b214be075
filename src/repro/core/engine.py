"""EasyScaleEngine: elastic, accuracy-consistent training (§3.2–3.3).

The engine ties the pieces together: ``nEST`` logical workers execute on
however many physical workers the current :class:`WorkerAssignment`
provides, and gradients are synchronized over virtual ranks by
:class:`~repro.core.elastic_ddp.ElasticDDP`.  A graceful resource change
(:meth:`EasyScaleEngine.reconfigure`) hands the live EST contexts, extra
states and the single parameter replica to the new worker set; the
on-demand checkpoint carries exactly that state as bytes whenever it has
to outlive the process — periodic snapshots, fault recovery, disk.

The headline contract, asserted by the integration tests: for a job with
``nEST = n`` under D1 (homogeneous) or D1+D2 (heterogeneous), the model
parameters after any schedule of scale-in/scale-out events are **bitwise
identical** to DDP training with ``n`` fixed GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.core.checkpoint import Checkpoint
from repro.core.determinism import DeterminismConfig, determinism_from_label
from repro.core.elastic_ddp import ElasticDDP
from repro.core.est import EasyScaleThread
from repro.core.worker import EasyScaleWorker
from repro.exec import ExecutionBackend, StepRequest, resolve_backend
from repro.data.dataloader import SharedDataLoader
from repro.data.datasets import Dataset
from repro.data.transforms import Transform
from repro.hw.gpu import GPUType, gpu_type
from repro.models.registry import WorkloadSpec
from repro.nn.module import Module
from repro.optim.lr_scheduler import LRScheduler
from repro.optim.optimizer import Optimizer
from repro.utils.fingerprint import fingerprint_arrays, fingerprint_state_dict
from repro.obs import flightrec
from repro.obs.profiler import OnlineProfiler
from repro.utils.rng import RNGBundle, derive_seed
from repro.utils.telemetry import RunLog

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core<->faults cycle
    from repro.faults.injector import StepDeliverer


@dataclass(frozen=True)
class WorkerAssignment:
    """The EST-to-GPU mapping configuration produced by the intra-job scheduler.

    ``gpus[i]`` is worker ``i``'s device type; ``est_map[i]`` lists the
    virtual ranks hosted by worker ``i``.  Together the map must cover
    virtual ranks 0..nEST-1 exactly once.
    """

    gpus: Sequence[GPUType]
    est_map: Sequence[Sequence[int]]

    def __post_init__(self) -> None:
        if len(self.gpus) != len(self.est_map):
            raise ValueError("one EST list per GPU required")
        if not self.gpus:
            raise ValueError("assignment needs at least one worker")
        flat = [v for slice_ in self.est_map for v in slice_]
        if sorted(flat) != list(range(len(flat))):
            raise ValueError(f"EST map must cover ranks 0..n-1 exactly once, got {flat}")
        if any(not slice_ for slice_ in self.est_map):
            raise ValueError("every worker must host at least one EST")

    @property
    def num_ests(self) -> int:
        return sum(len(s) for s in self.est_map)

    @property
    def num_workers(self) -> int:
        return len(self.gpus)

    @classmethod
    def balanced(cls, gpus: Sequence[GPUType], num_ests: int) -> "WorkerAssignment":
        """Contiguous, capability-agnostic split of ESTs over workers."""
        if not gpus:
            raise ValueError("need at least one GPU")
        if num_ests < len(gpus):
            raise ValueError(f"{num_ests} ESTs cannot occupy {len(gpus)} workers")
        base, rem = divmod(num_ests, len(gpus))
        est_map: List[List[int]] = []
        cursor = 0
        for i in range(len(gpus)):
            count = base + (1 if i < rem else 0)
            est_map.append(list(range(cursor, cursor + count)))
            cursor += count
        return cls(gpus=tuple(gpus), est_map=tuple(tuple(s) for s in est_map))

    @classmethod
    def named(cls, names: Sequence[str], num_ests: int) -> "WorkerAssignment":
        """Convenience: balanced assignment from GPU type names."""
        return cls.balanced([gpu_type(n) for n in names], num_ests)


@dataclass
class EasyScaleJobConfig:
    """Job-level configuration fixed at submission (model-designing stage)."""

    num_ests: int
    seed: int = 0
    determinism: DeterminismConfig = field(
        default_factory=lambda: determinism_from_label("D1")
    )
    batch_size: int = 8
    bucket_capacity_elems: int = 2048
    allreduce_algorithm: str = "ring"
    num_data_workers: int = 2
    validate_memory: bool = False
    #: gradient accumulation per EST (activation memory shrinks by the
    #: same factor — lets big effective batches fit small GPUs)
    micro_batches: int = 1

    def __post_init__(self) -> None:
        if self.num_ests <= 0:
            raise ValueError("num_ests must be positive")
        if self.micro_batches <= 0:
            raise ValueError("micro_batches must be positive")
        if self.batch_size % self.micro_batches != 0:
            raise ValueError(
                f"batch_size {self.batch_size} not divisible into "
                f"{self.micro_batches} micro-batches"
            )


class EasyScaleEngine:
    """Run one EasyScale job over a (re)configurable set of workers."""

    def __init__(
        self,
        spec: WorkloadSpec,
        dataset: Dataset,
        config: EasyScaleJobConfig,
        optimizer_factory: Callable[[Module], Optimizer],
        assignment: WorkerAssignment,
        transform: Optional[Transform] = None,
        scheduler_factory: Optional[Callable[[Optimizer], LRScheduler]] = None,
        telemetry: Optional["RunLog"] = None,
        profiler: Optional["OnlineProfiler"] = None,
        fault_injector: Optional["StepDeliverer"] = None,
        backend: Union[None, str, ExecutionBackend] = None,
        _restore: Optional[Checkpoint] = None,
    ) -> None:
        self.spec = spec
        self.config = config
        self.dataset = dataset
        self.transform = transform
        self.optimizer_factory = optimizer_factory
        self.scheduler_factory = scheduler_factory
        self.telemetry = telemetry
        # passive observer of per-worker step times; never touches model,
        # RNG, or loader state, so attaching one preserves bitwise results
        self.profiler = profiler
        # same contract: the injector only *interrupts* (raises) at
        # deterministic points — attaching one never perturbs numerics
        self.fault_injector = fault_injector
        # execution backends are interchangeable by contract (bitwise-equal
        # results); the engine never closes one — a pool is shared across
        # reconfigure/recovery rebuilds and closed by whoever created it
        self.backend = resolve_backend(backend)

        self.model = spec.build_model(RNGBundle(derive_seed(config.seed, "model")))
        self.optimizer = optimizer_factory(self.model)
        self.scheduler = scheduler_factory(self.optimizer) if scheduler_factory else None
        self.loader = SharedDataLoader(
            dataset,
            num_replicas=config.num_ests,
            batch_size=config.batch_size,
            seed=config.seed,
            num_workers=config.num_data_workers,
            transform=transform,
        )
        self._named_params = dict(self.model.named_parameters())
        self._param_names_by_id = {id(p): n for n, p in self._named_params.items()}
        self.elastic_ddp = ElasticDDP(
            param_order=list(self._named_params),
            param_sizes={n: p.data.size for n, p in self._named_params.items()},
            param_shapes={n: p.data.shape for n, p in self._named_params.items()},
            num_ests=config.num_ests,
            bucket_capacity_elems=config.bucket_capacity_elems,
            allreduce_algorithm=config.allreduce_algorithm,
            record_mapping=config.determinism.record_bucket_mapping,
        )

        self.ests = [EasyScaleThread(config.seed, v) for v in range(config.num_ests)]
        self.epoch = 0
        self.step_in_epoch = 0
        self.global_step = 0
        self.sim_time = 0.0
        self.loss_history: List[List[float]] = []

        workers = self._make_workers(assignment)
        if _restore is not None:
            self._load_checkpoint(_restore)
        self._install_workers(assignment, workers)

    # ------------------------------------------------------------------
    # worker construction / reconfiguration
    # ------------------------------------------------------------------
    def _make_workers(self, assignment: WorkerAssignment) -> List[EasyScaleWorker]:
        """The worker set ``assignment`` describes, over the live ESTs.

        Everything that can refuse an assignment (EST count, memory fit
        under ``validate_memory``) raises here, before any engine state,
        log or observer has seen the scale event.
        """
        if assignment.num_ests != self.config.num_ests:
            raise ValueError(
                f"assignment covers {assignment.num_ests} ESTs, "
                f"job declares {self.config.num_ests}"
            )
        est_by_vrank = {est.vrank: est for est in self.ests}
        return [
            EasyScaleWorker(
                worker_id=i,
                gpu=gpu,
                ests=[est_by_vrank[v] for v in vranks],
                spec=self.spec,
                policy=self.config.determinism.kernel_policy,
                validate_memory=self.config.validate_memory,
                micro_batches=self.config.micro_batches,
                fault_hook=(
                    self.fault_injector.on_local_step
                    if self.fault_injector is not None
                    else None
                ),
            )
            for i, (gpu, vranks) in enumerate(zip(assignment.gpus, assignment.est_map))
        ]

    def _install_workers(
        self, assignment: WorkerAssignment, workers: List[EasyScaleWorker]
    ) -> None:
        """Make ``workers`` the current set and tell every observer."""
        self.assignment = assignment
        self.workers = workers
        flightrec.set_context(
            determinism=self.config.determinism.label,
            dialects=[g.dialect for g in assignment.gpus],
            gpus=[g.name for g in assignment.gpus],
            num_ests=self.config.num_ests,
            backend=self.backend.name,
        )
        flightrec.record(
            "engine.scale_event",
            step=self.global_step,
            gpus=[g.name for g in assignment.gpus],
            dialects=[g.dialect for g in assignment.gpus],
        )
        if self.telemetry is not None:
            self.telemetry.scale_event(
                self.global_step, [g.name for g in assignment.gpus]
            )
        if obs.is_enabled():
            obs.instant(
                "engine.scale_event",
                cat="engine",
                step=self.global_step,
                gpus=[g.name for g in assignment.gpus],
            )
            obs.metrics().counter("engine_scale_events_total").inc()
        if self.profiler is not None:
            self.profiler.on_scale_event([g.name for g in assignment.gpus])

    def reconfigure(self, assignment: WorkerAssignment) -> "EasyScaleEngine":
        """Scale in/out at a global-step boundary: the live ESTs, model,
        optimizer, scheduler, bucket mapping and loader (cursor and queuing
        buffer included) are handed to a new worker set.

        Nothing is serialised — the state never leaves the process; a
        checkpoint is for bytes that must outlive it (periodic snapshots,
        fault recovery, disk), and ``tests/core/test_reconfigure_midepoch.py``
        holds this hand-over equal to that round trip at every step index.
        Returns the engine to continue on (this one).  A refused assignment
        raises before anything has changed.  ``sim_time`` and
        ``loss_history`` run on across the scale event.  Bitwise continuity
        is guaranteed under D1; under bare D0 the gradient-bucket mapping
        is lost, which is the paper's demonstrated divergence.
        """
        with obs.span(
            "engine.reconfigure",
            cat="engine",
            step=self.global_step,
            gpus=[g.name for g in assignment.gpus],
        ):
            workers = self._make_workers(assignment)
            for est in self.ests:
                est.staged_grads = None
            if not self.config.determinism.record_bucket_mapping:
                # without D1 nothing records the mapping across a restart:
                # the next step re-observes arrival order (Fig. 9)
                self.elastic_ddp.forget_mapping()
            self._install_workers(assignment, workers)
        return self

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    @property
    def steps_per_epoch(self) -> int:
        return self.loader.steps_per_epoch

    def run_global_step(self) -> List[float]:
        """One synchronized global step across all ESTs; returns losses
        ordered by virtual rank.

        Any exception escaping the step — an injected fault signal, a
        numerics bug, a backend failure — dumps a flight-recorder
        postmortem bundle before propagating, so even a run with all
        tracing off leaves evidence naming the failing step and worker.
        """
        try:
            with obs.span(
                "engine.global_step",
                cat="engine",
                step=self.global_step,
                backend=self.backend.name,
            ):
                return self._run_global_step()
        except Exception as exc:
            self._dump_crash(exc)
            raise

    def _dump_crash(self, exc: BaseException) -> None:
        """Write a postmortem bundle for an exception escaping a step."""
        worker = getattr(exc, "worker_id", None)
        event = getattr(exc, "event", None)
        crash = {
            "step": self.global_step,
            "worker": worker,
            "vrank": getattr(exc, "vrank", None),
            "kind": getattr(event, "kind", None),
            "dialect": (
                self.assignment.gpus[worker].dialect
                if worker is not None and worker < len(self.assignment.gpus)
                else None
            ),
        }
        flightrec.record(
            "engine.crash",
            step=crash["step"],
            worker=crash["worker"],
            vrank=crash["vrank"],
            fault=crash["kind"],
            dialect=crash["dialect"],
        )
        try:
            flightrec.dump("exception", exc=exc, crash=crash)
        except OSError:  # postmortems must never mask the original error
            pass

    def _run_global_step(self) -> List[float]:
        if self.fault_injector is not None:
            # may raise a FaultSignal (e.g. node preemption) before any
            # batch is loaded — the supervising controller catches it
            self.fault_injector.on_step_boundary(self)
        self.loader.set_epoch(self.epoch)
        arrival: Optional[List[str]] = (
            [] if not self.elastic_ddp.reconstructed else None
        )
        request = StepRequest(
            workers=self.workers,
            model=self.model,
            spec=self.spec,
            seed=self.config.seed,
            named_params=self._named_params,
            param_names_by_id=self._param_names_by_id,
            load_batch=lambda vrank: self.loader.load(vrank, self.epoch, self.step_in_epoch),
            arrival_sink=arrival,
            layout=self.elastic_ddp.buckets,
        )
        results = self.backend.run_step(request)
        step_time = 0.0
        for worker in self.workers:
            step_time = max(step_time, worker.step_time())
            if self.profiler is not None:
                self.profiler.observe_worker_step(
                    self.global_step,
                    worker.worker_id,
                    worker.gpu.name,
                    len(worker.ests),
                    worker.step_time(),
                )
                hosted = set(worker.vranks)
                for result in results:
                    if result.vrank in hosted:
                        self.profiler.observe_est_step(
                            self.global_step, result.vrank, result.compute_time
                        )

        results.sort(key=lambda r: r.vrank)
        # simulated time: slowest worker (sync barrier) + a simple
        # bandwidth-model term for the cross-worker all-reduce
        comm = self.spec.params_gb / 5.0 if len(self.workers) > 1 else self.spec.params_gb / 20.0
        with obs.span("engine.sync", cat="engine", est=comm, num_ests=self.config.num_ests):
            averaged = self.elastic_ddp.synchronize([r.grads for r in results])
        with obs.span("engine.optimizer", cat="engine"):
            for name, grad in averaged.items():
                self._named_params[name].grad = grad
            for result in results:  # virtual-rank order: canonical BN folding
                for layer, mean, var in result.bn_journal:
                    layer.fold_stats(mean, var)
            self.optimizer.step()
            self.model.zero_grad()
        for est in self.ests:
            est.staged_grads = None

        if arrival is not None:
            self.elastic_ddp.maybe_reconstruct(arrival)

        self.sim_time += step_time + comm

        self.global_step += 1
        self.step_in_epoch += 1
        if self.step_in_epoch >= self.steps_per_epoch:
            self.step_in_epoch = 0
            self.epoch += 1
            if self.scheduler is not None:
                self.scheduler.step()
        losses = [r.loss for r in results]
        self.loss_history.append(losses)
        flightrec.record(
            "engine.step",
            step=self.global_step - 1,
            epoch=self.epoch,
            sim_time=self.sim_time,
            loss=losses[-1],
        )
        if self.telemetry is not None:
            self.telemetry.step(
                self.global_step - 1, losses, epoch=self.epoch, sim_time=self.sim_time
            )
        if obs.is_enabled():
            registry = obs.metrics()
            registry.counter("engine_steps_total").inc()
            registry.gauge("engine_sim_time_seconds").set(self.sim_time)
            registry.histogram("engine_step_sim_seconds").observe(step_time + comm)
            if obs.audit_trail() is not None:
                self._audit_step(averaged)
        return losses

    def _audit_step(self, averaged: Dict[str, np.ndarray]) -> None:
        """Record this step's determinism fingerprints (params after the
        optimizer update, gradients at bucket granularity, RNG, cursor)."""
        bucket_fps: Dict[str, str] = {}
        for idx, names in enumerate(self.elastic_ddp.buckets.buckets):
            arrays = [averaged[n] for n in names if n in averaged]
            if arrays:
                bucket_fps[str(idx)] = fingerprint_arrays(arrays)
        record = obs.audit_trail().capture(
            step=self.global_step - 1,
            params=fingerprint_state_dict(self.model.state_dict()),
            buckets=bucket_fps,
            rng=obs.fingerprint_rng_states([est.rng.get_state() for est in self.ests]),
            loader={"epoch": self.epoch, "step_in_epoch": self.step_in_epoch},
            policy=self.config.determinism.label,
            dialects=[g.dialect for g in self.assignment.gpus],
        )
        flightrec.note_audit(record)

    def train_steps(self, num_steps: int) -> List[float]:
        """Run ``num_steps`` global steps; returns the last EST's losses."""
        return [self.run_global_step()[-1] for _ in range(num_steps)]

    def train_epochs(self, num_epochs: int) -> None:
        target = self.epoch + num_epochs
        while self.epoch < target:
            self.run_global_step()

    def evaluate(self, dataset: Dataset, num_samples: int = 256) -> float:
        """Task-appropriate quality metric on a held-out dataset.

        Runs in eval/no-grad mode under a fixed execution context, so it
        never perturbs the training state; the result is logged to
        telemetry when a sink is attached.
        """
        from repro.ddp.metrics import evaluate_workload

        score = evaluate_workload(self.spec, self.model, dataset, num_samples)
        if self.telemetry is not None:
            self.telemetry.eval(self.global_step, "accuracy", score)
        return score

    # ------------------------------------------------------------------
    # on-demand checkpoint
    # ------------------------------------------------------------------
    def checkpoint(self) -> Checkpoint:
        """Snapshot at a global-step boundary (the only legal point)."""
        flightrec.record("engine.checkpoint_save", step=self.global_step)
        with obs.span("engine.checkpoint_save", cat="engine", step=self.global_step):
            return self._checkpoint()

    def _checkpoint(self) -> Checkpoint:
        return Checkpoint(
            est_contexts=[est.save_context().to_state() for est in self.ests],
            extra={
                "epoch": self.epoch,
                "step_in_epoch": self.step_in_epoch,
                "global_step": self.global_step,
                "bucket_mapping": self.elastic_ddp.export_mapping(),
                "loader": self.loader.export_state(),
                "determinism": self.config.determinism.label,
            },
            params={
                "model": self.model.state_dict(),
                "optimizer": self.optimizer.state_dict(),
                "scheduler": self.scheduler.state_dict() if self.scheduler else None,
            },
            meta={
                "workload": self.spec.name,
                "num_ests": self.config.num_ests,
                "seed": self.config.seed,
                "batch_size": self.config.batch_size,
                "bucket_capacity_elems": self.config.bucket_capacity_elems,
                "allreduce_algorithm": self.config.allreduce_algorithm,
                "num_data_workers": self.config.num_data_workers,
                "micro_batches": self.config.micro_batches,
            },
        )

    def _load_checkpoint(self, ckpt: Checkpoint) -> None:
        flightrec.record(
            "engine.checkpoint_restore", step=int(ckpt.extra["global_step"])
        )
        with obs.span(
            "engine.checkpoint_restore", cat="engine", step=int(ckpt.extra["global_step"])
        ):
            self._restore_checkpoint(ckpt)

    def _restore_checkpoint(self, ckpt: Checkpoint) -> None:
        if ckpt.num_ests != self.config.num_ests:
            raise ValueError(
                f"checkpoint has {ckpt.num_ests} ESTs, job declares {self.config.num_ests}"
            )
        if ckpt.meta.get("workload") not in (None, self.spec.name):
            raise ValueError(
                f"checkpoint belongs to workload {ckpt.meta.get('workload')!r}"
            )
        self.model.load_state_dict(ckpt.params["model"])
        self.optimizer.load_state_dict(ckpt.params["optimizer"])
        if self.scheduler is not None and ckpt.params.get("scheduler") is not None:
            self.scheduler.load_state_dict(ckpt.params["scheduler"])
        for est in self.ests:
            est.load_context(ckpt.context_for(est.vrank))
        self.epoch = int(ckpt.extra["epoch"])
        self.step_in_epoch = int(ckpt.extra["step_in_epoch"])
        self.global_step = int(ckpt.extra["global_step"])
        self.elastic_ddp.import_mapping(ckpt.extra.get("bucket_mapping"))
        self.loader.import_state(ckpt.extra["loader"])
        self.loader.set_epoch(self.epoch)

    @classmethod
    def from_checkpoint(
        cls,
        spec: WorkloadSpec,
        dataset: Dataset,
        ckpt: Checkpoint,
        optimizer_factory: Callable[[Module], Optimizer],
        assignment: WorkerAssignment,
        transform: Optional[Transform] = None,
        scheduler_factory: Optional[Callable[[Optimizer], LRScheduler]] = None,
        config: Optional[EasyScaleJobConfig] = None,
        telemetry: Optional["RunLog"] = None,
        profiler: Optional["OnlineProfiler"] = None,
        fault_injector: Optional["StepDeliverer"] = None,
        backend: Union[None, str, ExecutionBackend] = None,
    ) -> "EasyScaleEngine":
        """Resume a job from an on-demand checkpoint on a new allocation."""
        if config is None:
            config = EasyScaleJobConfig(
                num_ests=ckpt.num_ests,
                seed=int(ckpt.meta.get("seed", 0)),
                determinism=determinism_from_label(ckpt.extra.get("determinism", "D1")),
                batch_size=int(ckpt.meta.get("batch_size", 8)),
                bucket_capacity_elems=int(ckpt.meta.get("bucket_capacity_elems", 2048)),
                allreduce_algorithm=str(ckpt.meta.get("allreduce_algorithm", "ring")),
                num_data_workers=int(ckpt.meta.get("num_data_workers", 2)),
                micro_batches=int(ckpt.meta.get("micro_batches", 1)),
            )
        return cls(
            spec,
            dataset,
            config,
            optimizer_factory,
            assignment,
            transform=transform,
            scheduler_factory=scheduler_factory,
            telemetry=telemetry,
            profiler=profiler,
            fault_injector=fault_injector,
            backend=backend,
            _restore=ckpt,
        )
