"""``train``, and the job every ``replay`` builds from the same flags."""

from __future__ import annotations

import argparse

from repro.cli import DIVERGED, OK, _BadInput, _claim, _load, _parse_stage, _workload


def roster_pool(plan):
    """The GPU pool a membership plan's initial roster provides."""
    from repro.hw import gpu_type

    return [gpu_type(h.gtype) for h in plan.initial_hosts for _ in range(h.slots)]


def ests_cover(args: argparse.Namespace, *pools) -> None:
    """``--ests`` against every pool a balanced split will be asked of (an
    EST for each GPU at least): a refusal is bad input, before any work."""
    from repro.core import WorkerAssignment

    for pool in pools:
        try:
            WorkerAssignment.balanced(pool, args.ests)
        except ValueError as err:
            raise _BadInput(f"--ests {args.ests}: {err}") from None


def build_job(args: argparse.Namespace):
    """``(spec, dataset, config, optimizer factory)`` from the ``_job``
    flags of :data:`repro.cli.TABLE` — the positional head of every engine,
    controller and contrast constructor, so callers splat it."""
    from repro.core import EasyScaleJobConfig, determinism_from_label
    from repro.optim import SGD

    spec = _workload(args.workload)
    dataset = spec.build_dataset(args.samples, seed=args.seed)
    config = EasyScaleJobConfig(
        num_ests=args.ests, seed=args.seed, batch_size=args.batch_size,
        determinism=determinism_from_label(args.determinism),
    )

    def optimizer(model):
        return SGD(model.named_parameters(), lr=args.lr, momentum=0.9)

    return spec, dataset, config, optimizer


def print_run(controller) -> None:
    """What a controller run reports, for ``train`` and ``replay`` alike."""
    print(controller.stats.describe())
    print(f"clock: {controller.clock:.1f}s = {controller.compute_s:.1f}s "
          f"compute + {controller.stats.downtime_s:.1f}s downtime")


def train(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.faults import EventPlan
    from repro.utils.telemetry import RunLog

    # every named input, then every named output, before anything is built
    hosts = _load(EventPlan.load, args.hosts, "host") if args.hosts else None
    faults = _load(EventPlan.load, args.faults, "fault") if args.faults else None
    stages = [_parse_stage(s) for s in args.schedule]
    if hosts is None and faults is None:
        ests_cover(args, *stages)
    elif args.verify:  # a controller plans its own split; --verify's reference is balanced
        ests_cover(args, roster_pool(hosts) if hosts is not None else stages[0])
    _claim(args.trace, args.audit)
    telemetry = _load(RunLog, args.telemetry) if args.telemetry else None
    if args.trace or args.audit:
        # a fault-recovery or membership run restores to earlier steps and
        # re-records them, which a plain audit trail would reject
        obs.configure(enabled=True, audit_path=args.audit,
                      audit_rewind=bool(args.faults or args.hosts))
    try:
        return _run_train(args, stages, hosts, faults, telemetry)
    finally:
        if telemetry is not None:
            telemetry.close()
        if args.trace:
            # pool children's spans were merged step by step, so the trace
            # covers every process; close() flushes spans a crash left open
            obs.tracer().close()
            obs.tracer().save(args.trace)
            print(f"span trace written to {args.trace}")
        if args.audit:
            print(f"audit trail written to {args.audit}")
        if args.trace or args.audit:
            obs.reset()


def _run_train(args: argparse.Namespace, stages, hosts, faults, telemetry) -> int:
    """Build the job, drive it in one of the three ``train`` modes, then
    the one epilogue: profiler flush, telemetry, ``--verify`` verdict."""
    from repro.core import EasyScaleEngine, WorkerAssignment
    from repro.exec import ProcessPoolBackend, SerialBackend
    from repro.hw import static_capability
    from repro.obs.profiler import OnlineProfiler
    from repro.utils.fingerprint import fingerprint_state_dict

    job = spec, dataset, config, optimizer = build_job(args)
    total = args.steps_per_stage * len(stages)
    profiler = None
    if args.profile:
        capability = static_capability(spec, config.determinism.kernel_policy)
        profiler = OnlineProfiler(static_capability=capability)
    pool = args.backend in ("process", "pool")
    backend = ProcessPoolBackend(max_workers=args.workers) if pool else SerialBackend()
    sinks = dict(telemetry=telemetry, profiler=profiler, backend=backend)
    with backend:
        if hosts is not None or faults is not None:
            engine, reference_pool, label = _drive_controller(job, stages[0], hosts, faults,
                                                              total, **sinks)
        else:
            engine = EasyScaleEngine(*job, WorkerAssignment.balanced(stages[0], args.ests),
                                     **sinks)
            done = 0
            for i, gpus in enumerate(stages):
                if i > 0:
                    engine = engine.reconfigure(WorkerAssignment.balanced(gpus, args.ests))
                    print(f"reconfigured to stage {i}: {[g.name for g in gpus]}")
                losses = engine.train_steps(args.steps_per_stage)
                done += len(losses)
                print(f"stage {i}: steps {done - len(losses)}..{done - 1}, "
                      f"last loss {losses[-1]:.6f}")
            reference_pool, label = None, f"DDP-{args.ests}GPU"

    if profiler is not None:
        profiler.flush()
        print()
        print(profiler.describe())
        if telemetry is not None:
            telemetry.profile(engine.global_step, profiler.summary())
    if telemetry is not None:
        print(f"telemetry written to {args.telemetry}")
    if not args.verify:
        return OK

    if reference_pool is not None:
        # controller modes: the same EasyScale job, undisturbed, on the starting pool
        reference = EasyScaleEngine(*job, WorkerAssignment.balanced(reference_pool, args.ests))
    else:
        from repro.ddp import DDPConfig, DDPTrainer

        # DDP on as many V100s as ESTs, under the job's kernel policy
        ddp_config = DDPConfig(
            world_size=args.ests, seed=args.seed, batch_size=args.batch_size,
            policy=config.determinism.kernel_policy,
        )
        reference = DDPTrainer(spec, dataset, ddp_config, optimizer)
    reference.train_steps(total)
    same = fingerprint_state_dict(engine.model.state_dict()) == fingerprint_state_dict(
        reference.model.state_dict()
    )
    print(f"bitwise vs {label} reference: {'IDENTICAL' if same else 'DIFFERENT'}")
    return OK if same else DIVERGED


def _drive_controller(job, pool, hosts, faults, total: int, **sinks):
    """``train --faults`` / ``train --hosts``: one
    :class:`~repro.faults.controller.ResilienceController` under one plan,
    started on ``pool`` (the first ``--schedule`` stage) or on the
    ``--hosts`` roster (``--schedule`` then only sets the step count), with
    ``--faults`` merged after the host events.  Returns the engine, the
    starting pool the ``--verify`` reference trains on, and its label."""
    from repro.faults import ResilienceController

    roster = hosts is not None
    plan = hosts if roster else faults
    print(plan.describe())
    if roster and faults is not None:
        plan = plan.merged(faults)
    controller = ResilienceController(*job, None if roster else pool, plan, **sinks)
    start = list(controller.pool)
    controller.run(total)
    if controller.losses:
        print(f"{total} steps survived the plan; "
              f"last loss {controller.losses[-1][-1]:.6f}")
    print_run(controller)
    return controller.engine, start, "static EasyScale" if roster else "fault-free EasyScale"
