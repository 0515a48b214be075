"""Command-line interface: ``python -m repro.cli <command>``.

Gives the repository's main entry points a shell surface:

- ``list-workloads`` — the Table-1 model zoo with resource profiles;
- ``train`` — run one EasyScale job through an elastic GPU schedule and
  verify bitwise consistency against the DDP reference;
- ``trace-sim`` — replay a job trace under a chosen scheduler;
- ``colocation`` — the two-day serving co-location statistic;
- ``scan`` — the D2-eligibility scan for a workload;
- ``obs`` — observability tools: summarize a span trace or telemetry log,
  export a trace to Chrome ``trace_event`` JSON, diff two determinism
  audit trails, replay a span trace through the online profiler
  (``obs profile``), or build a cluster utilization report from a
  trace-sim event log (``obs report``).  ``train --trace/--audit/--profile``
  and ``trace-sim --trace/--events`` produce the input files.
- ``faults`` / ``membership`` — one command pair per plan family, built
  from one table: ``gen`` writes a seeded
  :class:`~repro.faults.schedule.EventPlan` (faults; or random host
  churn, or ``--rolling N`` for a rolling-upgrade drain); ``replay`` runs
  the undisturbed reference and a
  :class:`~repro.faults.controller.ResilienceController` run under the
  plan, then proves the two bitwise-identical by diffing their audit
  trails.  ``train --faults PLAN`` / ``--hosts PLAN`` train through the
  same controller.

- ``bench`` — performance-regression observatory: ``bench record``
  appends one schema-versioned record per workload of a
  ``benchmarks/e2e`` results file to the repo-root ``BENCH_e2e.json``
  trajectory; ``bench compare`` prints the latest-vs-previous verdict per
  metric; ``bench gate`` exits non-zero on any regression, for CI (see
  docs/BENCHMARKS.md).

Exit codes: README.md#cli-exit-codes is the table; the constants below spell it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence, Tuple

# The exit-code table.  Every command returns one of these; 2 is returned
# from exactly one place, the ``_BadInput`` handler in :func:`main`.
OK, BAD_INPUT, SELFTEST_FAILED, DIVERGED, REGRESSED = 0, 2, 3, 4, 5


class _BadInput(Exception):
    """A user-named input or output the CLI cannot use.  The message is
    ``<path>[:<line>]: <why>``; :func:`main` prints it and returns 2."""


def _load(loader, path, *args):
    """The one input boundary: ``loader(path, *args)`` for a user-named file.

    An ``OSError`` (missing, a directory, unreadable, unwritable) or a
    ``ValueError`` (malformed, ``UnicodeDecodeError`` included) *from that
    call* becomes :class:`_BadInput` naming the path.  Commands load every
    input and claim every output before they build anything, so a
    ``ValueError`` from training or simulating is still a traceback.
    """
    import os

    try:
        return loader(path, *args)
    except (OSError, ValueError) as err:
        why = err.strerror.lower() if isinstance(err, OSError) and err.strerror else str(err)
        # loaders that know where (``path:line: …``, ``dir/BENCH_x.json: …``) already say so
        located = why.startswith((f"{path}:", os.path.join(path, "")))
        raise _BadInput(why if located else f"{path}: {why}") from err


def _load_log(loader, path):
    """:func:`_load` for the JSONL logs (telemetry, span trace, audit
    trail): a damaged trailing line is tolerated by the codec and reported
    here; a log with nothing in it cannot answer any question."""
    log = _load(loader, path)
    if log.truncated:
        print(f"warning: {path} has a truncated trailing line (skipped)")
    if not len(log):
        raise _BadInput(f"{path}: no records")
    return log


def _claim(*paths: Optional[str]) -> None:
    """Open every output path for append now, so an unwritable one is bad
    input before any work starts rather than a traceback after it."""
    for path in filter(None, paths):
        _load(lambda p: open(p, "a", encoding="utf-8").close(), path)


def _cmd_list_workloads(args: argparse.Namespace) -> int:
    from repro.models import TABLE1, WORKLOADS

    print(f"{'name':<16} {'dataset':<16} {'batch':>5} {'params(GB)':>10} "
          f"{'V100 mb/s':>9} {'conv-heavy':>10}")
    for name in TABLE1 + sorted(set(WORKLOADS) - set(TABLE1)):
        spec = WORKLOADS[name]
        print(
            f"{spec.name:<16} {spec.dataset_name:<16} {spec.batch_size:>5} "
            f"{spec.params_gb:>10.3f} {spec.throughput['v100']:>9.1f} "
            f"{str(spec.conv_heavy):>10}"
        )
    return OK


def _parse_stage(stage: str):
    """Parse '2xV100' / 'V100' / '1xV100+2xP100' into a GPU list."""
    from repro.hw import gpu_type

    gpus = []
    for part in stage.split("+"):
        part = part.strip()
        if "x" in part:
            count_str, type_name = part.split("x", 1)
            count = int(count_str)
        else:
            count, type_name = 1, part
        gpus.extend([gpu_type(type_name.upper())] * count)
    return gpus


def _positive(text: str, least: int = 1) -> int:
    """argparse ``type`` of every count flag: an integer >= ``least``."""
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
    return value


def _non_negative(text: str) -> int:
    """``colocation --training-demand``: a cap may be zero, but a negative one
    flows through ``min(..., cap)`` into a silent wrong answer."""
    return _positive(text, least=0)


def _seed(text: str) -> int:
    """argparse ``type`` of every ``--seed``: whatever ``repro.utils.rng``
    accepts (``SeedError`` is a ``ValueError``, as is ``int()``'s)."""
    from repro.utils.rng import _check_seed

    try:
        return _check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer seed in [0, 2**63-1], got {text!r}"
        ) from None


def _positive_float(text: str, above: float = 0.0) -> float:
    """argparse ``type`` of every rate, span and factor flag: a finite
    float > ``above``.  ``nan`` and ``inf`` parse as floats and then
    simulate nothing (``completed 0/N``) or poison every replica."""
    try:
        value = float(text)
    except ValueError:
        value = above
    if not above < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"expected a finite number above {above:g}, got {text!r}"
        )
    return value


def _above_one(text: str) -> float:
    """``obs profile --factor``: a straggler is *slower* than its peers' median."""
    return _positive_float(text, above=1.0)


def _stage(text: str) -> str:
    """argparse ``type`` of a ``--schedule`` stage or ``--gpus`` pool: the
    text itself once :func:`_parse_stage` accepts it and it names a GPU."""
    try:
        gpus = _parse_stage(text)
    except (ValueError, KeyError) as err:
        raise argparse.ArgumentTypeError(f"bad GPU stage {text!r}: {err.args[0]}") from None
    if not gpus:
        raise argparse.ArgumentTypeError(f"GPU stage {text!r} names no GPU")
    return text


def _workload(name: str):
    """The registry entry for a user-named workload."""
    from repro.models import get_workload

    try:
        return get_workload(name)
    except KeyError as err:
        raise _BadInput(err.args[0]) from None


def _roster_pool(plan):
    """The GPU pool a membership plan's initial roster provides."""
    from repro.hw import gpu_type

    return [gpu_type(h.gtype.upper()) for h in plan.initial_hosts for _ in range(h.slots)]


def _ests_cover(args: argparse.Namespace, *pools) -> None:
    """``--ests`` against every pool a balanced split will be asked of (an
    EST for each GPU at least): a refusal is bad input, before any work."""
    from repro.core import WorkerAssignment

    for pool in pools:
        try:
            WorkerAssignment.balanced(pool, args.ests)
        except ValueError as err:
            raise _BadInput(f"--ests {args.ests}: {err}") from None


def _build_job(args: argparse.Namespace):
    """``(spec, dataset, config, optimizer factory)`` from the
    :func:`_job_args` flags — the positional head of every engine,
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


def _print_run(controller) -> None:
    """What a controller run reports, for ``train`` and ``replay`` alike."""
    print(controller.stats.describe())
    print(f"clock: {controller.clock:.1f}s = {controller.compute_s:.1f}s "
          f"compute + {controller.stats.downtime_s:.1f}s downtime")


def _cmd_train(args: argparse.Namespace) -> int:
    import os

    from repro import obs
    from repro.faults import EventPlan
    from repro.utils.telemetry import RunLog

    # REPRO_TRACE=1 turns tracing on without a flag (the same switch the
    # benchmark suite honours); REPRO_TRACE_PATH overrides the output.
    env_trace = os.environ.get("REPRO_TRACE") == "1"
    if env_trace and not args.trace:
        args.trace = os.environ.get("REPRO_TRACE_PATH", "repro_trace.jsonl")
    # every named input, then every named output, before anything is built
    hosts = _load(EventPlan.load, args.hosts, "host") if args.hosts else None
    faults = _load(EventPlan.load, args.faults, "fault") if args.faults else None
    stages = [_parse_stage(s) for s in args.schedule]
    if hosts is None and faults is None:
        _ests_cover(args, *stages)
    elif args.verify:  # a controller plans its own split; --verify's reference is balanced
        _ests_cover(args, _roster_pool(hosts) if hosts is not None else stages[0])
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
            # pool children's spans rode each task result back and were
            # merged into the global tracer step by step — the saved trace
            # (and Chrome export) covers every process that did work;
            # close() flushes spans a crash left open so the export stays
            # matched
            obs.tracer().close()
            obs.tracer().save(args.trace)
            print(f"span trace written to {args.trace}")
            if env_trace:
                chrome = args.trace + ".chrome.json"
                obs.tracer().save_chrome_trace(chrome)
                print(f"merged Chrome trace written to {chrome} "
                      f"(load in chrome://tracing or https://ui.perfetto.dev)")
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

    job = spec, dataset, config, optimizer = _build_job(args)
    total = args.steps_per_stage * len(stages)
    profiler = None
    if args.profile:
        capability = static_capability(spec, config.determinism.kernel_policy)
        profiler = OnlineProfiler(static_capability=capability)
    backend = (
        ProcessPoolBackend(max_workers=args.workers)
        if args.backend in ("process", "pool")
        else SerialBackend()
    )
    sinks = dict(telemetry=telemetry, profiler=profiler, backend=backend)
    with backend:
        if hosts is not None or faults is not None:
            engine, reference_pool, label = _drive_controller(
                job, stages[0], hosts, faults, total, **sinks
            )
        else:
            engine = EasyScaleEngine(
                *job, WorkerAssignment.balanced(stages[0], args.ests), **sinks
            )
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
    _print_run(controller)
    return controller.engine, start, "static EasyScale" if roster else "fault-free EasyScale"


def _replay_job(args: argparse.Namespace, plan):
    job = _build_job(args)
    print(plan.describe())
    if not plan.step_events:
        print("warning: plan has no step-triggered events "
              "(time-triggered plans are for trace-sim)")
    return job


def _replay(args: argparse.Namespace, plan, gpus, leg: str) -> int:
    """reference leg → controller leg → ``diff_audits``, behind both
    ``replay`` subcommands.  Both legs start on ``gpus``, or on the plan's
    roster when ``gpus`` is None; ``leg`` names the controller's audit file."""
    from repro import obs
    from repro.core import EasyScaleEngine, WorkerAssignment
    from repro.faults import ResilienceController

    pool = _roster_pool(plan) if gpus is None else gpus
    ref_path = f"{args.audit}.ref.jsonl" if args.audit else None
    leg_path = f"{args.audit}.{leg}.jsonl" if args.audit else None
    _ests_cover(args, pool)
    _claim(ref_path, leg_path)
    job = _replay_job(args, plan)
    try:
        # leg 1: the plan-free reference on the starting pool, audited per step
        obs.configure(enabled=True, audit=True, audit_path=ref_path)
        reference = EasyScaleEngine(*job, WorkerAssignment.balanced(pool, args.ests))
        reference.train_steps(args.steps)
        ref_trail = obs.audit_trail()
        # leg 2: the same job under the plan; the trail must allow rewinds
        # because recoveries re-record the steps they re-execute
        obs.configure(enabled=True, audit=True, audit_path=leg_path,
                      audit_rewind=True)
        controller = ResilienceController(*job, gpus, plan,
                                          snapshot_interval=args.snapshot_interval)
        controller.run(args.steps)
        leg_trail = obs.audit_trail()
    finally:
        obs.reset()

    _print_run(controller)
    diff = obs.diff_audits(ref_trail, leg_trail)
    print(diff.describe())
    if args.audit:
        print(f"audit trails written to {ref_path} and {leg_path}")
    print("replay:", "BITWISE-IDENTICAL" if diff.identical else "DIVERGED")
    return OK if diff.identical else DIVERGED


def _gen_fault_plan(args: argparse.Namespace):
    from repro.faults import random_plan

    if args.steps < 2:
        raise _BadInput("--steps needs at least 2 steps")
    return random_plan(
        args.seed, horizon_steps=args.steps, num_gpus=args.gpus, max_events=args.events
    )


def _gen_host_plan(args: argparse.Namespace):
    from repro.faults import HostSpec, random_membership_plan, rolling_upgrade_plan

    if args.rolling is None:
        if args.steps < 2:
            raise _BadInput("--steps needs at least 2 steps")
        return random_membership_plan(
            args.seed, horizon_steps=args.steps, max_events=args.events
        )
    if args.rolling < 2:
        raise _BadInput("--rolling needs at least 2 hosts")
    hosts = [HostSpec(f"host{i}", "v100", 1) for i in range(args.rolling)]
    return rolling_upgrade_plan(hosts, max_unavailable=args.max_unavailable,
                                note=f"rolling upgrade of {args.rolling} hosts")


def _cmd_plan(args: argparse.Namespace) -> int:
    """``faults`` and ``membership``: ``gen`` writes a plan of the row's
    family, ``replay`` proves it bitwise (``faults replay --contrast``:
    the four-way contrast instead)."""
    from repro.faults import EventPlan, run_contrast

    row = _PLAN_COMMANDS[args.command]
    if args.plan_command == "gen":
        plan = row["gen_plan"](args)
        _load(plan.save, args.out)
        print(plan.describe())
        print(f"{row['noun']} plan written to {args.out} "
              f"(replay with: repro {args.command} replay --plan {args.out})")
        return OK
    plan = _load(EventPlan.load, args.plan, row["family"])
    gpus = _parse_stage(args.gpus) if row["family"] == "fault" else None
    if gpus is not None and args.contrast:
        result = run_contrast(
            *_replay_job(args, plan), gpus, plan,
            total_steps=args.steps, base_lr=args.lr,
        )
        print(result.describe())
        return OK if result.easyscale_consistent else DIVERGED
    return _replay(args, plan, gpus, row["leg"])


#: ``faults`` and ``membership``, one row per plan family: the kinds its
#: plans may hold, ``gen``'s noun, generator, flags between ``--steps`` and
#: ``--out`` and ``--out`` default; ``replay``'s audit leg, pool flags
#: (between ``--samples`` and ``--determinism``) and flags after ``--audit``,
#: where ``--help`` has always listed them; and the help strings
_PLAN_COMMANDS = {
    "faults": dict(
        family="fault", noun="fault", gen_plan=_gen_fault_plan, out="fault_plan.json",
        gen=(("--gpus", dict(type=_positive, default=4,
                             help="GPUs in the target pool — bounds how much capacity "
                                  "the plan may take away (default 4)")),
             ("--events", dict(type=_positive, default=4,
                               help="maximum events in the plan (default 4)"))),
        leg="fault",
        pool=(("--gpus", dict(type=_stage, default="2xV100+2xT4",
                              help="GPU pool, e.g. 2xV100+2xT4 (default)")),),
        replay=(("--contrast", dict(action="store_true",
                                    help="instead of the audit diff, run the four-way "
                                         "contrast against a checkpoint-restart elastic "
                                         "baseline (shows the baseline diverging)")),),
        help="deterministic fault injection (plan generation, replay)",
        gen_help="generate a seeded random fault plan (JSON)",
        replay_help="prove bitwise recovery: run the fault-free reference and a "
                    "resilience-controller run under a plan, then diff their "
                    "determinism audit trails (exit 0 identical, 4 divergent)",
        plan_help="fault plan JSON (from: repro faults gen)",
        determinism_help="heterogeneous pools need D2 for bitwise identity across "
                         "recoveries (default D1+D2)",
    ),
    "membership": dict(
        family="host", noun="membership", gen_plan=_gen_host_plan,
        out="membership_plan.json",
        gen=(("--events", dict(type=_positive, default=4,
                               help="maximum host events in the plan (default 4)")),
             ("--rolling", dict(type=_positive, default=None, metavar="HOSTS",
                                help="instead of random churn, emit a rolling-upgrade "
                                     "plan draining all but one of HOSTS single-V100 "
                                     "hosts, --max-unavailable at a time")),
             ("--max-unavailable", dict(type=_positive, default=1,
                                        help="hosts drained per wave with --rolling "
                                             "(default 1)"))),
        leg="member", pool=(), replay=(),
        help="cluster membership scenarios (plan generation, bitwise replay)",
        gen_help="generate a seeded membership plan (JSON)",
        replay_help="prove bitwise membership: run the static reference on the "
                    "plan's initial roster and a resilience-controller run under "
                    "the plan, then diff their determinism audit trails "
                    "(exit 0 identical, 4 divergent)",
        plan_help="membership plan JSON (from: repro membership gen)",
        determinism_help="heterogeneous rosters need D2 for bitwise identity across "
                         "reconfigurations (default D1+D2)",
    ),
}


def _load_calibration(path: str) -> dict:
    """Read a ``trace-sim --calibrate`` JSON file into per-type scale factors.

    Accepts either ``{"scale": {"t4": 0.8, ...}}`` (as written by hand or
    derived from ``OnlineProfiler`` calibration deltas) or a flat
    ``{"t4": 0.8, ...}`` mapping.
    """
    import json

    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: calibration file must be a JSON object")
    scale = payload.get("scale", payload)
    if not isinstance(scale, dict) or not scale:
        raise ValueError(f"{path}: no per-GPU-type scale factors found")
    try:
        factors = {str(k).lower(): float(v) for k, v in scale.items()}
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: malformed scale factor: {err}") from err
    bad = {k: v for k, v in factors.items() if not 0 < v < float("inf")}
    if bad:
        raise ValueError(f"{path}: scale factors must be positive and finite, got {bad}")
    return factors


def _plan_cache_totals(result) -> Optional[Tuple[int, int, float]]:
    """Aggregate companion plan-cache stats across a run's per-job agents.

    Returns ``(hits, misses, hit_ratio)``, or ``None`` when the policy has
    no companion-backed agents (e.g. YARN-CS gang scheduling).
    """
    hits = misses = 0
    found = False
    for runtime in result.jobs:
        agent = runtime.agent
        companion = getattr(agent, "companion", None)
        if companion is None or not hasattr(companion, "cache_stats"):
            continue
        found = True
        for stats in companion.cache_stats().values():
            hits += stats["hits"]
            misses += stats["misses"]
    if not found:
        return None
    total = hits + misses
    return hits, misses, (hits / total if total else 0.0)


def _cmd_trace_sim(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.faults import EventPlan
    from repro.hw import microbench_cluster, production_cluster
    from repro.obs.report import save_events_jsonl
    from repro.sched import (
        ClusterSimulator,
        EasyScalePolicy,
        YarnCapacityScheduler,
        diurnal_trace,
        generate_trace,
        heavy_tail_trace,
    )

    # every named input, then every named output, before anything is simulated
    calibration = _load(_load_calibration, args.calibrate) if args.calibrate else None
    fault_plan = _load(EventPlan.load, args.faults, "fault") if args.faults else None
    names = ["yarn", "homo", "heter"] if args.policy == "all" else [args.policy]
    # one events file per policy when replaying several
    event_paths = {
        name: args.events if len(names) == 1 else f"{args.events}.{name}"
        for name in names
        if args.events
    }
    _claim(args.trace, *event_paths.values())
    if calibration is not None:
        print(f"calibrated capability scales: {calibration}")
    if fault_plan is not None and not fault_plan.time_events:
        print(f"warning: {args.faults} has no time-triggered events "
              "(step-triggered plans are for 'faults replay')")

    if args.trace:
        obs.configure(enabled=True, clock="sim")
    sized = dict(num_jobs=args.jobs, seed=args.seed)
    if args.shape == "diurnal":
        jobs = diurnal_trace(**sized, days=args.days, mean_duration_s=args.duration)
    elif args.shape == "heavy-tail":
        jobs = heavy_tail_trace(**sized, mean_interarrival_s=args.interarrival)
    else:
        jobs = generate_trace(
            **sized, mean_interarrival_s=args.interarrival, mean_duration_s=args.duration
        )
    try:
        for name in names:
            policy = (
                YarnCapacityScheduler()
                if name == "yarn"
                else EasyScalePolicy(name == "heter", capability_scale=calibration)
            )
            if args.cluster_gpus:
                cluster = production_cluster(args.cluster_gpus)
            else:
                cluster = microbench_cluster()
            sim = ClusterSimulator(cluster, jobs, policy, plan=fault_plan)
            result = sim.run() if args.core == "batched" else sim.run_reference()
            print(
                f"{result.policy:<16} avg JCT {result.average_jct:>10.1f} s   "
                f"makespan {result.makespan:>10.1f} s   "
                f"completed {len(result.completed)}/{len(jobs)}"
            )
            if fault_plan is not None:
                print(
                    f"{'':<16} {result.preemptions} preemption(s)   "
                    f"recovery {result.recovery_seconds:>8.1f} s   "
                    f"lost work {result.lost_work_seconds:>8.1f} s"
                )
            cache = _plan_cache_totals(result)
            if cache is not None:
                hits, misses, ratio = cache
                print(
                    f"{'':<16} plan cache: {hits} hit(s) / {misses} miss(es)   "
                    f"hit ratio {ratio:.1%}"
                )
            if args.events:
                count = save_events_jsonl(result.events, event_paths[name])
                print(f"{count} events written to {event_paths[name]} "
                      f"(see: repro obs report)")
    finally:
        if args.trace:
            obs.tracer().close()
            obs.tracer().save(args.trace)
            print(f"span trace written to {args.trace}")
            obs.reset()
    return OK


def _is_telemetry_file(path: str) -> bool:
    """True when the first row looks like a RunLog record rather than a
    span-trace record (telemetry kinds vs meta/span/instant)."""
    from repro.utils.jsonl import read_jsonl
    from repro.utils.telemetry import _ALLOWED_KINDS

    rows, _ = read_jsonl(path, limit=1)
    return bool(rows) and rows[0][1].get("kind") in _ALLOWED_KINDS


def _summarize_telemetry(path: str) -> int:
    from repro.utils.telemetry import RunLog

    log = _load_log(RunLog.load, path)
    kinds = {}
    for record in log.records:
        kinds[record.kind] = kinds.get(record.kind, 0) + 1
    print(f"{len(log)} telemetry records from {path} "
          f"({', '.join(f'{k}: {v}' for k, v in sorted(kinds.items()))})")
    losses = log.loss_series()
    if losses:
        print(f"loss: first {losses[0]:.6f}  last {losses[-1]:.6f}  over {len(losses)} steps")
    for record in log.of_kind("scale_event"):
        print(f"  step {record.step}: scaled to {record.data.get('gpus')}")
    for record in log.of_kind("profile"):
        summary = record.data.get("summary", {})
        workers = summary.get("workers", {})
        print(f"  step {record.step}: profile over {summary.get('windows', 0)} windows, "
              f"{len(workers)} workers, {len(summary.get('stragglers', []))} straggler events")
        for wid, w in sorted(workers.items()):
            print(f"    worker {wid} ({w.get('gpu')}): "
                  f"p50 {w.get('p50_s', 0.0):.6f}s  p99 {w.get('p99_s', 0.0):.6f}s")
        observed = summary.get("calibration", {}).get("observed", {})
        if observed:
            print(f"    calibrated capability: "
                  f"{ {k: round(v, 3) for k, v in sorted(observed.items())} }")
    return OK


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro import obs

    if args.obs_command == "summarize":
        if _load(_is_telemetry_file, args.trace_file):
            return _summarize_telemetry(args.trace_file)
        tracer = _load_log(obs.SpanTracer.load, args.trace_file)
        spans = sum(r["kind"] == "span" for r in tracer.records)
        print(f"{spans} spans, {len(tracer) - spans} instants from {args.trace_file}")
        print(tracer.flame_summary(limit=args.limit))
        return OK

    if args.obs_command == "profile":
        import json

        from repro.obs.profiler import ProfilerConfig, profile_from_trace

        tracer = _load_log(obs.SpanTracer.load, args.trace_file)
        _claim(args.json)
        static = None
        if args.workload:
            from repro.hw import static_capability

            static = static_capability(_workload(args.workload))
        config = ProfilerConfig(
            window_size=args.window,
            straggler_factor=args.factor,
            straggler_windows=args.consecutive,
        )
        profiler = profile_from_trace(tracer.records, config=config, static_capability=static)
        if not profiler.windows_closed and not profiler.observed_capability:
            raise _BadInput(
                f"{args.trace_file}: no worker.local_step spans to profile "
                "(produce one with: repro train <workload> --trace PATH)"
            )
        print(profiler.describe())
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(profiler.summary(), fh, indent=2, sort_keys=True)
            print(f"profile summary written to {args.json}")
        return OK

    if args.obs_command == "report":
        import json

        from repro.obs.report import ClusterUtilizationReport, events_from_trace
        from repro.utils.jsonl import read_jsonl

        numbered, truncated = _load(read_jsonl, args.events_file, "event line")
        _claim(args.html, args.json)
        if truncated:
            print(f"warning: {args.events_file} has a truncated trailing line (skipped)")
        rows = [row for _, row in numbered]
        if rows and rows[0].get("kind") in ("meta", "span", "instant"):
            rows = events_from_trace(rows)  # a span trace: use sched instants
        report = ClusterUtilizationReport.from_events(rows)
        if not report.jobs:
            raise _BadInput(
                f"{args.events_file}: no simulator events found "
                "(produce a log with: repro trace-sim --events PATH)"
            )
        print(report.to_text())
        if args.html:
            with open(args.html, "w", encoding="utf-8") as fh:
                fh.write(report.to_html(title=f"Cluster utilization — {args.events_file}"))
            print(f"HTML report written to {args.html}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(report.summary(), fh, indent=2, sort_keys=True)
            print(f"JSON summary written to {args.json}")
        return OK

    if args.obs_command == "export-trace":
        tracer = _load_log(obs.SpanTracer.load, args.trace_file)
        out = args.output or (args.trace_file + ".chrome.json")
        _load(tracer.save_chrome_trace, out)
        print(f"{len(tracer)} records exported to {out} "
              f"(load in chrome://tracing or https://ui.perfetto.dev)")
        return OK

    if args.obs_command == "diff-audit":
        a = _load_log(obs.AuditTrail.load, args.audit_a)
        b = _load_log(obs.AuditTrail.load, args.audit_b)
        diff = obs.diff_audits(a, b)
        print(f"A: {len(a)} steps ({args.audit_a})")
        print(f"B: {len(b)} steps ({args.audit_b})")
        print(diff.describe())
        return OK if diff.identical else DIVERGED

    if args.obs_command == "postmortem":
        bundle = _load(obs.load_bundle, args.bundle)
        print(obs.render_bundle(bundle, tail=args.tail))
        return OK

    if args.obs_command == "why":

        def load_side(path):
            """A side is either an audit-trail JSONL or a postmortem bundle."""
            if obs.is_bundle_file(path):
                bundle = _load(obs.load_bundle, path)
                return obs.trail_from_bundle(bundle), bundle.get("events") or []
            return _load_log(obs.AuditTrail.load, path), None

        trail_a, events_a = load_side(args.trail_a)
        trail_b, events_b = load_side(args.trail_b)
        report = obs.analyze_divergence(
            trail_a, trail_b, events_a=events_a, events_b=events_b, window=args.window
        )
        print(f"A: {len(trail_a)} steps ({args.trail_a})")
        print(f"B: {len(trail_b)} steps ({args.trail_b})")
        print(report.describe())
        return OK if report.identical else DIVERGED

    raise AssertionError(f"unhandled obs subcommand {args.obs_command!r}")


def _cmd_colocation(args: argparse.Namespace) -> int:
    from repro.sched import simulate_colocation

    stats = simulate_colocation(
        total_gpus=args.gpus, seed=args.seed, training_demand_gpus=args.training_demand
    )
    day1_alloc = stats.alloc_ratio(0, args.gpus)
    day2_alloc = stats.alloc_ratio(1, args.gpus)
    day1_util = stats.mean_utilization(0)
    day2_util = stats.mean_utilization(1)
    print(f"alloc ratio : {day1_alloc:.1%} -> {day2_alloc:.1%}")
    print(f"utilization : {day1_util:.1%} -> {day2_util:.1%}")
    print(f"preemptions : {stats.preemptions_day2}   failures: {stats.failures_day2}")
    return OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    from repro.core.selftest import run_selftest

    report = run_selftest()
    for line in report.lines():
        print(line)
    print("\nself-test", "PASSED" if report.passed else "FAILED")
    return OK if report.passed else SELFTEST_FAILED


def _cmd_scan(args: argparse.Namespace) -> int:
    from repro.core import scan_model
    from repro.utils.rng import RNGBundle

    spec = _workload(args.workload)
    report = scan_model(spec.build_model(RNGBundle(0)))
    if report.d2_recommended:
        print(f"{args.workload}: no vendor-kernel reliance; D2 is cheap "
              f"(heterogeneous GPUs recommended)")
    else:
        print(f"{args.workload}: relies on vendor conv kernels in "
              f"{len(report.vendor_kernel_modules)} modules; D2 costs ~3.4x "
              f"(homogeneous GPUs recommended)")
        for name in report.vendor_kernel_modules:
            print(f"  - {name}")
    return OK


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs import bench

    directory = args.dir or bench.bench_dir()
    if args.bench_command == "record":
        runs = _load(bench.load_results, args.results)
        records = _load(lambda d: [bench.record_samples(bench.AREA, directory=d, **run)
                                   for run in runs], directory)
        for record in records:
            stats = "  ".join(f"{name} {s['median']:.6g} {s['unit']} (n={s['repeats']})"
                              for name, s in sorted(record["metrics"].items()))
            print(f"{bench.AREA}/{record['bench']}: {stats}")
        print(f"  -> appended {len(records)} records to "
              f"{bench.trajectory_path(bench.AREA, directory)} "
              f"({records[-1]['git_sha']} @ {records[-1]['timestamp']})")
        return OK

    # compare and gate read the trajectory; a directory without one is
    # bad input (a gate with nothing to check must not pass)
    rows, regressed = _load(bench.gate_trajectory, directory, args.threshold)
    for row in rows:
        print(row.describe())
    if args.bench_command == "compare":
        print(f"{len(rows)} metrics: "
              f"{sum(r.status == 'improved' for r in rows)} improved, "
              f"{sum(r.status == 'flat' for r in rows)} flat, "
              f"{len(regressed)} regressed, "
              f"{sum(r.status == 'baseline' for r in rows)} baseline")
        return OK
    if regressed:
        print(f"bench gate: FAILED — {len(regressed)} regressed metric(s)")
        return REGRESSED
    print(f"bench gate: ok ({len(rows)} metrics within tolerance)")
    return OK


def _job_args(parser, samples: int, determinism: str, *own,
              ests_help=None, determinism_help=None) -> None:
    """Declare the flags :func:`_build_job` reads, for ``train`` and both
    ``replay``s.  ``own`` — ``(flag, kwargs)`` pairs — are the subcommand's
    step and pool flags, declared between ``--samples`` and
    ``--determinism`` where ``--help`` has always listed them."""
    parser.add_argument("--ests", type=_positive, default=4, help=ests_help)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--batch-size", type=_positive, default=8)
    parser.add_argument("--lr", type=_positive_float, default=0.05)
    parser.add_argument("--samples", type=_positive, default=samples)
    for flag, kwargs in own:
        parser.add_argument(flag, **kwargs)
    parser.add_argument("--determinism", default=determinism,
                        choices=["D0", "D1", "D0+D2", "D1+D2"],
                        help=determinism_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="EasyScale reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads", help="show the Table-1 model zoo")

    train = sub.add_parser("train", help="run an elastic EasyScale job")
    train.add_argument("workload")
    _job_args(
        train, 256, "D1",
        ("--steps-per-stage", dict(type=_positive, default=4)),
        ("--schedule", dict(nargs="+", type=_stage,
                            default=["4xV100", "2xV100", "1xV100"],
                            help="GPU stages, e.g. 4xV100 2xV100 1xV100+2xP100")),
        ests_help="number of logical workers",
    )
    train.add_argument("--backend", default="serial",
                       choices=["serial", "process", "pool"],
                       help="execution backend: 'serial' steps workers "
                            "in-process; 'process' (alias 'pool') runs worker "
                            "0 in-process and each further worker's compute "
                            "in a persistent process pool "
                            "(bitwise-identical results; see docs/EXECUTION.md)")
    train.add_argument("--workers", type=_positive, default=None, metavar="N",
                       help="process-pool slots for --backend process; "
                            "worker w >= 1 runs in slot (w - 1) mod N "
                            "(default: 4)")
    train.add_argument("--verify", action="store_true", help="compare bitwise vs DDP")
    train.add_argument("--trace", metavar="PATH", default=None,
                       help="record a span trace (JSONL) of the run")
    train.add_argument("--audit", metavar="PATH", default=None,
                       help="record a per-step determinism audit trail (JSONL)")
    train.add_argument("--profile", action="store_true",
                       help="attach the online profiler (windowed step times, "
                            "stragglers, capability calibration); observation "
                            "only — results stay bitwise identical")
    train.add_argument("--telemetry", metavar="PATH", default=None,
                       help="stream a RunLog (JSONL) of steps/scale events; "
                            "with --profile the final profiler summary is "
                            "included (view with: repro obs summarize PATH)")
    train.add_argument("--faults", metavar="PLAN", default=None,
                       help="train through the resilience controller under "
                            "this fault plan JSON (see: repro faults gen); "
                            "the first --schedule stage is the starting "
                            "pool, and --verify compares bitwise against "
                            "the fault-free run")
    train.add_argument("--hosts", metavar="PLAN", default=None,
                       help="train through the resilience controller under "
                            "this membership plan JSON (see: repro "
                            "membership gen); the plan's initial roster is "
                            "the starting pool (--schedule is ignored), "
                            "--faults may run alongside, and --verify "
                            "compares bitwise against the static run")

    trace = sub.add_parser("trace-sim", help="replay a job trace")
    trace.add_argument("--policy", default="all", choices=["yarn", "homo", "heter", "all"])
    trace.add_argument("--jobs", type=_positive, default=30)
    trace.add_argument("--seed", type=_seed, default=4)
    trace.add_argument("--interarrival", type=_positive_float, default=45.0)
    trace.add_argument("--duration", type=_positive_float, default=1200.0)
    trace.add_argument("--shape", default="bursty",
                       choices=["bursty", "diurnal", "heavy-tail"],
                       help="arrival/runtime shape: 'bursty' (Philly-like "
                            "Poisson, default), 'diurnal' (month-scale "
                            "day/night cosine intensity; --interarrival is "
                            "ignored, --days sets the horizon), or "
                            "'heavy-tail' (Pareto runtimes, production "
                            "demand mix)")
    trace.add_argument("--days", type=_positive_float, default=30.0,
                       help="horizon in days for --shape diurnal "
                            "(default 30)")
    trace.add_argument("--cluster-gpus", type=_positive, default=None,
                       help="simulate a production_cluster of this many "
                            "GPUs (e.g. 3000) instead of the 64-GPU "
                            "microbench cluster")
    trace.add_argument("--trace", metavar="PATH", default=None,
                       help="record the simulator event timeline as a span trace (JSONL)")
    trace.add_argument("--events", metavar="PATH", default=None,
                       help="save the simulator event log (JSONL) for "
                            "'repro obs report' (suffix .<policy> when "
                            "replaying multiple policies)")
    trace.add_argument("--faults", metavar="PLAN", default=None,
                       help="inject a time-triggered fault plan JSON into "
                            "the simulated cluster (preemptions, slowdowns; "
                            "see repro.faults.random_sim_plan)")
    trace.add_argument("--calibrate", metavar="PATH", default=None,
                       help="JSON file with per-GPU-type capability scale "
                            "factors, e.g. {\"scale\": {\"t4\": 0.8}} — "
                            "profiler-measured corrections to the static "
                            "capability table")
    trace.add_argument("--core", default="batched",
                       choices=["batched", "reference"],
                       help="discrete-event core: 'batched' (default: one "
                            "event queue, coalesced event drain, vectorized "
                            "job advance, memoized arbitration) or "
                            "'reference' (its oracle: linear candidate scan, "
                            "scalar advance, brute arbitration — slow at "
                            "scale) — byte-identical event streams")

    for name, row in _PLAN_COMMANDS.items():
        family = sub.add_parser(name, help=row["help"])
        # the leaf, not the group, names the subcommand: the group's dest
        # is what argparse reports when the subcommand is missing
        leaves = family.add_subparsers(dest=f"{name}_command", required=True)
        gen = leaves.add_parser("gen", help=row["gen_help"])
        gen.set_defaults(plan_command="gen")
        gen.add_argument("--seed", type=_seed, default=0)
        gen.add_argument("--steps", type=_positive, default=12,
                         help="horizon in global steps (default 12)")
        for flag, kwargs in row["gen"]:
            gen.add_argument(flag, **kwargs)
        gen.add_argument("--out", metavar="PATH", default=row["out"],
                         help=f"output path (default {row['out']})")
        replay = leaves.add_parser("replay", help=row["replay_help"])
        replay.set_defaults(plan_command="replay")
        replay.add_argument("--plan", required=True, metavar="PATH", help=row["plan_help"])
        replay.add_argument("--workload", default="resnet18")
        _job_args(
            replay, 64, "D1+D2",
            ("--steps", dict(type=_positive, default=12,
                             help="global steps to train (default 12)")),
            *row["pool"],
            determinism_help=row["determinism_help"],
        )
        replay.add_argument("--snapshot-interval", type=_positive, default=4,
                            help="periodic checkpoint interval in steps (default 4)")
        replay.add_argument("--audit", metavar="PREFIX", default=None,
                            help="also write PREFIX.ref.jsonl and "
                                 f"PREFIX.{row['leg']}.jsonl audit trails")
        for flag, kwargs in row["replay"]:
            replay.add_argument(flag, **kwargs)

    colo = sub.add_parser("colocation", help="two-day serving co-location stats")
    colo.add_argument("--gpus", type=_positive, default=3000)
    colo.add_argument("--seed", type=_seed, default=2021)
    colo.add_argument("--training-demand", type=_non_negative, default=500)

    scan = sub.add_parser("scan", help="D2-eligibility scan for a workload")
    scan.add_argument("workload")

    sub.add_parser("self-test", help="verify the bitwise guarantee on this machine")

    obs_parser = sub.add_parser("obs", help="observability tools (traces, audits)")
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    summarize = obs_sub.add_parser(
        "summarize", help="flamegraph-style summary of a span trace JSONL"
    )
    summarize.add_argument("trace_file")
    summarize.add_argument("--limit", type=int, default=None,
                           help="show at most N span paths")

    export = obs_sub.add_parser(
        "export-trace", help="convert a span trace JSONL to Chrome trace_event JSON"
    )
    export.add_argument("trace_file")
    export.add_argument("-o", "--output", default=None,
                        help="output path (default: <trace_file>.chrome.json)")

    diff = obs_sub.add_parser(
        "diff-audit", help="locate the first divergent step between two audit trails"
    )
    diff.add_argument("audit_a")
    diff.add_argument("audit_b")

    postmortem = obs_sub.add_parser(
        "postmortem", help="render a flight-recorder postmortem bundle"
    )
    postmortem.add_argument("bundle", help="postmortem-<step>.json written on crash")
    postmortem.add_argument("--tail", type=int, default=20,
                            help="show the last N ring events (default 20)")

    why = obs_sub.add_parser(
        "why",
        help="divergence root-cause forensics over two audit trails "
             "(or postmortem bundles); exit 0 identical, 4 diverged",
    )
    why.add_argument("trail_a", help="audit-trail JSONL or postmortem bundle")
    why.add_argument("trail_b", help="audit-trail JSONL or postmortem bundle")
    why.add_argument("--window", type=_positive, default=8,
                     help="steps before the divergence to walk back (default 8)")

    profile = obs_sub.add_parser(
        "profile",
        help="replay a span trace through the online profiler "
             "(per-worker p50/p99, stragglers, capability calibration)",
    )
    profile.add_argument("trace_file")
    profile.add_argument("--workload", default=None,
                         help="normalize against this workload's static "
                              "capability table (heterogeneous-aware "
                              "straggler detection)")
    profile.add_argument("--window", type=_positive, default=8,
                         help="steps per profiling window (default 8)")
    profile.add_argument("--factor", type=_above_one, default=1.5,
                         help="straggler threshold vs peer median (default 1.5)")
    profile.add_argument("--consecutive", type=_positive, default=3,
                         help="consecutive slow windows before flagging (default 3)")
    profile.add_argument("--json", metavar="PATH", default=None,
                         help="also write the JSON profile summary")

    report = obs_sub.add_parser(
        "report",
        help="cluster utilization report (idle GPU-seconds, queueing delay, "
             "per-job allocation timelines) from a trace-sim event log",
    )
    report.add_argument("events_file")
    report.add_argument("--html", metavar="PATH", default=None,
                        help="also write a self-contained HTML report")
    report.add_argument("--json", metavar="PATH", default=None,
                        help="also write the JSON summary")

    bench_parser = sub.add_parser(
        "bench",
        help="benchmark trajectories and the regression gate "
             "(BENCH_<area>.json; see docs/BENCHMARKS.md)",
    )
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)

    def _bench_command(name: str, text: str, threshold: bool = True):
        p = bench_sub.add_parser(name, help=text)
        p.add_argument("--dir", metavar="PATH", default=None,
                       help="trajectory directory (default: repo root, or "
                            "$REPRO_BENCH_DIR)")
        if threshold:
            p.add_argument("--threshold", type=_positive_float, default=0.30,
                           help="relative regression tolerance before noise "
                                "widening (default 0.30)")
        return p

    bench_record = _bench_command(
        "record", "append one BENCH_e2e.json record per workload of a "
                  "benchmarks/e2e results file (exit 2 if any workload failed)",
        threshold=False,
    )
    bench_record.add_argument("results", metavar="PATH",
                              help="results file of python -m benchmarks.e2e run "
                                   "(benchmarks/e2e/out/results.json or its --out)")
    _bench_command("compare", "latest-vs-previous verdict for every recorded metric")
    _bench_command("gate", "CI gate: exit 5 if any metric regressed beyond tolerance, "
                           "2 if no trajectory exists, 0 otherwise")

    return parser


COMMANDS = {
    "list-workloads": _cmd_list_workloads,
    "train": _cmd_train,
    "trace-sim": _cmd_trace_sim,
    "faults": _cmd_plan,
    "membership": _cmd_plan,
    "colocation": _cmd_colocation,
    "scan": _cmd_scan,
    "self-test": _cmd_selftest,
    "obs": _cmd_obs,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except _BadInput as err:
        print(f"error: {err}", file=sys.stderr)
        return BAD_INPUT
    except BrokenPipeError:
        # the reader left (``| head``): done, and the exit flush must not
        # raise into the same closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return OK


if __name__ == "__main__":
    sys.exit(main())
