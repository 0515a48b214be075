"""``faults`` and ``membership``: ``gen`` writes a seeded plan of the family,
``replay`` runs the undisturbed reference and a resilience-controller run
under the plan, then proves them bitwise-identical by diffing audit trails."""

from __future__ import annotations

import argparse

from repro.cli import DIVERGED, OK, _BadInput, _claim, _load, _parse_stage
from repro.commands.train import build_job, ests_cover, print_run, roster_pool


def faults_gen(args: argparse.Namespace) -> int:
    from repro.faults import random_plan

    if args.steps < 2:
        raise _BadInput("--steps needs at least 2 steps")
    plan = random_plan(args.seed, horizon_steps=args.steps, num_gpus=args.gpus,
                       max_events=args.events)
    return _write(args, plan, "fault")


def membership_gen(args: argparse.Namespace) -> int:
    from repro.faults import HostSpec, random_membership_plan, rolling_upgrade_plan

    if args.rolling is None:
        if args.steps < 2:
            raise _BadInput("--steps needs at least 2 steps")
        plan = random_membership_plan(args.seed, horizon_steps=args.steps,
                                      max_events=args.events)
    elif args.rolling < 2:
        raise _BadInput("--rolling needs at least 2 hosts")
    else:
        hosts = [HostSpec(f"host{i}", "v100", 1) for i in range(args.rolling)]
        plan = rolling_upgrade_plan(hosts, max_unavailable=args.max_unavailable,
                                    note=f"rolling upgrade of {args.rolling} hosts")
    return _write(args, plan, "membership")


def _write(args: argparse.Namespace, plan, noun: str) -> int:
    _load(plan.save, args.out)
    print(plan.describe())
    print(f"{noun} plan written to {args.out} "
          f"(replay with: repro {args.command} replay --plan {args.out})")
    return OK


def faults_replay(args: argparse.Namespace) -> int:
    """The audit diff, or with ``--contrast`` the four-way contrast."""
    from repro.faults import EventPlan, run_contrast

    plan = _load(EventPlan.load, args.plan, "fault")
    gpus = _parse_stage(args.gpus)
    if not args.contrast:
        return _replay(args, plan, gpus, "fault")
    result = run_contrast(
        *_replay_job(args, plan), gpus, plan, total_steps=args.steps, base_lr=args.lr,
    )
    print(result.describe())
    return OK if result.easyscale_consistent else DIVERGED


def membership_replay(args: argparse.Namespace) -> int:
    from repro.faults import EventPlan

    return _replay(args, _load(EventPlan.load, args.plan, "host"), None, "member")


def _replay_job(args: argparse.Namespace, plan):
    job = build_job(args)
    print(plan.describe())
    if not plan.step_events:
        print("warning: plan has no step-triggered events "
              "(time-triggered plans are for trace-sim)")
    return job


def _replay(args: argparse.Namespace, plan, gpus, leg: str) -> int:
    """reference leg → controller leg → ``diff_audits``, behind both
    ``replay`` commands.  Both legs start on ``gpus``, or on the plan's
    roster when ``gpus`` is None; ``leg`` names the controller's audit file."""
    from repro import obs
    from repro.core import EasyScaleEngine, WorkerAssignment
    from repro.faults import ResilienceController

    pool = roster_pool(plan) if gpus is None else gpus
    ref_path = f"{args.audit}.ref.jsonl" if args.audit else None
    leg_path = f"{args.audit}.{leg}.jsonl" if args.audit else None
    ests_cover(args, pool)
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

    print_run(controller)
    diff = obs.diff_audits(ref_trail, leg_trail)
    print(diff.describe())
    if args.audit:
        print(f"audit trails written to {ref_path} and {leg_path}")
    print("replay:", "BITWISE-IDENTICAL" if diff.identical else "DIVERGED")
    return OK if diff.identical else DIVERGED
