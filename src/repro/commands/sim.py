"""``trace-sim`` and ``colocation``: the cluster simulators."""

from __future__ import annotations

import argparse

from repro.cli import OK, _claim, _load, _plan_cache_totals


def _load_calibration(path: str) -> dict:
    """Per-type scale factors from a ``trace-sim --calibrate`` JSON file:
    ``{"scale": {"t4": 0.8, ...}}`` (by hand or from ``OnlineProfiler``
    calibration deltas) or a flat ``{"t4": 0.8, ...}``."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: calibration file must be a JSON object")
    scale = payload.get("scale", payload)
    if not isinstance(scale, dict) or not scale:
        raise ValueError(f"{path}: no per-GPU-type scale factors found")
    try:
        factors = {str(k): float(v) for k, v in scale.items()}
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: malformed scale factor: {err}") from err
    bad = {k: v for k, v in factors.items() if not 0 < v < float("inf")}
    if bad:
        raise ValueError(f"{path}: scale factors must be positive and finite, got {bad}")
    return factors


def trace_sim(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.faults import EventPlan
    from repro.hw import microbench_cluster, production_cluster
    from repro.obs.report import save_events_jsonl
    from repro.sched import (ClusterSimulator, EasyScalePolicy, YarnCapacityScheduler,
                             diurnal_trace, generate_trace, heavy_tail_trace)

    # every named input, then every named output, before anything is simulated
    calibration = _load(_load_calibration, args.calibrate) if args.calibrate else None
    fault_plan = _load(EventPlan.load, args.faults, "fault") if args.faults else None
    names = ["yarn", "homo", "heter"] if args.policy == "all" else [args.policy]
    # one events file per policy when replaying several
    event_paths = {name: args.events if len(names) == 1 else f"{args.events}.{name}"
                   for name in names if args.events}
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
        jobs = generate_trace(**sized, mean_interarrival_s=args.interarrival,
                              mean_duration_s=args.duration)
    try:
        for name in names:
            policy = (YarnCapacityScheduler() if name == "yarn"
                      else EasyScalePolicy(name == "heter", capability_scale=calibration))
            cluster = (production_cluster(args.cluster_gpus) if args.cluster_gpus
                       else microbench_cluster())
            sim = ClusterSimulator(cluster, jobs, policy, plan=fault_plan)
            result = sim.run() if args.core == "batched" else sim.run_reference()
            print(f"{result.policy:<16} avg JCT {result.average_jct:>10.1f} s   "
                  f"makespan {result.makespan:>10.1f} s   "
                  f"completed {len(result.completed)}/{len(jobs)}")
            if fault_plan is not None:
                print(f"{'':<16} {result.preemptions} preemption(s)   "
                      f"recovery {result.recovery_seconds:>8.1f} s   "
                      f"lost work {result.lost_work_seconds:>8.1f} s")
            cache = _plan_cache_totals(result)
            if cache is not None:
                hits, misses, ratio = cache
                print(f"{'':<16} plan cache: {hits} hit(s) / {misses} miss(es)   "
                      f"hit ratio {ratio:.1%}")
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


def colocation(args: argparse.Namespace) -> int:
    from repro.sched import simulate_colocation

    stats = simulate_colocation(total_gpus=args.gpus, seed=args.seed,
                                training_demand_gpus=args.training_demand)
    print(f"alloc ratio : {stats.alloc_ratio(0, args.gpus):.1%} -> "
          f"{stats.alloc_ratio(1, args.gpus):.1%}")
    print(f"utilization : {stats.mean_utilization(0):.1%} -> {stats.mean_utilization(1):.1%}")
    print(f"preemptions : {stats.preemptions_day2}   failures: {stats.failures_day2}")
    return OK
