"""The seven workloads: frozen sizes, input generation, and the child-side body.

The bodies run inside a child process started by
:mod:`benchmarks.e2e.driver`.  Inputs are generated from the run's seed
(dataset seed, job seed, arrival jitter of the trace); the program under
test receives only the generated inputs.
"""

from __future__ import annotations

import filecmp
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from benchmarks.e2e.calibrate import HostSpeed, factor
from benchmarks.e2e.stats import percentile
from benchmarks.e2e.tracer import SpanIndex, Tracer

#: seed of every sim workload's base trace; ``--seed`` jitters its arrivals
TRACE_SEED = 2023
ARRIVAL_JITTER_S = 60.0

#: kernel samples taken at the start and at the end of a run's set-up
SETUP_SAMPLES = 12

#: stage cycle of ``train_rec_elastic`` (one ``engine.reconfigure`` each)
ELASTIC_STAGES = [
    ["V100"] * 4,
    ["V100"] * 2,
    ["V100", "P100", "T4"],
    ["T4"],
    ["P100", "P100", "T4", "T4"],
]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" | "sim"
    why: str
    #: frozen sizes of one repeat (the timed region they produce on the
    #: 2-core reference box is recorded in ``reference.json``)
    sizes: Dict[str, Any]
    #: tiny sizes for ``--smoke``
    smoke: Dict[str, Any]


_CONV = dict(model="resnet18", ests=4, batch=8, samples=256, stages=[["V100", "V100"]])
_MONTH = dict(gpus=3000, check=dict(gpus=64, jobs=40, days=1))

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "train_conv_serial", "train",
            "plain single-process baseline: repro.tensor conv fwd/bwd does nearly all the work",
            dict(_CONV, backend="serial", steps=24),
            dict(_CONV, backend="serial", steps=2, samples=64),
        ),
        Workload(
            "train_conv_pool", "train",
            "the identical job under the 2-worker shm pool: repro.exec overhead and speedup vs serial",
            dict(_CONV, backend="pool", steps=24),
            dict(_CONV, backend="pool", steps=2, samples=64),
        ),
        Workload(
            "train_wide_pool", "train",
            "byte-bound 0.8M-parameter MLP under the pool: state broadcast, all-reduce and SGD dominate",
            dict(model="wide_mlp", ests=4, batch=8, samples=256, stages=[["V100", "V100"]],
                 backend="pool", steps=32),
            dict(model="wide_mlp", ests=4, batch=8, samples=64, stages=[["V100", "V100"]],
                 backend="pool", steps=2),
        ),
        Workload(
            "train_rec_elastic", "train",
            "elasticity path: reconfigure every 2 steps over 5 GPU mixes plus periodic checkpoints and a restore",
            dict(model="neumf", ests=8, batch=8, samples=512, stages=ELASTIC_STAGES,
                 backend="serial", steps=90, reconfigure_every=2,
                 ckpt=dict(interval=5, retention=3)),
            dict(model="neumf", ests=8, batch=8, samples=128, stages=ELASTIC_STAGES,
                 backend="serial", steps=10, reconfigure_every=2,
                 ckpt=dict(interval=5, retention=3)),
        ),
        Workload(
            "sim_contended", "sim",
            "over-subscribed small cluster: host time is cold plan-cache misses in the scheduler search",
            dict(policy="easyscale", gpus=96, jobs=150, days=3, demand="philly",
                 check=dict(gpus=32, jobs=24, days=1, demand="philly")),
            dict(policy="easyscale", gpus=32, jobs=12, days=1, demand="philly",
                 check=dict(gpus=32, jobs=8, days=1, demand="philly")),
        ),
        Workload(
            "sim_month_warm", "sim",
            "under-subscribed 3000-GPU month: the same scheduler layers served by memo and plan-cache hits",
            dict(_MONTH, policy="easyscale", jobs=700, days=4),
            dict(_MONTH, policy="easyscale", jobs=40, days=2,
                 check=dict(gpus=64, jobs=10, days=1)),
        ),
        Workload(
            "sim_fifo_month", "sim",
            "gang-FIFO month: policy is cheap, the batched DES core, inventory and event log do the work",
            dict(_MONTH, policy="yarn", jobs=4000, days=6),
            dict(_MONTH, policy="yarn", jobs=60, days=2,
                 check=dict(gpus=64, jobs=10, days=1)),
        ),
    ]
}


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def _train_spec(model: str):
    if model == "wide_mlp":
        from benchmarks.e2e.wide_mlp import SPEC

        return SPEC
    from repro.models import get_workload

    return get_workload(model)


def _optimizer(model):
    from repro.optim import SGD

    return SGD(model.named_parameters(), lr=0.05, momentum=0.9)


def _assignment(stage: List[str], ests: int):
    from repro.core import WorkerAssignment
    from repro.hw import gpu_type

    return WorkerAssignment.balanced([gpu_type(name) for name in stage], ests)


def _peak_rss_mb(pids: List[int]) -> float:
    """Sum of the peak resident sets (VmHWM) of ``pids``."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def _install_train_wrappers(tracer: Tracer) -> None:
    import repro.core.elastic_ddp as elastic_ddp
    import repro.core.worker as worker
    from repro.core.checkpoint import Checkpoint
    from repro.core.engine import EasyScaleEngine
    from repro.data.dataloader import SharedDataLoader
    from repro.exec import ProcessPoolBackend, SerialBackend
    from repro.exec.shm import ShmTransport
    from repro.faults.manager import CheckpointManager
    from repro.optim import SGD

    tracer.wrap(SharedDataLoader, "load", "data.load")
    tracer.wrap(worker, "execute_local_step", "worker.local_step")
    tracer.wrap(worker.EasyScaleWorker, "run_global_step", "worker.run_global_step")
    tracer.wrap(SerialBackend, "run_step", "exec.run_step")
    tracer.wrap(ProcessPoolBackend, "run_step", "exec.run_step")
    tracer.wrap(ShmTransport, "write_state", "exec.write_state",
                count=lambda args, nbytes: nbytes)
    tracer.wrap(ShmTransport, "read_bucket", "exec.read_bucket",
                count=lambda args, flat: args[3] * 4)
    tracer.wrap(elastic_ddp.ElasticDDP, "synchronize", "comm.sync")
    tracer.wrap(elastic_ddp, "allreduce_mean", "comm.allreduce",
                count=lambda args, reduced: sum(g.nbytes for g in args[0]))
    tracer.wrap(SGD, "step", "optim.step")
    tracer.wrap(EasyScaleEngine, "run_global_step", "engine.step")
    tracer.wrap(EasyScaleEngine, "reconfigure", "engine.reconfigure")
    tracer.wrap(EasyScaleEngine, "checkpoint", "engine.checkpoint")
    tracer.wrap(EasyScaleEngine, "from_checkpoint", "ckpt.restore")
    tracer.wrap(Checkpoint, "to_bytes", "ckpt.to_bytes")
    tracer.wrap(Checkpoint, "from_bytes", "ckpt.from_bytes")
    tracer.wrap(CheckpointManager, "take", "ckpt.save",
                count=lambda args, snapshot: snapshot.size_bytes)


def run_train(sizes: Dict[str, Any], seed: int, tmp: str,
              tracer: Optional[Tracer]) -> Dict[str, Any]:
    from repro.core import EasyScaleEngine, EasyScaleJobConfig, determinism_from_label
    from repro.exec import ProcessPoolBackend, SerialBackend
    from repro.faults.manager import CheckpointManager
    from repro.utils.fingerprint import fingerprint_state_dict

    if tracer is not None:
        _install_train_wrappers(tracer)
    host = HostSpeed()
    host.sample(SETUP_SAMPLES)
    spec = _train_spec(sizes["model"])
    dataset = spec.build_dataset(sizes["samples"], seed=seed)
    config = EasyScaleJobConfig(
        num_ests=sizes["ests"], seed=seed, batch_size=sizes["batch"],
        determinism=determinism_from_label("D1+D2"),
    )
    stages, ests = sizes["stages"], sizes["ests"]
    every = sizes.get("reconfigure_every")
    manager = None
    if "ckpt" in sizes:
        manager = CheckpointManager(directory=os.path.join(tmp, "ckpt"), **sizes["ckpt"])
    backend = (
        ProcessPoolBackend(max_workers=2, transport="shm")
        if sizes["backend"] == "pool" else SerialBackend()
    )
    step_ms: List[float] = []
    reconfigure_ms: List[float] = []
    restores = failed_restores = 0
    try:
        engine = EasyScaleEngine(
            spec, dataset, config, _optimizer, _assignment(stages[0], ests), backend=backend
        )
        # warm-up step: pool spawn + replica builds, paid in set-up
        start = time.perf_counter()
        engine.run_global_step()
        warmup_ms = (time.perf_counter() - start) * 1e3
        host.sample(SETUP_SAMPLES)
        setup_factor, setup_paused = factor(host.take()), host.paused

        timed_start = time.monotonic()
        timed_start_perf = time.perf_counter()
        timed_start_host = host.now()
        for index in range(sizes["steps"]):
            host.tick()
            if every and index and index % every == 0:
                stage = stages[(index // every) % len(stages)]
                start = time.perf_counter()
                engine = engine.reconfigure(_assignment(stage, ests))
                reconfigure_ms.append((time.perf_counter() - start) * 1e3)
            start = time.perf_counter()
            engine.run_global_step()
            step_ms.append((time.perf_counter() - start) * 1e3)
            if manager is not None:
                manager.maybe_take(engine)
        host.tick()
        if manager is not None:
            snapshot = manager.latest()
            restored = EasyScaleEngine.from_checkpoint(
                spec, dataset, manager.decode(snapshot), _optimizer,
                _assignment(stages[0], ests), backend=backend,
            )
            restores = 1
            failed_restores = int(restored.global_step != snapshot.step)
        backend.commit()
    finally:
        children = multiprocessing.active_children()
        rss_mb = _peak_rss_mb([os.getpid()] + [c.pid for c in children])
        close_start = time.perf_counter()
        backend.close()
        close_ms = (time.perf_counter() - close_start) * 1e3
    wall_s = host.now() - timed_start_host
    host.tick()

    steps = sizes["steps"]
    result: Dict[str, Any] = {
        "timed_start": timed_start,
        "wall_s": wall_s,
        **_host_record(host, setup_factor, setup_paused),
        "attempted": steps + len(reconfigure_ms) + restores,
        "failed": failed_restores,
        "fingerprint": fingerprint_state_dict(engine.model.state_dict()),
        "step_ms": step_ms,
        "reconfigure_ms": reconfigure_ms,
        "peak_rss_mb": rss_mb,
        "work": steps * ests * sizes["batch"],
    }
    if tracer is not None:
        result["layer"] = _train_layers(
            SpanIndex(tracer.spans(), since=timed_start_perf), tracer.counters,
            steps, pool=sizes["backend"] == "pool", warmup_ms=warmup_ms,
            close_ms=close_ms, children=len(children),
        )
    return result


def _train_layers(index: SpanIndex, counters: Dict[str, float], steps: int, *,
                  pool: bool, warmup_ms: float, close_ms: float,
                  children: int) -> Dict[str, float]:
    def per_step(name: str) -> float:
        return index.total_ms(name) / steps

    step_total = index.total_ms("engine.step")
    step_p50 = percentile(index.durations_ms("engine.step"), 50)
    layer = {
        "data.load_ms_per_step": per_step("data.load"),
        "data.load_calls": index.calls("data.load"),
        "exec.run_step_ms_per_step": per_step("exec.run_step"),
        "exec.self_ms_per_step": index.self_ms("exec.run_step") / steps,
        "exec.close_ms": close_ms,
        "exec.children": children,
        "comm.sync_ms_per_step": per_step("comm.sync"),
        "comm.allreduce_calls_per_step": index.calls("comm.allreduce") / steps,
        "comm.allreduce_bytes_per_step": counters["comm.allreduce.bytes"] / steps,
        "optim.step_ms_per_step": per_step("optim.step"),
        "engine.step_ms_p90": percentile(index.durations_ms("engine.step"), 90),
        "engine.self_ms_per_step": index.self_ms("engine.step") / steps,
        "engine.unaccounted_ratio": index.self_ms("engine.step") / step_total,
        "engine.reconfigure_count": index.calls("engine.reconfigure"),
    }
    if pool:
        # children are opaque from the parent: worker.* is serial-only
        layer["exec.state_bytes_per_step"] = counters["exec.write_state.bytes"] / steps
        layer["exec.grad_bytes_per_step"] = counters["exec.read_bucket.bytes"] / steps
        layer["exec.spawn_ms"] = warmup_ms - step_p50
    else:
        layer["worker.local_step_ms_per_step"] = per_step("worker.local_step")
        layer["worker.switch_ms_per_step"] = index.self_ms("worker.run_global_step") / steps
    if index.calls("ckpt.save"):
        layer["ckpt.save_ms_p50"] = percentile(index.durations_ms("ckpt.save"), 50)
        layer["ckpt.restore_ms_p50"] = percentile(index.durations_ms("ckpt.restore"), 50)
        layer["ckpt.decode_ms"] = index.total_ms("ckpt.from_bytes")
        layer["ckpt.bytes"] = counters["ckpt.save.bytes"] / index.calls("ckpt.save")
    return layer


def reference_train(sizes: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Fixed-assignment DDP run over the same step count (warm-up included)."""
    from repro.ddp import DDPTrainer, ddp_heter_config
    from repro.utils.fingerprint import fingerprint_state_dict

    spec = _train_spec(sizes["model"])
    dataset = spec.build_dataset(sizes["samples"], seed=seed)
    ests = sizes["ests"]
    trainer = DDPTrainer(
        spec, dataset,
        ddp_heter_config(ests, ["v100"] * ests, seed=seed, batch_size=sizes["batch"]),
        _optimizer,
    )
    trainer.train_steps(1 + sizes["steps"])
    return {"fingerprint": fingerprint_state_dict(trainer.model.state_dict())}


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
def _trace(sizes: Dict[str, Any], seed: int):
    """The workload's frozen base trace with seed-drawn arrival jitter.

    Redrawing the whole trace per seed would let the seed, not the code,
    decide the numbers: at these sizes two draws of ``diurnal_trace``
    differ by 2-3x in scheduler search work (18 % inter-quartile spread
    of ``best_plan_delta`` calls over ten seeds, against 1.3 % with
    jitter).  Every seed is still a different trace — arrival order and
    gaps change, so no event log repeats — with the same offered load.
    """
    from repro.sched import diurnal_trace
    from repro.sched.trace import GPU_DEMAND

    # "philly" caps a job at 16 GPUs (the microbench mix): on a 64-GPU
    # cluster the production mix's 32/64-GPU gangs make a handful of plan
    # searches cost as much as all the others, and whether a seed's
    # trajectory meets them decided 30 % of the host time
    demand = GPU_DEMAND if sizes.get("demand") == "philly" else None
    base = diurnal_trace(
        num_jobs=sizes["jobs"], seed=TRACE_SEED, days=sizes["days"], demand=demand
    )
    rng = random.Random(seed)
    arrivals = sorted(
        max(0.0, job.arrival_time + rng.uniform(-ARRIVAL_JITTER_S, ARRIVAL_JITTER_S))
        for job in base
    )
    return [replace(job, arrival_time=at) for job, at in zip(base, arrivals)]


def _policy(name: str):
    from repro.sched import EasyScalePolicy, YarnCapacityScheduler

    return EasyScalePolicy(True) if name == "easyscale" else YarnCapacityScheduler()


def gpu_utilization(events) -> float:
    """Busy share of capacity over the log's horizon, in one pass.

    The quantity ``ClusterUtilizationReport.from_events(...).utilization``
    reports; that fold is quadratic in jobs x events (49 s on a 36k-event
    month), so the month workloads use this one and the reduced-size
    check holds the two equal.
    """
    capacity = 0
    held: Dict[str, int] = {}
    allocated = 0
    busy = 0.0
    last = 0.0
    for event in events:
        busy += allocated * (event.time - last)
        last = event.time
        payload = event.payload
        if event.kind == "cluster_capacity":
            capacity = sum(int(v) for v in payload.values())
        elif event.kind == "scale_out":
            held[payload["job"]] = held.get(payload["job"], 0) + int(payload["gpus"])
            allocated += int(payload["gpus"])
        elif event.kind in ("scale_in", "preempt"):
            count = min(int(payload.get("gpus", 0)), held.get(payload["job"], 0))
            held[payload["job"]] = held.get(payload["job"], 0) - count
            allocated -= count
        elif event.kind == "job_done":
            allocated -= held.pop(payload["job"], 0)
    return busy / (capacity * last) if capacity and last else 0.0


def _host_record(host: HostSpeed, setup_factor: float, setup_paused: float) -> Dict[str, Any]:
    """What the driver needs to put a run's times in reference-box seconds."""
    if not host.samples:
        # a timed region shorter than the sampling interval (smoke sizes)
        host.sample(SETUP_SAMPLES)
    samples = host.take()
    return {
        "setup_factor": setup_factor,
        "setup_paused_s": setup_paused,
        "timed_factor": factor(samples),
        "timed_samples": len(samples),
    }


def _tick_before(owner: Any, attr: str, host: HostSpeed) -> None:
    """Let ``host`` sample between the program's calls of ``owner.attr``.

    ``run_batched()`` is one call from the outside; the policy object the
    benchmark hands it is called back every few hundred microseconds,
    which is where the kernel can run without being inside the program.
    """
    inner = getattr(owner, attr)

    def ticking(*args, **kwargs):
        host.tick()
        return inner(*args, **kwargs)

    setattr(owner, attr, ticking)


def _install_sim_wrappers(tracer: Tracer, policy) -> None:
    from repro.sched.companion import CompanionModule
    from repro.sched.inter import InterJobScheduler
    from repro.sched.intra import IntraJobScheduler

    # PlanCache.get, EventLog.emit and availability_key run >1e5 times a
    # month: counted by the program's own stats, never wrapped
    tracer.wrap(policy, "reschedule", "policy.reschedule")
    tracer.wrap(policy, "on_job_arrival", "policy.arrival")
    tracer.wrap(InterJobScheduler, "proposals_for", "inter.proposals")
    tracer.wrap(InterJobScheduler, "arbitrate", "inter.arbitrate")
    tracer.wrap(IntraJobScheduler, "propose", "intra.propose")
    tracer.wrap(IntraJobScheduler, "apply_best_plan", "intra.apply")
    tracer.wrap(CompanionModule, "best_plan_delta", "companion.search")
    tracer.wrap(CompanionModule, "best_plans", "companion.search")


def run_sim(sizes: Dict[str, Any], seed: int, tmp: str,
            tracer: Optional[Tracer]) -> Dict[str, Any]:
    from repro.cli import _plan_cache_totals
    from repro.hw import production_cluster
    from repro.obs.report import save_events_jsonl
    from repro.sched import ClusterSimulator

    trace = tracer if tracer is not None else Tracer("untraced")
    policy = _policy(sizes["policy"])
    if tracer is not None:
        _install_sim_wrappers(tracer, policy)
    host = HostSpeed()
    _tick_before(policy, "reschedule", host)
    _tick_before(policy, "on_job_arrival", host)
    host.sample(SETUP_SAMPLES)
    with trace.span("trace.gen"):
        jobs = _trace(sizes, seed)
    with trace.span("cluster.build"):
        cluster = production_cluster(sizes["gpus"])
    with trace.span("des.init"):
        sim = ClusterSimulator(cluster, jobs, policy)

    host.sample(SETUP_SAMPLES)
    setup_factor, setup_paused = factor(host.take()), host.paused

    timed_start = time.monotonic()
    timed_start_host = host.now()
    with trace.span("des.run"):
        result = sim.run_batched()
    run_s = host.now() - timed_start_host
    calibrate_ms = (host.paused - setup_paused) * 1e3
    host.tick()
    with trace.span("eventlog.save"):
        save_events_jsonl(result.events, os.path.join(tmp, "events.jsonl"))
    wall_s = host.now() - timed_start_host
    host.tick()

    with trace.span("eventlog.fingerprint"):
        fingerprint = result.events.fingerprint()
    events = len(result.events)
    out: Dict[str, Any] = {
        "timed_start": timed_start,
        "wall_s": wall_s,
        "run_s": run_s,
        **_host_record(host, setup_factor, setup_paused),
        "attempted": len(jobs),
        "failed": len(jobs) - len(result.completed),
        "fingerprint": fingerprint,
        "peak_rss_mb": _peak_rss_mb([os.getpid()]),
        "work": events,
        "sim": {
            "sim.avg_jct_s": result.average_jct,
            "sim.makespan_s": result.makespan,
            "sim.gpu_util": gpu_utilization(result.events),
        },
    }
    # exact counts summed over every job agent's companion: the very
    # numbers ``trace-sim`` prints (None under a policy without agents)
    totals = _plan_cache_totals(result)
    cache = {} if totals is None else dict(
        zip(("plancache.hits", "plancache.misses", "plancache.hit_ratio"), totals)
    )
    out["plancache"] = cache
    if tracer is not None:
        index = SpanIndex(tracer.spans())
        # the kernel ran inside the des.run span, outside every policy span
        run_ms = index.total_ms("des.run") - calibrate_ms
        self_ms = index.self_ms("des.run") - calibrate_ms
        layer = {
            "trace.gen_ms": index.total_ms("trace.gen"),
            "cluster.build_ms": index.total_ms("cluster.build"),
            "des.init_ms": index.total_ms("des.init"),
            "des.run_ms": run_ms,
            "des.self_ms": self_ms,
            "des.events": events,
            "des.self_us_per_event": self_ms * 1e3 / events,
            "policy.reschedule_ms": index.total_ms("policy.reschedule"),
            "policy.reschedule_calls": index.calls("policy.reschedule"),
            "policy.arrival_ms": index.total_ms("policy.arrival"),
            "eventlog.save_ms": index.total_ms("eventlog.save"),
            "eventlog.fingerprint_ms": index.total_ms("eventlog.fingerprint"),
        }
        if cache:
            layer.update(cache)
            layer.update({
                "inter.proposals_ms": index.total_ms("inter.proposals"),
                "inter.proposals_calls": index.calls("inter.proposals"),
                "inter.arbitrate_ms": index.total_ms("inter.arbitrate"),
                "intra.propose_ms": index.total_ms("intra.propose"),
                "intra.propose_calls": index.calls("intra.propose"),
                "intra.apply_ms": index.total_ms("intra.apply"),
                "companion.search_ms": index.total_ms("companion.search", outermost=True),
                "companion.search_calls": index.calls("companion.search", outermost=True),
            })
        out["layer"] = layer
    return out


def reference_sim(sizes: Dict[str, Any], seed: int, tmp: str) -> Dict[str, Any]:
    """Reduced-size copy: batched core vs the linear-scan oracle, byte for byte."""
    from repro.hw import production_cluster
    from repro.obs.report import ClusterUtilizationReport, save_events_jsonl
    from repro.sched import ClusterSimulator

    check = sizes["check"]
    jobs = _trace(check, seed)
    paths, results = [], {}
    for core in ("batched", "reference"):
        sim = ClusterSimulator(production_cluster(check["gpus"]), jobs, _policy(sizes["policy"]))
        results[core] = sim.run_batched() if core == "batched" else sim.run_reference()
        paths.append(os.path.join(tmp, f"check.{core}.jsonl"))
        save_events_jsonl(results[core].events, paths[-1])
    events = results["batched"].events
    slow = ClusterUtilizationReport.from_events(events).utilization
    fast = gpu_utilization(events)
    return {
        "identical": filecmp.cmp(paths[0], paths[1], shallow=False),
        "fingerprints": [r.events.fingerprint() for r in results.values()],
        "utilization_agrees": abs(fast - slow) <= 1e-9 * max(abs(slow), 1e-300),
        "utilization": [fast, slow],
    }


# ----------------------------------------------------------------------
def run_child(request: Dict[str, Any]) -> Dict[str, Any]:
    """One child process's work: a repeat (traced or not) or a reference."""
    workload = WORKLOADS[request["workload"]]
    sizes = workload.smoke if request["smoke"] else workload.sizes
    seed, tmp = request["seed"], request["tmp"]
    if request["role"] == "reference":
        if workload.kind == "train":
            return reference_train(sizes, seed)
        return reference_sim(sizes, seed, tmp)
    tracer = Tracer(request["run"]) if request["role"] == "traced" else None
    body = run_train if workload.kind == "train" else run_sim
    result = body(sizes, seed, tmp, tracer)
    if tracer is not None:
        tracer.save(request["spans"])
    return result
