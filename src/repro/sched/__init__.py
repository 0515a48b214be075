"""EasyScale scheduling: Eq. (1) model, companion DB, intra/inter-job
schedulers, discrete-event cluster simulator, and baselines."""

from repro.sched.perfmodel import (
    Plan,
    ScoredPlan,
    estimated_throughput,
    overload_factor,
    waste,
)
from repro.sched.aimaster import AIMaster, ThroughputMonitor
from repro.sched.companion import CompanionModule
from repro.sched.plancache import PlanCache, PlanCacheStats, availability_key
from repro.sched.intra import IntraJobScheduler, ResourceProposal, plan_to_assignment
from repro.sched.inter import Grant, InterJobScheduler
from repro.sched.simulator import ClusterSimulator, JobRuntime, SchedulingPolicy, SimResult
from repro.sched.yarn_cs import YarnCapacityScheduler
from repro.sched.easyscale_policy import EasyScalePolicy
from repro.sched.colocation_policy import ServingColocationPolicy
from repro.sched.trace import (
    GPU_DEMAND,
    PRODUCTION_DEMAND,
    TraceJob,
    diurnal_trace,
    generate_trace,
    heavy_tail_trace,
)
from repro.sched.serving import (
    MINUTES_PER_DAY,
    ColocationStats,
    ServingLoadModel,
    simulate_colocation,
)

__all__ = [
    "Plan",
    "ScoredPlan",
    "overload_factor",
    "waste",
    "estimated_throughput",
    "CompanionModule",
    "PlanCache",
    "PlanCacheStats",
    "availability_key",
    "AIMaster",
    "ThroughputMonitor",
    "IntraJobScheduler",
    "ResourceProposal",
    "plan_to_assignment",
    "InterJobScheduler",
    "Grant",
    "ClusterSimulator",
    "JobRuntime",
    "SchedulingPolicy",
    "SimResult",
    "YarnCapacityScheduler",
    "EasyScalePolicy",
    "ServingColocationPolicy",
    "TraceJob",
    "generate_trace",
    "diurnal_trace",
    "heavy_tail_trace",
    "GPU_DEMAND",
    "PRODUCTION_DEMAND",
    "ServingLoadModel",
    "ColocationStats",
    "simulate_colocation",
    "MINUTES_PER_DAY",
]
