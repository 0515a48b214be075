"""EasyScale scheduling: Eq. (1) model, companion DB, intra/inter-job
schedulers, discrete-event cluster simulator, and baselines.

The cluster side loads on its own: no module here imports the training
substrate at the top, and each name below loads its submodule on first use.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "perfmodel": ["Plan", "ScoredPlan", "overload_factor", "waste", "estimated_throughput"],
    "companion": ["CompanionModule"],
    "plancache": ["PlanCache", "PlanCacheStats", "availability_key"],
    "aimaster": ["AIMaster", "ThroughputMonitor"],
    "intra": ["IntraJobScheduler", "ResourceProposal", "plan_to_assignment"],
    "inter": ["InterJobScheduler", "Grant"],
    "simulator": ["ClusterSimulator", "JobRuntime", "SchedulingPolicy", "SimResult"],
    "yarn_cs": ["YarnCapacityScheduler"],
    "easyscale_policy": ["EasyScalePolicy"],
    "colocation_policy": ["ServingColocationPolicy"],
    "trace": [
        "TraceJob", "generate_trace", "diurnal_trace", "heavy_tail_trace",
        "GPU_DEMAND", "PRODUCTION_DEMAND",
    ],
    "serving": ["ServingLoadModel", "ColocationStats", "simulate_colocation", "MINUTES_PER_DAY"],
})
