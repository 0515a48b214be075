"""Workload trace generation for the §5.2 trace experiment.

Job arrival follows a Microsoft-Philly-like pattern (bursty Poisson), the
job mix covers Table 1, GPU demand is skewed small with a heavy multi-GPU
tail, and runtimes are log-normally distributed ("down-sampled from our
production training jobs").  Every job is expressed in *work units* —
aggregate mini-batches — so the same trace is schedulable by YARN-CS
(gang, fixed allocation) and both EasyScale configurations.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.registry import TABLE1, WORKLOADS, WorkloadSpec
from repro.utils.rng import derive_seed


@dataclass
class TraceJob:
    """One submitted training job, policy-agnostic."""

    job_id: str
    workload: str
    arrival_time: float
    #: gang request: number of GPUs (= nEST/maxP for EasyScale)
    requested_gpus: int
    #: gang request: GPU type (YARN-CS allocates exactly this type)
    requested_type: str
    #: total aggregate mini-batches to process
    total_work: float

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError(
                f"job {self.job_id!r}: arrival_time must be >= 0, got {self.arrival_time}"
            )
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"job {self.job_id!r}: unknown workload {self.workload!r}"
            )
        if self.requested_type not in WORKLOADS[self.workload].throughput:
            raise ValueError(
                f"job {self.job_id!r}: requested_type {self.requested_type!r} is not "
                f"in workload {self.workload!r}'s capability table"
            )
        if self.requested_gpus <= 0:
            raise ValueError("requested_gpus must be positive")
        if self.total_work <= 0:
            raise ValueError("total_work must be positive")

    @property
    def spec(self) -> WorkloadSpec:
        return WORKLOADS[self.workload]

    @property
    def capability(self) -> Dict[str, float]:
        return dict(self.spec.throughput)

    @property
    def conv_heavy(self) -> bool:
        return self.spec.conv_heavy

    def requested_rate(self) -> float:
        """Mini-batches/s at exactly the requested gang allocation."""
        return self.requested_gpus * self.capability[self.requested_type]


#: GPU-count demand distribution (Philly-like: mostly small, heavy tail)
GPU_DEMAND = [(1, 0.30), (2, 0.25), (4, 0.25), (8, 0.15), (16, 0.05)]

#: demand mix for production-scale traces: the same Philly skew with a
#: fatter multi-node tail (32- and 64-GPU jobs exist on 3,000-GPU pools)
PRODUCTION_DEMAND = [
    (1, 0.25),
    (2, 0.20),
    (4, 0.20),
    (8, 0.15),
    (16, 0.10),
    (32, 0.06),
    (64, 0.04),
]


def _cdf(weights: Sequence[float]) -> List[float]:
    """The cumulative table ``Generator.choice(p=...)`` builds for ``weights``.

    Normalised, summed and renormalised exactly as ``choice`` does, so
    ``bisect_right(cdf, rng.random())`` draws the same index from the
    same one double ``rng.choice(len(weights), p=...)`` would consume.
    """
    probs = np.array(weights, dtype=np.float64)
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _mix_distributions(
    type_weights: Optional[Dict[str, float]],
    demand: Optional[Sequence[Tuple[int, float]]],
    default_demand: Sequence[Tuple[int, float]],
) -> Tuple[List[str], List[float], List[int], List[float]]:
    """The GPU-type and GPU-count mixes as values + cumulative tables."""
    weights = type_weights or {"v100": 0.6, "p100": 0.25, "t4": 0.15}
    type_names = sorted(weights)
    demand_dist = list(demand) if demand is not None else list(default_demand)
    return (
        type_names,
        _cdf([weights[t] for t in type_names]),
        [d for d, _ in demand_dist],
        _cdf([p for _, p in demand_dist]),
    )


def generate_trace(
    num_jobs: int = 40,
    seed: int = 0,
    mean_interarrival_s: float = 60.0,
    mean_duration_s: float = 900.0,
    burst_fraction: float = 0.3,
    type_weights: Optional[Dict[str, float]] = None,
    demand: Optional[Sequence[Tuple[int, float]]] = None,
    duration_sigma: float = 0.8,
    max_duration_factor: float = 8.0,
) -> List[TraceJob]:
    """Generate a reproducible job trace.

    ``burst_fraction`` of jobs arrive in tight bursts (1/10 the normal
    gap), mimicking the paper's Philly-style arrival pattern; durations
    are log-normal around ``mean_duration_s`` *at the requested gang
    allocation*, converted to work units via the workload's capability.
    """
    if num_jobs <= 0:
        raise ValueError("num_jobs must be positive")
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "trace")))
    type_names, type_cdf, demand_values, demand_cdf = _mix_distributions(
        type_weights, demand, GPU_DEMAND
    )

    jobs: List[TraceJob] = []
    t = 0.0
    sigma = duration_sigma  # lognormal shape: long runtime tail
    mu = np.log(mean_duration_s) - sigma**2 / 2
    for i in range(num_jobs):
        burst = rng.random() < burst_fraction
        gap = rng.exponential(mean_interarrival_s / 10 if burst else mean_interarrival_s)
        t += float(gap)
        jobs.append(
            _sample_job(
                rng,
                i,
                t,
                type_names,
                type_cdf,
                demand_values,
                demand_cdf,
                mu,
                sigma,
                mean_duration_s,
                max_duration_factor,
            )
        )
    return jobs


def _sample_job(
    rng: np.random.Generator,
    index: int,
    arrival: float,
    type_names: List[str],
    type_cdf: List[float],
    demand_values: List[int],
    demand_cdf: List[float],
    mu: float,
    sigma: float,
    mean_duration_s: float,
    max_duration_factor: float,
    duration: Optional[float] = None,
) -> TraceJob:
    """Draw one job's (workload, demand, type, duration) tuple.

    The draw order — ``integers``, demand, type, ``lognormal`` — is
    frozen: :func:`generate_trace`'s output for a given seed is part of
    the repo's determinism surface (bench fingerprints, recorded
    trajectories).  Demand and type are each one ``rng.random()`` looked
    up in a :func:`_cdf` table, the draw ``rng.choice(n, p=...)`` makes
    without its per-call checks.  When ``duration`` is given (heavy-tail
    traces draw Pareto durations up front) the lognormal draw is
    skipped.
    """
    workload = TABLE1[int(rng.integers(0, len(TABLE1)))]
    gpus = int(demand_values[bisect_right(demand_cdf, rng.random())])
    gtype = str(type_names[bisect_right(type_cdf, rng.random())])
    if duration is None:
        duration = float(rng.lognormal(mu, sigma))
        duration = min(max(duration, 60.0), max_duration_factor * mean_duration_s)
    spec = WORKLOADS[workload]
    work = duration * gpus * spec.throughput[gtype]
    return TraceJob(
        job_id=f"job-{index:03d}",
        workload=workload,
        arrival_time=arrival,
        requested_gpus=gpus,
        requested_type=gtype,
        total_work=work,
    )


def diurnal_trace(
    num_jobs: int = 2000,
    seed: int = 0,
    days: int = 30,
    mean_duration_s: float = 4 * 3600.0,
    trough_level: float = 0.2,
    peak_hour: float = 14.0,
    burst_fraction: float = 0.15,
    type_weights: Optional[Dict[str, float]] = None,
    demand: Optional[Sequence[Tuple[int, float]]] = None,
    duration_sigma: float = 0.8,
    max_duration_factor: float = 8.0,
) -> List[TraceJob]:
    """A month-long production-shaped trace with a day/night cycle.

    Arrivals follow a non-homogeneous Poisson process (thinning): the
    intensity is a cosine peaking at ``peak_hour`` local time and
    bottoming out at ``trough_level`` of the peak rate overnight — the
    shape of the production cluster traces the paper samples from.
    ``burst_fraction`` of candidate arrivals use a 20x tighter gap
    (submission scripts firing sweeps).  The base rate is calibrated so
    that ``num_jobs`` jobs span roughly ``days`` days.
    """
    if num_jobs <= 0:
        raise ValueError("num_jobs must be positive")
    if days <= 0:
        raise ValueError("days must be positive")
    if not 0.0 < trough_level <= 1.0:
        raise ValueError("trough_level must be in (0, 1]")
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "diurnal-trace")))
    type_names, type_cdf, demand_values, demand_cdf = _mix_distributions(
        type_weights, demand, PRODUCTION_DEMAND
    )
    sigma = duration_sigma
    mu = np.log(mean_duration_s) - sigma**2 / 2
    # thinning accepts with probability intensity(t) in [trough, 1], whose
    # time average is trough + (1-trough)/2; calibrate the candidate rate
    # so the accepted count lands on num_jobs over the requested horizon
    mean_intensity = trough_level + (1.0 - trough_level) / 2.0
    base_gap = days * 86400.0 * mean_intensity / num_jobs
    jobs: List[TraceJob] = []
    t = 0.0
    while len(jobs) < num_jobs:
        burst = rng.random() < burst_fraction
        gap = rng.exponential(base_gap / 20.0 if burst else base_gap)
        t += float(gap)
        hour = (t / 3600.0) % 24.0
        phase = 2.0 * math.pi * (hour - peak_hour) / 24.0
        intensity = trough_level + (1.0 - trough_level) * 0.5 * (1.0 + math.cos(phase))
        if rng.random() >= intensity:
            continue  # thinned: candidate point falls in a quiet hour
        jobs.append(
            _sample_job(
                rng,
                len(jobs),
                t,
                type_names,
                type_cdf,
                demand_values,
                demand_cdf,
                mu,
                sigma,
                mean_duration_s,
                max_duration_factor,
            )
        )
    return jobs


def heavy_tail_trace(
    num_jobs: int = 400,
    seed: int = 0,
    mean_interarrival_s: float = 120.0,
    min_duration_s: float = 300.0,
    alpha: float = 1.5,
    max_duration_s: float = 14 * 86400.0,
    burst_fraction: float = 0.3,
    type_weights: Optional[Dict[str, float]] = None,
    demand: Optional[Sequence[Tuple[int, float]]] = None,
) -> List[TraceJob]:
    """A trace whose runtimes are Pareto-distributed (no lognormal cap).

    Most jobs finish in minutes but a small fraction run for days — the
    regime that stresses long-horizon event scheduling (stale-completion
    invalidation, month-long heaps).  GPU demand defaults to
    :data:`PRODUCTION_DEMAND` (up to 64-GPU jobs).
    """
    if num_jobs <= 0:
        raise ValueError("num_jobs must be positive")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "heavy-tail-trace")))
    type_names, type_cdf, demand_values, demand_cdf = _mix_distributions(
        type_weights, demand, PRODUCTION_DEMAND
    )
    jobs: List[TraceJob] = []
    t = 0.0
    for i in range(num_jobs):
        burst = rng.random() < burst_fraction
        gap = rng.exponential(
            mean_interarrival_s / 10 if burst else mean_interarrival_s
        )
        t += float(gap)
        duration = min(
            min_duration_s * (1.0 + float(rng.pareto(alpha))), max_duration_s
        )
        jobs.append(
            _sample_job(
                rng,
                i,
                t,
                type_names,
                type_cdf,
                demand_values,
                demand_cdf,
                0.0,
                0.0,
                0.0,
                0.0,
                duration=duration,
            )
        )
    return jobs
