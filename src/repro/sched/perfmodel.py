"""The analytical performance model of §3.4 (Equations 1a–1d).

A *plan* allocates ``N_i`` GPUs of type ``i``, each hosting ``A_i`` ESTs.
With per-GPU workload capability ``C_i`` (mini-batches/second), the model
computes:

- ``nEST = Σ N_i·A_i  ≥ maxP``                                   (1a)
- ``f_overload = max_{i, N_i>0} A_i / C_i``                       (1b)
  — the slowest GPU's time to finish its local steps; Sync-SGD makes it
  the global step time, so everyone else idles against it;
- ``waste = Σ_{i, N_i>0} N_i·(C_i − A_i/f_overload)
           + (nEST − maxP)/f_overload``                           (1c)
  — capability stranded by load imbalance, plus over-provisioned EST
  slots that exist only to satisfy integrality;
- ``throughput = Σ N_i·C_i − waste``                              (1d)

A perfectly balanced homogeneous plan has zero waste and throughput equal
to the aggregate capability; mixing a slow GPU type with too many ESTs
drives ``f_overload`` up and strands the fast GPUs' capability.

Float-operation order is part of the contract
---------------------------------------------

Throughputs rank plans, plans decide grants, grants are simulator events:
the *bits* of Eq. (1d) reach every ``EventLog.fingerprint()``.  So the
two sums over GPU types — ``Σ N_i·C_i`` and the Eq. (1c) imbalance — are
written once, in :func:`fold`, as a plain left-to-right IEEE fold over
the types in sorted order.  ``builtins.sum`` is not that: from Python
3.12 on it compensates float sums (Neumaier), so the same plan scored
on 3.11 and 3.12 could differ in the last bit.  The scalar functions
here (the oracle the companion's ``enumerate_plans_reference`` is built
from) and :func:`grid_waste` (the array kernel that scores a whole
candidate grid at once) both go through :func:`fold` with the same
per-term expressions, so they agree bit for bit with each other and
across interpreter versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Tuple

import numpy as np


@dataclass(frozen=True)
class Plan:
    """An EST-to-GPU-type mapping: ``alloc[type] = (N_i, A_i)``."""

    alloc: Tuple[Tuple[str, int, int], ...]  # (gpu_type, N_i, A_i), sorted
    max_p: int

    @classmethod
    def build(cls, alloc: Mapping[str, Tuple[int, int]], max_p: int) -> "Plan":
        if max_p <= 0:
            raise ValueError("maxP must be positive")
        entries = []
        for gtype, (n, a) in sorted(alloc.items()):
            if n < 0 or a < 0:
                raise ValueError(f"negative allocation for {gtype}")
            if n > 0 and a == 0:
                raise ValueError(f"{gtype}: GPUs allocated but zero ESTs per GPU")
            if n > 0:
                entries.append((gtype, n, a))
        if not entries:
            raise ValueError("plan allocates no GPUs")
        return cls(alloc=tuple(entries), max_p=max_p)

    @property
    def n_est_capacity(self) -> int:
        """Eq. (1a): total EST slots across all allocated GPUs."""
        return sum(n * a for _, n, a in self.alloc)

    @property
    def total_gpus(self) -> int:
        return sum(n for _, n, _ in self.alloc)

    def gpus_of(self, gtype: str) -> int:
        for name, n, _ in self.alloc:
            if name == gtype:
                return n
        return 0

    def ests_per_gpu(self, gtype: str) -> int:
        for name, _, a in self.alloc:
            if name == gtype:
                return a
        return 0

    @property
    def is_feasible(self) -> bool:
        return self.n_est_capacity >= self.max_p

    @property
    def is_homogeneous(self) -> bool:
        return len(self.alloc) == 1


def fold(terms: Iterable):
    """``((0.0 + t_0) + t_1) + ...`` — left to right, nothing compensated.

    The one place the Eq. (1) accumulations over GPU types are spelled
    out (see the module docs).  ``terms`` is a sequence of floats, or an
    array whose *first* axis is the type axis: iterating either yields
    one term per type, and ``+`` is elementwise on arrays.
    """
    total = 0.0
    for term in terms:
        total = total + term
    return total


def aggregate_capability(plan: Plan, capability: Mapping[str, float]) -> float:
    """``Σ N_i·C_i``: Eq. (1d) before waste, and its upper bound."""
    return fold(n * capability[gtype] for gtype, n, _ in plan.alloc)


def overload_factor(plan: Plan, capability: Mapping[str, float]) -> float:
    """Eq. (1b): the bottleneck GPU's seconds-per-global-step."""
    worst = 0.0
    for gtype, n, a in plan.alloc:
        c = capability[gtype]
        if c <= 0:
            raise ValueError(f"capability of {gtype} must be positive, got {c}")
        worst = max(worst, a / c)
    if worst <= 0:
        raise ValueError("plan has no work assigned")
    return worst


#: magnitude below which a negative waste is float round-off, not a model
#: error: the Eq. (1c) subtraction ``C_i - A_i/f`` can land a few ulps
#: under zero when ``f == A_i/C_i`` doesn't round-trip exactly
_WASTE_EPS = 1e-9


def waste(plan: Plan, capability: Mapping[str, float]) -> float:
    """Eq. (1c): stranded capability from imbalance + over-provisioning."""
    if not plan.is_feasible:
        raise ValueError(
            f"infeasible plan: capacity {plan.n_est_capacity} < maxP {plan.max_p}"
        )
    return observed_waste(plan, capability, overload_factor(plan, capability))


def observed_waste(
    plan: Plan, capability: Mapping[str, float], f_observed: float
) -> float:
    """Eq. (1c) evaluated at a *measured* overload factor.

    The online profiler substitutes the observed seconds-per-global-step
    for the analytical Eq. (1b) bottleneck, yielding the waste the plan
    actually incurred rather than the waste the model predicted.
    """
    if f_observed <= 0:
        raise ValueError(f"observed overload factor must be positive, got {f_observed}")
    imbalance = fold(n * (capability[gtype] - a / f_observed) for gtype, n, a in plan.alloc)
    over_provision = (plan.n_est_capacity - plan.max_p) / f_observed
    total = imbalance + over_provision
    if -_WASTE_EPS < total < 0.0:
        return 0.0
    return total


def estimated_throughput(plan: Plan, capability: Mapping[str, float]) -> float:
    """Eq. (1d): aggregate mini-batches/second after subtracting waste."""
    return aggregate_capability(plan, capability) - waste(plan, capability)


def grid_waste(n: np.ndarray, a: np.ndarray, c: np.ndarray, max_p: int) -> np.ndarray:
    """Eq. (1a–1c) for a whole grid of candidate plans at once.

    All three arrays carry the GPU-type axis first and broadcast against
    each other behind it: ``n[i]`` GPUs of type ``i`` hosting ``a[i]``
    ESTs each (both 0 where a candidate does not use the type), ``c[i]``
    the type's capability.  Every expression is the array form of the
    scalar line it mirrors in :func:`overload_factor` /
    :func:`observed_waste` — same operands, same order, same
    :func:`fold` — so a candidate's waste has the bits :func:`waste`
    gives its :class:`Plan`, and ``fold(n * c) - grid_waste(...)`` those
    of :func:`estimated_throughput`.  Infeasible candidates (1a), which
    :func:`waste` refuses, waste ``+inf``.
    """
    f = (a / c).max(axis=0)
    n_est = (n * a).sum(axis=0)
    total = fold(n * (c - a / f)) + (n_est - max_p) / f
    total = np.where((-_WASTE_EPS < total) & (total < 0.0), 0.0, total)
    return np.where(n_est >= max_p, total, np.inf)


@dataclass(frozen=True)
class ScoredPlan:
    plan: Plan
    throughput: float
