"""repro.faults: deterministic scale events and bitwise-safe recovery.

The subsystem has five layers, composing bottom-up:

- :mod:`repro.faults.schedule` — seeded, JSON-round-trippable
  :class:`EventPlan`\\ s of timed :class:`PlanEvent`\\ s, every kind (fault
  or host) one row of the :data:`KINDS` table;
- :mod:`repro.faults.lifecycle` — the host state machine both domains
  apply: its ops (``OPS``), their windows (``WINDOWS``), one ``apply``;
- :mod:`repro.faults.injector` — :class:`StepDeliverer` firing plan
  events inside the live engine/workers and its controllers, and
  :class:`SimDriver` for the cluster simulator's sim-time domain;
- :mod:`repro.faults.manager` — :class:`CheckpointManager` keeping
  CRC-verified periodic snapshots with retention;
- :mod:`repro.faults.controller` — :class:`ResilienceController` driving
  detect → checkpoint → replan → restore with MTTR accounting, and the
  host lifecycle of a plan with a roster.

:mod:`repro.faults.contrast` runs the Fig-2-style experiment contrasting
EasyScale's bitwise recovery against elastic baselines under the same
plans.
"""

from repro.faults.contrast import ContrastResult, run_contrast, segments_from_plan
from repro.faults.controller import (
    RecoveryFailedError,
    RecoveryIncident,
    ResilienceController,
    ResilienceStats,
)
from repro.faults.injector import (
    FaultSignal,
    NodePreemptSignal,
    SimDriver,
    StepDeliverer,
    WorkerCrashSignal,
)
from repro.faults.manager import CheckpointManager, Snapshot
from repro.faults.schedule import (
    FAULT_KINDS,
    KINDS,
    MEMBERSHIP_KINDS,
    PLAN_FORMAT_VERSION,
    EventPlan,
    HostSpec,
    PlanEvent,
    kinds,
    random_membership_plan,
    random_plan,
    random_sim_plan,
    rolling_upgrade_plan,
)

__all__ = [
    "FAULT_KINDS",
    "KINDS",
    "MEMBERSHIP_KINDS",
    "PLAN_FORMAT_VERSION",
    "CheckpointManager",
    "ContrastResult",
    "EventPlan",
    "FaultSignal",
    "HostSpec",
    "NodePreemptSignal",
    "PlanEvent",
    "RecoveryFailedError",
    "RecoveryIncident",
    "ResilienceController",
    "ResilienceStats",
    "SimDriver",
    "Snapshot",
    "StepDeliverer",
    "WorkerCrashSignal",
    "kinds",
    "random_membership_plan",
    "random_plan",
    "random_sim_plan",
    "rolling_upgrade_plan",
    "run_contrast",
    "segments_from_plan",
]
