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

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "schedule": [
        "FAULT_KINDS", "KINDS", "MEMBERSHIP_KINDS", "PLAN_FORMAT_VERSION", "EventPlan",
        "HostSpec", "PlanEvent", "kinds", "random_membership_plan", "random_plan",
        "random_sim_plan", "rolling_upgrade_plan",
    ],
    "manager": ["CheckpointManager", "Snapshot"],
    "contrast": ["ContrastResult", "run_contrast", "segments_from_plan"],
    "controller": [
        "RecoveryFailedError", "RecoveryIncident", "ResilienceController", "ResilienceStats",
    ],
    "injector": [
        "FaultSignal", "NodePreemptSignal", "SimDriver", "StepDeliverer", "WorkerCrashSignal",
    ],
})
