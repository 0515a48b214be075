"""Shared utilities for the EasyScale reproduction.

This subpackage hosts the pieces of infrastructure that every other layer
relies on:

- :mod:`repro.utils.rng` — the three random-number streams that the paper's
  determinism analysis identifies (Python / NumPy / framework), with full
  state capture and restore so they can live inside EST contexts and
  on-demand checkpoints.
- :mod:`repro.utils.fingerprint` — bitwise digests of model parameters, used
  throughout tests and benchmarks to assert the paper's headline claim
  (bitwise-identical models under elasticity).
- :mod:`repro.utils.serialization` — stable state-dict flattening and byte
  round-trips for checkpoints.
- :mod:`repro.utils.events` — a tiny structured event log used by the
  cluster simulator and the benchmarks to report timelines.
- :mod:`repro.utils.jsonl` — the one JSONL read contract (damaged tail
  tolerated and flagged, anything else ``path:lineno``) under every log
  loader.
"""

from repro.utils.rng import RNGBundle, derive_seed, SeedError
from repro.utils.fingerprint import fingerprint_array, fingerprint_arrays, fingerprint_state_dict
from repro.utils.serialization import (
    state_dict_to_bytes,
    state_dict_from_bytes,
    flatten_state_dict,
    unflatten_state_dict,
)
from repro.utils.events import EventLog, Event
from repro.utils.telemetry import Record, RunLog

__all__ = [
    "RNGBundle",
    "derive_seed",
    "SeedError",
    "fingerprint_array",
    "fingerprint_arrays",
    "fingerprint_state_dict",
    "state_dict_to_bytes",
    "state_dict_from_bytes",
    "flatten_state_dict",
    "unflatten_state_dict",
    "EventLog",
    "Event",
    "Record",
    "RunLog",
]
