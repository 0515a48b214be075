"""Pluggable execution backends for the EasyScale engine.

``SerialBackend`` (default) steps workers in-process; ``ProcessPoolBackend``
fans each physical worker's compute out to a persistent process pool while
preserving the bitwise serial/parallel contract (see ``docs/EXECUTION.md``).
"""

from __future__ import annotations

from typing import Dict, Optional, Type, Union

from repro.exec.base import ExecutionBackend, StepRequest
from repro.exec.pool import ProcessPoolBackend
from repro.exec.serial import SerialBackend
from repro.exec.shm import ShmTransport, SlabPlan

#: registry consulted by :func:`resolve_backend` and ``cli train --backend``
#: ("pool" is an alias for the process-pool backend)
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
    "pool": ProcessPoolBackend,
}


def resolve_backend(
    backend: Union[None, str, ExecutionBackend],
) -> ExecutionBackend:
    """Normalize a backend argument to an :class:`ExecutionBackend` instance.

    ``None`` → a fresh :class:`SerialBackend`; a string → a fresh instance
    from :data:`BACKENDS` with default options; an instance → itself
    (engines share one pool across rebuilds this way).
    """
    if backend is None:
        return SerialBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str):
        try:
            return BACKENDS[backend]()
        except KeyError:
            raise KeyError(
                f"unknown execution backend {backend!r}; "
                f"available: {sorted(BACKENDS)}"
            ) from None
    raise TypeError(
        f"backend must be None, a name, or an ExecutionBackend, "
        f"got {type(backend).__name__}"
    )


__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "ShmTransport",
    "SlabPlan",
    "StepRequest",
    "resolve_backend",
]
