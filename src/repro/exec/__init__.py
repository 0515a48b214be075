"""Pluggable execution backends for the EasyScale engine.

``SerialBackend`` (default) steps workers in-process; ``ProcessPoolBackend``
fans each physical worker's compute out to a persistent process pool while
preserving the bitwise serial/parallel contract (see ``docs/EXECUTION.md``).
"""

from __future__ import annotations

from typing import Dict, Type, Union

from repro._lazy import exports

# the backend table and resolve_backend below need these three
from repro.exec.base import ExecutionBackend
from repro.exec.pool import ProcessPoolBackend
from repro.exec.serial import SerialBackend

__all__, __getattr__, __dir__ = exports(__name__, {
    "base": ["ExecutionBackend", "StepRequest"],
    "pool": ["ProcessPoolBackend"],
    "serial": ["SerialBackend"],
    "shm": ["ShmTransport", "SlabPlan"],
}, own=["BACKENDS", "resolve_backend"])

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

