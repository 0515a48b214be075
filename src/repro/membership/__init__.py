"""repro.membership: the host lifecycle — the anticipated half of elasticity.

Where faults *strike*, hosts *negotiate*: they announce and warm up, drain
one wave at a time, get blacklisted with an expiry, or leave with a
reclaim notice.  Those are the ``host`` family of an
:class:`~repro.faults.schedule.EventPlan`, supervised by the one
:class:`~repro.faults.controller.ResilienceController`.  This package holds
their state machine, :mod:`repro.membership.lifecycle`
(``CANDIDATE → WARMING → ACTIVE → DRAINING → REMOVED``, plus
``BLACKLISTED`` with expiry), with validated transitions.
"""

from repro.membership.lifecycle import (
    ACTIVE,
    BLACKLISTED,
    CANDIDATE,
    DRAINING,
    HOST_STATES,
    REMOVED,
    TRANSITIONS,
    WARMING,
    Host,
    HostRegistry,
    InvalidTransitionError,
)

__all__ = [
    "ACTIVE",
    "BLACKLISTED",
    "CANDIDATE",
    "DRAINING",
    "HOST_STATES",
    "Host",
    "HostRegistry",
    "InvalidTransitionError",
    "REMOVED",
    "TRANSITIONS",
    "WARMING",
]
