"""repro.membership: cluster membership — the anticipated half of elasticity.

Where faults model failures that *strike*, host events model hosts that
*negotiate*: announce themselves and warm up, drain gracefully one wave
at a time during rolling upgrades, get blacklisted with an expiry, or
leave with a spot-reclaim notice.  Both are kinds of one
:class:`~repro.faults.schedule.EventPlan` (the ``host`` family), and one
deliverer per domain fires them (:mod:`repro.faults.injector`).  This
package adds two layers on top:

- :mod:`repro.membership.lifecycle` — the per-host state machine
  (``CANDIDATE → WARMING → ACTIVE → DRAINING → REMOVED``, plus
  ``BLACKLISTED`` with expiry) with validated transitions;
- :mod:`repro.membership.controller` — :class:`MembershipController`
  converting lifecycle edges into scheduler events on top of the
  :class:`~repro.faults.controller.ResilienceController`: graceful
  transitions hand the live job over at the current step (zero lost
  work), forceful removals take the abrupt recovery path — and either
  way the run stays bitwise-identical to the static one (``repro
  membership replay``).
"""

from repro.membership.controller import MembershipController, MembershipStats
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
    "MembershipController",
    "MembershipStats",
    "REMOVED",
    "TRANSITIONS",
    "WARMING",
]
