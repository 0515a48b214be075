"""EasyScaleThread (EST): the paper's central abstraction (§3.2).

An EST is one *logical* data-parallel training worker.  The job always has
``nEST`` of them, fixed at submission; what varies with resources is only
how ESTs map onto physical EasyScale workers.  An EST owns:

- a constant **virtual communication rank** (its position in gradient
  aggregation — the D1 ingredient that pins the reduction order);
- its private **RNG bundle** (dropout masks, any per-worker randomness),
  derived from the job seed and the virtual rank only;
- its training **progress cursor** (epoch, step), which all ESTs share in
  lock-step because training is synchronous.

Everything else a PyTorch worker would carry (model replica, optimizer
state, activations) is shared with or reconstructed by the hosting worker
— that sharing is what makes EST context switching lightweight (the
context below is a few hundred bytes, vs. hundreds of MB for a replica).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.comm.bucketing import FlatGrads
from repro.utils.rng import RNGBundle, derive_seed


def est_rng(job_seed: int, vrank: int) -> RNGBundle:
    """The EST's RNG bundle.

    Uses the same ``(seed, "worker", rank)`` derivation as the DDP baseline
    (:func:`repro.ddp.ddp.rank_rng`) — EST ``i`` draws bit-for-bit the same
    randomness a DDP worker of rank ``i`` would.
    """
    return RNGBundle(derive_seed(job_seed, "worker", vrank))


@dataclass
class ESTContext:
    """The stateful, checkpointable part of an EST.

    This is what context switching saves/restores and what the on-demand
    checkpoint stores per EST.  Deliberately minimal: RNG stream states
    plus the virtual rank.  (Gradients are staged by the hosting worker
    and only live within a global step; model/optimizer are shared.)
    """

    vrank: int
    rng_state: Dict[str, Any]

    def to_state(self) -> Dict[str, Any]:
        return {"vrank": self.vrank, "rng_state": self.rng_state}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "ESTContext":
        return cls(vrank=int(state["vrank"]), rng_state=state["rng_state"])


class EasyScaleThread:
    """A logical training worker, relocatable across physical workers."""

    def __init__(self, job_seed: int, vrank: int) -> None:
        self._attach(vrank, est_rng(job_seed, vrank))

    def _attach(self, vrank: int, rng: RNGBundle) -> None:
        """Set the EST's attributes: the one place both constructors use."""
        if vrank < 0:
            raise ValueError(f"virtual rank must be non-negative, got {vrank}")
        self.vrank = vrank
        self.rng = rng
        #: staged gradients of the current global step, as flat buckets
        #: (worker-managed; swapped to "CPU memory" between local steps)
        self.staged_grads: Optional[FlatGrads] = None

    # ------------------------------------------------------------------
    # context switching
    # ------------------------------------------------------------------
    def save_context(self) -> ESTContext:
        """Capture the minimal context (called when swapping the EST out)."""
        return ESTContext(vrank=self.vrank, rng_state=self.rng.get_state())

    def load_context(self, context: ESTContext) -> None:
        """Restore a saved context (called when swapping the EST in)."""
        if context.vrank != self.vrank:
            raise ValueError(
                f"context of vrank {context.vrank} loaded into EST {self.vrank}"
            )
        self.rng.set_state(context.rng_state)

    @classmethod
    def from_context(cls, context: ESTContext) -> "EasyScaleThread":
        """The EST a saved context describes, its streams built from the state.

        Equal to ``EasyScaleThread(job_seed, vrank)`` followed by
        :meth:`load_context`, without first seeding streams that the
        context then overwrites.
        """
        est = cls.__new__(cls)
        est._attach(context.vrank, RNGBundle.from_state(context.rng_state))
        return est

    def __repr__(self) -> str:
        return f"EST(vrank={self.vrank})"
