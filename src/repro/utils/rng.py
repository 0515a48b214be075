"""Random-number stream management.

The paper (§3.3, "D0: static determinism") observes that the training stack
draws randomness from *three* distinct sources — the Python standard library
(``random``), NumPy, and the DL framework itself — and that every one of
them must be seeded at the start of training and have its state recorded in
the EST contexts / extra states of the on-demand checkpoint, or elasticity
silently perturbs data augmentation, dropout masks, and shuffling.

:class:`RNGBundle` packages the three streams together with save/restore of
the *complete* generator state (not just the seed), which is what lets an
EasyScaleThread resume mid-epoch on a different physical worker and draw the
exact same random numbers it would have drawn had the resources never
changed.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from typing import Any, Dict

import numpy as np


class SeedError(ValueError):
    """Raised for invalid seed values (negative, non-integer, too large)."""


_MAX_SEED = 2**63 - 1


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise SeedError(f"seed must be an integer, got {type(seed).__name__}")
    seed = int(seed)
    if seed < 0 or seed > _MAX_SEED:
        raise SeedError(f"seed must be in [0, 2**63-1], got {seed}")
    return seed


def derive_seed(base_seed: int, *scopes: Any) -> int:
    """Deterministically derive a child seed from a base seed and a scope path.

    EasyScale gives every EST, every data worker, and every framework
    component its own independent stream; all of them are derived from the
    single user-visible job seed via this function so that the derivation is
    (a) stable across runs and platforms and (b) independent of the number of
    physical workers — EST ``i`` gets the same stream whether it lives on
    GPU 0 of 8 or time-slices on the only remaining GPU.

    Scopes may be ints or strings, e.g. ``derive_seed(42, "est", 3)``.
    """
    base_seed = _check_seed(base_seed)
    h = hashlib.sha256()
    h.update(base_seed.to_bytes(8, "little"))
    for scope in scopes:
        h.update(b"\x00")
        h.update(str(scope).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little") & _MAX_SEED


@dataclass
class _StreamStates:
    python: Any
    numpy: Dict[str, Any]
    framework: Dict[str, Any]


class RNGBundle:
    """The three RNG streams of the DL software stack, with state capture.

    Attributes
    ----------
    python:
        A ``random.Random`` instance standing in for the interpreter-global
        stream (data augmentation in user code commonly uses it).
    numpy:
        A ``numpy.random.Generator`` (PCG64) standing in for NumPy's global
        stream (samplers, numeric augmentation).
    framework:
        A second independent ``numpy.random.Generator`` standing in for the
        framework's RNG (dropout masks, weight init) — the analogue of
        ``torch.Generator``.
    """

    def __init__(self, seed: int) -> None:
        seed = _check_seed(seed)
        self.seed = seed
        self.python = random.Random(derive_seed(seed, "python"))
        self.numpy = np.random.Generator(np.random.PCG64(derive_seed(seed, "numpy")))
        self.framework = np.random.Generator(np.random.PCG64(derive_seed(seed, "framework")))

    # ------------------------------------------------------------------
    # state capture / restore
    # ------------------------------------------------------------------
    def get_state(self) -> Dict[str, Any]:
        """Snapshot all three streams.

        The returned dict is plain data (tuples/dicts/ints) so it can be
        embedded in an EST context or checkpoint and serialized stably.
        """
        return {
            "seed": self.seed,
            "python": self.python.getstate(),
            "numpy": self.numpy.bit_generator.state,
            "framework": self.framework.bit_generator.state,
        }

    def set_state(self, state: Dict[str, Any]) -> None:
        """Restore all three streams from a snapshot taken by :meth:`get_state`."""
        self.seed = state["seed"]
        self.python.setstate(_as_python_state(state["python"]))
        self.numpy.bit_generator.state = state["numpy"]
        self.framework.bit_generator.state = state["framework"]

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "RNGBundle":
        """A bundle positioned at a :meth:`get_state` snapshot, built from it.

        Nothing is derived from a seed: :meth:`set_state` overwrites every
        word of each stream's state, so the Mersenne Twister is allocated
        unseeded and both PCG64 streams start from one fixed
        ``SeedSequence``.  Seeding first would be thrown away, and it is
        most of the cost of rebuilding an EST in a pool child.  Every draw
        matches a seeded bundle that loaded ``state``; only NumPy's own
        ``Generator.spawn`` would differ (it reads that placeholder), and
        sub-streams come from :meth:`spawn`, which derives from ``seed``.
        """
        placeholder = _placeholder_seed()
        bundle = cls.__new__(cls)
        bundle.python = random.Random.__new__(random.Random)
        bundle.numpy = np.random.Generator(np.random.PCG64(placeholder))
        bundle.framework = np.random.Generator(np.random.PCG64(placeholder))
        bundle.set_state(state)
        return bundle

    def clone(self) -> "RNGBundle":
        """An independent copy positioned at the same point in all streams."""
        return RNGBundle.from_state(self.get_state())

    def spawn(self, *scopes: Any) -> "RNGBundle":
        """Derive an independent child bundle for a sub-component.

        Unlike :meth:`clone`, the child's streams are decorrelated from the
        parent's; the derivation depends only on the parent's *seed* and the
        scope path, never on how far the parent streams have advanced —
        which is what makes the assignment of streams to ESTs independent of
        the execution interleaving.
        """
        return RNGBundle(derive_seed(self.seed, *scopes))

    # ------------------------------------------------------------------
    # convenience draws (used by layers and loaders)
    # ------------------------------------------------------------------
    def uniform(self, shape, low: float = 0.0, high: float = 1.0, dtype=np.float32) -> np.ndarray:
        return self.framework.uniform(low, high, size=shape).astype(dtype)

    def normal(self, shape, mean: float = 0.0, std: float = 1.0, dtype=np.float32) -> np.ndarray:
        return self.framework.normal(mean, std, size=shape).astype(dtype)

    def bernoulli_mask(self, shape, keep_prob: float, dtype=np.float32) -> np.ndarray:
        """Dropout-style keep mask drawn from the framework stream."""
        return (self.framework.random(size=shape) < keep_prob).astype(dtype)

    def permutation(self, n: int) -> np.ndarray:
        """Shuffle order drawn from the numpy stream (sampler behaviour)."""
        return self.numpy.permutation(n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RNGBundle(seed={self.seed})"


@functools.cache
def _placeholder_seed() -> np.random.SeedSequence:
    """What a PCG64 stream starts from before :meth:`RNGBundle.from_state`
    overwrites its state (made on first use: importing this module must
    not load ``numpy.random``)."""
    return np.random.SeedSequence(0)


def _as_python_state(state: Any) -> tuple:
    """Normalize a python-random state that may have round-tripped through
    a serializer that converts tuples to lists."""
    if isinstance(state, tuple):
        return state
    version, internal, gauss = state
    return (version, tuple(internal), gauss)
