"""All-reduce algorithms with faithful float32 association.

NCCL's ring all-reduce reduce-scatters a flat buffer: the buffer is split
into ``world_size`` chunks, and chunk ``c`` is accumulated around the ring
starting from a different rank.  Two consequences the paper leans on:

1. For a *fixed* world size and buffer layout the result is deterministic
   (so plain DDP satisfies D0);
2. Changing the world size — or re-laying-out the buffer (bucket rebuild)
   — changes which partial sums associate, flipping low-order float32 bits
   (so elasticity breaks determinism unless D1 pins both).

We reproduce this exactly: the accumulation below is elementwise float32
in the same chunk/rank order a ring would produce.  EasyScale's ElasticDDP
calls the same function over **virtual-rank** gradient sets, so its result
is bitwise what DDP-with-nEST-GPUs would compute, on any physical layout.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro import obs


def _check_inputs(grads: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Validate and flatten per-rank contributions.

    Guarantees, relied on by every ``*_allreduce_sum`` and by
    :func:`allreduce_mean`:

    - every rank contributes the same number of float32 elements — ragged
      inputs fail here with a clear per-rank error instead of surfacing as
      a downstream broadcasting surprise;
    - contributions are finite — a NaN/inf gradient is a training bug the
      reduction must not silently average into every replica;
    - the *result* of the reduction never shares memory with any input
      (the flats returned here may alias caller arrays for zero-copy
      reads, so the algorithms below always accumulate into fresh
      buffers; tests pin this with ``np.shares_memory``).
    """
    if not grads:
        raise ValueError("allreduce needs at least one rank")
    out: List[np.ndarray] = []
    expected: int | None = None
    for rank, g in enumerate(grads):
        try:
            flat = np.asarray(g, dtype=np.float32).reshape(-1)
        except (ValueError, TypeError) as err:
            raise ValueError(
                f"rank {rank} contribution is not a rectangular numeric "
                f"array: {err}"
            ) from err
        if expected is None:
            expected = flat.size
        elif flat.size != expected:
            raise ValueError(
                f"ragged allreduce input: rank {rank} contributes "
                f"{flat.size} elements, rank 0 contributes {expected}"
            )
        if not np.isfinite(flat).all():
            raise ValueError(
                f"rank {rank} contributes non-finite values (NaN/inf) to "
                f"the all-reduce; refusing to propagate them to every replica"
            )
        out.append(flat)
    return out


def ring_allreduce_sum(grads: Sequence[np.ndarray]) -> np.ndarray:
    """Ring reduce-scatter association over a flat float32 buffer.

    Chunk ``c`` (of ``world`` chunks) accumulates in rank order
    ``c+1, c+2, ..., c`` starting from rank ``c+1``'s value — matching the
    data movement of a ring: each rank forwards its partial sum to the next.
    """
    flats = _check_inputs(grads)
    world = len(flats)
    n = flats[0].size
    out = np.empty(n, dtype=np.float32)
    # chunk boundaries: world near-equal chunks (like NCCL)
    bounds = np.linspace(0, n, world + 1).astype(np.int64)
    for c in range(world):
        lo, hi = int(bounds[c]), int(bounds[c + 1])
        if lo == hi:
            continue
        # the partial sum travels in out[lo:hi] itself: one write per
        # element per hop, no temporary per rank
        acc = out[lo:hi]
        acc[...] = flats[(c + 1) % world][lo:hi]
        for step in range(2, world + 1):
            acc += flats[(c + step) % world][lo:hi]
    return out


def tree_allreduce_sum(grads: Sequence[np.ndarray]) -> np.ndarray:
    """Binary-tree pairwise association (NCCL tree algorithm)."""
    flats = _check_inputs(grads)
    level = flats
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(level[i] + level[i + 1])
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0].copy()


def sequential_allreduce_sum(grads: Sequence[np.ndarray]) -> np.ndarray:
    """Strict rank-order left fold (the simplest canonical association)."""
    flats = _check_inputs(grads)
    acc = flats[0].copy()
    for g in flats[1:]:
        acc = acc + g
    return acc


ALGORITHMS = {
    "ring": ring_allreduce_sum,
    "tree": tree_allreduce_sum,
    "sequential": sequential_allreduce_sum,
}


def allreduce_mean(grads: Sequence[np.ndarray], algorithm: str = "ring") -> np.ndarray:
    """Sum with the chosen association, then divide by world size (DDP avg)."""
    if algorithm not in ALGORITHMS:
        raise KeyError(f"unknown allreduce algorithm {algorithm!r}")
    with obs.span(
        "comm.allreduce",
        cat="comm",
        algorithm=algorithm,
        world=len(grads),
        elems=int(np.asarray(grads[0]).size) if len(grads) else 0,
    ):
        # every algorithm returns a fresh buffer: divide it in place
        result = ALGORITHMS[algorithm](grads)
        result /= np.float32(len(grads))
    if obs.is_enabled():
        obs.metrics().counter("comm_allreduce_total", algorithm=algorithm).inc()
    return result
