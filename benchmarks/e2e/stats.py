"""Order statistics shared by the runner and the comparer."""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence, Tuple

#: percentiles a tail may be reported at, best first, each with the
#: number of samples per one sample beyond it
TAIL_PERCENTILES = ((99.9, 1000), (99.0, 100), (95.0, 20), (90.0, 10), (75.0, 4))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int, beyond: int = 10) -> Optional[float]:
    """The highest percentile with at least ``beyond`` samples above it.

    A p99 read off 40 samples is the maximum in disguise; a tail is only
    reported where ten samples lie beyond it.  ``None`` when even the
    lowest candidate has too few.
    """
    for pct, per_sample_beyond in TAIL_PERCENTILES:
        if count >= beyond * per_sample_beyond:
            return pct
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` the way the acceptance check takes them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "samples": len(values)}
