"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Named instruments with label support, mirroring the Prometheus data model
the production dashboards consume.  Design constraints:

- **near-zero cost when disabled** — :data:`NULL_REGISTRY` hands out
  shared no-op instruments, so instrumented call sites never branch on an
  enabled flag themselves;
- **snapshot/delta queries** — benchmarks take a snapshot before a phase
  and diff after it, isolating that phase's counts;
- **text exposition** — :meth:`MetricsRegistry.to_prometheus_text` dumps
  the familiar ``name{label="v"} value`` format for scraping or diffing.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds (seconds-flavored; +Inf is implicit).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition-format spec.

    Backslash must be escaped first, then double-quote and newline —
    otherwise the backslashes introduced by the later replacements would
    be doubled again.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs) + "}"


class Counter:
    """Monotonically increasing count."""

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for decrements")
        self.value += amount


class Gauge:
    """A value that can go up and down.

    NaN/inf inputs to :meth:`set` are rejected without corrupting the
    stored value; they are tallied in :attr:`nonfinite` instead, so a
    single bad sample (a 0/0 throughput, an uninitialized timer) never
    poisons a dashboard series.
    """

    def __init__(self) -> None:
        self.value = 0.0
        self.nonfinite = 0

    def set(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            self.nonfinite += 1
            return
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` (<=) semantics.

    A value exactly on a bucket boundary counts into that bucket; values
    above the last bound land in the implicit +Inf overflow bucket.
    NaN/inf observations are counted in :attr:`nonfinite` rather than
    recorded — a NaN would otherwise bisect into an arbitrary bucket and
    make ``sum`` permanently NaN.
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = [float(b) for b in buckets]
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must be strictly increasing, got {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0
        self.nonfinite = 0

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            self.nonfinite += 1
            return
        idx = bisect.bisect_left(self.bounds, value)
        self.counts[idx] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[int]:
        """Cumulative bucket counts, Prometheus-style (last entry == count)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Linear-interpolation quantile estimate from the bucket counts.

        Standard Prometheus ``histogram_quantile`` semantics: find the
        bucket holding the q-th observation and interpolate linearly
        within its bounds (the first bucket interpolates from 0, so the
        estimator assumes non-negative observations).  Values in the +Inf
        overflow bucket clamp to the last finite bound.  Returns NaN for
        an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        target = q * self.count
        cumulative = 0
        for idx, count in enumerate(self.counts):
            if cumulative + count >= target and count > 0:
                if idx >= len(self.bounds):
                    return self.bounds[-1]
                lower = 0.0 if idx == 0 else self.bounds[idx - 1]
                upper = self.bounds[idx]
                return lower + (upper - lower) * ((target - cumulative) / count)
            cumulative += count
        return self.bounds[-1]


class _NullInstrument:
    """Shared no-op stand-in for every instrument type when disabled.

    Mirrors the full public surface (and signatures) of
    :class:`Counter`, :class:`Gauge`, and :class:`Histogram` — asserted
    by the API-parity test — so disabled-mode call sites can never drift
    from the enabled ones.
    """

    __slots__ = ()
    value = 0.0
    sum = 0.0
    count = 0
    nonfinite = 0
    bounds: List[float] = []

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def cumulative(self) -> List[int]:
        return []

    def quantile(self, q: float) -> float:
        return float("nan")


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Registry stand-in returned when observability is disabled."""

    enabled = False

    def counter(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def delta(self, previous: Mapping[str, Mapping[str, Any]]) -> Dict[str, Dict[str, Any]]:
        return self.snapshot()

    def to_state(self) -> List[Dict[str, Any]]:
        return []

    def merge_state(
        self,
        state: Iterable[Mapping[str, Any]],
        extra_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        pass

    def to_prometheus_text(self) -> str:
        return ""


NULL_REGISTRY = NullRegistry()


class MetricsRegistry:
    """Get-or-create instrument registry keyed by (name, labels)."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}
        self._kinds: Dict[str, str] = {}

    def _claim(self, name: str, kind: str) -> None:
        existing = self._kinds.get(name)
        if existing is not None and existing != kind:
            raise ValueError(f"metric {name!r} already registered as a {existing}")
        self._kinds[name] = kind

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            self._claim(name, "counter")
            if key not in self._counters:
                self._counters[key] = Counter()
            return self._counters[key]

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            self._claim(name, "gauge")
            if key not in self._gauges:
                self._gauges[key] = Gauge()
            return self._gauges[key]

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            self._claim(name, "histogram")
            if key not in self._histograms:
                self._histograms[key] = Histogram(buckets or DEFAULT_BUCKETS)
            return self._histograms[key]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-data view of every instrument, keyed by ``name{labels}``."""
        with self._lock:
            return {
                "counters": {
                    n + _format_labels(k): c.value for (n, k), c in self._counters.items()
                },
                "gauges": {
                    n + _format_labels(k): g.value for (n, k), g in self._gauges.items()
                },
                "histograms": {
                    n + _format_labels(k): {
                        "bounds": list(h.bounds),
                        "counts": list(h.counts),
                        "sum": h.sum,
                        "count": h.count,
                        "nonfinite": h.nonfinite,
                    }
                    for (n, k), h in self._histograms.items()
                },
            }

    def delta(self, previous: Mapping[str, Mapping[str, Any]]) -> Dict[str, Dict[str, Any]]:
        """What changed since a prior :meth:`snapshot` (gauges stay absolute)."""
        current = self.snapshot()
        prev_counters = previous.get("counters", {})
        prev_hists = previous.get("histograms", {})
        counters = {
            key: value - prev_counters.get(key, 0.0)
            for key, value in current["counters"].items()
        }
        histograms = {}
        for key, h in current["histograms"].items():
            prior = prev_hists.get(key)
            if prior is None:
                histograms[key] = h
            else:
                histograms[key] = {
                    "bounds": h["bounds"],
                    "counts": [a - b for a, b in zip(h["counts"], prior["counts"])],
                    "sum": h["sum"] - prior["sum"],
                    "count": h["count"] - prior["count"],
                    "nonfinite": h.get("nonfinite", 0) - prior.get("nonfinite", 0),
                }
        return {"counters": counters, "gauges": current["gauges"], "histograms": histograms}

    def to_state(self) -> List[Dict[str, Any]]:
        """Structured dump of every instrument: kind, name, labels, values.

        Unlike :meth:`snapshot` (whose keys are pre-formatted
        ``name{labels}`` strings), this keeps labels as a mapping so a
        receiving registry can re-key them — what a pool child ships
        (:func:`repro.obs.export_child`) and :meth:`merge_state` consumes.
        """
        with self._lock:
            state: List[Dict[str, Any]] = []
            for (name, key), counter in sorted(self._counters.items()):
                state.append({"kind": "counter", "name": name,
                              "labels": dict(key), "value": counter.value})
            for (name, key), gauge in sorted(self._gauges.items()):
                state.append({"kind": "gauge", "name": name,
                              "labels": dict(key), "value": gauge.value,
                              "nonfinite": gauge.nonfinite})
            for (name, key), hist in sorted(self._histograms.items()):
                state.append({"kind": "histogram", "name": name,
                              "labels": dict(key), "bounds": list(hist.bounds),
                              "counts": list(hist.counts), "sum": hist.sum,
                              "count": hist.count, "nonfinite": hist.nonfinite})
            return state

    def merge_state(
        self,
        state: Iterable[Mapping[str, Any]],
        extra_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Fold a :meth:`to_state` dump into this registry.

        ``extra_labels`` (e.g. ``{"pid": "12345"}``) are added to every
        merged series, keeping a child process's counts distinguishable
        from the parent's own — the "label-prefixed" half of the
        cross-process observability contract.  Counters and histograms
        accumulate; gauges overwrite (last write wins, like Prometheus).
        """
        extra = dict(extra_labels or {})
        for row in state:
            labels = {**{str(k): str(v) for k, v in row.get("labels", {}).items()},
                      **extra}
            kind = row.get("kind")
            if kind == "counter":
                self.counter(row["name"], **labels).inc(float(row["value"]))
            elif kind == "gauge":
                gauge = self.gauge(row["name"], **labels)
                gauge.set(float(row["value"]))
                gauge.nonfinite += int(row.get("nonfinite", 0))
            elif kind == "histogram":
                hist = self.histogram(row["name"], buckets=row["bounds"], **labels)
                if list(hist.bounds) != [float(b) for b in row["bounds"]]:
                    raise ValueError(
                        f"histogram {row['name']!r} bucket bounds differ between "
                        f"merge source and registry"
                    )
                hist.counts = [a + b for a, b in zip(hist.counts, row["counts"])]
                hist.sum += float(row["sum"])
                hist.count += int(row["count"])
                hist.nonfinite += int(row.get("nonfinite", 0))
            else:
                raise ValueError(f"unknown instrument kind {kind!r} in merge_state")

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition (counters, gauges, histograms)."""
        lines: List[str] = []
        with self._lock:
            for (name, key), counter in sorted(self._counters.items()):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name}{_format_labels(key)} {_fmt(counter.value)}")
            for (name, key), gauge in sorted(self._gauges.items()):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name}{_format_labels(key)} {_fmt(gauge.value)}")
            for (name, key), hist in sorted(self._histograms.items()):
                lines.append(f"# TYPE {name} histogram")
                cumulative = hist.cumulative()
                for bound, count in zip(hist.bounds, cumulative):
                    le = _format_labels(key, [("le", _fmt(bound))])
                    lines.append(f"{name}_bucket{le} {count}")
                inf = _format_labels(key, [("le", "+Inf")])
                lines.append(f"{name}_bucket{inf} {cumulative[-1]}")
                lines.append(f"{name}_sum{_format_labels(key)} {_fmt(hist.sum)}")
                lines.append(f"{name}_count{_format_labels(key)} {hist.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


@contextmanager
def time_into(instrument: Any) -> Iterator[None]:
    """Time a ``with`` block into any instrument exposing ``observe``.

    Works identically against a real :class:`Histogram` and the shared
    null instrument, so call sites never branch on the enabled flag:

        with time_into(obs.metrics().histogram("plan_search_seconds")):
            companion.best_plans(available)

    The elapsed ``time.perf_counter`` seconds are observed even when the
    block raises, so error paths stay visible in latency distributions.
    """
    start = time.perf_counter()
    try:
        yield
    finally:
        instrument.observe(time.perf_counter() - start)
