"""Online profiler: windowed step timings, stragglers, and calibration.

The Eq. (1) scheduler runs on per-GPU-type capability numbers ``C_i``.
The paper does not trust a static table: jobs are profiled *online* and
the measured throughput feeds back into the performance model.  This
module is that feedback loop:

- **sliding-window aggregation** — per-worker (and per-EST) step timings
  are grouped into fixed-size windows; each closed window contributes one
  robust (median) sample per worker;
- **straggler detection** — a worker whose windowed step time exceeds the
  peer median by ``straggler_factor`` for ``straggler_windows``
  *consecutive* windows is flagged with a structured
  :class:`StragglerEvent`.  Timings are normalized by the static
  ``hw.timing`` expectation first, so a T4 running at T4 speed is not a
  straggler — only a worker slower than its own hardware's model is;
- **prediction error** — given a reference :class:`~repro.sched.perfmodel.Plan`,
  every closed window compares observed ``f_overload``/waste against the
  Eq. (1b)/(1c) predictions and exports the relative errors through the
  metrics registry;
- **capability calibration** — an EWMA over observed mini-batches/s per
  GPU type, available via :meth:`OnlineProfiler.calibrated_capability`
  for the intra-job scheduler and the cluster simulator to consume
  *instead of* the static table.

The profiler only observes: it never touches model state, RNG streams, or
the data pipeline, so attaching it cannot perturb bitwise determinism.
Acting on its calibration (re-planning) is a separate, opt-in step that
exercises the same EST-reassignment path as any other elastic event.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro import obs
from repro.hw.gpu import type_key
from repro.obs.metrics import Histogram

#: finer-grained bounds than DEFAULT_BUCKETS so p50/p99 interpolation on
#: sub-second step times stays tight (geometric, 100 µs .. ~100 s)
PROFILER_BUCKETS: Tuple[float, ...] = tuple(
    round(1e-4 * (1.4142135623730951 ** i), 10) for i in range(40)
)


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of empty window")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass(frozen=True)
class StragglerEvent:
    """A worker confirmed slow for ``consecutive`` windows in a row."""

    window: int
    step: int
    worker_id: int
    gpu: str
    window_time: float
    peer_median: float
    ratio: float
    consecutive: int


@dataclass
class ProfilerConfig:
    """Tunables for windowing, straggler thresholds, and calibration."""

    #: observed steps per window (per worker)
    window_size: int = 8
    #: windowed (normalized) step time must exceed peer median by this
    straggler_factor: float = 1.5
    #: ... for this many consecutive windows before an event fires
    straggler_windows: int = 3
    #: EWMA smoothing for observed capability (higher = faster tracking)
    ewma_alpha: float = 0.25
    #: minimum concurrent workers for a peer comparison to be meaningful
    min_peers: int = 2

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        if self.straggler_factor <= 1.0:
            raise ValueError("straggler_factor must exceed 1.0")
        if self.straggler_windows <= 0:
            raise ValueError("straggler_windows must be positive")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")


@dataclass
class _WorkerStats:
    """Per-worker accumulation state."""

    worker_id: int
    gpu: str
    num_ests: int = 1
    #: local window index this worker's ``closed`` list starts at (a
    #: worker first observed after some windows already finalized joins
    #: late instead of stalling the finalization frontier)
    offset: int = 0
    #: step times of the currently-filling window
    pending: List[float] = field(default_factory=list)
    #: (median step time, last step id) per closed window, by window index
    closed: List[Tuple[float, int]] = field(default_factory=list)
    #: consecutive windows over the straggler threshold
    consecutive: int = 0
    hist: Histogram = field(default_factory=lambda: Histogram(PROFILER_BUCKETS))
    observed_steps: int = 0


class OnlineProfiler:
    """Aggregate step timings into scheduling-grade signals.

    Feed it one :meth:`observe_worker_step` per worker per global step
    (the engine does this automatically when a profiler is attached), or
    replay a recorded span trace through :func:`profile_from_trace`.
    """

    def __init__(
        self,
        config: Optional[ProfilerConfig] = None,
        static_capability: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.config = config or ProfilerConfig()
        #: analytical prior ``C_i`` (type key -> mini-batches/s);
        #: used to normalize straggler comparisons across GPU types and as
        #: the base table :meth:`calibrated_capability` refines
        self.static_capability: Dict[str, float] = {
            type_key(k): float(v) for k, v in (static_capability or {}).items()
        }
        self._workers: Dict[int, _WorkerStats] = {}
        self._est_hist: Dict[int, Histogram] = {}
        self.straggler_events: List[StragglerEvent] = []
        self.windows_closed = 0
        #: windows_closed value at the last worker reset; per-worker
        #: ``closed`` lists restart at each scale event, so the local
        #: index of the next window is ``windows_closed - _base_windows``
        self._base_windows = 0
        #: EWMA of observed mini-batches/s per GPU type
        self._ewma: Dict[str, float] = {}
        self._plan = None
        self._plan_capability: Optional[Dict[str, float]] = None
        #: (window, observed f, predicted f, observed waste, predicted waste)
        self.prediction_log: List[Tuple[int, float, float, float, float]] = []

    # ------------------------------------------------------------------
    # reference model (for prediction-error tracking)
    # ------------------------------------------------------------------
    def set_reference(self, plan, capability: Mapping[str, float]) -> None:
        """Install the plan + capability table the scheduler is acting on.

        Closed windows will then compare observed ``f_overload``/waste
        against the Eq. (1b)/(1c) predictions for this plan.
        """
        self._plan = plan
        self._plan_capability = {type_key(k): float(v) for k, v in capability.items()}

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def on_scale_event(self, gpus: Iterable[str]) -> None:
        """Reset per-worker windows after a reconfiguration.

        Worker ids and EST placements change across an elastic event, so
        in-flight windows would compare apples to oranges.  Calibration
        state and the straggler-event history survive.
        """
        del gpus  # future: pre-seed worker slots
        self._finalize_ready_windows(force=True)
        self._workers.clear()
        self._base_windows = self.windows_closed

    def observe_worker_step(
        self, step: int, worker_id: int, gpu: str, num_ests: int, step_time: float
    ) -> None:
        """One worker's seconds for one global step, on a GPU of type key ``gpu``."""
        if step_time <= 0 or num_ests <= 0:
            return
        stats = self._workers.get(worker_id)
        if stats is None or stats.gpu != gpu:
            stats = self._workers[worker_id] = _WorkerStats(
                worker_id=worker_id,
                gpu=gpu,
                offset=self.windows_closed - self._base_windows,
            )
        stats.num_ests = num_ests
        stats.observed_steps += 1
        stats.hist.observe(step_time)
        stats.pending.append(step_time)
        if len(stats.pending) >= self.config.window_size:
            stats.closed.append((_median(stats.pending), step))
            stats.pending = []
        self._finalize_ready_windows()

    def observe_est_step(self, step: int, vrank: int, local_time: float) -> None:
        """One EST's local-step (mini-batch) time; powers per-EST p50/p99."""
        del step
        if local_time <= 0:
            return
        hist = self._est_hist.get(vrank)
        if hist is None:
            hist = self._est_hist[vrank] = Histogram(PROFILER_BUCKETS)
        hist.observe(local_time)

    def flush(self) -> None:
        """Close partially-filled windows (end of run / before a report)."""
        self._finalize_ready_windows(force=True)

    # ------------------------------------------------------------------
    # window finalization: straggler check, calibration, prediction error
    # ------------------------------------------------------------------
    def _finalize_ready_windows(self, force: bool = False) -> None:
        if not self._workers:
            return
        if force:
            for stats in self._workers.values():
                if stats.pending:
                    stats.closed.append((_median(stats.pending), -1))
                    stats.pending = []
        while True:
            local = self.windows_closed - self._base_windows
            ready = min(
                stats.offset + len(stats.closed) for stats in self._workers.values()
            )
            if ready <= local:
                return
            self._finalize_window(local)
            self.windows_closed += 1

    def _finalize_window(self, local_index: int) -> None:
        cfg = self.config
        medians = {
            wid: stats.closed[local_index - stats.offset]
            for wid, stats in self._workers.items()
            if local_index >= stats.offset
        }
        if not medians:
            return
        step = max(s for _, s in medians.values())

        # calibration: observed C_i = local mini-batches / bottleneck time
        for wid, (median_time, _) in medians.items():
            stats = self._workers[wid]
            observed_rate = stats.num_ests / median_time
            prior = self._ewma.get(stats.gpu)
            if prior is None:
                self._ewma[stats.gpu] = observed_rate
            else:
                self._ewma[stats.gpu] = (
                    cfg.ewma_alpha * observed_rate + (1.0 - cfg.ewma_alpha) * prior
                )
            obs.metrics().gauge("profiler_capability_mbps", gpu=stats.gpu).set(
                self._ewma[stats.gpu]
            )

        # straggler check on model-normalized window times
        if len(medians) >= cfg.min_peers:
            normalized: Dict[int, float] = {}
            for wid, (median_time, _) in medians.items():
                stats = self._workers[wid]
                expected = self._expected_step_time(stats)
                normalized[wid] = median_time / expected if expected else median_time
            peer_median = _median(list(normalized.values()))
            for wid, norm in normalized.items():
                stats = self._workers[wid]
                ratio = norm / peer_median if peer_median > 0 else 1.0
                if ratio > cfg.straggler_factor:
                    stats.consecutive += 1
                else:
                    stats.consecutive = 0
                if stats.consecutive >= cfg.straggler_windows:
                    event = StragglerEvent(
                        window=self.windows_closed,
                        step=step,
                        worker_id=wid,
                        gpu=stats.gpu,
                        window_time=medians[wid][0],
                        peer_median=peer_median,
                        ratio=ratio,
                        consecutive=stats.consecutive,
                    )
                    self.straggler_events.append(event)
                    obs.instant(
                        "profiler.straggler",
                        cat="profiler",
                        worker=wid,
                        gpu=stats.gpu,
                        ratio=round(ratio, 4),
                        consecutive=stats.consecutive,
                    )
                    obs.metrics().counter(
                        "profiler_straggler_events_total", gpu=stats.gpu
                    ).inc()

        # prediction error vs the Eq. (1) model, when a reference is set
        if self._plan is not None and self._plan_capability:
            from repro.sched.perfmodel import observed_waste, overload_factor, waste

            f_observed = max(t for t, _ in medians.values())
            try:
                f_predicted = overload_factor(self._plan, self._plan_capability)
                w_predicted = waste(self._plan, self._plan_capability)
                w_observed = observed_waste(
                    self._plan, self._plan_capability, f_observed
                )
            except (KeyError, ValueError):
                return
            self.prediction_log.append(
                (self.windows_closed, f_observed, f_predicted, w_observed, w_predicted)
            )
            registry = obs.metrics()
            if f_predicted > 0:
                registry.gauge("profiler_foverload_rel_error").set(
                    (f_observed - f_predicted) / f_predicted
                )
            registry.gauge("profiler_foverload_observed").set(f_observed)
            registry.gauge("profiler_waste_observed").set(w_observed)
            registry.histogram("profiler_foverload_abs_error_seconds").observe(
                abs(f_observed - f_predicted)
            )

    def _expected_step_time(self, stats: _WorkerStats) -> Optional[float]:
        capability = self.static_capability.get(stats.gpu)
        if capability is None or capability <= 0:
            return None
        return stats.num_ests / capability

    # ------------------------------------------------------------------
    # outputs
    # ------------------------------------------------------------------
    @property
    def observed_capability(self) -> Dict[str, float]:
        """EWMA-calibrated mini-batches/s per GPU type observed so far."""
        return dict(self._ewma)

    def calibrated_capability(
        self, static: Optional[Mapping[str, float]] = None
    ) -> Dict[str, float]:
        """The static table with observed types replaced by EWMA values."""
        table = static if static is not None else self.static_capability
        base = {type_key(k): float(v) for k, v in table.items()}
        base.update(self._ewma)
        return base

    def stragglers(self) -> List[int]:
        """Worker ids currently over the K-consecutive-window threshold."""
        return sorted(
            wid
            for wid, stats in self._workers.items()
            if stats.consecutive >= self.config.straggler_windows
        )

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable profile: per-worker p50/p99, stragglers, deltas."""
        workers = {}
        for wid, stats in sorted(self._workers.items()):
            workers[str(wid)] = {
                "gpu": stats.gpu,
                "num_ests": stats.num_ests,
                "steps": stats.observed_steps,
                "p50_s": stats.hist.quantile(0.5),
                "p99_s": stats.hist.quantile(0.99),
                "mean_s": stats.hist.sum / stats.hist.count if stats.hist.count else 0.0,
                "consecutive_slow_windows": stats.consecutive,
            }
        ests = {
            str(vrank): {
                "steps": hist.count,
                "p50_s": hist.quantile(0.5),
                "p99_s": hist.quantile(0.99),
            }
            for vrank, hist in sorted(self._est_hist.items())
        }
        calibration = {
            "static": dict(self.static_capability),
            "observed": dict(self._ewma),
            "delta": {
                gtype: self._ewma[gtype] - self.static_capability[gtype]
                for gtype in self._ewma
                if gtype in self.static_capability
            },
        }
        out: Dict[str, Any] = {
            "windows": self.windows_closed,
            "window_size": self.config.window_size,
            "workers": workers,
            "ests": ests,
            "stragglers": [asdict(e) for e in self.straggler_events],
            "calibration": calibration,
        }
        if self.prediction_log:
            window, f_obs, f_pred, w_obs, w_pred = self.prediction_log[-1]
            out["prediction"] = {
                "window": window,
                "f_overload_observed": f_obs,
                "f_overload_predicted": f_pred,
                "waste_observed": w_obs,
                "waste_predicted": w_pred,
                "f_overload_rel_error": (f_obs - f_pred) / f_pred if f_pred else 0.0,
            }
        return out

    def describe(self) -> str:
        """Human-readable rendering of :meth:`summary`."""
        s = self.summary()
        lines = [
            f"profile over {s['windows']} windows "
            f"(window_size={s['window_size']}, workers={len(s['workers'])})"
        ]
        if s["workers"]:
            lines.append(
                f"{'worker':>8} {'gpu':>6} {'ests':>5} {'steps':>6} "
                f"{'p50(s)':>10} {'p99(s)':>10}"
            )
            for wid, w in s["workers"].items():
                lines.append(
                    f"{wid:>8} {w['gpu']:>6} {w['num_ests']:>5} {w['steps']:>6} "
                    f"{w['p50_s']:>10.6f} {w['p99_s']:>10.6f}"
                )
        cal = s["calibration"]
        if cal["observed"]:
            lines.append("calibrated capability (mini-batches/s):")
            for gtype in sorted(cal["observed"]):
                static = cal["static"].get(gtype)
                obs_v = cal["observed"][gtype]
                if static:
                    lines.append(
                        f"  {gtype:>6}: observed {obs_v:.3f}  static {static:.3f}  "
                        f"({(obs_v / static - 1.0) * 100.0:+.1f}%)"
                    )
                else:
                    lines.append(f"  {gtype:>6}: observed {obs_v:.3f}")
        if s["stragglers"]:
            lines.append(f"straggler events: {len(s['stragglers'])}")
            for e in s["stragglers"][-5:]:
                lines.append(
                    f"  window {e['window']}: worker {e['worker_id']} ({e['gpu']}) "
                    f"x{e['ratio']:.2f} slower than peers "
                    f"({e['consecutive']} consecutive windows)"
                )
        else:
            lines.append("straggler events: none")
        if "prediction" in s:
            p = s["prediction"]
            lines.append(
                f"perf-model check: f_overload observed {p['f_overload_observed']:.4f}s "
                f"vs predicted {p['f_overload_predicted']:.4f}s "
                f"({p['f_overload_rel_error'] * 100.0:+.1f}%)"
            )
        return "\n".join(lines)


#: the worker spans :func:`profile_from_trace` reads
_WORKER_SPANS = ("worker.local_step", "worker.context_switch")


def profile_from_trace(
    records: Iterable[Mapping[str, Any]],
    config: Optional[ProfilerConfig] = None,
    static_capability: Optional[Mapping[str, float]] = None,
) -> OnlineProfiler:
    """Rebuild an :class:`OnlineProfiler` from recorded span records.

    Consumes the ``worker.local_step`` and ``worker.context_switch`` spans
    of the instrumented :class:`~repro.core.worker.EasyScaleWorker` and the
    engine's ``engine.scale_event`` instants.  Each span carries its
    modeled seconds in ``args["est"]``; wall-clock spans without an
    estimate fall back to their measured ``t1 - t0``.

    A worker's spans inside one ``engine.global_step`` span are one worker
    step, read as the live profiler reads it: ``num_ests`` is the count of
    its local steps there, and the step time is their ``est`` plus its
    context switches' — what ``EasyScaleWorker.step_time()`` feeds
    :meth:`OnlineProfiler.observe_worker_step`.  A local step outside
    every global-step span is a single-EST worker step of its own, so its
    observed capability is ``1 / per-batch-time`` — exactly ``C_i``.
    Scale events replay in time order with the steps, as the live profiler saw them.
    """
    records = list(records)
    steps = sorted(
        (float(r.get("t0", 0.0)), float(r.get("t1", 0.0)))
        for r in records
        if r.get("kind") == "span" and r.get("name") == "engine.global_step"
    )
    starts = [t0 for t0, _ in steps]
    profiler = OnlineProfiler(config=config, static_capability=static_capability)
    #: global-step index -> worker -> [gpu, local steps, seconds, (vrank, seconds)...]
    grouped: Dict[int, Dict[int, List[Any]]] = {}
    #: (time, 0 for a scale event / 1 for a step, that step's workers or None)
    timeline: List[Tuple[float, int, Any]] = []
    for record in records:
        name = record.get("name")
        if record.get("kind") == "instant" and name == "engine.scale_event":
            timeline.append((float(record.get("t0", 0.0)), 0, None))
            continue
        if record.get("kind") != "span" or name not in _WORKER_SPANS:
            continue
        args = record.get("args", {})
        worker = args.get("worker")
        if worker is None:
            continue
        t0, t1 = float(record.get("t0", 0.0)), float(record.get("t1", 0.0))
        est = args.get("est")
        duration = float(t1 - t0 if est is None else est)
        if duration <= 0:
            continue
        gpu = type_key(str(args.get("gpu", "?")))
        index = bisect_right(starts, t0) - 1
        if index >= 0 and t1 <= steps[index][1]:
            entry = grouped.setdefault(index, {}).setdefault(int(worker), ["?", 0, 0.0])
            entry[2] += duration
            if name == "worker.local_step":
                entry[0] = gpu
                entry[1] += 1
                entry.append((args.get("vrank"), duration))
        elif name == "worker.local_step":
            alone = [gpu, 1, duration, (args.get("vrank"), duration)]
            timeline.append((t0, 1, {int(worker): alone}))
    timeline += [(steps[index][0], 1, workers) for index, workers in grouped.items()]
    step = 0
    for _, _, workers in sorted(timeline, key=lambda item: item[:2]):
        if workers is None:
            profiler.on_scale_event(())
            continue
        for worker, (gpu, num_ests, seconds, *local) in sorted(workers.items()):
            profiler.observe_worker_step(step, worker, gpu, num_ests, seconds)
            for vrank, duration in local:
                if vrank is not None:
                    profiler.observe_est_step(step, int(vrank), duration)
        step += 1
    profiler.flush()
    return profiler

