"""Benchmark telemetry and regression gating: the ``BENCH_*.json`` trajectory.

Every performance claim this repository makes — scheduling-round cost,
determinism-kernel overhead, DES replay cost — is only worth the
commit it rode in on if the *next* commit can prove it did not regress.
This module is that proof chain:

- a **record**: one benchmark run summarized as median + p10/p90 over
  repeats, stamped with the machine fingerprint, git SHA, and UTC time,
  schema-versioned so old trajectories stay readable;
- a **trajectory**: an append-only ``BENCH_<area>.json`` file at the repo
  root (``BENCH_sched.json``, ``BENCH_determinism.json``,
  ``BENCH_dessim.json``) holding those records in commit order
  (``BENCH_parallel.json`` is retired history: the pool is timed by
  ``benchmarks/e2e``);
- a **comparator**: noise-aware classification of each metric as
  improved / flat / regressed against the previous trajectory entry with
  the same bench name and parameters.  "Noise-aware" means the relative
  threshold widens to the larger of the two entries' own p10–p90 spread,
  and widens again when either side has too few repeats to trust its
  variance;
- a **gate**: ``repro bench gate`` exits non-zero (5) when any metric
  regressed — the CI hook that turns the trajectory into enforcement.

The built-in benches (:data:`BENCHES`) are deliberately small — seconds,
not minutes — because a per-PR gate that nobody runs gates nothing.  The
full-scale figure regenerators under ``benchmarks/`` append to the same
trajectories through :func:`record_samples` when ``REPRO_BENCH_RECORD=1``.

Environment hooks:

- ``REPRO_BENCH_SMOKE=1`` — reduced bench sizes (same as ``--smoke``);
- ``REPRO_BENCH_DIR`` — trajectory directory override (default: repo root);
- ``REPRO_BENCH_SCALE=<float>`` — multiply every recorded timing sample,
  a test-only hook for proving the gate fails on an injected slowdown.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Version stamped into every record; bump on incompatible layout changes.
BENCH_SCHEMA_VERSION = 1

#: Default relative threshold for the improved/flat/regressed split.
DEFAULT_THRESHOLD = 0.30

#: Below this many repeats a sample's variance is untrusted and the
#: comparison tolerance is doubled.
MIN_TRUSTED_REPEATS = 3

#: Trajectory areas and their repo-root file names.
AREAS: Tuple[str, ...] = ("sched", "determinism", "dessim")

STATUSES = ("improved", "flat", "regressed", "baseline")


def trajectory_path(area: str, directory: Optional[str] = None) -> str:
    """``<directory>/BENCH_<area>.json`` (directory defaults per :func:`bench_dir`)."""
    return os.path.join(directory or bench_dir(), f"BENCH_{area}.json")


def bench_dir() -> str:
    """Trajectory directory: ``REPRO_BENCH_DIR`` or the repository root."""
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        return override
    # src/repro/obs/bench.py -> repo root is three levels above repro/
    return os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    )


# ---------------------------------------------------------------------------
# record construction
# ---------------------------------------------------------------------------


def summarize_samples(samples: Sequence[float], unit: str = "s",
                      direction: str = "lower") -> Dict[str, Any]:
    """Median + p10/p90 stats for one metric's repeat samples."""
    if not samples:
        raise ValueError("cannot summarize zero samples")
    if direction not in ("lower", "higher"):
        raise ValueError(f"direction must be 'lower' or 'higher', got {direction!r}")
    values = sorted(float(v) for v in samples)
    if any(v != v or v in (float("inf"), float("-inf")) for v in values):
        raise ValueError(f"non-finite benchmark sample in {values}")

    def pct(q: float) -> float:
        if len(values) == 1:
            return values[0]
        pos = q * (len(values) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(values) - 1)
        return values[lo] + (values[hi] - values[lo]) * (pos - lo)

    return {
        "median": pct(0.5),
        "p10": pct(0.10),
        "p90": pct(0.90),
        "repeats": len(values),
        "unit": unit,
        "direction": direction,
    }


def machine_fingerprint() -> Dict[str, Any]:
    """Enough about this host to explain cross-machine timing deltas."""
    return {
        "host": platform.node() or "unknown",
        "platform": platform.platform(),
        "python": f"{sys.version_info.major}.{sys.version_info.minor}.{sys.version_info.micro}",
        "cpu_count": os.cpu_count() or 1,
    }


def git_sha(cwd: Optional[str] = None) -> str:
    """Short commit SHA of the working tree, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=cwd or bench_dir(),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def make_record(
    area: str,
    bench: str,
    params: Mapping[str, Any],
    metric_samples: Mapping[str, Sequence[float]],
    directions: Optional[Mapping[str, str]] = None,
    units: Optional[Mapping[str, str]] = None,
) -> Dict[str, Any]:
    """Build one schema-valid trajectory record from raw repeat samples.

    ``REPRO_BENCH_SCALE`` (test hook) multiplies every *lower-is-better*
    sample, so a synthetic regression exercises the gate end to end.
    """
    if not metric_samples:
        raise ValueError(f"bench {bench!r} produced no metrics")
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1") or 1)
    metrics = {}
    for name, samples in sorted(metric_samples.items()):
        direction = (directions or {}).get(name, "lower")
        unit = (units or {}).get(name, "s")
        if direction == "lower" and scale != 1.0:
            samples = [s * scale for s in samples]
        metrics[name] = summarize_samples(samples, unit=unit, direction=direction)
    record = {
        "schema": BENCH_SCHEMA_VERSION,
        "area": str(area),
        "bench": str(bench),
        "params": dict(params),
        "metrics": metrics,
        "machine": machine_fingerprint(),
        "git_sha": git_sha(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    validate_record(record)
    return record


def validate_record(payload: Any) -> Dict[str, Any]:
    """Raise ``ValueError`` unless ``payload`` is a schema-valid record."""
    if not isinstance(payload, dict):
        raise ValueError(f"bench record must be an object, got {type(payload).__name__}")
    for key in ("schema", "area", "bench", "params", "metrics", "machine",
                "git_sha", "timestamp"):
        if key not in payload:
            raise ValueError(f"bench record missing field {key!r}")
    if payload["schema"] != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported bench schema {payload['schema']!r} "
            f"(this build reads version {BENCH_SCHEMA_VERSION})"
        )
    if not isinstance(payload["params"], dict):
        raise ValueError("bench record 'params' must be an object")
    metrics = payload["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("bench record 'metrics' must be a non-empty object")
    for name, stats in metrics.items():
        if not isinstance(stats, dict):
            raise ValueError(f"metric {name!r} must be an object")
        for key in ("median", "p10", "p90", "repeats", "unit", "direction"):
            if key not in stats:
                raise ValueError(f"metric {name!r} missing field {key!r}")
        if stats["direction"] not in ("lower", "higher"):
            raise ValueError(
                f"metric {name!r} direction must be 'lower' or 'higher', "
                f"got {stats['direction']!r}"
            )
        if stats["repeats"] < 1:
            raise ValueError(f"metric {name!r} has repeats < 1")
        if not (stats["p10"] <= stats["median"] <= stats["p90"]):
            raise ValueError(
                f"metric {name!r} quantiles out of order: "
                f"p10={stats['p10']} median={stats['median']} p90={stats['p90']}"
            )
    return payload


# ---------------------------------------------------------------------------
# trajectory file
# ---------------------------------------------------------------------------


class Trajectory:
    """One ``BENCH_<area>.json`` file: an append-only list of records."""

    def __init__(self, area: str, path: Optional[str] = None) -> None:
        self.area = area
        self.path = path or trajectory_path(area)
        self.entries: List[Dict[str, Any]] = []

    @classmethod
    def load(cls, area: str, path: Optional[str] = None) -> "Trajectory":
        """Read the trajectory; a missing file is an empty trajectory."""
        traj = cls(area, path)
        if not os.path.exists(traj.path):
            return traj
        with open(traj.path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as err:
                raise ValueError(f"{traj.path}: malformed trajectory JSON: {err}") from err
        if not isinstance(payload, dict) or "entries" not in payload:
            raise ValueError(f"{traj.path}: expected an object with an 'entries' list")
        if payload.get("schema") != BENCH_SCHEMA_VERSION:
            raise ValueError(
                f"{traj.path}: unsupported trajectory schema {payload.get('schema')!r}"
            )
        for i, entry in enumerate(payload["entries"]):
            try:
                validate_record(entry)
            except ValueError as err:
                raise ValueError(f"{traj.path}: entry {i}: {err}") from err
            traj.entries.append(entry)
        return traj

    def append(self, record: Mapping[str, Any]) -> None:
        entry = validate_record(dict(record))
        if entry["area"] != self.area:
            raise ValueError(
                f"record area {entry['area']!r} does not match trajectory "
                f"{self.area!r}"
            )
        self.entries.append(entry)

    def save(self) -> None:
        payload = {
            "schema": BENCH_SCHEMA_VERSION,
            "area": self.area,
            "entries": self.entries,
        }
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def __len__(self) -> int:
        return len(self.entries)


def record_samples(
    area: str,
    bench: str,
    params: Mapping[str, Any],
    metric_samples: Mapping[str, Sequence[float]],
    directory: Optional[str] = None,
) -> Dict[str, Any]:
    """Build a record and append it to the area's trajectory file."""
    record = make_record(area, bench, params, metric_samples)
    traj = Trajectory.load(area, trajectory_path(area, directory))
    traj.append(record)
    traj.save()
    return record


# ---------------------------------------------------------------------------
# comparator
# ---------------------------------------------------------------------------


@dataclass
class ComparisonRow:
    """One metric's verdict against the previous trajectory entry."""

    area: str
    bench: str
    metric: str
    status: str  # improved | flat | regressed | baseline
    current: float
    previous: Optional[float] = None
    ratio: Optional[float] = None
    tolerance: Optional[float] = None
    unit: str = "s"

    def describe(self) -> str:
        if self.status == "baseline":
            return (f"{self.area}/{self.bench}.{self.metric:<14} "
                    f"{self.current:>12.6f}{self.unit}  baseline (no prior entry)")
        sign = {"improved": "-", "regressed": "!", "flat": "="}[self.status]
        return (f"{self.area}/{self.bench}.{self.metric:<14} "
                f"{self.previous:>12.6f}{self.unit} -> {self.current:>12.6f}{self.unit}  "
                f"x{self.ratio:.3f} (tol ±{self.tolerance:.0%}) {sign} {self.status}")


def _relative_spread(stats: Mapping[str, Any]) -> float:
    median = float(stats["median"])
    if median <= 0:
        return 0.0
    return min(1.0, max(0.0, (float(stats["p90"]) - float(stats["p10"])) / median))


def classify(
    previous: Mapping[str, Any],
    current: Mapping[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    min_repeats: int = MIN_TRUSTED_REPEATS,
) -> Tuple[str, float, float]:
    """Classify one metric: returns ``(status, ratio, tolerance)``.

    The tolerance is the relative ``threshold`` widened to the larger
    p10–p90 spread of the two entries (noise floor), and doubled when
    either side has fewer than ``min_repeats`` repeats (variance cannot
    be trusted from one or two samples).
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    tolerance = max(threshold, _relative_spread(previous), _relative_spread(current))
    if previous["repeats"] < min_repeats or current["repeats"] < min_repeats:
        tolerance = max(tolerance, 2 * threshold)
    prev = float(previous["median"])
    cur = float(current["median"])
    if prev <= 0 or cur <= 0:
        return "flat", 1.0, tolerance  # degenerate timings carry no signal
    ratio = cur / prev
    worse = ratio > 1 + tolerance
    better = ratio < 1 / (1 + tolerance)
    if current.get("direction", "lower") == "higher":
        worse, better = better, worse
    if worse:
        return "regressed", ratio, tolerance
    if better:
        return "improved", ratio, tolerance
    return "flat", ratio, tolerance


def _entry_key(entry: Mapping[str, Any]) -> Tuple[str, str]:
    return (
        str(entry["bench"]),
        json.dumps(entry["params"], sort_keys=True, default=str),
    )


def compare_trajectory(
    traj: Trajectory,
    threshold: float = DEFAULT_THRESHOLD,
    min_repeats: int = MIN_TRUSTED_REPEATS,
) -> List[ComparisonRow]:
    """Latest-vs-previous verdict for every (bench, params) series.

    Only entries with identical parameters are comparable — a smoke run
    never gates against a full-scale one.  A series with a single entry
    yields ``baseline`` rows.
    """
    series: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for entry in traj.entries:
        series.setdefault(_entry_key(entry), []).append(entry)
    rows: List[ComparisonRow] = []
    for key in sorted(series):
        history = series[key]
        current = history[-1]
        previous = history[-2] if len(history) >= 2 else None
        for metric in sorted(current["metrics"]):
            cur_stats = current["metrics"][metric]
            prev_stats = previous["metrics"].get(metric) if previous else None
            if prev_stats is None:
                rows.append(ComparisonRow(
                    area=traj.area, bench=current["bench"], metric=metric,
                    status="baseline", current=float(cur_stats["median"]),
                    unit=cur_stats.get("unit", "s"),
                ))
                continue
            status, ratio, tolerance = classify(
                prev_stats, cur_stats, threshold=threshold, min_repeats=min_repeats
            )
            rows.append(ComparisonRow(
                area=traj.area, bench=current["bench"], metric=metric,
                status=status, current=float(cur_stats["median"]),
                previous=float(prev_stats["median"]), ratio=ratio,
                tolerance=tolerance, unit=cur_stats.get("unit", "s"),
            ))
    return rows


# ---------------------------------------------------------------------------
# built-in benches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchSpec:
    """A runnable built-in bench: one callable per (area, name)."""

    area: str
    name: str
    #: fn(smoke) -> (params, {metric: one_sample}); called once per repeat
    fn: Callable[[bool], Tuple[Dict[str, Any], Dict[str, float]]]
    description: str = ""


def _bench_sched_plan_round(smoke: bool) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """Cold vs warm companion plan-search cost for one scheduling round."""
    from repro.sched.companion import CompanionModule

    max_p = 5 if smoke else 10
    per_type = 5 if smoke else 10
    chunks = (1, 2, 4)
    types = ("v100", "p100", "t4")
    jobs = 4
    caps = [
        {"v100": 9.0 * (1 + 0.07 * i), "p100": 4.0 * (1 + 0.07 * i),
         "t4": 3.0 * (1 + 0.07 * i)}
        for i in range(jobs)
    ]
    owned = [
        {t: n for t, n in
         {"v100": (i % 3) + 1, "p100": (2 * i) % 4, "t4": (3 * i) % 3}.items() if n}
        for i in range(jobs)
    ]
    companions = [
        CompanionModule(max_p=max_p, capability=caps[i], max_gpus_per_type=per_type)
        for i in range(jobs)
    ]

    def one_round() -> None:
        for i, comp in enumerate(companions):
            comp.best_plans(owned[i], top_k=3)
            for gtype in types:
                for chunk in chunks:
                    if chunk <= per_type:
                        comp.best_plan_delta(owned[i], gtype, chunk)

    t0 = time.perf_counter()
    one_round()
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    one_round()
    warm = time.perf_counter() - t0
    params = {"jobs": jobs, "max_p": max_p, "per_type": per_type,
              "chunks": list(chunks), "smoke": smoke}
    return params, {"cold_s": cold, "warm_s": warm}


def _bench_determinism_kernel(smoke: bool) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """Vendor-dialect vs hardware-agnostic (D2) GEMM kernel cost."""
    import numpy as np

    from repro.tensor import kernels
    from repro.tensor.kernels import D0_POLICY, D2_POLICY

    size = 96 if smoke else 160
    iters = 10
    rng = np.random.default_rng(0)
    a = rng.normal(size=(size, size)).astype(np.float32)
    b = rng.normal(size=(size, size)).astype(np.float32)

    def clock(policy) -> float:
        t0 = time.perf_counter()
        for _ in range(iters):
            kernels.matmul(a, b, dialect="p100", policy=policy)
        return time.perf_counter() - t0

    clock(D0_POLICY)  # warm-up both paths once
    clock(D2_POLICY)
    vendor = clock(D0_POLICY)
    agnostic = clock(D2_POLICY)
    params = {"size": size, "iters": iters, "dialect": "p100", "smoke": smoke}
    return params, {"vendor_s": vendor, "agnostic_s": agnostic}


def _bench_dessim_replay(smoke: bool) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """Month-shaped trace replay: ``run()`` vs ``run_reference()`` wall cost.

    A scaled-down cousin of ``benchmarks/bench_dessim.py`` (which replays
    the full 3,000-GPU month): a diurnal trace on a production-mix pool,
    replayed under EasyScale-heter by the event core and by its oracle.
    The two event logs must stay byte-identical — a timing is only worth
    recording if it is the *same* simulation.
    """
    from repro.hw import microbench_cluster, production_cluster
    from repro.sched import ClusterSimulator, EasyScalePolicy, diurnal_trace

    if smoke:
        jobs = diurnal_trace(num_jobs=60, seed=11, days=0.5)
        build = microbench_cluster
        gpus = 64
    else:
        jobs = diurnal_trace(num_jobs=240, seed=11, days=2)
        build = lambda: production_cluster(256)
        gpus = 256

    def replay(core: str) -> Tuple[float, str]:
        sim = ClusterSimulator(build(), jobs, EasyScalePolicy(True))
        t0 = time.perf_counter()
        result = getattr(sim, core)()
        return time.perf_counter() - t0, result.events.fingerprint()

    reference_s, reference_fp = replay("run_reference")
    batched_s, batched_fp = replay("run")
    if reference_fp != batched_fp:
        raise RuntimeError(
            f"run() diverged from run_reference(): {batched_fp} != {reference_fp}"
        )
    params = {"jobs": len(jobs), "gpus": gpus, "shape": "diurnal", "smoke": smoke}
    return params, {"batched_s": batched_s, "reference_s": reference_s}


#: The built-in per-PR benches, keyed by area.
BENCHES: Dict[str, BenchSpec] = {
    "sched": BenchSpec(
        "sched", "plan_round", _bench_sched_plan_round,
        "cold vs warm companion plan-search cost for one scheduling round",
    ),
    "determinism": BenchSpec(
        "determinism", "kernel_overhead", _bench_determinism_kernel,
        "vendor vs hardware-agnostic GEMM kernel cost",
    ),
    "dessim": BenchSpec(
        "dessim", "trace_replay", _bench_dessim_replay,
        "diurnal trace replay: event core vs reference core wall cost",
    ),
}


@dataclass
class BenchRunResult:
    """What one ``repro bench run`` produced for one area."""

    area: str
    record: Dict[str, Any]
    rows: List[ComparisonRow] = field(default_factory=list)


def run_benches(
    areas: Sequence[str],
    repeats: int = 5,
    smoke: Optional[bool] = None,
    directory: Optional[str] = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> List[BenchRunResult]:
    """Run built-in benches, append records, and compare against history."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if smoke is None:
        smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    results: List[BenchRunResult] = []
    for area in areas:
        spec = BENCHES.get(area)
        if spec is None:
            raise ValueError(f"unknown bench area {area!r}; available: {sorted(BENCHES)}")
        samples: Dict[str, List[float]] = {}
        params: Dict[str, Any] = {}
        for _ in range(repeats):
            params, metrics = spec.fn(smoke)
            for name, value in metrics.items():
                samples.setdefault(name, []).append(value)
        record = record_samples(
            area, spec.name, params, samples, directory=directory
        )
        traj = Trajectory.load(area, trajectory_path(area, directory))
        rows = compare_trajectory(traj, threshold=threshold)
        results.append(BenchRunResult(area=area, record=record, rows=rows))
    return results


def gate_trajectories(
    areas: Sequence[str],
    directory: Optional[str] = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> Tuple[List[ComparisonRow], List[ComparisonRow]]:
    """All comparison rows plus the regressed subset, across areas.

    Raises ``FileNotFoundError`` when no trajectory file exists for any
    requested area — a gate with nothing to check must fail loudly, not
    pass silently.
    """
    rows: List[ComparisonRow] = []
    seen_any = False
    for area in areas:
        path = trajectory_path(area, directory)
        if not os.path.exists(path):
            continue
        seen_any = True
        rows.extend(compare_trajectory(Trajectory.load(area, path), threshold=threshold))
    if not seen_any:
        raise FileNotFoundError(
            f"{directory or bench_dir()}: no BENCH_*.json trajectory found for "
            f"areas {list(areas)} (run: repro bench run)"
        )
    regressed = [r for r in rows if r.status == "regressed"]
    return rows, regressed
