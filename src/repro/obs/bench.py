"""Benchmark telemetry and regression gating: the ``BENCH_e2e.json`` trajectory.

Every performance claim this repository makes is only worth the commit
it rode in on if the *next* commit can prove it did not regress.  The
stopwatch is the frozen whole-path benchmark ``benchmarks/e2e``; this
module turns its results into that proof chain:

- a **record**: one workload's end-to-end metrics summarized as median +
  p10/p90 over the run's repeats, stamped with the results file's own
  machine record, the git SHA of the checkout that produced it, and the
  UTC time, schema-versioned so old trajectories stay readable;
- a **trajectory**: the append-only ``BENCH_e2e.json`` at the repo root
  holding those records in commit order (``BENCH_sched.json``,
  ``BENCH_determinism.json``, ``BENCH_dessim.json`` and
  ``BENCH_parallel.json`` are retired history, kept byte-identical);
- a **comparator**: noise-aware classification of each metric as
  improved / flat / regressed against the previous trajectory entry with
  the same bench name and parameters.  "Noise-aware" means the relative
  threshold widens to the larger of the two entries' own p10–p90 spread,
  and widens again when either side has too few repeats to trust its
  variance;
- a **gate**: ``repro bench gate`` exits non-zero (5) when any metric
  regressed — the CI hook that turns the trajectory into enforcement.

``repro bench record PATH`` appends one record per workload of a
``benchmarks/e2e`` results file (:func:`load_results`, then
:func:`record_samples` per workload).

Environment hooks:

- ``REPRO_BENCH_DIR`` — trajectory directory override (default: repo root);
- ``REPRO_BENCH_SCALE=<float>`` — multiply every recorded lower-is-better
  sample, a test-only hook for proving the gate fails on an injected
  slowdown.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Version stamped into every record; bump on incompatible layout changes.
BENCH_SCHEMA_VERSION = 1

#: Default relative threshold for the improved/flat/regressed split.
DEFAULT_THRESHOLD = 0.30

#: Below this many repeats a sample's variance is untrusted and the
#: comparison tolerance is doubled.
MIN_TRUSTED_REPEATS = 3

#: The live trajectory's area: ``BENCH_e2e.json``.
AREA = "e2e"

#: ``BENCHMARK.json``'s end-to-end metrics as recorded: direction and unit.
E2E_DIRECTIONS = {"setup_s": "lower", "wall_s": "lower", "work_per_s": "higher",
                  "peak_rss_mb": "lower"}
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}

#: ``work_per_s`` of a results file is the workload kind's own throughput
#: (as ``benchmarks/e2e/run.py`` names it; ``src`` does not import the benchmark).
WORK_PER_S = {"train": "train.samples_per_s", "sim": "sim.events_per_s"}

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
    machine: Optional[Mapping[str, Any]] = None,
    sha: Optional[str] = None,
) -> Dict[str, Any]:
    """Build one schema-valid trajectory record from raw repeat samples.

    ``machine`` and ``sha`` default to this host and this checkout; a
    record of someone else's run passes the run's own.
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
        "machine": dict(machine) if machine is not None else machine_fingerprint(),
        "git_sha": sha or git_sha(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    validate_record(record)
    return record


def _finite(value: Any) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


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
        for key in ("median", "p10", "p90"):
            if not _finite(stats[key]):
                raise ValueError(
                    f"metric {name!r}: {key} must be a finite number, got {stats[key]!r}"
                )
        repeats = stats["repeats"]
        if not isinstance(repeats, int) or isinstance(repeats, bool) or repeats < 1:
            raise ValueError(
                f"metric {name!r}: repeats must be an integer >= 1, got {repeats!r}"
            )
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
        if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
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
    **stamp: Any,
) -> Dict[str, Any]:
    """Build a record and append it to the area's trajectory file.

    ``stamp`` is passed to :func:`make_record` (directions, units,
    machine, sha).
    """
    record = make_record(area, bench, params, metric_samples, **stamp)
    traj = Trajectory.load(area, trajectory_path(area, directory))
    traj.append(record)
    traj.save()
    return record


# ---------------------------------------------------------------------------
# benchmarks/e2e results
# ---------------------------------------------------------------------------


def load_results(path: str) -> List[Dict[str, Any]]:
    """Read a ``benchmarks/e2e`` results file into one run per workload.

    A run is the keyword arguments of :func:`record_samples` for one
    ``e2e`` record: the workload name as the bench; ``seed``, ``sizes``
    and ``smoke`` as params, so a smoke run never gates against a full
    one; the four end-to-end metrics over the file's repeats; the file's
    own ``machine`` record and the commit of the checkout it lies in.
    A workload whose checks failed is refused — such a run reports no
    speed — so a bad file records nothing.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            results = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: malformed results JSON: {err}") from err
    if not (isinstance(results, dict) and type(results.get("seed")) is int
            and isinstance(results.get("smoke"), bool)
            and isinstance(results.get("machine"), dict)
            and isinstance(results.get("workloads"), dict) and results["workloads"]):
        raise ValueError(f"{path}: expected a benchmarks/e2e results object: integer "
                         "'seed', boolean 'smoke', object 'machine', non-empty "
                         "object 'workloads'")
    sha = git_sha(os.path.dirname(os.path.abspath(path)))
    runs = []
    for name, entry in results["workloads"].items():
        where = f"{path}: workloads.{name}"
        if not isinstance(entry, dict) or entry.get("kind") not in WORK_PER_S:
            raise ValueError(f"{where}: expected an object with 'kind' one of "
                             f"{sorted(WORK_PER_S)}")
        if entry.get("failed") != 0:
            raise ValueError(f"{where}: {entry.get('failed')!r} of {entry.get('attempted')!r} "
                             "operations failed; a run whose checks failed reports no speed")
        end_to_end = entry.get("end_to_end")
        if not isinstance(end_to_end, dict):
            raise ValueError(f"{where}: 'end_to_end' must be an object")
        samples = {}
        for metric in E2E_DIRECTIONS:
            source = WORK_PER_S[entry["kind"]] if metric == "work_per_s" else metric
            stats = end_to_end.get(source)
            repeats = stats.get("repeats") if isinstance(stats, dict) else None
            if not isinstance(repeats, list) or not repeats or not all(
                    _finite(v) and v >= 0 for v in repeats):
                raise ValueError(f"{where}: end_to_end.{source}.repeats must be a "
                                 f"non-empty list of finite numbers >= 0, got {repeats!r}")
            samples[metric] = repeats
        runs.append({
            "bench": name,
            "params": {"seed": results["seed"], "sizes": entry.get("sizes"),
                       "smoke": results["smoke"]},
            "metric_samples": samples,
            "directions": E2E_DIRECTIONS,
            "units": E2E_UNITS,
            "machine": results["machine"],
            "sha": sha,
        })
    return runs


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
        name = f"{self.area}/{self.bench}.{self.metric}"
        if self.status == "baseline":
            return (f"{name:<34} {self.current:>12.6g} {self.unit:<3}  "
                    "baseline (no prior entry)")
        sign = {"improved": "-", "regressed": "!", "flat": "="}[self.status]
        return (f"{name:<34} {self.previous:>12.6g} {self.unit:<3} -> "
                f"{self.current:>12.6g} {self.unit:<3}  "
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
) -> Tuple[str, float, float]:
    """Classify one metric: returns ``(status, ratio, tolerance)``.

    The tolerance is the relative ``threshold`` widened to the larger
    p10–p90 spread of the two entries (noise floor), and doubled when
    either side has fewer than ``MIN_TRUSTED_REPEATS`` repeats (variance
    cannot be trusted from one or two samples).
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    tolerance = max(threshold, _relative_spread(previous), _relative_spread(current))
    if min(previous["repeats"], current["repeats"]) < MIN_TRUSTED_REPEATS:
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
            status, ratio, tolerance = classify(prev_stats, cur_stats, threshold=threshold)
            rows.append(ComparisonRow(
                area=traj.area, bench=current["bench"], metric=metric,
                status=status, current=float(cur_stats["median"]),
                previous=float(prev_stats["median"]), ratio=ratio,
                tolerance=tolerance, unit=cur_stats.get("unit", "s"),
            ))
    return rows


def gate_trajectory(
    directory: Optional[str] = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> Tuple[List[ComparisonRow], List[ComparisonRow]]:
    """All comparison rows of ``BENCH_e2e.json`` plus the regressed subset.

    Raises ``FileNotFoundError`` when the trajectory does not exist — a
    gate with nothing to check must fail loudly, not pass silently.
    """
    path = trajectory_path(AREA, directory)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"{directory or bench_dir()}: no BENCH_{AREA}.json trajectory found "
            "(record one: repro bench record <results.json>)"
        )
    rows = compare_trajectory(Trajectory.load(AREA, path), threshold=threshold)
    return rows, [r for r in rows if r.status == "regressed"]
