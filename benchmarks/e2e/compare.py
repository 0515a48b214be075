"""``compare A.json B.json``: one row per (workload, end-to-end metric).

Bounds and directions come from ``BENCHMARK.json``; a workload-specific
metric takes the bound of the contract metric it is a view of, and the
simulated quantities must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from benchmarks.e2e import stats

ROOT = Path(__file__).resolve().parents[2]

#: workload-specific metric -> the contract metric whose bound it takes
LIKE = {
    "train.samples_per_s": "work_per_s",
    "sim.events_per_s": "work_per_s",
    "train.step_ms_p50": "wall_s",
    "train.reconfigure_ms_p50": "wall_s",
}
#: bound 0: a simulator speed-up must leave these identical
EXACT = {
    "sim.avg_jct_s": "lower",
    "sim.makespan_s": "lower",
    "sim.gpu_util": "higher",
    "fail_ratio": "lower",
}


def rules() -> Dict[str, Tuple[str, float]]:
    """metric -> (better, bound) for every end-to-end metric of results.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}
    table = dict(contract)
    table.update({name: contract[base] for name, base in LIKE.items()})
    table.update({name: (better, 0.0) for name, better in EXACT.items()})
    return table


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """``same | better | worse | unresolved`` for runs ``b`` against base ``a``.

    The two sides are compared the way the benchmark reports them: by
    the median of their repeats.
    """
    sign = 1.0 if better == "lower" else -1.0
    mid_a, mid_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (mid_b - mid_a) / abs(mid_a) if mid_a else sign * (mid_b - mid_a)
    if bound == 0.0:
        if sorted(a) == sorted(b) or worse_by == 0.0:
            return "same"
        return "worse" if worse_by > 0 else "better"
    every_b_better = all(sign * (y - x) < 0 for x in a for y in b)
    every_b_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if max(stats.spread(a), stats.spread(b)) > bound:
        # the runs' own spread exceeds the bound: a verdict needs the two
        # sets not to interleave at all
        if every_b_better:
            return "better"
        if every_b_worse and worse_by > bound:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(results_a: dict, results_b: dict) -> List[dict]:
    table = rules()
    rows = []
    for workload, entry_a in results_a["workloads"].items():
        entry_b = results_b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric, (better, bound) in table.items():
            if metric not in entry_a["end_to_end"] or metric not in entry_b["end_to_end"]:
                continue
            a = entry_a["end_to_end"][metric]["repeats"]
            b = entry_b["end_to_end"][metric]["repeats"]
            if not a or not b:
                continue
            rows.append({
                "workload": workload, "metric": metric, "better": better, "bound": bound,
                "a": stats.summarize(a), "b": stats.summarize(b),
                "verdict": verdict(a, b, better, bound),
            })
    return rows


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
    parser.add_argument("a", help="results.json of the base")
    parser.add_argument("b", help="results.json of the change")
    args = parser.parse_args(argv)
    loaded = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as fh:
            loaded.append(json.load(fh))
    rows = compare(*loaded)
    print(f"{'workload':<18} {'metric':<26} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B/A':>8} {'bound':>6}  verdict")
    for row in rows:
        a, b = row["a"], row["b"]
        ratio = b["median"] / a["median"] if a["median"] else float("nan")
        print(
            f"{row['workload']:<18} {row['metric']:<26} "
            f"{a['median']:>12.5g} [{a['q1']:>9.5g},{a['q3']:>9.5g}] "
            f"{b['median']:>12.5g} [{b['q1']:>9.5g},{b['q3']:>9.5g}] "
            f"{ratio:>8.4f} {row['bound']:>6.2f}  {row['verdict']}"
            f"  (base A {a['median']:.5g}, {row['better']} is better)"
        )
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("  ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return 1 if counts.get("worse") else 0
