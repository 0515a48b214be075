"""Command line of the benchmark.

``run.py --workload W --seed N --seconds S --trace 0|1`` is the
``BENCHMARK.json`` command: one workload, one JSON object on the last
line.  ``run.py run`` runs every workload and writes
``out/results.json``; ``run.py compare A.json B.json`` compares two such
files.  ``python -m benchmarks.e2e`` is the same program.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT) not in sys.path:  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import compare, driver  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 20230412
#: the one end-to-end throughput every workload has, under its own name
WORK_PER_S = {"train": "train.samples_per_s", "sim": "sim.events_per_s"}


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(contract: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}


def machine() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
    }


def require_program() -> None:
    """The benchmark measures ``src/repro``; without it there is nothing to run."""
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        sys.exit(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark "
                 "runs the repository's program and cannot run without it")


def wipe_out_dir() -> None:
    """``out/`` holds only what the current invocation wrote."""
    shutil.rmtree(driver.OUT, ignore_errors=True)
    driver.OUT.mkdir(parents=True)


def flat_metrics(entry: Dict[str, Any]) -> Dict[str, float]:
    """Every metric of a workload entry by name, plus ``work_per_s``."""
    flat = {name: metric["value"] for name, metric in entry["end_to_end"].items()}
    flat.update(entry["per_layer"])
    if WORK_PER_S[entry["kind"]] in flat:
        flat["work_per_s"] = flat[WORK_PER_S[entry["kind"]]]
    return flat


def print_entry(name: str, entry: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"== {name}  sizes={entry['sizes']}")
    for metric, value in flat_metrics(entry).items():
        print(f"  {metric:<34} {value:>16.6g} {units.get(metric, '')}")
    tail = entry.get("tail")
    if tail:
        print(f"  {tail['metric'] + '_p' + format(tail['percentile'], 'g'):<34} "
              f"{tail['value']:>16.6g} ms  ({tail['samples']} samples)")
    for failure in entry["failures"]:
        print(f"  FAILED {failure}")


def write_results(path, seed: int, smoke: bool, repeats: int,
                  entries: Dict[str, Dict[str, Any]]) -> None:
    results = {"seed": seed, "smoke": smoke, "repeats": repeats,
               "machine": machine(), "workloads": entries}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(f"results written to {path}")


def finish(box: driver.Containment, entries: Dict[str, Dict[str, Any]]) -> None:
    """The driver's last act: nothing of ours may still exist."""
    leftovers = box.leftovers()
    for leftover in leftovers:
        print(f"LEAKED {leftover}")
    if leftovers:
        for entry in entries.values():
            entry["failed"] = entry["attempted"]
            entry["failures"] += [f"leaked {leftover}" for leftover in leftovers]


# ----------------------------------------------------------------------
def run_one(argv: List[str]) -> int:
    """The ``BENCHMARK.json`` command."""
    contract = load_contract()
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    require_program()
    units = metric_units(contract)

    wipe_out_dir()
    with driver.Containment() as box:
        # sizes are frozen: fresh repeats are started for --seconds seconds
        entry = driver.run_workload(
            box, args.workload, args.seed, seconds=args.seconds, traced=bool(args.trace)
        )
        entries = {args.workload: entry}
        finish(box, entries)
    print_entry(args.workload, entry, units)
    repeats = len(entry["measured"]["wall_s"]) if "measured" in entry else 0
    write_results(driver.OUT / "results.json", args.seed, False, repeats, entries)

    flat = flat_metrics(entry)
    metrics = {}
    for metric in contract["per_layer"] if args.trace else contract["end_to_end"]:
        # a layer the workload never enters did no work: count 0, time 0
        value = flat.get(metric["name"], 0.0 if args.trace else None)
        if value is None:
            print(f"FAILED metric {metric['name']} was not measured")
            return 1
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = not entry["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(argv: List[str]) -> int:
    """Every workload (or the named ones): 5 untraced repeats + 1 traced."""
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e run")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--repeats", type=int, default=driver.MIN_REPEATS)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--out", default=str(driver.OUT / "results.json"))
    args = parser.parse_args(argv)
    require_program()
    if args.repeats < driver.MIN_REPEATS and not args.smoke:
        parser.error(f"--repeats must be at least {driver.MIN_REPEATS}")
    units = metric_units(load_contract())

    wipe_out_dir()
    entries: Dict[str, Dict[str, Any]] = {}
    with driver.Containment() as box:
        for name in args.workload or list(WORKLOADS):
            entries[name] = driver.run_workload(
                box, name, args.seed, repeats=args.repeats, smoke=args.smoke
            )
            print_entry(name, entries[name], units)
        pool, serial = entries.get("train_conv_pool"), entries.get("train_conv_serial")
        if pool and serial and pool["signature"] != serial["signature"]:
            pool["failed"] = pool["attempted"]
            pool["failures"].append(
                "train_conv_pool: final parameters differ from train_conv_serial's: "
                f"{pool['signature']} != {serial['signature']}"
            )
            print(f"  FAILED {pool['failures'][-1]}")
        elif pool and serial:
            speedup = (pool["end_to_end"]["train.samples_per_s"]["value"]
                       / serial["end_to_end"]["train.samples_per_s"]["value"])
            print(f"== pool vs serial on {os.cpu_count()} cores: x{speedup:.3f} samples/s "
                  f"(base {serial['end_to_end']['train.samples_per_s']['value']:.1f} samples/s)")
        finish(box, entries)
    write_results(args.out, args.seed, args.smoke, args.repeats, entries)
    return 1 if any(e["failures"] for e in entries.values()) else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["run"]:
        return run_all(argv[1:])
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    return run_one(argv)


if __name__ == "__main__":
    sys.exit(main())
