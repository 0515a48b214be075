"""``list-workloads``, ``scan``, ``self-test`` and ``bench``."""

from __future__ import annotations

import argparse

from repro.cli import OK, REGRESSED, SELFTEST_FAILED, _load, _workload


def list_workloads(args: argparse.Namespace) -> int:
    from repro.models import TABLE1, WORKLOADS

    print(f"{'name':<16} {'dataset':<16} {'batch':>5} {'params(GB)':>10} "
          f"{'V100 mb/s':>9} {'conv-heavy':>10}")
    for name in TABLE1 + sorted(set(WORKLOADS) - set(TABLE1)):
        spec = WORKLOADS[name]
        print(f"{spec.name:<16} {spec.dataset_name:<16} {spec.batch_size:>5} "
              f"{spec.params_gb:>10.3f} {spec.throughput['v100']:>9.1f} "
              f"{str(spec.conv_heavy):>10}")
    return OK


def scan(args: argparse.Namespace) -> int:
    from repro.core import scan_model
    from repro.utils.rng import RNGBundle

    spec = _workload(args.workload)
    report = scan_model(spec.build_model(RNGBundle(0)))
    if report.d2_recommended:
        print(f"{args.workload}: no vendor-kernel reliance; D2 is cheap "
              f"(heterogeneous GPUs recommended)")
    else:
        print(f"{args.workload}: relies on vendor conv kernels in "
              f"{len(report.vendor_kernel_modules)} modules; D2 costs ~3.4x "
              f"(homogeneous GPUs recommended)")
        for name in report.vendor_kernel_modules:
            print(f"  - {name}")
    return OK


def self_test(args: argparse.Namespace) -> int:
    from repro.core.selftest import run_selftest

    report = run_selftest()
    for line in report.lines():
        print(line)
    print("\nself-test", "PASSED" if report.passed else "FAILED")
    return OK if report.passed else SELFTEST_FAILED


def bench_record(args: argparse.Namespace) -> int:
    from repro.obs import bench

    directory = args.dir or bench.bench_dir()
    runs = _load(bench.load_results, args.results)
    records = _load(lambda d: [bench.record_samples(bench.AREA, directory=d, **run)
                               for run in runs], directory)
    for record in records:
        stats = "  ".join(f"{name} {s['median']:.6g} {s['unit']} (n={s['repeats']})"
                          for name, s in sorted(record["metrics"].items()))
        print(f"{bench.AREA}/{record['bench']}: {stats}")
    print(f"  -> appended {len(records)} records to "
          f"{bench.trajectory_path(bench.AREA, directory)} "
          f"({records[-1]['git_sha']} @ {records[-1]['timestamp']})")
    return OK


def _gated(args: argparse.Namespace):
    """``compare`` and ``gate`` read the trajectory; a directory without one
    is bad input (a gate with nothing to check must not pass)."""
    from repro.obs import bench

    rows, regressed = _load(bench.gate_trajectory, args.dir or bench.bench_dir(),
                            args.threshold)
    for row in rows:
        print(row.describe())
    return rows, regressed


def bench_compare(args: argparse.Namespace) -> int:
    rows, regressed = _gated(args)
    print(f"{len(rows)} metrics: "
          f"{sum(r.status == 'improved' for r in rows)} improved, "
          f"{sum(r.status == 'flat' for r in rows)} flat, "
          f"{len(regressed)} regressed, "
          f"{sum(r.status == 'baseline' for r in rows)} baseline")
    return OK


def bench_gate(args: argparse.Namespace) -> int:
    rows, regressed = _gated(args)
    if regressed:
        print(f"bench gate: FAILED — {len(regressed)} regressed metric(s)")
        return REGRESSED
    print(f"bench gate: ok ({len(rows)} metrics within tolerance)")
    return OK
