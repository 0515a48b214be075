"""Command-line interface: ``python -m repro.cli <command>``.

:data:`TABLE` is the whole command surface, one row per leaf command: its
flags and positionals, its runner, and the exit codes it may return besides
0 and 2.  :func:`build_parser` and :func:`main` are built from it.  A
runner lives in a module of :mod:`repro.commands` that is imported only
when its command runs, so ``import repro.cli`` loads no other ``repro``
module.  ``train --trace/--audit/--profile`` and ``trace-sim
--trace/--events`` write the files the ``obs`` readers take.

Exit codes: README.md#cli-exit-codes is the table; the constants below spell it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple, Optional, Sequence, Tuple

# The exit-code table.  Every command returns one of these; 2 is returned
# from exactly one place, the ``_BadInput`` handler in :func:`main`.
OK, BAD_INPUT, SELFTEST_FAILED, DIVERGED, REGRESSED = 0, 2, 3, 4, 5


class _BadInput(Exception):
    """A user-named input or output the CLI cannot use.  The message is
    ``<path>[:<line>]: <why>``; :func:`main` prints it and returns 2."""


def _load(loader, path, *args):
    """The one input boundary: ``loader(path, *args)`` for a user-named file.

    An ``OSError`` (missing, a directory, unreadable, unwritable) or a
    ``ValueError`` (malformed, ``UnicodeDecodeError`` included) *from that
    call* becomes :class:`_BadInput` naming the path.  Commands load every
    input and claim every output before they build anything, so a
    ``ValueError`` from training or simulating is still a traceback.
    """
    try:
        return loader(path, *args)
    except (OSError, ValueError) as err:
        why = err.strerror.lower() if isinstance(err, OSError) and err.strerror else str(err)
        # loaders that know where (``path:line: …``, ``dir/BENCH_x.json: …``) already say so
        located = why.startswith((f"{path}:", os.path.join(path, "")))
        raise _BadInput(why if located else f"{path}: {why}") from err


def _claim(*paths: Optional[str]) -> None:
    """Open every output path for append now, so an unwritable one is bad
    input before any work starts rather than a traceback after it."""
    for path in filter(None, paths):
        _load(lambda p: open(p, "a", encoding="utf-8").close(), path)


def _workload(name: str):
    """The registry entry for a user-named workload."""
    from repro.models import get_workload

    try:
        return get_workload(name)
    except KeyError as err:
        raise _BadInput(err.args[0]) from None


def _parse_stage(stage: str):
    """Parse '2xV100' / 'v100' / '1xV100+2xP100' into a GPU list; counts >= 1."""
    from repro.hw import gpu_type

    gpus = []
    for part in stage.split("+"):
        count_str, x, type_name = part.strip().rpartition("x")
        count = int(count_str) if x else 1
        if count < 1:
            raise ValueError(f"{part!r} asks for {count} GPUs; a count is at least 1")
        gpus.extend([gpu_type(type_name)] * count)
    return gpus


def _positive(text: str, least: int = 1) -> int:
    """argparse ``type`` of every count flag: an integer >= ``least``."""
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
    return value


def _non_negative(text: str) -> int:
    """``colocation --training-demand``: a cap may be zero, but a negative one
    flows through ``min(..., cap)`` into a silent wrong answer."""
    return _positive(text, least=0)


def _seed(text: str) -> int:
    """argparse ``type`` of every ``--seed``: whatever ``repro.utils.rng``
    accepts (``SeedError`` is a ``ValueError``, as is ``int()``'s)."""
    from repro.utils.rng import _check_seed

    try:
        return _check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer seed in [0, 2**63-1], got {text!r}"
        ) from None


def _positive_float(text: str, above: float = 0.0) -> float:
    """argparse ``type`` of every rate, span and factor flag: a finite
    float > ``above``.  ``nan`` and ``inf`` parse as floats and then
    simulate nothing (``completed 0/N``) or poison every replica."""
    try:
        value = float(text)
    except ValueError:
        value = above
    if not above < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"expected a finite number above {above:g}, got {text!r}"
        )
    return value


def _above_one(text: str) -> float:
    """``obs profile --factor``: a straggler is *slower* than its peers' median."""
    return _positive_float(text, above=1.0)


def _stage(text: str) -> str:
    """argparse ``type`` of a ``--schedule`` stage or ``--gpus`` pool: the
    text itself once :func:`_parse_stage` accepts it."""
    try:
        _parse_stage(text)
    except (ValueError, KeyError) as err:
        raise argparse.ArgumentTypeError(f"bad GPU stage {text!r}: {err.args[0]}") from None
    return text


def _plan_cache_totals(result) -> Optional[Tuple[int, int, float]]:
    """Aggregate companion plan-cache stats across a run's per-job agents.

    Returns ``(hits, misses, hit_ratio)``, or ``None`` when the policy has
    no companion-backed agents (e.g. YARN-CS gang scheduling).
    """
    agents = [runtime.agent for runtime in result.jobs if runtime.agent is not None]
    if not agents:
        return None
    hits = misses = 0
    for agent in agents:
        for stats in agent.companion.cache_stats().values():
            hits += stats["hits"]
            misses += stats["misses"]
    total = hits + misses
    return hits, misses, (hits / total if total else 0.0)


class Command(NamedTuple):
    """One leaf command of :data:`TABLE`."""

    name: str  # the words that name it, ``"trace-sim"`` or ``"obs why"``
    help: str
    runner: str  # ``"<module>:<function>"`` of :mod:`repro.commands`
    exits: Tuple[int, ...] = ()  # codes it may return besides OK (2 is main's alone)
    args: Tuple = ()  # ``(flags, add_argument keywords)`` rows, in ``--help`` order
    # namespace entries beside the flags: ``plan_command``, which the
    # ``gen`` and ``replay`` leaves have always carried
    defaults: Tuple[Tuple[str, str], ...] = ()


def _a(*flags: str, **kwargs) -> Tuple:
    """One ``add_argument`` call of a :class:`Command` row."""
    return flags, kwargs


def _job(samples: int, determinism: str, *own, ests_help=None, determinism_help=None):
    """The flags :func:`repro.commands.train.build_job` reads; ``own`` rows
    sit between ``--samples`` and ``--determinism``, as ``--help`` lists them."""
    return (
        _a("--ests", type=_positive, default=4, help=ests_help),
        _a("--seed", type=_seed, default=0),
        _a("--batch-size", type=_positive, default=8),
        _a("--lr", type=_positive_float, default=0.05),
        _a("--samples", type=_positive, default=samples),
        *own,
        _a("--determinism", default=determinism, choices=["D0", "D1", "D0+D2", "D1+D2"],
           help=determinism_help),
    )


def _gen(out: str, *own):
    """``faults gen`` / ``membership gen``: ``own`` between ``--steps`` and ``--out``."""
    return (
        _a("--seed", type=_seed, default=0),
        _a("--steps", type=_positive, default=12, help="horizon in global steps (default 12)"),
        *own,
        _a("--out", metavar="PATH", default=out, help=f"output path (default {out})"),
    )


def _replay(plan_help: str, leg: str, determinism_help: str, pool=(), own=()):
    """``faults replay`` / ``membership replay``: ``pool`` sits between
    ``--steps`` and ``--determinism``, ``own`` after ``--audit``."""
    return (
        _a("--plan", required=True, metavar="PATH", help=plan_help),
        _a("--workload", default="resnet18"),
        *_job(64, "D1+D2",
              _a("--steps", type=_positive, default=12, help="global steps to train (default 12)"),
              *pool, determinism_help=determinism_help),
        _a("--snapshot-interval", type=_positive, default=4,
           help="periodic checkpoint interval in steps (default 4)"),
        _a("--audit", metavar="PREFIX", default=None,
           help=f"also write PREFIX.ref.jsonl and PREFIX.{leg}.jsonl audit trails"),
        *own,
    )


#: the flags every ``bench`` command has, and ``compare``'s and ``gate``'s
_DIR = _a("--dir", metavar="PATH", default=None,
          help="trajectory directory (default: repo root, or "
               "$REPRO_BENCH_DIR)")
_THRESHOLD = _a("--threshold", type=_positive_float, default=0.30,
                help="relative regression tolerance before noise "
                     "widening (default 0.30)")


#: the ``--help`` line of each command group, by its first word
GROUPS = {
    "faults": "deterministic fault injection (plan generation, replay)",
    "membership": "cluster membership scenarios (plan generation, bitwise replay)",
    "obs": "observability tools (traces, audits)",
    "bench": "benchmark trajectories and the regression gate "
             "(BENCH_<area>.json; see docs/BENCHMARKS.md)",
}

TABLE = (
    Command("list-workloads", "show the Table-1 model zoo", "tools:list_workloads"),
    Command("train", "run an elastic EasyScale job", "train:train", (DIVERGED,), (
        _a("workload"),
        *_job(256, "D1",
              _a("--steps-per-stage", type=_positive, default=4),
              _a("--schedule", nargs="+", type=_stage, default=["4xV100", "2xV100", "1xV100"],
                 help="GPU stages, e.g. 4xV100 2xV100 1xV100+2xP100"),
              ests_help="number of logical workers"),
        _a("--backend", default="serial", choices=["serial", "process", "pool"],
           help="execution backend: 'serial' steps workers "
                "in-process; 'process' (alias 'pool') runs worker "
                "0 in-process and each further worker's compute "
                "in a persistent process pool "
                "(bitwise-identical results; see docs/EXECUTION.md)"),
        _a("--workers", type=_positive, default=None, metavar="N",
           help="process-pool slots for --backend process; "
                "worker w >= 1 runs in slot (w - 1) mod N "
                "(default: 4)"),
        _a("--verify", action="store_true", help="compare bitwise vs DDP"),
        _a("--trace", metavar="PATH", default=None,
           help="record a span trace (JSONL) of the run"),
        _a("--audit", metavar="PATH", default=None,
           help="record a per-step determinism audit trail (JSONL)"),
        _a("--profile", action="store_true",
           help="attach the online profiler (windowed step times, "
                "stragglers, capability calibration); observation "
                "only — results stay bitwise identical"),
        _a("--telemetry", metavar="PATH", default=None,
           help="stream a RunLog (JSONL) of steps/scale events; "
                "with --profile the final profiler summary is "
                "included (view with: repro obs summarize PATH)"),
        _a("--faults", metavar="PLAN", default=None,
           help="train through the resilience controller under "
                "this fault plan JSON (see: repro faults gen); "
                "the first --schedule stage is the starting "
                "pool, and --verify compares bitwise against "
                "the fault-free run"),
        _a("--hosts", metavar="PLAN", default=None,
           help="train through the resilience controller under "
                "this membership plan JSON (see: repro "
                "membership gen); the plan's initial roster is "
                "the starting pool (--schedule is ignored), "
                "--faults may run alongside, and --verify "
                "compares bitwise against the static run"),
    )),
    Command("trace-sim", "replay a job trace", "sim:trace_sim", (), (
        _a("--policy", default="all", choices=["yarn", "homo", "heter", "all"]),
        _a("--jobs", type=_positive, default=30),
        _a("--seed", type=_seed, default=4),
        _a("--interarrival", type=_positive_float, default=45.0),
        _a("--duration", type=_positive_float, default=1200.0),
        _a("--shape", default="bursty", choices=["bursty", "diurnal", "heavy-tail"],
           help="arrival/runtime shape: 'bursty' (Philly-like "
                "Poisson, default), 'diurnal' (month-scale "
                "day/night cosine intensity; --interarrival is "
                "ignored, --days sets the horizon), or "
                "'heavy-tail' (Pareto runtimes, production "
                "demand mix)"),
        _a("--days", type=_positive_float, default=30.0,
           help="horizon in days for --shape diurnal "
                "(default 30)"),
        _a("--cluster-gpus", type=_positive, default=None,
           help="simulate a production_cluster of this many "
                "GPUs (e.g. 3000) instead of the 64-GPU "
                "microbench cluster"),
        _a("--trace", metavar="PATH", default=None,
           help="record the simulator event timeline as a span trace (JSONL)"),
        _a("--events", metavar="PATH", default=None,
           help="save the simulator event log (JSONL) for "
                "'repro obs report' (suffix .<policy> when "
                "replaying multiple policies)"),
        _a("--faults", metavar="PLAN", default=None,
           help="inject a time-triggered fault plan JSON into "
                "the simulated cluster (preemptions, slowdowns; "
                "see repro.faults.random_sim_plan)"),
        _a("--calibrate", metavar="PATH", default=None,
           help="JSON file with per-GPU-type capability scale "
                "factors, e.g. {\"scale\": {\"t4\": 0.8}} — "
                "profiler-measured corrections to the static "
                "capability table"),
        _a("--core", default="batched", choices=["batched", "reference"],
           help="discrete-event core: 'batched' (default: the "
                "reference loop with O(1) candidates, vectorized "
                "job advance, memoized arbitration) or "
                "'reference' (its oracle: linear candidate scan, "
                "scalar advance, brute arbitration — slow at "
                "scale) — byte-identical event streams"),
    )),
    Command("faults gen", "generate a seeded random fault plan (JSON)", "plans:faults_gen", (),
            _gen("fault_plan.json",
                 _a("--gpus", type=_positive, default=4,
                    help="GPUs in the target pool — bounds how much capacity "
                         "the plan may take away (default 4)"),
                 _a("--events", type=_positive, default=4,
                    help="maximum events in the plan (default 4)")),
            (("plan_command", "gen"),)),
    Command("faults replay",
            "prove bitwise recovery: run the fault-free reference and a "
            "resilience-controller run under a plan, then diff their "
            "determinism audit trails (exit 0 identical, 4 divergent)",
            "plans:faults_replay", (DIVERGED,),
            _replay("fault plan JSON (from: repro faults gen)", "fault",
                    "heterogeneous pools need D2 for bitwise identity across "
                    "recoveries (default D1+D2)",
                    pool=(_a("--gpus", type=_stage, default="2xV100+2xT4",
                             help="GPU pool, e.g. 2xV100+2xT4 (default)"),),
                    own=(_a("--contrast", action="store_true",
                            help="instead of the audit diff, run the four-way "
                                 "contrast against a checkpoint-restart elastic "
                                 "baseline (shows the baseline diverging)"),)),
            (("plan_command", "replay"),)),
    Command("membership gen", "generate a seeded membership plan (JSON)",
            "plans:membership_gen", (),
            _gen("membership_plan.json",
                 _a("--events", type=_positive, default=4,
                    help="maximum host events in the plan (default 4)"),
                 _a("--rolling", type=_positive, default=None, metavar="HOSTS",
                    help="instead of random churn, emit a rolling-upgrade "
                         "plan draining all but one of HOSTS single-V100 "
                         "hosts, --max-unavailable at a time"),
                 _a("--max-unavailable", type=_positive, default=1,
                    help="hosts drained per wave with --rolling "
                         "(default 1)")),
            (("plan_command", "gen"),)),
    Command("membership replay",
            "prove bitwise membership: run the static reference on the "
            "plan's initial roster and a resilience-controller run under "
            "the plan, then diff their determinism audit trails "
            "(exit 0 identical, 4 divergent)",
            "plans:membership_replay", (DIVERGED,),
            _replay("membership plan JSON (from: repro membership gen)", "member",
                    "heterogeneous rosters need D2 for bitwise identity across "
                    "reconfigurations (default D1+D2)"),
            (("plan_command", "replay"),)),
    Command("colocation", "two-day serving co-location stats", "sim:colocation", (), (
        _a("--gpus", type=_positive, default=3000),
        _a("--seed", type=_seed, default=2021),
        _a("--training-demand", type=_non_negative, default=500),
    )),
    Command("scan", "D2-eligibility scan for a workload", "tools:scan", (), (_a("workload"),)),
    Command("self-test", "verify the bitwise guarantee on this machine", "tools:self_test",
            (SELFTEST_FAILED,)),
    Command("obs summarize", "flamegraph-style summary of a span trace JSONL",
            "obs:summarize", (), (
                _a("trace_file"),
                _a("--limit", type=_positive, default=None, help="show at most N span paths"),
            )),
    Command("obs export-trace", "convert a span trace JSONL to Chrome trace_event JSON",
            "obs:export_trace", (), (
                _a("trace_file"),
                _a("-o", "--output", default=None,
                   help="output path (default: <trace_file>.chrome.json)"),
            )),
    Command("obs diff-audit", "locate the first divergent step between two audit trails",
            "obs:diff_audit", (DIVERGED,), (_a("audit_a"), _a("audit_b"))),
    Command("obs postmortem", "render a flight-recorder postmortem bundle",
            "obs:postmortem", (), (
                _a("bundle", help="postmortem-<step>.json written on crash"),
                _a("--tail", type=_positive, default=20,
                   help="show the last N ring events (default 20)"),
            )),
    Command("obs why",
            "divergence root-cause forensics over two audit trails "
            "(or postmortem bundles); exit 0 identical, 4 diverged",
            "obs:why", (DIVERGED,), (
                _a("trail_a", help="audit-trail JSONL or postmortem bundle"),
                _a("trail_b", help="audit-trail JSONL or postmortem bundle"),
                _a("--window", type=_positive, default=8,
                   help="steps before the divergence to walk back (default 8)"),
            )),
    Command("obs profile",
            "replay a span trace through the online profiler "
            "(per-worker p50/p99, stragglers, capability calibration)",
            "obs:profile", (), (
                _a("trace_file"),
                _a("--workload", default=None,
                   help="normalize against this workload's static "
                        "capability table (heterogeneous-aware "
                        "straggler detection)"),
                _a("--window", type=_positive, default=8,
                   help="steps per profiling window (default 8)"),
                _a("--factor", type=_above_one, default=1.5,
                   help="straggler threshold vs peer median (default 1.5)"),
                _a("--consecutive", type=_positive, default=3,
                   help="consecutive slow windows before flagging (default 3)"),
                _a("--json", metavar="PATH", default=None,
                   help="also write the JSON profile summary"),
            )),
    Command("obs report",
            "cluster utilization report (idle GPU-seconds, queueing delay, "
            "per-job allocation timelines) from a trace-sim event log",
            "obs:report", (), (
                _a("events_file"),
                _a("--html", metavar="PATH", default=None,
                   help="also write a self-contained HTML report"),
                _a("--json", metavar="PATH", default=None,
                   help="also write the JSON summary"),
            )),
    Command("bench record",
            "append one BENCH_e2e.json record per workload of a "
            "benchmarks/e2e results file (exit 2 if any workload failed)",
            "tools:bench_record", (),
            (_DIR, _a("results", metavar="PATH",
                      help="results file of python -m benchmarks.e2e run "
                           "(benchmarks/e2e/out/results.json or its --out)"))),
    Command("bench compare", "latest-vs-previous verdict for every recorded metric",
            "tools:bench_compare", (), (_DIR, _THRESHOLD)),
    Command("bench gate",
            "CI gate: exit 5 if any metric regressed beyond tolerance, "
            "2 if no trajectory exists, 0 otherwise",
            "tools:bench_gate", (REGRESSED,), (_DIR, _THRESHOLD)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="EasyScale reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for command in TABLE:
        group, _, leaf = command.name.partition(" ")
        if leaf and group not in groups:
            # the leaf, not the group, names the subcommand: the group's dest
            # is what argparse reports when the subcommand is missing
            groups[group] = sub.add_parser(group, help=GROUPS[group]).add_subparsers(
                dest=f"{group}_command", required=True
            )
        leaf_parser = (groups[group] if leaf else sub).add_parser(leaf or group,
                                                                  help=command.help)
        leaf_parser.set_defaults(**dict(command.defaults))
        for flags, kwargs in command.args:
            leaf_parser.add_argument(*flags, **kwargs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    import importlib

    args = build_parser().parse_args(argv)
    # a group's leaf is in its ``<group>_command`` dest (see build_parser)
    name = " ".join(filter(None, (args.command, vars(args).get(f"{args.command}_command"))))
    command = next(row for row in TABLE if row.name == name)
    module, _, function = command.runner.partition(":")
    runner = getattr(importlib.import_module(f"repro.commands.{module}"), function)
    try:
        code = runner(args)
        if code not in (OK, *command.exits):
            raise AssertionError(f"repro {name} returned exit code {code!r}, "
                                 "which its TABLE row does not declare")
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except _BadInput as err:
        print(f"error: {err}", file=sys.stderr)
        return BAD_INPUT
    except BrokenPipeError:
        # the reader left (``| head``): done, and the exit flush must not
        # raise into the same closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return OK


if __name__ == "__main__":
    # the runners import the input boundary from repro.cli: under ``python -m``
    # they must find this module, not a second copy with its own _BadInput
    sys.modules.setdefault("repro.cli", sys.modules[__name__])
    sys.exit(main())
