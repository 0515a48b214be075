"""The CLI input contract, as one table: every file the CLI reads, crossed
with every way a file can be damaged.

Each cell must exit 2 with one ``error: <path>…`` line on stderr — or, where
the JSONL codec tolerates a damaged *trailing* line, exit 0 with the
truncation warning — and must never show a traceback.  A flag value no run
could use gets the same treatment (``BAD_FLAGS``).  Every cell fails
before any training or simulation starts, so the whole table runs in
seconds; a loader that wrongly accepted a damaged plan would show up as a
slow cell that trains.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.cli import main

# role -> file name of the undamaged example built by the ``good`` fixture
FILES = {
    "fault_plan": "faults.json",
    "sim_fault_plan": "sim_faults.json",
    "membership_plan": "hosts.json",
    "calibration": "cal.json",
    "span_trace": "spans.jsonl",
    "telemetry": "run.jsonl",
    "event_log": "events.jsonl",
    "audit_trail": "audit.jsonl",
    "bundle": "postmortem-1.json",
    "results": "results.json",
}
#: line-oriented logs: mid-file damage is located by line, a damaged tail is tolerated
JSONL = {"span_trace", "telemetry", "event_log", "audit_trail"}

# (id, argv, role of "{path}"); other "{role}" placeholders are good files
ROWS = [
    ("train --faults", ["train", "neumf", "--faults", "{path}"], "fault_plan"),
    ("train --hosts", ["train", "neumf", "--hosts", "{path}"], "membership_plan"),
    ("train --hosts --faults",
     ["train", "neumf", "--hosts", "{membership_plan}", "--faults", "{path}"], "fault_plan"),
    ("trace-sim --faults", ["trace-sim", "--jobs", "2", "--faults", "{path}"], "sim_fault_plan"),
    ("trace-sim --calibrate", ["trace-sim", "--jobs", "2", "--calibrate", "{path}"], "calibration"),
    ("faults replay --plan", ["faults", "replay", "--plan", "{path}"], "fault_plan"),
    ("faults replay --contrast", ["faults", "replay", "--contrast", "--plan", "{path}"], "fault_plan"),
    ("membership replay --plan", ["membership", "replay", "--plan", "{path}"], "membership_plan"),
    ("obs summarize spans", ["obs", "summarize", "{path}"], "span_trace"),
    ("obs summarize telemetry", ["obs", "summarize", "{path}"], "telemetry"),
    ("obs export-trace", ["obs", "export-trace", "{path}"], "span_trace"),
    ("obs profile", ["obs", "profile", "{path}"], "span_trace"),
    ("obs report events", ["obs", "report", "{path}"], "event_log"),
    ("obs report spans", ["obs", "report", "{path}"], "span_trace"),
    ("obs diff-audit A", ["obs", "diff-audit", "{path}", "{audit_trail}"], "audit_trail"),
    ("obs diff-audit B", ["obs", "diff-audit", "{audit_trail}", "{path}"], "audit_trail"),
    ("obs why trail A", ["obs", "why", "{path}", "{audit_trail}"], "audit_trail"),
    ("obs why trail B", ["obs", "why", "{audit_trail}", "{path}"], "audit_trail"),
    ("obs why bundle A", ["obs", "why", "{path}", "{bundle}"], "bundle"),
    ("obs why bundle B", ["obs", "why", "{bundle}", "{path}"], "bundle"),
    ("obs postmortem", ["obs", "postmortem", "{path}"], "bundle"),
    ("bench record", ["bench", "record", "{path}", "--dir", "{bench_dir}"], "results"),
]
DAMAGES = ["missing", "directory", "empty", "non_utf8", "mid_garbage",
           "truncated_tail", "wrong_type"]


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """One small valid file per role, written by the library's own writers."""
    from repro.faults import EventPlan, HostSpec, PlanEvent, random_sim_plan
    from repro.obs import flightrec
    from repro.obs.audit import AuditRecord, AuditTrail
    from repro.obs.report import save_events_jsonl
    from repro.obs.trace import SpanTracer
    from repro.utils.events import EventLog
    from repro.utils.telemetry import RunLog

    root = tmp_path_factory.mktemp("good")
    path = {role: str(root / name) for role, name in FILES.items()}

    EventPlan(events=(PlanEvent(kind="gpu_revoke", at_step=2),), seed=1).save(path["fault_plan"])
    random_sim_plan(7, horizon_s=3000.0, max_events=3).save(path["sim_fault_plan"])
    EventPlan(
        initial_hosts=(HostSpec("v0", "v100", 1), HostSpec("v1", "v100", 1)),
        events=(PlanEvent(kind="drain", host="v1", at_step=2),),
    ).save(path["membership_plan"])
    with open(path["calibration"], "w", encoding="utf-8") as fh:
        json.dump({"scale": {"t4": 0.5, "p100": 0.9}}, fh, indent=2)

    # one trace that every span-trace reader can use: worker steps for
    # ``obs profile``, sched instants for ``obs report``
    tracer = SpanTracer(clock="sim")
    tracer.instant("cluster_capacity", ts=0.0, cat="sched", v100=4)
    tracer.instant("job_submit", ts=0.0, cat="sched", job="a")
    tracer.instant("scale_out", ts=1.0, cat="sched", job="a", gtype="v100", gpus=2)
    for step in range(4):
        with tracer.span("worker.local_step", est=0.5, worker=0, gpu="v100", vrank=0):
            pass
    tracer.instant("job_done", ts=9.0, cat="sched", job="a")
    tracer.save(path["span_trace"])

    with RunLog(path["telemetry"]) as log:
        for step in range(4):
            log.step(step, [1.0 / (step + 1)])

    events = EventLog()
    events.emit(0.0, "cluster_capacity", v100=4)
    events.emit(0.0, "job_submit", job="a")
    events.emit(1.0, "scale_out", job="a", gtype="v100", gpus=2)
    events.emit(5.0, "scale_in", job="a", gtype="v100", gpus=2)
    events.emit(5.0, "job_done", job="a")
    save_events_jsonl(events, path["event_log"])

    with AuditTrail(path["audit_trail"]) as trail:
        for step in range(4):
            trail.record(AuditRecord(step=step, params=f"p{step}", buckets={"0": f"b{step}"},
                                     policy="D1"))

    rec = flightrec.FlightRecorder()
    rec.record("engine.step", step=0)
    rec.note_audit({"step": 0, "params": "p0", "buckets": {"0": "b0"}, "rng": "r",
                    "loader": {}, "policy": "D1", "dialects": ["v100"]})
    rec.dump("test", path=path["bundle"])

    # a benchmarks/e2e results file; ``bench record`` rows append under
    # ``bench_dir``, never at the repo root
    from tests.obs.test_bench import results_payload

    with open(path["results"], "w", encoding="utf-8") as fh:
        json.dump(results_payload(), fh, indent=1)
    path["bench_dir"] = str(root / "bench")
    return path


def damage(src: str, dst: str, how: str):
    """Write a damaged copy of ``src`` at ``dst``; returns the 1-based line
    number of mid-file garbage (``None`` for every other damage)."""
    with open(src, "rb") as fh:
        data = fh.read()
    lines = data.splitlines()
    lineno = None
    if how == "missing":
        return None
    if how == "directory":
        os.mkdir(dst)
        return None
    if how == "empty":
        data = b""
    elif how == "non_utf8":
        data = b"\xff\xfe\x00" + data
    elif how == "mid_garbage":
        if len(lines) > 1:
            lineno = len(lines) // 2 + 1
            lines.insert(lineno - 1, b"garbage{")
            data = b"\n".join(lines) + b"\n"
        else:  # a one-line document: break its structure, not a string inside it
            data = data[:1] + b"garbage{" + data[1:]
    elif how == "truncated_tail":
        data = data.rstrip(b"\n")
        data = data[: len(data) - max(1, len(lines[-1]) // 2)]
    elif how == "wrong_type":
        data = b"[1, 2, 3]\n"
    with open(dst, "wb") as fh:
        fh.write(data)
    return lineno


@pytest.mark.parametrize("how", DAMAGES)
@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_damaged_input(row, how, good, tmp_path, capsys):
    _, argv, role = row
    path = str(tmp_path / FILES[role])
    lineno = damage(good[role], path, how)
    argv = [arg.format(path=path, **good) for arg in argv]

    code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err

    if how == "truncated_tail" and role in JSONL:
        # the loader tolerates the tail; a trail one step short of its peer
        # is still a coverage difference, and the verdict says so
        assert code == (4 if argv[1] in ("diff-audit", "why") else 0), err
        assert f"warning: {path} has a truncated trailing line" in out
        assert not err
        return
    assert code == 2, (out, err)
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err
    assert path in err
    if lineno is not None and role in JSONL:
        assert f"{path}:{lineno}:" in err
    # nothing was trained or simulated on the way to the error
    for started in ("stage 0", "survived the plan", "avg JCT", "replay:", "contrast",
                    "appended"):
        assert started not in out
    assert not os.path.exists(good["bench_dir"])


# plan files that are valid JSON objects but not valid plans: each entry is
# rejected by the one plan loader with its location.  Each row used to be
# a traceback or to load silently wrong (``2.7`` as step 2, NaN as a time)
HOSTS = [{"host_id": "v0", "gtype": "v100", "slots": 1}, {"host_id": "v1", "gtype": "v100"}]
BAD_PLANS = [
    ("event without host", "membership_plan",
     {"initial_hosts": HOSTS, "events": [{"kind": "drain", "at_step": 2}]}, "events[0]: drain"),
    ("step is a list", "fault_plan",
     {"events": [{"kind": "gpu_revoke", "at_step": [1]}]}, "events[0]: at_step"),
    ("host entry not an object", "membership_plan",
     {"initial_hosts": HOSTS + [3], "events": []}, "initial_hosts[2]: must be a JSON object"),
    ("unknown initial gtype", "membership_plan",
     {"initial_hosts": [{"host_id": "a", "gtype": "a100"}]}, "initial_hosts[0]: a: unknown GPU type"),
    ("unknown announce gtype", "membership_plan",
     {"initial_hosts": HOSTS,
      "events": [{"kind": "announce", "host": "n", "gtype": "a100", "at_step": 1}]},
     "events[0]: n: unknown GPU type"),
    ("fractional step", "fault_plan",
     {"events": [{"kind": "gpu_revoke", "at_step": 2.7}]}, "events[0]: at_step must be an integer"),
    ("NaN time", "sim_fault_plan",
     {"events": [{"kind": "slowdown", "at_time": float("nan"), "magnitude": 2.0}]},
     "events[0]: slowdown: at_time"),
    ("infinite magnitude", "fault_plan",
     {"events": [{"kind": "restart_delay", "at_step": 1, "magnitude": float("inf")}]},
     "events[0]: restart_delay: magnitude"),
    ("host kind in a fault plan", "fault_plan",
     {"events": [{"kind": "drain", "host": "v0", "at_step": 1}]}, "events[0]: unknown kind 'drain'"),
    # impossible lifecycles: both used to train the reference leg, then die
    # in the controller (InvalidTransitionError; "removes all serving capacity")
    ("drain after forceful removal", "membership_plan",
     {"initial_hosts": HOSTS + [{"host_id": "v2", "gtype": "v100"}],
      "events": [{"kind": "forceful_remove", "host": "v1", "at_step": 2},
                 {"kind": "drain", "host": "v1", "at_step": 4}]},
     "events[1]: drain for 'v1' after its forceful_remove"),
    ("every host drained", "membership_plan",
     {"initial_hosts": HOSTS,
      "events": [{"kind": "drain", "host": "v0", "at_step": 2},
                 {"kind": "drain", "host": "v1", "at_step": 3}]},
     "events[1]: drain for 'v1' leaves no host"),
    ("infinite calibration factor", "calibration", {"scale": {"t4": float("inf")}},
     "scale factors must be"),
]


@pytest.mark.parametrize("row", BAD_PLANS, ids=[row[0] for row in BAD_PLANS])
def test_bad_plan_entry(row, tmp_path, capsys):
    _, role, payload, where = row
    path = str(tmp_path / FILES[role])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    argv = next(argv for _, argv, r in ROWS if r == role)
    code = main([arg.format(path=path) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 2, (out, err)
    assert err.startswith(f"error: {path}: {where}") and len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in out + err and "replay:" not in out and "avg JCT" not in out


@pytest.mark.parametrize("command", ["compare", "gate"])
def test_bench_directory(command, tmp_path, capsys):
    missing = str(tmp_path / "nodir")
    assert main(["bench", command, "--dir", missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err

    bad = tmp_path / "BENCH_e2e.json"
    for damaged in ('{"schema": 1, "entries": [\ngarbage\n]}',
                    '{"schema": 1, "area": "e2e", "entries": 5}'):
        bad.write_text(damaged)
        assert main(["bench", command, "--dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {bad}: ") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in out + err


@pytest.mark.parametrize("argv, started", [
    (["train", "neumf", "--telemetry", "{nodir}/x.jsonl"], "stage 0"),
    (["train", "neumf", "--trace", "{nodir}/t.jsonl"], "stage 0"),
    (["train", "neumf", "--audit", "{nodir}/a.jsonl"], "stage 0"),
    (["trace-sim", "--jobs", "2", "--events", "{nodir}/e.jsonl"], "avg JCT"),
    (["trace-sim", "--jobs", "2", "--trace", "{nodir}/t.jsonl"], "avg JCT"),
    (["faults", "replay", "--plan", "{fault_plan}", "--audit", "{nodir}/p"], "fault plan"),
    (["faults", "gen", "--out", "{nodir}/plan.json"], "written"),
    (["membership", "gen", "--out", "{nodir}/plan.json"], "written"),
    (["obs", "export-trace", "{span_trace}", "-o", "{nodir}/c.json"], "exported"),
    (["obs", "profile", "{span_trace}", "--json", "{nodir}/p.json"], "profile over"),
    (["obs", "report", "{event_log}", "--html", "{nodir}/r.html"], "utilization"),
], ids=lambda value: " ".join(value[:3]) if isinstance(value, list) else None)
def test_unwritable_output_is_reported_before_any_work(argv, started, good, tmp_path, capsys):
    nodir = str(tmp_path / "nodir")
    code = main([arg.format(nodir=nodir, **good) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 2, (out, err)
    assert err.startswith("error: ") and nodir in err
    assert started not in out and "Traceback" not in out + err


def _flag(id_, *argv):
    """One row of BAD_FLAGS, under an explicit id: an id derived from the
    argv could collide with a later row's and renumber both."""
    return pytest.param(list(argv), id=id_)


# a flag value no run could use (or a flag that no longer exists) is bad
# input too: argparse's own exit for the ones a ``type`` can judge,
# ``_BadInput`` for a name or a bound between two flags (``--ests`` under
# the width of a pool it must cover).  ``nan``/``inf`` are floats to
# ``float()``: two of these rows used to exit 0 printing ``completed 0/5``
BAD_FLAGS = [
    _flag("train --transport shm", "train", "resnet18", "--transport", "shm"),
    _flag("train --commit-every 2", "train", "resnet18", "--commit-every", "2"),
    _flag("train --ests 0", "train", "resnet18", "--ests", "0"),
    _flag("train --batch-size 0", "train", "resnet18", "--batch-size", "0"),
    _flag("train --samples 0", "train", "resnet18", "--samples", "0"),
    _flag("train --steps-per-stage 0", "train", "resnet18", "--steps-per-stage", "0"),
    _flag("train --workers 0", "train", "resnet18", "--backend", "pool", "--workers", "0"),
    _flag("train --workers -1", "train", "resnet18", "--backend", "pool", "--workers", "-1"),
    _flag("train --schedule 0xV100", "train", "resnet18", "--schedule", "0xV100"),
    _flag("train --schedule 2xH100", "train", "resnet18", "--schedule", "2xH100"),
    _flag("train --schedule 1xV100+-1xT4", "train", "resnet18", "--schedule", "1xV100+-1xT4"),
    _flag("train --schedule 1xV100+0xT4", "train", "resnet18", "--schedule", "1xV100+0xT4"),
    _flag("train --schedule twoxV100", "train", "resnet18", "--schedule", "twoxV100"),
    _flag("train train nosuchmodel", "train", "nosuchmodel"),
    _flag("scan scan nosuchmodel", "scan", "nosuchmodel"),
    _flag("trace-sim --jobs 0", "trace-sim", "--jobs", "0"),
    _flag("trace-sim --cluster-gpus 0", "trace-sim", "--jobs", "2", "--cluster-gpus", "0"),
    _flag("faults --steps 0_0", "faults", "gen", "--steps", "0"),
    _flag("faults --steps 1", "faults", "gen", "--steps", "1"),
    _flag("faults --gpus 0", "faults", "gen", "--gpus", "0"),
    _flag("faults --events 0", "faults", "gen", "--events", "0"),
    _flag("faults --gpus 0xV100", "faults", "replay", "--plan", "{fault_plan}", "--gpus", "0xV100"),
    _flag("faults --steps 0_1", "faults", "replay", "--plan", "{fault_plan}", "--steps", "0"),
    _flag("faults --snapshot-interval 0",
          "faults", "replay", "--plan", "{fault_plan}", "--snapshot-interval", "0"),
    _flag("membership --steps 1", "membership", "gen", "--steps", "1"),
    _flag("membership --events 0", "membership", "gen", "--events", "0"),
    _flag("membership --max-unavailable 0",
          "membership", "gen", "--rolling", "3", "--max-unavailable", "0"),
    _flag("colocation --gpus 0", "colocation", "--gpus", "0"),
    _flag("obs --window 0_0", "obs", "profile", "{span_trace}", "--window", "0"),
    _flag("obs --consecutive 0", "obs", "profile", "{span_trace}", "--consecutive", "0"),
    _flag("obs --workload nosuchmodel",
          "obs", "profile", "{span_trace}", "--workload", "nosuchmodel"),
    _flag("obs --window 0_1", "obs", "why", "{audit_trail}", "{audit_trail}", "--window", "0"),
    # a count flag of obs summarize / postmortem below 1 used to exit 0:
    # ``--tail 0`` printed the whole ring, ``--limit -1`` dropped a path
    _flag("obs --limit 0", "obs", "summarize", "{span_trace}", "--limit", "0"),
    _flag("obs --tail 0", "obs", "postmortem", "{bundle}", "--tail", "0"),
    _flag("obs --tail -1", "obs", "postmortem", "{bundle}", "--tail", "-1"),
    _flag("train --lr 0", "train", "resnet18", "--lr", "0"),
    _flag("train --lr nan", "train", "resnet18", "--lr", "nan"),
    _flag("train --steps-per-stage 2",
          "train", "resnet18", "--ests", "2", "--steps-per-stage", "2"),
    _flag("train --telemetry run.jsonl",
          "train", "resnet18", "--ests", "2", "--trace", "t.jsonl", "--telemetry", "run.jsonl"),
    _flag("train 2xV100 8xV100", "train", "resnet18", "--schedule", "2xV100", "8xV100"),
    _flag("train {fault_plan} --verify",
          "train", "resnet18", "--ests", "2", "--faults", "{fault_plan}", "--verify"),
    _flag("train {membership_plan} --verify",
          "train", "resnet18", "--ests", "1", "--hosts", "{membership_plan}", "--verify"),
    _flag("trace-sim --duration -5", "trace-sim", "--jobs", "5", "--duration", "-5"),
    _flag("trace-sim --duration 0", "trace-sim", "--jobs", "5", "--duration", "0"),
    _flag("trace-sim --duration inf", "trace-sim", "--jobs", "5", "--duration", "inf"),
    _flag("trace-sim --days nan",
          "trace-sim", "--jobs", "5", "--shape", "diurnal", "--days", "nan"),
    _flag("trace-sim --days 0", "trace-sim", "--jobs", "5", "--shape", "diurnal", "--days", "0"),
    _flag("trace-sim --days -2", "trace-sim", "--jobs", "5", "--shape", "diurnal", "--days", "-2"),
    _flag("trace-sim --interarrival 0", "trace-sim", "--jobs", "5", "--interarrival", "0"),
    _flag("trace-sim --interarrival nan", "trace-sim", "--jobs", "5", "--interarrival", "nan"),
    _flag("faults --ests 2", "faults", "replay", "--plan", "{fault_plan}", "--ests", "2"),
    _flag("faults --lr -1", "faults", "replay", "--plan", "{fault_plan}", "--lr", "-1"),
    _flag("membership --audit aud",
          "membership", "replay", "--plan", "{membership_plan}", "--ests", "1", "--audit", "aud"),
    _flag("obs --factor 1.0", "obs", "profile", "{span_trace}", "--factor", "1.0"),
    _flag("obs --factor nan", "obs", "profile", "{span_trace}", "--factor", "nan"),
    _flag("bench --threshold 0", "bench", "gate", "--threshold", "0"),
    _flag("bench --threshold inf", "bench", "compare", "--threshold", "inf"),
    _flag("bench --repeats 0", "bench", "run", "--repeats", "0"),
    _flag("bench --area parallel", "bench", "run", "--area", "parallel"),
    # every --seed is the range repro.utils.rng accepts (these four were
    # SeedError tracebacks, exit 1); a negative --training-demand used to
    # exit 0 printing a shrunken "alloc ratio"
    _flag("train --seed -1", "train", "resnet18", "--steps", "1", "--seed", "-1"),
    _flag("trace-sim --seed -1", "trace-sim", "--jobs", "5", "--seed", "-1"),
    _flag("trace-sim --seed 99999999999999999999",
          "trace-sim", "--jobs", "5", "--seed", "99999999999999999999"),
    _flag("trace-sim --seed 1.5", "trace-sim", "--jobs", "5", "--seed", "1.5"),
    _flag("faults --seed -1", "faults", "gen", "--seed", "-1"),
    _flag("membership --seed -1", "membership", "gen", "--seed", "-1"),
    _flag("colocation --seed -1", "colocation", "--seed", "-1"),
    _flag("colocation --training-demand -3", "colocation", "--training-demand", "-3"),
]


@pytest.mark.parametrize("argv", BAD_FLAGS)
def test_bad_flag_value(argv, good, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # ``gen`` writes its default --out here if it gets that far
    try:
        code = main([arg.format(**good) for arg in argv])
    except SystemExit as exit_:  # argparse exits by itself
        code = exit_.code
    out, err = capsys.readouterr()
    assert code == 2, (out, err)
    assert sum("error:" in line for line in err.splitlines()) == 1, err
    assert "Traceback" not in out + err
    assert not os.listdir(tmp_path)
    for started in ("stage 0", "avg JCT", "written", "replay:", "alloc ratio", "appended"):
        assert started not in out


def test_good_files_are_good(good, tmp_path, capsys):
    """The table's baseline: every undamaged example is accepted."""
    shutil.copy(good["span_trace"], tmp_path / "spans.jsonl")
    for argv in (
        ["obs", "summarize", good["span_trace"]],
        ["obs", "summarize", good["telemetry"]],
        ["obs", "export-trace", str(tmp_path / "spans.jsonl")],
        ["obs", "profile", good["span_trace"]],
        ["obs", "report", good["event_log"]],
        ["obs", "report", good["span_trace"]],
        ["obs", "diff-audit", good["audit_trail"], good["audit_trail"]],
        ["obs", "why", good["audit_trail"], good["audit_trail"]],
        ["obs", "why", good["bundle"], good["bundle"]],
        ["obs", "postmortem", good["bundle"]],
        ["trace-sim", "--jobs", "2", "--policy", "homo", "--faults", good["sim_fault_plan"],
         "--calibrate", good["calibration"]],
        ["bench", "record", good["results"], "--dir", str(tmp_path / "bench")],
    ):
        assert main(argv) == 0, argv
    out = capsys.readouterr().out
    assert "1 jobs" in out  # ``obs report`` found the span trace's sched instants


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["mid-print", "exit-flush"])
def test_closed_stdout_is_not_an_error(unbuffered):
    """``repro ... | head -1``: the reader leaves after the first line while
    the two EasyScale policies are still to be simulated and printed — the
    next ``print`` meets the closed pipe, or (block-buffered) the final flush."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "trace-sim", "--policy", "all", "--jobs", "6"],
        env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    if unbuffered:
        assert proc.stdout.readline().startswith(b"yarn-cs")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert not err
