"""Tier-2 reachability census: which functions does any entry point enter?

The documented entry points — the seven ``BENCHMARK.json`` workloads, the
``repro`` CLI as README / docs / the verify skill spell it, every
``examples/*.py`` and every ``benchmarks/bench_*.py`` at
``REPRO_BENCH_SMOKE=1`` — run as subprocesses under a ``sys.setprofile``
hook (``tests/census_hook/sitecustomize.py`` on ``PYTHONPATH``; forked pool
children inherit it, spawn children import it).  Every function defined
under ``src/repro`` that none of them entered must be a line of
``tests/census_allow.txt``::

    src/repro/<file>.py::<qualname>  <reason>[: <detail>]

with the reason one of

* ``protocol`` — abstract / base / dunder method, or the null-object twin
  of a reached one (``tests/obs/test_parity.py`` pins that surface);
* ``oracle``   — reference implementation a test compares against;
* ``safety``   — input validation, or a fault / corruption surface;
* ``library: docs/X.md#anchor`` — public API documented under that heading;
* ``roadmap: <title>`` — named by the open ROADMAP item with that title.

A new function must be reached by an entry point or allow-listed with a
reason; an allow-listed function that became reached, or is gone, must
leave the list.  The static half (format, anchors, titles, rows that
still exist) rides in tier 1; the driven half is deselected by default::

    PYTHONPATH=src python -m pytest -m census tests/test_census.py -s

Two traps:

* ``pytest-benchmark`` wraps the timed call in ``PauseInstrumentation``
  (``sys.setprofile(None)``), so the ``bench_*.py`` leg passes
  ``--benchmark-disable`` — without it every figure's body looks unreached.
* the frozen ``benchmarks/e2e/driver.py::child_env`` overwrites
  ``PYTHONPATH`` for its children, so the e2e leg calls
  ``benchmarks.e2e.workloads.run_child(request)`` (roles ``reference`` and
  ``traced``, the request the driver would have written) in a subprocess
  the census owns instead of going through ``run.py``.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tests.obs.test_bench import results_payload

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
HOOK_DIR = REPO_ROOT / "tests" / "census_hook"
ALLOW_FILE = REPO_ROOT / "tests" / "census_allow.txt"
REASONS = ("protocol", "oracle", "safety", "library", "roadmap")


# ----------------------------------------------------------------------
# what exists: every function definition under src/repro
def definitions():
    """``{(relative file, first line): qualname}``; the first line is the
    first decorator's, which is what ``co_firstlineno`` reports."""
    found = {}

    def walk(node, scope, rel):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = scope + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(rel, first)] = name
                walk(child, name + ".<locals>.", rel)
            elif isinstance(child, ast.ClassDef):
                walk(child, scope + child.name + ".", rel)
            else:
                walk(child, scope, rel)

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(REPO_ROOT).as_posix()
        walk(ast.parse(path.read_text(encoding="utf-8")), "", rel)
    return found


def unreached_names(defs, entered):
    """``{"file::qualname"}`` with a definition nothing entered (a property
    getter and setter share a name: one unreached half keeps the row)."""
    return {f"{rel}::{name}" for (rel, line), name in defs.items()
            if (rel, line) not in entered}


# ----------------------------------------------------------------------
# what is excused: the allow-list
def allow_list():
    """``{"file::qualname": (reason, detail)}``."""
    rows = {}
    for number, line in enumerate(ALLOW_FILE.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        where = f"{ALLOW_FILE.name}:{number}"
        name, _, why = line.partition("  ")
        reason, _, detail = why.strip().partition(":")
        assert reason in REASONS, f"{where}: reason {reason!r} is not one of {REASONS}"
        assert name not in rows, f"{where}: {name} listed twice"
        rows[name] = (reason, detail.strip())
    return rows


def _sections(markdown):
    """``{GitHub heading slug: text under that heading}`` of a markdown file."""
    sections, slug, fenced = {}, None, False
    for line in markdown.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        if line.startswith("#") and not fenced:
            title = line.lstrip("#").strip().lower()
            slug = re.sub(r"[^\w\- ]", "", title).replace(" ", "-")
            sections[slug] = ""
        elif slug is not None:
            sections[slug] += line + "\n"
    return sections


def _open_roadmap_titles():
    """Bold bullet titles of ROADMAP.md above ``## Recent``, lower-cased."""
    text = (REPO_ROOT / "ROADMAP.md").read_text(encoding="utf-8").split("\n## Recent")[0]
    return [" ".join(title.split()).lower()
            for title in re.findall(r"^- \*\*(.+?)\*\*", text, flags=re.M | re.S)]


def test_allow_list_rows_exist_and_reasons_are_checkable():
    names = unreached_names(definitions(), entered=set())
    titles = _open_roadmap_titles()
    sections_of = {}
    for name, (reason, detail) in allow_list().items():
        assert name in names, f"{name} is allow-listed but no longer exists"
        if reason == "library":
            doc, _, anchor = detail.partition("#")
            assert doc.startswith("docs/") and (REPO_ROOT / doc).is_file(), (name, detail)
            if doc not in sections_of:
                sections_of[doc] = _sections(REPO_ROOT / doc)
            sections = sections_of[doc]
            assert anchor in sections, f"{name}: no heading #{anchor} in {doc}"
            # the section names the function or (for a method) its class; a
            # private helper rides on the heading of the API it serves
            words = name.split("::")[1].split(".<locals>")[0].split(".")[-2:]
            assert words[-1].startswith("_") or any(
                re.search(rf"\b{re.escape(word)}\b", sections[anchor]) for word in words
            ), f"{name}: {doc}#{anchor} mentions none of {words}"
        elif reason == "roadmap":
            assert detail and any(t.startswith(detail.lower()) for t in titles), (
                f"{name}: no open ROADMAP item titled {detail!r}"
            )


# ----------------------------------------------------------------------
# what runs: the entry points, each a subprocess under the hook
def _env(out_dir):
    return dict(
        os.environ,
        CENSUS_OUT=str(out_dir), CENSUS_SRC=str(SRC) + os.sep,
        PYTHONPATH=os.pathsep.join([str(HOOK_DIR), str(REPO_ROOT / "src"), str(REPO_ROOT)]),
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )


def _run(argv, env, cwd, expect=(0,)):
    proc = subprocess.run([sys.executable] + argv, env=env, cwd=str(cwd),
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode in expect, (
        f"{' '.join(argv)}: exit {proc.returncode}, expected {expect}\n"
        f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
    )


_E2E_CHILD = """
import json, sys
from benchmarks.e2e.workloads import run_child
print(json.dumps(run_child(json.loads(sys.argv[1])))[:200])
"""

_SIM_FAULT_PLAN = """
from repro.faults import random_sim_plan
random_sim_plan(7, horizon_s=3000.0).save("sim_plan.json")
"""

#: ``(arguments of python -m repro.cli, expected exit status)``, run in this
#: order from one empty directory — later lines read what earlier ones wrote
CLI_LINES = [
    ("list-workloads", 0),
    ("scan resnet50", 0),
    ("scan vgg19", 0),
    ("colocation", 0),
    ("self-test", 0),
    # training stack with a scale event, then its D0 twin for a divergence
    ("train resnet50 --schedule 4xV100 2xV100 --steps-per-stage 3 --ests 4 "
     "--batch-size 8 --determinism D1 --trace t.jsonl --audit a.jsonl", 0),
    ("train resnet50 --schedule 4xV100 2xV100 --steps-per-stage 3 --ests 4 "
     "--batch-size 8 --determinism D0 --audit b.jsonl", 0),
    ("train resnet18 --schedule 4xV100 2xV100 1xV100+2xP100 --determinism D1+D2 "
     "--samples 128 --steps-per-stage 2 --verify", 0),
    ("train resnet18 --schedule 2xV100 1xV100 --steps-per-stage 2 --samples 128 "
     "--ests 2 --verify", 0),
    ("train resnet18 --schedule 2xV100 1xV100 --steps-per-stage 2 --samples 128 "
     "--ests 2 --backend process --workers 2 --verify --trace pool.jsonl", 0),
    ("train resnet18 --ests 0", 2),
    ("train shufflenetv2 --schedule 1xV100+1xT4 --steps-per-stage 3 --samples 64 "
     "--ests 2 --batch-size 4 --profile --telemetry run.jsonl", 0),
    # scheduler DES: both cores, every shape, calibration, faults
    ("trace-sim --policy homo --jobs 6 --trace sim.jsonl --events ev.jsonl", 0),
    ("trace-sim --policy all --jobs 10 --events ev.all.jsonl", 0),
    ("trace-sim --policy all --jobs 10 --core reference --events ev.all.ref.jsonl", 0),
    ("trace-sim --policy all --jobs 4 --calibrate cal.json", 0),
    ("trace-sim --policy heter --shape diurnal --jobs 25 --days 1 --events ev.batched.jsonl", 0),
    ("trace-sim --policy heter --core reference --shape diurnal --jobs 25 --days 1 "
     "--events ev.reference.jsonl", 0),
    ("trace-sim --policy heter --shape heavy-tail --jobs 12 --cluster-gpus 256", 0),
    ("trace-sim --policy yarn --shape diurnal --days 2 --jobs 400 --cluster-gpus 3000 "
     "--events month.jsonl", 0),
    ("trace-sim --faults sim_plan.json", 0),
    ("trace-sim --policy heter --jobs 20 --faults sim_plan.json --events ev.faults.jsonl", 0),
    ("trace-sim --policy heter --core reference --jobs 20 --faults sim_plan.json", 0),
    # observability readers
    ("obs summarize t.jsonl --limit 20", 0),
    ("obs summarize run.jsonl", 0),
    ("obs summarize pool.jsonl", 0),
    ("obs export-trace t.jsonl -o out.chrome.json", 0),
    ("obs diff-audit a.jsonl a.jsonl", 0),
    ("obs diff-audit a.jsonl b.jsonl", 4),
    ("obs why a.jsonl b.jsonl --window 8", 4),
    ("obs profile t.jsonl --workload resnet50 --window 2 --json p.json", 0),
    ("obs report ev.jsonl --html rep.html --json rep.json", 0),
    ("obs report month.jsonl", 0),
    ("obs report sim.jsonl", 0),
    # faults: a plan with a worker crash leaves postmortem-2.json behind
    ("faults gen --seed 2 --steps 12 --gpus 4 --events 4 --out crash.json", 0),
    ("faults gen --seed 3 --steps 12 --gpus 4 --out plan.json", 0),
    ("faults replay --plan crash.json --gpus 2xV100+2xT4 --determinism D1+D2 --audit aud", 0),
    ("faults replay --plan plan.json --contrast", 0),
    ("train resnet18 --schedule 2xV100+2xT4 --determinism D1+D2 --faults crash.json "
     "--samples 256 --verify", 0),
    ("obs postmortem postmortem-2.json --tail 30", 0),
    ("obs why aud.ref.jsonl postmortem-2.json", 4),
    # membership
    ("membership gen --seed 3 --out churn.json", 0),
    ("membership gen --rolling 4 --out roll.json", 0),
    ("membership replay --plan churn.json --audit maud", 0),
    ("membership replay --plan roll.json", 0),
    # a plan with joins and forceful removals
    ("membership gen --seed 5 --events 6 --out churn5.json", 0),
    ("membership replay --plan churn5.json --determinism D1+D2", 0),
    ("train resnet18 --ests 4 --samples 256 --batch-size 8 --steps-per-stage 14 "
     "--schedule 4xV100 --determinism D1+D2 --hosts churn.json --verify", 0),
    ("train resnet18 --hosts roll.json --samples 128 --verify", 0),
    ("train resnet18 --ests 4 --samples 256 --batch-size 8 --steps-per-stage 14 "
     "--schedule 4xV100 --determinism D1+D2 --hosts churn.json --faults plan.json --verify", 0),
    # the regression observatory, in a directory of its own, on a results
    # file of benchmarks/e2e written by drive_entry_points
    ("bench record results.json --dir bench", 0),
    ("bench record results.json --dir bench", 0),
    ("bench record failed.json --dir bench", 2),
    ("bench compare --dir bench", 0),
    ("bench gate --dir bench --threshold 1000", 0),
]


def drive_entry_points(out_dir, work_dir):
    """Run every leg; the hook leaves ``<pid>.tsv`` files in ``out_dir``."""
    env = _env(out_dir)
    # leg 1: the seven frozen workloads, as the contract command sizes them
    for workload in json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]:
        name = workload["name"]
        for role in ("reference", "traced"):
            tmp = work_dir / f"e2e-{name}-{role}"
            tmp.mkdir()
            request = {"workload": name, "seed": 7, "smoke": False, "role": role,
                       "run": f"{name}.{role}.0", "tmp": str(tmp),
                       "spans": str(tmp / "spans.jsonl")}
            _run(["-c", _E2E_CHILD, json.dumps(request)], dict(env, TMPDIR=str(tmp)), tmp)
    # leg 2: the CLI
    cli_dir = work_dir / "cli"
    cli_dir.mkdir()
    (cli_dir / "cal.json").write_text('{"scale": {"t4": 0.5}}')
    (cli_dir / "results.json").write_text(json.dumps(results_payload()))
    (cli_dir / "failed.json").write_text(json.dumps(results_payload(failed=1)))
    _run(["-c", _SIM_FAULT_PLAN], env, cli_dir)
    for line, expect in CLI_LINES:
        _run(["-m", "repro.cli"] + line.split(), env, cli_dir, (expect,))
    # leg 3: the examples
    for script in sorted((REPO_ROOT / "examples").glob("*.py")):
        _run([str(script)], env, work_dir)
    # leg 4: every figure / ablation / table regenerator, reduced size
    bench_env = dict(env, REPRO_BENCH_SMOKE="1", REPRO_TRACE="1",
                     REPRO_TRACE_PATH=str(work_dir / "bench_trace.json"))
    for bench in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
        # exit 1 is tolerated: a wall-clock ratio asserted inside a bench
        # (warm vs cold plan search) does not survive the profile hook, and
        # ``-m bench_smoke`` is the suite that judges the benches
        _run(["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
              f"benchmarks/{bench.name}"], bench_env, REPO_ROOT, expect=(0, 1))


def collect(out_dir):
    """``{(relative file, first line)}`` over every ``<pid>.tsv``."""
    entered = set()
    for shard in Path(out_dir).glob("*.tsv"):
        for record in shard.read_text(encoding="utf-8").splitlines():
            filename, _, line = record.rpartition("\t")
            entered.add((Path(filename).relative_to(REPO_ROOT).as_posix(), int(line)))
    return entered


@pytest.mark.census
def test_every_function_is_entered_or_allow_listed(tmp_path):
    out_dir = tmp_path / "census"
    work_dir = tmp_path / "work"
    out_dir.mkdir()
    work_dir.mkdir()
    drive_entry_points(out_dir, work_dir)

    defs = definitions()
    entered = collect(out_dir)
    unreached = unreached_names(defs, entered)
    allowed = allow_list()
    per_reason = {reason: 0 for reason in REASONS}
    for name in unreached & set(allowed):
        per_reason[allowed[name][0]] += 1
    missed = sum(1 for key in defs if key not in entered)
    print(f"\ncensus: {len(defs)} definitions, {len(defs) - missed} entered by an entry "
          f"point, {missed} not ({len(unreached)} names); allow-listed: "
          + ", ".join(f"{count} {reason}" for reason, count in per_reason.items()))

    unexcused = sorted(unreached - set(allowed))
    stale = sorted(set(allowed) - unreached)
    assert not unexcused, (
        "entered by no documented entry point and not in tests/census_allow.txt "
        "(delete it, or add a line with a reason):\n  " + "\n  ".join(unexcused)
    )
    assert not stale, (
        "allow-listed but entered by an entry point (or gone) — drop the line:\n  "
        + "\n  ".join(stale)
    )
