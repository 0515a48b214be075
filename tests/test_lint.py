"""Lightweight lint gate: every source file must compile, and (when
pyflakes is installed) carry no unused imports or undefined names.

This rides in the regular suite so a syntax error or a dead import in a
rarely-exercised module fails CI immediately, without requiring any
linter to be present in minimal environments.
"""

import compileall
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src", "repro")


def _python_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in ("__pycache__", ".git")]
        for name in filenames:
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def test_source_tree_compiles():
    assert compileall.compile_dir(SRC, quiet=2, force=False), (
        "a module under src/repro failed to byte-compile"
    )


def test_lint_walk_covers_faults_package():
    # the walk is recursive, so new packages are covered automatically;
    # this pins the repro.faults subsystem explicitly so a future
    # restructuring cannot silently drop it from the gate
    files = {os.path.relpath(p, SRC) for p in _python_files(SRC)}
    for expected in (
        "faults/__init__.py",
        "faults/schedule.py",
        "faults/injector.py",
        "faults/manager.py",
        "faults/controller.py",
        "faults/contrast.py",
    ):
        assert expected in files, f"lint gate does not see {expected}"


def test_lint_walk_covers_exec_package():
    # same pinning for the execution-backend subsystem
    files = {os.path.relpath(p, SRC) for p in _python_files(SRC)}
    for expected in (
        "exec/__init__.py",
        "exec/base.py",
        "exec/serial.py",
        "exec/pool.py",
        "exec/shm.py",
    ):
        assert expected in files, f"lint gate does not see {expected}"


def test_lint_walk_covers_bench_observatory_modules():
    # pin the performance-regression observatory and the modules the
    # cross-process trace collection touches, so a restructuring cannot
    # silently drop them from the gate
    files = {os.path.relpath(p, SRC) for p in _python_files(SRC)}
    for expected in (
        "obs/bench.py",
        "obs/trace.py",
        "obs/metrics.py",
        "exec/base.py",
        "exec/pool.py",
    ):
        assert expected in files, f"lint gate does not see {expected}"


def test_lint_walk_covers_sched_fastpath_modules():
    # pin the scheduler fast-path surface (plan cache, companion search,
    # dual-core simulator) so a restructuring cannot drop it from the gate
    files = {os.path.relpath(p, SRC) for p in _python_files(SRC)}
    for expected in (
        "sched/plancache.py",
        "sched/companion.py",
        "sched/intra.py",
        "sched/inter.py",
        "sched/simulator.py",
    ):
        assert expected in files, f"lint gate does not see {expected}"


def test_lint_walk_covers_batched_core_modules():
    # pin the batched-event DES surface (vectorized core, trace shapes,
    # incremental arbitration, policies carrying the fixpoint flag) so a
    # restructuring cannot silently drop it from the gate
    files = {os.path.relpath(p, SRC) for p in _python_files(SRC)}
    for expected in (
        "sched/simulator.py",
        "sched/trace.py",
        "sched/inter.py",
        "sched/easyscale_policy.py",
        "sched/colocation_policy.py",
        "sched/yarn_cs.py",
        "hw/cluster.py",
        "obs/bench.py",
    ):
        assert expected in files, f"lint gate does not see {expected}"


def _lines_of_code_and_docs():
    """``(relative path, stripped line)`` over everything a reader meets:
    src, tests, examples, docs, README and the figure benches (not the
    frozen benchmarks/e2e, not the PR log)."""
    import glob

    paths = [os.path.join(REPO_ROOT, "README.md")]
    for sub in ("src", "tests", "examples"):
        paths.extend(_python_files(os.path.join(REPO_ROOT, sub)))
    paths.extend(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
    paths.extend(glob.glob(os.path.join(REPO_ROOT, "benchmarks", "bench_*.py")))
    assert len(paths) > 100
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                yield os.path.relpath(path, REPO_ROOT), line.strip()


def test_one_event_core_and_one_oracle():
    # the simulator's event core is ClusterSimulator.run; its old name
    # survives as one alias line for the frozen benchmarks/e2e only, and
    # the sim->policy channel is a declared attribute, never duck-typed
    from repro.sched import ClusterSimulator

    old_name = "run_" + "batched"
    assert getattr(ClusterSimulator, old_name) is ClusterSimulator.run
    uses = []
    for path, line in _lines_of_code_and_docs():
        assert 'getattr(sim, "incremental_' + 'scheduling"' not in line, path
        if old_name in line:
            uses.append((path, line))
    assert uses == [("src/repro/sched/simulator.py", f"{old_name} = run")], uses


def test_the_class_key_and_the_ownership_clamp_live_once():
    # Role-2's unit is the job class: its identity is built in one place
    # (InterJobScheduler.job_class interns it) and an ownership vector is
    # clamped by one function (availability_key) — a second spelling of
    # either is a per-job key derivation growing back.  (Spelled split so
    # this file does not match itself.)
    import re

    class_key = "sorted(companion.capab" + "ility.items())"
    gone = "_plan" + "_key("
    builds, key_defs = [], []
    for path, line in _lines_of_code_and_docs():
        assert gone not in line, (path, line)
        if not path.startswith("src/repro/sched/"):
            continue
        if class_key in line:
            builds.append(path)
        named = re.match(r"def (\w*(?:key|clamp)\w*)\(", line)
        if named:
            key_defs.append((path, named.group(1)))
    assert builds == ["src/repro/sched/inter.py"], builds
    # the clamp, the companion's one-line wrapper over it, and the plan
    # ranking order (no ownership in it)
    assert sorted(key_defs) == [
        ("src/repro/sched/companion.py", "_key"),
        ("src/repro/sched/companion.py", "_rank_key"),
        ("src/repro/sched/plancache.py", "availability" + "_key"),
    ], key_defs


def test_plan_stores_belong_to_classes_and_are_left_not_emptied():
    # the lower-case -> cluster type table is spelled once (the simulator's
    # _canonical; intra imports it); a PlanCache may read a store its job
    # class shares, so invalidation moves it to a fresh store and never
    # empties one in place; and the shared stores hang off the JobClass the
    # scheduler interns — a module-level registry of plan stores would
    # outlive every scheduler and couple two simulations in one process.
    # (Spelled split so this file does not match itself.)
    import ast

    canonical_defs = [
        path for path, line in _lines_of_code_and_docs()
        if path.startswith("src/repro/sched/") and line.startswith("def _canon" + "ical(")
    ]
    assert canonical_defs == ["src/repro/sched/simulator.py"], canonical_defs
    with open(os.path.join(SRC, "sched", "plancache.py"), encoding="utf-8") as handle:
        assert ".clear" + "()" not in handle.read()

    containers = {"dict", "defaultdict", "OrderedDict", "WeakKeyDictionary",
                  "WeakValueDictionary", "list", "set"}
    registries = []
    for path in _python_files(os.path.join(SRC, "sched")):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in tree.body:
            value = getattr(node, "value", None) if isinstance(
                node, (ast.Assign, ast.AnnAssign)
            ) else None
            empty_display = isinstance(value, (ast.Dict, ast.List, ast.Set)) and not (
                value.keys if isinstance(value, ast.Dict) else value.elts
            )
            constructed = isinstance(value, ast.Call) and getattr(
                value.func, "id", getattr(value.func, "attr", None)
            ) in containers
            if empty_display or constructed:
                registries.append((os.path.relpath(path, REPO_ROOT), ast.unparse(node)))
    assert registries == [], registries


def test_the_array_form_of_eq1_is_spelled_once():
    # the top-K merge and the scale-out frontier score EST splits through
    # one helper (CompanionModule._splits): the floor/ceil split bits and
    # the Eq. (1a-1c) kernel call appear once in the companion, so the two
    # searches cannot drift apart in float order
    with open(os.path.join(SRC, "sched", "companion.py"), encoding="utf-8") as handle:
        source = handle.read()
    for spelling in ("grid_waste(", "1 << len(types)"):
        assert source.count(spelling) == 1, spelling


def test_the_stale_window_is_a_rule():
    # under run() a running job's remaining work lives in the simulator's
    # mirror and the object lags it between fault/membership points, so no
    # other scheduler module may mention the field (the SchedulingPolicy
    # docstring states the rule); and the mirror is rebuilt from the objects
    # in one place, _BatchedState.refresh — a second rebuild loop is the
    # per-event constant growing back.  (Spelled split so this file does
    # not match itself.)
    import ast

    field, rebuild = "remaining_" + "work", "from" + "iter"
    simulator = "src/repro/sched/simulator.py"
    mentions = {
        path for path, line in _lines_of_code_and_docs()
        if path.startswith("src/repro/sched/") and (field in line or rebuild in line)
    }
    assert mentions == {simulator}, mentions
    with open(os.path.join(REPO_ROOT, simulator), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    rebuilders = [
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == rebuild for n in ast.walk(node))
    ]
    assert rebuilders == ["refresh"], rebuilders


def test_the_decision_point_is_lean():
    # one decision point of run() is ~10 NumPy calls on ~130-element
    # vectors: per-call overhead is the cost, so the ETA and the advance
    # carry no error-state context, no masks and no allocating select —
    # zero-rate rows are padded instead (docs/SCHEDULING.md, "Vectorized
    # advance/ETA").  The one index scan is completed_jobs', behind a
    # minimum test.  The inventory keeps its lists sorted by insertion,
    # never by a keyed re-sort of a whole list.
    import ast

    def parse(*parts):
        with open(os.path.join(SRC, *parts), encoding="utf-8") as handle:
            return ast.parse(handle.read())

    def attrs(node):
        return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}

    module = parse("sched", "simulator.py")
    (state,) = [n for n in module.body if getattr(n, "name", "") == "_BatchedState"]
    methods = {n.name: n for n in state.body if isinstance(n, ast.FunctionDef)}
    banned = {"errstate", "where", "nonzero"}
    for name in ("advance", "min_eta"):
        assert not attrs(methods[name]) & banned, name
    scans = [
        node.name for node in ast.walk(module)
        if isinstance(node, ast.FunctionDef) and attrs(node) & banned
    ]
    assert scans == ["completed_jobs"], scans
    guard = methods["completed_jobs"].body[1]  # after the docstring
    assert isinstance(guard, ast.If) and "min" in attrs(guard.test), ast.unparse(guard)
    assert isinstance(guard.body[0], ast.Return), ast.unparse(guard)

    resorts = [
        ast.unparse(node) for node in ast.walk(parse("hw", "cluster.py"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "sort" and any(k.arg == "key" for k in node.keywords)
    ]
    assert resorts == [], resorts


def test_one_road_through_the_pool():
    # shm is the transport and every step writes back: the switches, the
    # banked state and the fallback are gone by name, not just unused.  The
    # frozen benchmarks/e2e still names the shm transport by keyword and
    # calls the backend's commit hook; ProcessPoolBackend keeps that one
    # keyword value and ExecutionBackend that one no-op for it, and nothing
    # here may lean on either.  (Spelled split so this file does not match
    # itself.)
    gone = [
        "batches_per_" + "commit", "commit_" + "every", "discard_" + "pending",
        "_pending_" + "rng", "_pending_" + "journal", "TRANS" + "PORTS",
        "shm_" + "available", "exec_pickle_" + "bytes_total", "backend.commit" + "(",
    ]
    flags = ["--trans" + "port", "--commit-" + "every"]
    keyword = "transport" + "="
    flag_uses, keyword_uses = [], []
    for path, line in _lines_of_code_and_docs():
        for name in gone:
            assert name not in line, (path, line)
        flag_uses.extend((path, flag) for flag in flags if flag in line)
        if keyword in line:
            keyword_uses.append((path, line))
    # the removed flags appear only as the two exit-2 rows of the CLI table
    assert flag_uses == [("tests/test_cli_inputs.py", flag) for flag in flags], flag_uses
    # the keyword appears only where its other values are refused
    assert keyword_uses == [
        ("tests/exec/test_shm_transport.py", f"ProcessPoolBackend({keyword}name)")
    ], keyword_uses


def test_one_stopwatch_for_the_trajectory():
    # benchmarks/e2e is the only stopwatch and ``bench record`` the only
    # writer of a live trajectory: the in-process timers, their CLI
    # subcommand and the figure benches' recording hook are gone by name
    # from everything a reader meets (spelled split so this file does not
    # match itself; tests keep exit-2 rows for the removed subcommand)
    gone = ["run_" + "benches", "Bench" + "Spec", "record_" + "trajectory",
            "REPRO_BENCH_" + "RECORD", "bench " + "run"]
    for path, line in _lines_of_code_and_docs():
        if not path.startswith("tests" + os.sep):
            for name in gone:
                assert name not in line, (path, line)


def test_one_node_per_layer_and_one_owner_rule():
    # Linear and the BCE loss are one fused node each (repro.tensor.ops);
    # their composed spellings live only in tests/tensor/reference_ops.py.
    # Whether a gradient contribution is the caller's to give away is a
    # fact about how the op computed it, so only the ops themselves may
    # say so.  (Spelled split so this file does not match itself.)
    import ast

    composed = ".matmul(self." + "weight.T)"
    for path, line in _lines_of_code_and_docs():
        if path.startswith(("src/repro/nn/", "src/repro/models/")):
            assert composed not in line, (path, line)

    with open(os.path.join(SRC, "nn", "loss.py"), encoding="utf-8") as handle:
        loss_module = ast.parse(handle.read())
    (bce,) = [n for n in loss_module.body if getattr(n, "name", "") == "bce_with_" + "logits"]
    arithmetic = [n for n in ast.walk(bce) if isinstance(n, (ast.BinOp, ast.UnaryOp, ast.Compare))]
    assert not arithmetic and isinstance(bce.body[-1], ast.Return), ast.dump(bce)

    owners = set()
    for root in ("src", "tests", "examples", "benchmarks"):
        for path in _python_files(os.path.join(REPO_ROOT, root)):
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            for node in ast.walk(ast.parse(text)) if "_accumulate(" in text else ():
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_accumulate"
                    and len(node.args) + len(node.keywords) > 1
                ):
                    owners.add(os.path.relpath(path, REPO_ROOT))
    assert owners == {"src/repro/tensor/ops.py", "src/repro/tensor/tensor.py"}, owners


def test_child_observability_rides_the_task_result():
    # a pool child's spans, metrics and flight events come home in its
    # task result through one export/merge pair; the per-pid files, their
    # scratch directories and the knob naming them are gone by name.
    # (Spelled split so this file does not match itself.)
    import re

    gone = [
        "flush_" + "shard", "collect_" + "shards", "shard_" + "dir",
        "SHARD_SPAN_" + "SUFFIX", "SHARD_FLIGHT_" + "SUFFIX",
        "collect_" + "observability", "mk" + "dtemp",
    ]
    defs = []
    for path in _python_files(SRC):
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                for name in gone:
                    assert name not in line, (rel, line.strip())
                named = re.match(r"\s*def ((?:export|merge)_child)\(", line)
                if named:
                    defs.append((rel, named.group(1)))
    assert sorted(defs) == [
        ("src/repro/obs/__init__.py", "export_child"),
        ("src/repro/obs/__init__.py", "merge_child"),
    ], defs


def test_every_exported_name_resolves():
    # an ``__all__`` entry whose definition was deleted breaks
    # ``from repro.x import *`` and nothing else, so nothing else notices
    import importlib
    import pkgutil

    import repro

    exported = 0
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ names missing {name!r}"
            exported += 1
    assert exported > 300


def test_cli_has_one_bad_input_exit_and_reads_flags_as_attributes():
    # the input contract lives once: loads become _BadInput at the _load
    # boundary, and main() holds the only handler that turns an exception
    # into an exit status — so no command can grow its own "except
    # FileNotFoundError: return 2" copy, and anything else stays a traceback
    import ast

    with open(os.path.join(SRC, "cli.py"), encoding="utf-8") as handle:
        source = handle.read()
    returning = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ExceptHandler)
        and any(isinstance(inner, ast.Return) for inner in ast.walk(node))
    ]
    # ...beside the one for a reader that closed stdout, which is success
    assert [ast.unparse(h.type) for h in returning] == ["_BadInput", "BrokenPipeError"]
    returned = [
        [ast.unparse(n.value) for n in ast.walk(h) if isinstance(n, ast.Return)]
        for h in returning
    ]
    assert returned == [["BAD_INPUT"], ["OK"]]
    assert source.count("BAD_INPUT") == 2  # the exit-code table and that handler
    assert "return 2" not in source and "exit(2" not in source
    # every flag a command reads is declared by its parser
    assert "getattr(args" not in source


def test_one_graceful_path_and_one_restore_site():
    # a scale event hands live state over (EasyScaleEngine.reconfigure);
    # a checkpoint is restored only where bytes crossed a crash — the
    # resilience controller.  A second from_checkpoint( call under src/
    # is a rebuild-by-checkpoint path growing back.
    import ast

    callers = []
    for path in sorted(_python_files(SRC)):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "from_checkpoint"
            ):
                callers.append(os.path.relpath(path, SRC))
            if isinstance(node, ast.FunctionDef) and node.name == "reconfigure":
                called = {
                    inner.func.attr
                    for inner in ast.walk(node)
                    if isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                }
                assert not called & {"checkpoint", "from_checkpoint", "to_bytes"}, path
    assert callers == [os.path.join("faults", "controller.py")]


def test_jsonl_tail_tolerance_lives_in_one_module():
    # "a damaged trailing line is tolerated, anything else is path:lineno"
    # is one function; a JSONDecodeError handled inside a per-line loop
    # anywhere else is a seventh hand-written JSONL reader.  Single-document
    # loaders (plans, bundles, BENCH_*.json, calibration) parse outside any
    # loop and keep their own path-prefixed errors.
    import ast

    owners = set()
    for path in _python_files(SRC):
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        rel = os.path.relpath(path, SRC)
        if "last_content" in source:
            owners.add(rel)
        for loop in ast.walk(ast.parse(source)):
            if isinstance(loop, (ast.For, ast.While)) and any(
                isinstance(node, ast.ExceptHandler)
                and node.type is not None
                and "JSONDecodeError" in ast.unparse(node.type)
                for node in ast.walk(loop)
            ):
                owners.add(rel)
    assert owners == {os.path.join("utils", "jsonl.py")}


def test_lint_walk_covers_flight_recorder_modules():
    # pin the always-on flight recorder and the divergence forensics so a
    # restructuring cannot silently drop them from the gate
    files = {os.path.relpath(p, SRC) for p in _python_files(SRC)}
    for expected in (
        "obs/flightrec.py",
        "obs/forensics.py",
    ):
        assert expected in files, f"lint gate does not see {expected}"


def test_lint_walk_covers_membership_package():
    # same pinning for the host lifecycle, which cluster membership runs on
    files = {os.path.relpath(p, SRC) for p in _python_files(SRC)}
    assert "faults/lifecycle.py" in files, "lint gate does not see faults/lifecycle.py"


def test_one_host_lifecycle():
    # the host rules live once, in repro.faults.lifecycle (OPS, WINDOWS,
    # HostRegistry.apply): the old package, the simulator's own expansion
    # table, the controller's window stepper and the three deadline fields
    # are gone by name from everything a reader meets outside the tests,
    # and only the registry itself walks a transition edge.  (Spelled
    # split so this file does not match itself.)
    gone = ["repro." + "membership", "_SIM" + "_OPS", "_adv" + "ance(", "warm" + "_until",
            "blacklist" + "_until", "drain" + "_deadline", "attr(" + "host"]
    for path, line in _lines_of_code_and_docs():
        if not path.startswith("tests" + os.sep):
            for name in gone:
                assert name not in line, (path, line)
            if ".trans" + "ition(" in line:
                assert path == os.path.join("src", "repro", "faults", "lifecycle.py"), line


def test_one_event_plan_and_one_deliverer_per_domain():
    # faults and host events are rows of one kind table: one event
    # dataclass carries the triggers, one plan dataclass the JSON codec, and
    # the second plan / event / deliverer classes are gone by name.
    # (Spelled split so this file does not match itself.)
    import ast

    gone = [
        "Membership" + "Plan", "Host" + "Event", "Host" + "Discovery",
        "SimFault" + "Injector", "SimMembership" + "Driver", "validate_event" + "_kinds",
        "Membership" + "Controller", "Membership" + "Stats",
    ]
    triggered, plans = [], []
    for path in _python_files(SRC):
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        for name in gone:
            assert name not in source, (rel, name)
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef) or "dataclass" not in ast.unparse(node):
                continue
            fields = {
                item.target.id for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            }
            methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            if fields & {"at_step", "at_time"}:
                triggered.append((rel, node.name))
            if "from_json" in methods and "events" in fields:
                plans.append((rel, node.name))
    assert triggered == [("src/repro/faults/schedule.py", "PlanEvent")], triggered
    assert plans == [("src/repro/faults/schedule.py", "EventPlan")], plans


def test_col2im_is_one_gather_over_a_cached_plan():
    # conv backward folds columns back through a per-geometry gather plan;
    # the padded buffer and its strided-add loop over kernel offsets live
    # only as the oracle in tests/tensor/reference_ops.py, and the one loop
    # left in _col2im is the accumulation over gathered offsets.
    # (Spelled split so this file does not match itself.)
    import ast

    gone = ["grad" + "_padded", "cols" + "6"]
    for path in _python_files(os.path.join(SRC, "tensor")):
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        for name in gone:
            assert name not in source, (rel, name)

    with open(os.path.join(SRC, "tensor", "ops.py"), encoding="utf-8") as handle:
        module = ast.parse(handle.read())
    (col2im,) = [n for n in module.body if getattr(n, "name", "") == "_col2im"]
    loops = [n for n in ast.walk(col2im) if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    assert len(loops) == 1 and "range" not in ast.unparse(loops[0].iter), ast.unparse(col2im)


def test_no_pyflakes_errors():
    pyflakes_api = pytest.importorskip(
        "pyflakes.api", reason="pyflakes not installed; compile check still ran"
    )
    from pyflakes.reporter import Reporter

    class _Collector:
        def __init__(self):
            self.messages = []

        def write(self, text):
            if text.strip():
                self.messages.append(text.strip())

    out, err = _Collector(), _Collector()
    reporter = Reporter(out, err)
    total = 0
    for path in sorted(_python_files(SRC)):
        total += pyflakes_api.checkPath(path, reporter=reporter)
    problems = out.messages + err.messages
    assert total == 0, "pyflakes findings:\n" + "\n".join(problems)


def test_lint_gate_runs_under_expected_interpreter():
    # guards against the suite silently running a different tree than src/
    import repro

    module_root = os.path.dirname(os.path.abspath(repro.__file__))
    assert os.path.samefile(module_root, SRC), (
        f"tests import repro from {module_root}, lint checks {SRC}"
    )
    assert sys.version_info >= (3, 8)
