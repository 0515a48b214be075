"""The layering rule: each entry path loads only the layers it runs.

The scheduler side (``trace-sim`` and the ``sim_*`` benchmark workloads)
loads no training substrate, and the training side loads neither the
cluster simulator's policies nor the offline observability readers.  Every
check starts a fresh interpreter without bytecode, so a warm test process
cannot hide an eager import.
"""

from __future__ import annotations

import ast
import inspect
import json
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

import benchmarks.e2e.workloads as e2e
import repro.cli as cli
import repro.commands.sim as sim_commands
from repro.models.registry import WORKLOADS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: packages of the training substrate: the scheduler side loads none of them
SUBSTRATE = ("tensor", "nn", "core", "data", "exec", "comm", "ddp", "elastic", "optim")


def _imports_of(*functions) -> str:
    """The import statements in the bodies of ``functions``, as source."""
    lines = []
    for function in functions:
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        lines += [
            ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
    return "\n".join(lines)


def _loaded_after(source: str) -> list:
    """``repro`` modules loaded by running ``source`` in a fresh interpreter."""
    script = source + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
    """)
    env = dict(
        os.environ,
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=os.pathsep.join([os.path.join(REPO_ROOT, "src"), REPO_ROOT]),
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_scheduler_side_loads_no_training_substrate():
    source = "\n".join([
        "import benchmarks.e2e.workloads",
        "import repro.cli",
        _imports_of(
            e2e.run_sim, e2e.reference_sim, e2e._trace, e2e._policy,
            e2e._install_sim_wrappers, sim_commands.trace_sim, cli._plan_cache_totals,
        ),
        # and a run through every policy, so a runtime import counts too
        "import contextlib, io",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert repro.cli.main(['trace-sim', '--policy', 'all', '--jobs', '6']) == 0",
    ])
    loaded = _loaded_after(source)
    substrate = [m for m in loaded if m.split(".")[:2][-1] in SUBSTRATE]
    models = [m for m in loaded if m.startswith("repro.models.") and m != "repro.models.registry"]
    assert substrate == [] and models == [], (substrate, models)
    assert "repro.sched.simulator" in loaded  # the check saw the path it pins


def test_cli_import_loads_no_runner():
    # the sim_* workloads import repro.cli for _plan_cache_totals: the
    # command table, not the runners behind it, is what they compile
    assert _loaded_after("import repro.cli") == ["repro", "repro.cli"]


def test_training_side_loads_no_simulator_or_offline_readers():
    loaded = _loaded_after(_imports_of(
        e2e.run_train, e2e.reference_train, e2e._train_spec, e2e._optimizer,
        e2e._assignment, e2e._install_train_wrappers,
    ))
    forbidden = {
        "repro.sched.simulator", "repro.sched.easyscale_policy", "repro.sched.inter",
        "repro.obs.bench", "repro.obs.forensics", "repro.obs.report",
    }
    assert sorted(forbidden & set(loaded)) == []
    assert "repro.core.engine" in loaded


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_spec_pickles_with_the_same_builder(name):
    # the pool pickles a spec into every task: a builder that is not a
    # module-level callable would fail there, not here, without this check
    spec = WORKLOADS[name]
    twin = pickle.loads(pickle.dumps(spec))
    assert twin.builder is spec.builder and twin.forward_loss is spec.forward_loss
    assert twin == spec
