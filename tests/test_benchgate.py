"""Tier-2 benchgate: the regression gate end to end, on real runner output.

Runs the frozen whole-path benchmark once (``python -m benchmarks.e2e run
--smoke --workload sim_contended --repeats 3``, a few seconds) and drives
``repro bench record`` / ``bench gate`` on its results file exactly like
CI would — fresh interpreter per invocation — proving the two halves of
the gate contract:

1. recording the same results twice gates *flat* (exit 0): the samples
   are identical, so this half cannot flake;
2. a third record with ``REPRO_BENCH_SCALE=10`` (every lower-is-better
   sample inflated tenfold) fails the gate (exit 5): a real order-of-
   magnitude slowdown cannot hide inside the noise tolerance.

The runner wipes the git-ignored ``benchmarks/e2e/out/`` before it runs;
the results file itself is written under the test's tmp directory.

Deselected by default via the ``benchgate`` marker; run with::

    PYTHONPATH=src python -m pytest -m benchgate tests/test_benchgate.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.benchgate


def _run(args, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "-m", *args],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_gate_flat_on_rerecord_then_fails_on_injected_slowdown(tmp_path):
    results = tmp_path / "results.json"
    proc = _run(["benchmarks.e2e", "run", "--smoke", "--workload", "sim_contended",
                 "--repeats", "3", "--out", str(results)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(results.read_text())["workloads"]["sim_contended"]["failed"] == 0

    record = ["repro.cli", "bench", "record", str(results), "--dir", str(tmp_path)]
    for _ in range(2):
        proc = _run(record)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "BENCH_e2e.json").exists()

    gate = _run(["repro.cli", "bench", "gate", "--dir", str(tmp_path)])
    assert gate.returncode == 0, gate.stdout + gate.stderr
    assert "bench gate: ok" in gate.stdout

    compare = _run(["repro.cli", "bench", "compare", "--dir", str(tmp_path)])
    assert compare.returncode == 0
    assert "0 regressed" in compare.stdout

    # injected 10x slowdown: the gate must fail with the documented code
    slow = _run(record, extra_env={"REPRO_BENCH_SCALE": "10"})
    assert slow.returncode == 0, slow.stdout + slow.stderr
    gate = _run(["repro.cli", "bench", "gate", "--dir", str(tmp_path)])
    assert gate.returncode == 5, gate.stdout + gate.stderr
    assert "FAILED" in gate.stdout
