"""Tier-2 benchgate: the regression gate end to end, through real subprocesses.

Drives ``repro bench run`` exactly like CI would — fresh interpreter per
invocation, smoke sizes via ``REPRO_BENCH_SMOKE=1`` — and proves the two
halves of the gate contract:

1. an immediate re-run of the same benches gates *flat* (exit 0): the
   noise tolerance absorbs honest machine jitter;
2. a third run with ``REPRO_BENCH_SCALE=10`` (every lower-is-better
   sample inflated tenfold) fails the gate (exit 5): a real order-of-
   magnitude slowdown cannot hide inside that tolerance.

Deselected by default via the ``benchgate`` marker; run with::

    PYTHONPATH=src python -m pytest -m benchgate tests/test_benchgate.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.benchgate


def _repro(args, tmp_path, extra_env=None):
    env = dict(os.environ)
    env["REPRO_BENCH_SMOKE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args, "--dir", str(tmp_path)],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_gate_flat_on_rerun_then_fails_on_injected_slowdown(tmp_path):
    run_args = ["bench", "run", "--repeats", "3"]

    # baseline + honest re-run: every BENCH_<area>.json exists, gate passes
    for _ in range(2):
        proc = _repro(run_args, tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    for area in ("sched", "determinism", "dessim"):
        assert (tmp_path / f"BENCH_{area}.json").exists()

    gate = _repro(["bench", "gate"], tmp_path)
    assert gate.returncode == 0, gate.stdout + gate.stderr
    assert "bench gate: ok" in gate.stdout
    assert "regressed" not in gate.stdout.replace("0 regressed", "")

    compare = _repro(["bench", "compare"], tmp_path)
    assert compare.returncode == 0
    assert "0 regressed" in compare.stdout

    # injected 10x slowdown: the gate must fail with the documented code
    slow = _repro(run_args, tmp_path, extra_env={"REPRO_BENCH_SCALE": "10"})
    assert slow.returncode == 0, slow.stdout + slow.stderr
    gate = _repro(["bench", "gate"], tmp_path)
    assert gate.returncode == 5, gate.stdout + gate.stderr
    assert "FAILED" in gate.stdout


def test_dessim_area_gates_standalone(tmp_path):
    """``bench gate --area dessim`` (smoke sizes): record twice, gate flat.

    The dessim bench replays the same diurnal trace under ``run()`` and
    ``run_reference()`` and refuses to record a timing unless the two
    event logs are byte-identical, so a green gate here also re-proves
    core equivalence in the CI loop.
    """
    for _ in range(2):
        proc = _repro(["bench", "run", "--area", "dessim", "--repeats", "2"], tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "BENCH_dessim.json").exists()

    gate = _repro(["bench", "gate", "--area", "dessim"], tmp_path)
    assert gate.returncode == 0, gate.stdout + gate.stderr
    assert "bench gate: ok" in gate.stdout
