"""All seven workloads at tiny sizes: every check wired, nothing left behind."""

import json
import os
import subprocess
import sys
import time

from benchmarks.e2e.workloads import WORKLOADS
from conftest import ROOT


def test_smoke_run_of_every_workload(tmp_path):
    out = tmp_path / "results.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--smoke", "--repeats", "1",
         "--out", str(out)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert time.monotonic() - started < 60
    results = json.loads(out.read_text())
    assert set(results["workloads"]) == set(WORKLOADS)
    for name, entry in results["workloads"].items():
        assert entry["failures"] == [], name
        assert entry["end_to_end"]["fail_ratio"]["value"] == 0
        assert entry["end_to_end"]["setup_s"]["value"] > 0
        assert entry["per_layer"]["trace_overhead_ratio"] > 0
        assert f"== {name}" in proc.stdout
    assert "LEAKED" not in proc.stdout
