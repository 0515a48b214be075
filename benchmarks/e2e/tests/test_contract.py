"""``BENCHMARK.json`` against the builder contract and the issue's names."""

import json
import re

from benchmarks.e2e import compare
from benchmarks.e2e.workloads import WORKLOADS
from conftest import ROOT

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

ISSUE_WORKLOADS = {
    "train_conv_serial", "train_conv_pool", "train_wide_pool", "train_rec_elastic",
    "sim_contended", "sim_month_warm", "sim_fifo_month",
}
ISSUE_METRICS = {
    # end to end
    "setup_s", "wall_s", "train.samples_per_s", "train.step_ms_p50",
    "train.reconfigure_ms_p50", "sim.events_per_s", "sim.avg_jct_s", "sim.makespan_s",
    "sim.gpu_util", "peak_rss_mb", "fail_ratio",
    # per layer
    "data.load_ms_per_step", "data.load_calls", "worker.local_step_ms_per_step",
    "worker.switch_ms_per_step", "exec.run_step_ms_per_step", "exec.self_ms_per_step",
    "exec.state_bytes_per_step", "exec.grad_bytes_per_step", "exec.spawn_ms",
    "exec.close_ms", "exec.children", "comm.sync_ms_per_step",
    "comm.allreduce_calls_per_step", "comm.allreduce_bytes_per_step",
    "optim.step_ms_per_step", "ckpt.save_ms_p50", "ckpt.restore_ms_p50", "ckpt.bytes",
    "engine.reconfigure_count", "engine.step_ms_p90", "engine.self_ms_per_step",
    "engine.unaccounted_ratio", "trace.gen_ms", "cluster.build_ms", "des.init_ms",
    "des.run_ms", "des.self_ms", "des.events", "des.self_us_per_event",
    "policy.reschedule_ms", "policy.reschedule_calls", "policy.arrival_ms",
    "inter.proposals_ms", "inter.proposals_calls", "inter.arbitrate_ms",
    "intra.propose_ms", "intra.propose_calls", "intra.apply_ms",
    "companion.search_ms", "companion.search_calls", "plancache.hits",
    "plancache.misses", "plancache.hit_ratio", "eventlog.save_ms",
    "eventlog.fingerprint_ms", "trace_overhead_ratio",
}


def test_exactly_the_contract_keys():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert all(len(part) <= 200 for part in CONTRACT["command"])
    assert len(CONTRACT["command"]) <= 32
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_workloads_are_the_issues_seven():
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert {w["name"] for w in CONTRACT["workloads"]} == ISSUE_WORKLOADS == set(WORKLOADS)


def test_metric_entries_are_well_formed():
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_names_are_used_once_and_cover_the_issue():
    names = [w["name"] for w in CONTRACT["workloads"]]
    names += [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert ISSUE_METRICS <= set(names)


def test_every_results_metric_has_a_comparison_rule():
    rules = compare.rules()
    assert ISSUE_METRICS & set(rules) >= {
        "setup_s", "wall_s", "train.samples_per_s", "train.step_ms_p50",
        "train.reconfigure_ms_p50", "sim.events_per_s", "sim.avg_jct_s",
        "sim.makespan_s", "sim.gpu_util", "peak_rss_mb", "fail_ratio",
    }
    assert rules["sim.makespan_s"] == ("lower", 0.0)
    assert rules["train.samples_per_s"] == rules["work_per_s"]
