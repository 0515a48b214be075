"""CLI: ``faults gen``/``faults replay``, ``train --faults``, trace-sim faults."""

import json

import pytest

from repro.cli import main
from repro.faults import EventPlan, PlanEvent, random_sim_plan


@pytest.fixture
def small_plan(tmp_path):
    path = tmp_path / "plan.json"
    EventPlan(events=(
        PlanEvent(kind="gpu_revoke", at_step=2),
    ), seed=1).save(path)
    return str(path)


class TestGen:
    def test_gen_writes_a_loadable_plan(self, tmp_path, capsys):
        out = str(tmp_path / "plan.json")
        assert main(["faults", "gen", "--seed", "3", "--steps", "10",
                     "--gpus", "4", "--out", out]) == 0
        plan = EventPlan.load(out)
        assert plan.seed == 3 and len(plan) >= 1
        assert "fault plan written" in capsys.readouterr().out

    def test_gen_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["faults", "gen", "--seed", "9", "--out", a])
        main(["faults", "gen", "--seed", "9", "--out", b])
        assert EventPlan.load(a) == EventPlan.load(b)


class TestReplay:
    REPLAY_BASE = ["faults", "replay", "--workload", "resnet18",
                   "--ests", "2", "--samples", "32", "--batch-size", "4",
                   "--steps", "5", "--gpus", "2xV100", "--determinism", "D1"]

    def test_replay_bitwise_match_exits_zero(self, small_plan, capsys):
        assert main(self.REPLAY_BASE + ["--plan", small_plan]) == 0
        out = capsys.readouterr().out
        assert "BITWISE-IDENTICAL" in out
        assert "no divergence" in out

    def test_replay_writes_audit_trails(self, small_plan, tmp_path, capsys):
        prefix = str(tmp_path / "aud")
        assert main(self.REPLAY_BASE + ["--plan", small_plan,
                                        "--audit", prefix]) == 0
        for leg in ("ref", "fault"):
            with open(f"{prefix}.{leg}.jsonl", encoding="utf-8") as fh:
                assert fh.read().strip()

    def test_replay_divergence_exits_four(self, small_plan, capsys):
        # plain D1 on a heterogeneous pool: the post-recovery EST->GPU
        # mapping changes dialects, so the run must diverge -- and the
        # CLI must say so with exit code 4
        argv = ["faults", "replay", "--plan", small_plan,
                "--workload", "resnet18", "--ests", "2", "--samples", "32",
                "--batch-size", "4", "--steps", "5",
                "--gpus", "1xV100+1xT4", "--determinism", "D1"]
        assert main(argv) == 4
        assert "DIVERGED" in capsys.readouterr().out

    def test_replay_missing_plan_exits_two(self, tmp_path, capsys):
        assert main(["faults", "replay", "--plan",
                     str(tmp_path / "nope.json")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_replay_malformed_plan_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1}))
        assert main(["faults", "replay", "--plan", str(path)]) == 2
        assert "events" in capsys.readouterr().err


class TestTrainWithFaults:
    def test_train_faults_verifies_bitwise(self, small_plan, capsys):
        code = main([
            "train", "resnet18", "--ests", "2", "--samples", "32",
            "--batch-size", "4", "--steps-per-stage", "5",
            "--schedule", "2xV100", "--faults", small_plan, "--verify",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "survived the plan" in out
        assert "IDENTICAL" in out
        assert "downtime" in out

    def test_train_missing_plan_exits_two(self, tmp_path, capsys):
        code = main(["train", "resnet18", "--faults",
                     str(tmp_path / "nope.json")])
        assert code == 2
        assert "no such file" in capsys.readouterr().err


class TestTraceSimWithFaults:
    def test_trace_sim_reports_preemptions(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        random_sim_plan(7, horizon_s=3000.0, max_events=5).save(path)
        code = main(["trace-sim", "--jobs", "4", "--policy", "heter",
                     "--faults", str(path)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "preemption(s)" in out

    def test_trace_sim_missing_plan_exits_two(self, tmp_path, capsys):
        assert main(["trace-sim", "--faults",
                     str(tmp_path / "nope.json")]) == 2
        assert "no such file" in capsys.readouterr().err
