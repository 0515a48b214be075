"""CLI: ``membership gen``/``membership replay`` and ``train --hosts``.

Mirrors ``tests/faults/test_cli_faults.py`` — the exit-code contract is
shared: 0 success, 2 missing/malformed input, 4 divergent audits.
"""

import json

import pytest

from repro.cli import main
from repro.faults import EventPlan, HostSpec, PlanEvent


@pytest.fixture
def small_plan(tmp_path):
    path = tmp_path / "plan.json"
    EventPlan(
        initial_hosts=(HostSpec("v0", "v100", 1), HostSpec("v1", "v100", 1)),
        events=(PlanEvent(kind="drain", host="v1", at_step=2),),
        seed=1,
    ).save(path)
    return str(path)


class TestGen:
    def test_gen_writes_a_loadable_plan(self, tmp_path, capsys):
        out = str(tmp_path / "plan.json")
        assert main(["membership", "gen", "--seed", "3", "--steps", "10",
                     "--out", out]) == 0
        plan = EventPlan.load(out)
        assert plan.seed == 3 and len(plan) >= 1
        assert "membership plan written" in capsys.readouterr().out

    def test_gen_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["membership", "gen", "--seed", "9", "--out", a])
        main(["membership", "gen", "--seed", "9", "--out", b])
        assert EventPlan.load(a) == EventPlan.load(b)

    def test_gen_rolling_emits_drain_waves(self, tmp_path, capsys):
        out = str(tmp_path / "roll.json")
        assert main(["membership", "gen", "--rolling", "4", "--out", out]) == 0
        plan = EventPlan.load(out)
        assert len(plan.initial_hosts) == 4
        assert [e.kind for e in plan.events] == ["drain"] * 3
        assert plan.max_unavailable == 1

    def test_gen_rolling_needs_two_hosts(self, capsys):
        assert main(["membership", "gen", "--rolling", "1"]) == 2
        assert "at least 2 hosts" in capsys.readouterr().err


class TestReplay:
    REPLAY_BASE = ["membership", "replay", "--workload", "resnet18",
                   "--ests", "2", "--samples", "32", "--batch-size", "4",
                   "--steps", "8", "--determinism", "D1"]

    def test_replay_bitwise_match_exits_zero(self, small_plan, capsys):
        assert main(self.REPLAY_BASE + ["--plan", small_plan]) == 0
        out = capsys.readouterr().out
        assert "BITWISE-IDENTICAL" in out
        assert "no divergence" in out
        assert "drain(s)" in out

    def test_replay_writes_audit_trails(self, small_plan, tmp_path, capsys):
        prefix = str(tmp_path / "aud")
        assert main(self.REPLAY_BASE + ["--plan", small_plan,
                                        "--audit", prefix]) == 0
        for leg in ("ref", "member"):
            with open(f"{prefix}.{leg}.jsonl", encoding="utf-8") as fh:
                assert fh.read().strip()

    def test_replay_divergence_exits_four(self, tmp_path, capsys):
        # plain D1 on a heterogeneous roster: dropping the T4 host moves
        # its ESTs onto the V100's kernel dialect, so the run must
        # diverge -- and the CLI must say so with exit code 4
        path = tmp_path / "het.json"
        EventPlan(
            initial_hosts=(HostSpec("v0", "v100", 1),
                           HostSpec("t0", "t4", 1)),
            events=(PlanEvent(kind="drain", host="t0", at_step=2),),
        ).save(path)
        assert main(self.REPLAY_BASE + ["--plan", str(path)]) == 4
        assert "DIVERGED" in capsys.readouterr().out

    @pytest.mark.parametrize("opener, host", [("announce", "c"), ("blacklist", "b")])
    @pytest.mark.parametrize("leave", ["drain", "reclaim_notice"])
    def test_replay_removes_a_host_that_serves_nothing(
        self, tmp_path, capsys, opener, host, leave
    ):
        # a host still warming up or still blacklisted holds no GPUs: its
        # drain or reclaim notice removes it at once, with no handover
        path = tmp_path / "leave.json"
        EventPlan(
            initial_hosts=(HostSpec("a", "v100", 1), HostSpec("b", "v100", 1)),
            events=(
                PlanEvent(kind=opener, host=host, at_step=1, magnitude=1000.0,
                          **({"gtype": "t4"} if opener == "announce" else {})),
                PlanEvent(kind=leave, host=host, at_step=2, magnitude=10.0),
            ),
        ).save(path)
        assert main(self.REPLAY_BASE + ["--plan", str(path)]) == 0
        out = capsys.readouterr().out
        assert "BITWISE-IDENTICAL" in out
        assert f"step    2  {leave:<16} {host}" in out

    def test_replay_missing_plan_exits_two(self, tmp_path, capsys):
        assert main(["membership", "replay", "--plan",
                     str(tmp_path / "nope.json")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_replay_malformed_plan_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "version": 1,
            "initial_hosts": [{"host_id": "v0", "gtype": "v100", "slots": 1}],
            "events": [{"kind": "vaporize", "host": "v0", "at_step": 1}],
        }))
        assert main(["membership", "replay", "--plan", str(path)]) == 2
        err = capsys.readouterr().err
        assert "events[0]" in err and "vaporize" in err


class TestTrainWithHosts:
    def test_train_hosts_verifies_bitwise(self, small_plan, capsys):
        code = main([
            "train", "resnet18", "--ests", "2", "--samples", "32",
            "--batch-size", "4", "--steps-per-stage", "8",
            "--schedule", "2xV100", "--hosts", small_plan, "--verify",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "survived the plan" in out
        assert "IDENTICAL" in out
        assert "drain(s)" in out

    def test_train_missing_plan_exits_two(self, tmp_path, capsys):
        code = main(["train", "resnet18", "--hosts",
                     str(tmp_path / "nope.json")])
        assert code == 2
        assert "no such file" in capsys.readouterr().err
