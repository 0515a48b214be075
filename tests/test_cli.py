"""CLI: argument parsing and command smoke tests."""

import json

import pytest

from repro.cli import _parse_stage, build_parser, main


class TestParseStage:
    def test_count_and_type(self):
        gpus = _parse_stage("2xV100")
        assert [g.name for g in gpus] == ["V100", "V100"]

    def test_bare_type(self):
        assert [g.name for g in _parse_stage("P100")] == ["P100"]

    def test_mixed(self):
        gpus = _parse_stage("1xV100+2xP100")
        assert [g.name for g in gpus] == ["V100", "P100", "P100"]

    def test_case_insensitive(self):
        assert [g.name for g in _parse_stage("2xt4")] == ["T4", "T4"]

    def test_unknown_type(self):
        with pytest.raises(KeyError):
            _parse_stage("2xH100")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "resnet18"])
        assert args.ests == 4
        assert args.determinism == "D1"
        assert not args.verify

    def test_bad_determinism_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "resnet18", "--determinism", "D9"])


class TestCommands:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out and "bert" in out

    def test_scan(self, capsys):
        assert main(["scan", "neumf"]) == 0
        assert "D2 is cheap" in capsys.readouterr().out
        assert main(["scan", "resnet50"]) == 0
        assert "vendor conv kernels" in capsys.readouterr().out

    def test_train_verifies_bitwise(self, capsys):
        code = main(
            [
                "train",
                "resnet18",
                "--schedule", "2xV100", "1xV100",
                "--steps-per-stage", "2",
                "--samples", "128",
                "--ests", "2",
                "--verify",
            ]
        )
        assert code == 0
        assert "IDENTICAL" in capsys.readouterr().out

    def test_train_verify_divergence_exits_four(self, capsys):
        # D0 cannot survive a 4 -> 2 GPU scale event; DIFFERENT is a
        # divergence verdict (4), not malformed input (2)
        code = main(
            [
                "train",
                "resnet18",
                "--ests", "4",
                "--samples", "64",
                "--steps-per-stage", "2",
                "--schedule", "4xV100", "2xV100",
                "--determinism", "D0",
                "--verify",
            ]
        )
        assert "DIFFERENT" in capsys.readouterr().out
        assert code == 4

    def test_colocation(self, capsys):
        assert main(["colocation", "--gpus", "300", "--training-demand", "50"]) == 0
        out = capsys.readouterr().out
        assert "alloc ratio" in out and "failures: 0" in out

    def test_trace_sim_single_policy(self, capsys):
        assert main(["trace-sim", "--policy", "homo", "--jobs", "6"]) == 0
        out = capsys.readouterr().out
        assert "easyscale-homo" in out
        assert "plan cache" in out  # companion fast-path stats surface

    def test_trace_sim_cores_agree(self, tmp_path, capsys):
        from repro.faults import random_sim_plan

        plan = tmp_path / "sim.json"
        random_sim_plan(7, horizon_s=3000.0, max_events=5).save(plan)

        def result_lines(core):
            assert main(["trace-sim", "--policy", "heter", "--jobs", "5",
                         "--faults", str(plan), "--core", core]) == 0
            # "plan cache:" is a per-core diagnostic: the batched core's
            # proposal memo answers searches the reference core repeats
            return [line for line in capsys.readouterr().out.splitlines()
                    if "plan cache:" not in line]

        batched = result_lines("batched")
        assert "avg JCT" in batched[0] and "preemption(s)" in batched[1]
        assert result_lines("reference") == batched

    def test_trace_sim_default_core_is_batched(self):
        assert build_parser().parse_args(["trace-sim"]).core == "batched"

    def test_trace_sim_heap_core_is_gone(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["trace-sim", "--jobs", "3", "--core", "heap"])
        assert err.value.code == 2
        assert "invalid choice: 'heap'" in capsys.readouterr().err

    def test_trace_sim_yarn_has_no_cache_stats(self, capsys):
        assert main(["trace-sim", "--policy", "yarn", "--jobs", "4"]) == 0
        assert "plan cache" not in capsys.readouterr().out


class TestObsCommands:
    @pytest.fixture
    def trace_file(self, tmp_path):
        from repro.obs.trace import SpanTracer

        tracer = SpanTracer(clock="sim")
        with tracer.span("engine.global_step", est=2.0, step=0):
            with tracer.span("worker.local_step", est=1.0, vrank=0):
                pass
        tracer.instant("engine.scale_event", ts=0.5, gpus=["V100"])
        path = tmp_path / "run.jsonl"
        tracer.save(str(path))
        return str(path)

    @pytest.fixture
    def audit_pair(self, tmp_path):
        from repro.obs.audit import AuditRecord, AuditTrail

        paths = []
        for name, fp in (("a", "same"), ("b", "flipped")):
            path = tmp_path / f"{name}.jsonl"
            with AuditTrail(str(path)) as trail:
                trail.record(
                    AuditRecord(step=0, params="x", buckets={"0": "y"}, policy="D1")
                )
                trail.record(
                    AuditRecord(step=1, params=fp, buckets={"0": fp}, policy="D1")
                )
            paths.append(str(path))
        return paths

    def test_summarize(self, trace_file, capsys):
        assert main(["obs", "summarize", trace_file]) == 0
        out = capsys.readouterr().out
        assert "2 spans, 1 instants" in out
        assert "engine.global_step" in out and "worker.local_step" in out

    def test_export_trace(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "chrome.json"
        assert main(["obs", "export-trace", trace_file, "-o", str(out_path)]) == 0
        chrome = json.loads(out_path.read_text())
        names = {e["name"] for e in chrome["traceEvents"]}
        assert {"engine.global_step", "worker.local_step", "engine.scale_event"} <= names

    def test_export_trace_default_output(self, trace_file, capsys):
        assert main(["obs", "export-trace", trace_file]) == 0
        assert "chrome.json" in capsys.readouterr().out

    def test_diff_audit_divergent(self, audit_pair, capsys):
        assert main(["obs", "diff-audit", *audit_pair]) == 4
        out = capsys.readouterr().out
        assert "first divergence at step 1" in out

    def test_diff_audit_identical(self, audit_pair, capsys):
        assert main(["obs", "diff-audit", audit_pair[0], audit_pair[0]]) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    @pytest.fixture
    def bundle_file(self, tmp_path):
        from repro.obs import flightrec

        rec = flightrec.FlightRecorder(directory=str(tmp_path))
        rec.set_context(determinism="D1+D2", dialects=["v100", "t4"])
        rec.record("engine.step", step=0)
        rec.record("fault.detect", fault="worker_crash", step=1, worker=1)
        rec.note_audit({"step": 0, "params": "p", "buckets": {"0": "b"},
                        "rng": "r", "loader": {}, "policy": "D1+D2",
                        "dialects": ["v100", "t4"]})
        return rec.dump("test", crash={"step": 1, "worker": 1,
                                       "kind": "worker_crash", "dialect": "t4"})

    def test_postmortem_renders_bundle(self, bundle_file, capsys):
        assert main(["obs", "postmortem", bundle_file]) == 0
        out = capsys.readouterr().out
        assert "worker_crash" in out and "dialect=t4" in out
        assert "D1+D2" in out

    def test_postmortem_tail_accepted(self, bundle_file, capsys):
        assert main(["obs", "postmortem", bundle_file, "--tail", "1"]) == 0
        out = capsys.readouterr().out
        assert "fault.detect" in out
        assert "engine.step" not in out  # trimmed by --tail 1

    def test_postmortem_missing_file_exit_2(self, capsys):
        assert main(["obs", "postmortem", "no-such-bundle.json"]) == 2
        assert capsys.readouterr().err

    def test_postmortem_garbage_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["obs", "postmortem", str(bad)]) == 2
        notjson = tmp_path / "audit.jsonl"
        notjson.write_text('{"step": 0, "params": "x"}\n')
        assert main(["obs", "postmortem", str(notjson)]) == 2

    def test_why_identical_exit_0(self, audit_pair, capsys):
        assert main(["obs", "why", audit_pair[0], audit_pair[0]]) == 0
        assert "identical" in capsys.readouterr().out

    def test_why_divergent_exit_4_with_attribution_text(self, audit_pair, capsys):
        assert main(["obs", "why", *audit_pair]) == 4
        out = capsys.readouterr().out
        assert "diverged at step 1" in out

    def test_why_attributes_dialect_swap(self, tmp_path, capsys):
        from repro.obs.audit import AuditRecord, AuditTrail

        paths = []
        for name, dialects in (("a", ("v100", "v100")), ("b", ("v100", "t4"))):
            path = tmp_path / f"{name}.jsonl"
            with AuditTrail(str(path)) as trail:
                for s in range(4):
                    swapped = s >= 2 and dialects[1] == "t4"
                    trail.record(AuditRecord(
                        step=s,
                        params="swap" if swapped else "x",
                        buckets={"0": "swap" if swapped else "y"},
                        policy="D1",
                        dialects=dialects if swapped else ("v100", "v100"),
                    ))
            paths.append(str(path))
        assert main(["obs", "why", *paths, "--window", "4"]) == 4
        out = capsys.readouterr().out
        assert "step 2" in out and "dialect" in out

    def test_why_accepts_bundles(self, bundle_file, capsys):
        assert main(["obs", "why", bundle_file, bundle_file]) == 0
        assert "identical" in capsys.readouterr().out

    def test_why_missing_input_exit_2(self, audit_pair, capsys):
        assert main(["obs", "why", audit_pair[0], "no-such.jsonl"]) == 2
        assert capsys.readouterr().err

    def test_missing_file_is_a_clean_error(self, capsys):
        assert main(["obs", "summarize", "no-such-trace.jsonl"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_malformed_trace_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "meta", "version": 1, "clock": "wall"}\njunk\n{}\n')
        assert main(["obs", "summarize", str(bad)]) == 2
        assert "bad.jsonl:2" in capsys.readouterr().err

    def test_train_writes_trace_and_audit(self, tmp_path, capsys):
        from repro import obs

        trace = tmp_path / "train.jsonl"
        audit = tmp_path / "audit.jsonl"
        code = main(
            [
                "train",
                "resnet18",
                "--schedule", "2xV100", "1xV100",
                "--steps-per-stage", "2",
                "--samples", "64",
                "--ests", "2",
                "--batch-size", "4",
                "--trace", str(trace),
                "--audit", str(audit),
            ]
        )
        assert code == 0
        assert not obs.is_enabled()  # CLI resets the global switch
        loaded = obs.SpanTracer.load(str(trace))
        cats = {r["cat"] for r in loaded.records}
        assert {"engine", "worker", "comm"} <= cats
        trail = obs.AuditTrail.load(str(audit))
        assert [r.step for r in trail.records] == [0, 1, 2, 3]

    def test_trace_sim_writes_merged_timeline(self, tmp_path, capsys):
        from repro import obs

        trace = tmp_path / "sim.jsonl"
        assert main(
            ["trace-sim", "--policy", "homo", "--jobs", "4", "--trace", str(trace)]
        ) == 0
        loaded = obs.SpanTracer.load(str(trace))
        kinds = {r["name"] for r in loaded.records}
        assert "job_submit" in kinds and "job_done" in kinds
        assert any(r["name"].startswith("job:") for r in loaded.records)


class TestProfilerCli:
    def test_train_profile_prints_summary(self, capsys):
        code = main(
            [
                "train",
                "shufflenetv2",
                "--schedule", "1xV100+1xT4",
                "--steps-per-stage", "4",
                "--samples", "64",
                "--ests", "2",
                "--batch-size", "4",
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile over" in out
        assert "calibrated capability (mini-batches/s)" in out
        assert "v100" in out and "t4" in out

    def test_train_telemetry_records_profile(self, tmp_path, capsys):
        telemetry = tmp_path / "run.jsonl"
        code = main(
            [
                "train",
                "shufflenetv2",
                "--schedule", "1xV100",
                "--steps-per-stage", "3",
                "--samples", "64",
                "--ests", "2",
                "--batch-size", "4",
                "--profile",
                "--telemetry", str(telemetry),
            ]
        )
        assert code == 0
        kinds = [json.loads(line)["kind"] for line in telemetry.read_text().splitlines()]
        assert "profile" in kinds and "step" in kinds
        capsys.readouterr()
        assert main(["obs", "summarize", str(telemetry)]) == 0
        out = capsys.readouterr().out
        assert "profile over" in out
        assert "calibrated capability" in out

    def test_obs_profile_replays_a_train_trace(self, tmp_path, capsys):
        trace = tmp_path / "train.jsonl"
        main(
            [
                "train",
                "shufflenetv2",
                "--schedule", "1xV100+1xT4",
                "--steps-per-stage", "4",
                "--samples", "64",
                "--ests", "2",
                "--batch-size", "4",
                "--trace", str(trace),
            ]
        )
        capsys.readouterr()
        summary = tmp_path / "profile.json"
        code = main(
            [
                "obs", "profile", str(trace),
                "--workload", "shufflenetv2",
                "--window", "2",
                "--json", str(summary),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile over" in out
        payload = json.loads(summary.read_text())
        assert payload["workers"] and payload["calibration"]["observed"]

    def test_obs_profile_without_worker_spans_is_exit_2(self, tmp_path, capsys):
        from repro.obs.trace import SpanTracer

        tracer = SpanTracer(clock="sim")
        tracer.instant("engine.scale_event", ts=0.5, gpus=["V100"])
        path = tmp_path / "empty.jsonl"
        tracer.save(str(path))
        assert main(["obs", "profile", str(path)]) == 2
        assert "no worker.local_step spans" in capsys.readouterr().err

    def test_obs_profile_missing_file_is_exit_2(self, capsys):
        assert main(["obs", "profile", "no-such.jsonl"]) == 2

    def test_obs_report_from_trace_sim_events(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(
            ["trace-sim", "--policy", "heter", "--jobs", "4", "--events", str(events)]
        ) == 0
        capsys.readouterr()
        html = tmp_path / "report.html"
        summary = tmp_path / "report.json"
        code = main(
            ["obs", "report", str(events), "--html", str(html), "--json", str(summary)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "idle GPU-seconds" in out
        assert "allocation timeline" in out
        text = html.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "idle GPU-seconds" in text
        assert json.loads(summary.read_text())["jobs"] == 4

    def test_obs_report_on_span_trace_uses_sched_instants(self, tmp_path, capsys):
        trace = tmp_path / "sim.jsonl"
        assert main(
            ["trace-sim", "--policy", "homo", "--jobs", "4", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(trace)]) == 0
        assert "allocation timeline" in capsys.readouterr().out

    def test_obs_report_without_events_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nothing.jsonl"
        path.write_text("")
        assert main(["obs", "report", str(path)]) == 2
        assert "no simulator events" in capsys.readouterr().err

    def test_trace_sim_calibrate_missing_file_is_exit_2(self, capsys):
        assert main(
            ["trace-sim", "--policy", "homo", "--jobs", "2", "--calibrate", "nope.json"]
        ) == 2

    def test_trace_sim_calibrate_malformed_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "cal.json"
        bad.write_text('{"scale": {"t4": -1.0}}')
        assert main(
            ["trace-sim", "--policy", "homo", "--jobs", "2", "--calibrate", str(bad)]
        ) == 2

    def test_trace_sim_calibrate_applies_scales(self, tmp_path, capsys):
        cal = tmp_path / "cal.json"
        cal.write_text('{"scale": {"t4": 0.5}}')
        assert main(
            ["trace-sim", "--policy", "all", "--jobs", "4", "--calibrate", str(cal)]
        ) == 0
        out = capsys.readouterr().out
        assert "calibrated capability scales" in out
        assert "easyscale-homo" in out and "easyscale-heter" in out

    def test_profile_flag_defaults_off(self):
        args = build_parser().parse_args(["train", "resnet18"])
        assert not args.profile
        assert args.telemetry is None


class TestSelfTestCommand:
    def test_self_test_passes_on_healthy_install(self, capsys):
        from repro.cli import main

        assert main(["self-test"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out
        assert out.count("PASS") >= 5
