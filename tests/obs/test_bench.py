"""Bench trajectories: records, the noise-aware comparator, and the gate."""

import json

import pytest

from repro.cli import main
from repro.obs.bench import (
    AREA,
    BENCH_SCHEMA_VERSION,
    Trajectory,
    classify,
    compare_trajectory,
    gate_trajectory,
    load_results,
    make_record,
    record_samples,
    summarize_samples,
    trajectory_path,
    validate_record,
)


def results_payload(failed=0):
    """A minimal ``benchmarks/e2e`` results file: one train and one sim workload."""

    def e2e(work_metric, work):
        return {
            "setup_s": {"value": 0.3, "repeats": [0.3, 0.31, 0.29]},
            "wall_s": {"value": 1.0, "repeats": [1.0, 1.02, 0.98]},
            "peak_rss_mb": {"value": 50.0, "repeats": [50.0, 50.5, 49.5]},
            work_metric: {"value": work, "repeats": [work, work * 1.01, work * 0.99]},
            "fail_ratio": {"value": 0.0, "repeats": [0.0, 0.0, 0.0]},
        }

    return {
        "seed": 7, "smoke": True, "repeats": 3,
        "machine": {"nproc": 2, "python": "3.11.0", "numpy": "1.26.4", "platform": "test"},
        "workloads": {
            "train_x": {"kind": "train", "sizes": {"steps": 4}, "attempted": 3,
                        "failed": 0, "failures": [],
                        "end_to_end": e2e("train.samples_per_s", 1000.0)},
            "sim_x": {"kind": "sim", "sizes": {"jobs": 4}, "attempted": 12,
                      "failed": failed, "failures": ["sim_x: output differs"] if failed else [],
                      "end_to_end": e2e("sim.events_per_s", 2000.0)},
        },
    }


def _stats(median, spread=0.0, repeats=5, direction="lower"):
    return {
        "median": median,
        "p10": median - spread,
        "p90": median + spread,
        "repeats": repeats,
        "unit": "s",
        "direction": direction,
    }


# ---------------------------------------------------------------------------
# sample summaries and record schema
# ---------------------------------------------------------------------------


class TestSummarizeSamples:
    def test_median_and_quantiles(self):
        stats = summarize_samples([3.0, 1.0, 2.0, 4.0, 5.0])
        assert stats["median"] == 3.0
        assert stats["p10"] == pytest.approx(1.4)
        assert stats["p90"] == pytest.approx(4.6)
        assert stats["repeats"] == 5

    def test_single_sample_collapses(self):
        stats = summarize_samples([2.5])
        assert stats["median"] == stats["p10"] == stats["p90"] == 2.5

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            summarize_samples([])
        with pytest.raises(ValueError, match="non-finite"):
            summarize_samples([1.0, float("nan")])
        with pytest.raises(ValueError, match="direction"):
            summarize_samples([1.0], direction="sideways")


class TestRecordSchema:
    def test_make_record_is_schema_valid_and_stamped(self):
        record = make_record("sched", "plan_round", {"max_p": 5},
                             {"cold_s": [0.2, 0.1, 0.3]})
        assert record["schema"] == BENCH_SCHEMA_VERSION
        assert record["area"] == "sched" and record["bench"] == "plan_round"
        assert record["metrics"]["cold_s"]["median"] == 0.2
        assert record["machine"]["cpu_count"] >= 1
        assert record["git_sha"]  # short SHA or "unknown", never empty
        assert record["timestamp"].endswith("+00:00")  # UTC
        assert json.loads(json.dumps(record)) == record

    def test_scale_env_inflates_lower_is_better(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "10")
        record = make_record("sched", "b", {}, {
            "time_s": [1.0],
            "rate": [1.0],
        }, directions={"rate": "higher"})
        assert record["metrics"]["time_s"]["median"] == 10.0
        assert record["metrics"]["rate"]["median"] == 1.0  # untouched

    def test_validate_rejects_broken_records(self):
        good = make_record("sched", "b", {}, {"t": [1.0]})
        for mutate in (
            lambda r: r.pop("git_sha"),
            lambda r: r.update(schema=99),
            lambda r: r.update(metrics={}),
            lambda r: r["metrics"]["t"].update(direction="sideways"),
            lambda r: r["metrics"]["t"].update(p10=5.0),  # > median
            lambda r: r["metrics"]["t"].update(median="x"),
            lambda r: r["metrics"]["t"].update(p90=float("inf")),
            lambda r: r["metrics"]["t"].update(p10=None),
            lambda r: r["metrics"]["t"].update(repeats="5"),
            lambda r: r["metrics"]["t"].update(repeats=0),
            lambda r: r["metrics"]["t"].update(repeats=2.5),
        ):
            broken = json.loads(json.dumps(good))
            mutate(broken)
            with pytest.raises(ValueError):
                validate_record(broken)
        with pytest.raises(ValueError):
            validate_record("not a record")


class TestTrajectory:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "BENCH_sched.json")
        traj = Trajectory.load("sched", path)
        assert traj.entries == []  # missing file is an empty trajectory
        traj.append(make_record("sched", "b", {"n": 1}, {"t": [1.0]}))
        traj.save()
        again = Trajectory.load("sched", path)
        assert len(again) == 1
        assert again.entries[0]["bench"] == "b"

    def test_malformed_file_raises_with_path(self, tmp_path):
        path = tmp_path / "BENCH_sched.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="BENCH_sched.json"):
            Trajectory.load("sched", str(path))
        path.write_text('{"schema": 99, "area": "sched", "entries": []}')
        with pytest.raises(ValueError, match="unsupported trajectory schema"):
            Trajectory.load("sched", str(path))
        path.write_text('{"schema": 1, "area": "sched", "entries": 5}')
        with pytest.raises(ValueError, match="BENCH_sched.json: expected .* 'entries' list"):
            Trajectory.load("sched", str(path))
        good = make_record("sched", "b", {}, {"t": [1.0]})
        for key, value, why in (("median", "x", "median must be a finite number"),
                                ("repeats", "5", "repeats must be an integer")):
            entry = json.loads(json.dumps(good))
            entry["metrics"]["t"][key] = value
            path.write_text(json.dumps({"schema": 1, "area": "sched", "entries": [entry]}))
            with pytest.raises(ValueError, match=f"BENCH_sched.json: entry 0: metric 't': {why}"):
                Trajectory.load("sched", str(path))

    def test_append_rejects_cross_area_record(self, tmp_path):
        traj = Trajectory("sched", str(tmp_path / "BENCH_sched.json"))
        with pytest.raises(ValueError, match="does not match trajectory"):
            traj.append(make_record("dessim", "b", {}, {"t": [1.0]}))

    def test_record_samples_appends(self, tmp_path):
        for _ in range(2):
            record_samples("sched", "b", {"n": 1}, {"t": [1.0, 2.0]},
                           directory=str(tmp_path))
        traj = Trajectory.load("sched", trajectory_path("sched", str(tmp_path)))
        assert len(traj) == 2


# ---------------------------------------------------------------------------
# the noise-aware comparator
# ---------------------------------------------------------------------------


class TestClassify:
    def test_flat_within_threshold(self):
        status, ratio, tol = classify(_stats(1.0), _stats(1.2))
        assert status == "flat" and ratio == pytest.approx(1.2)
        assert tol == pytest.approx(0.30)

    def test_regressed_beyond_threshold(self):
        status, ratio, _ = classify(_stats(1.0), _stats(1.5))
        assert status == "regressed" and ratio == pytest.approx(1.5)

    def test_improved_beyond_threshold(self):
        status, _, _ = classify(_stats(1.5), _stats(1.0))
        assert status == "improved"

    def test_noisy_samples_widen_tolerance(self):
        # 1.0 -> 1.5 regresses at the default threshold, but a 60% p10-p90
        # spread on the current entry absorbs it
        status, _, tol = classify(_stats(1.0), _stats(1.5, spread=0.45))
        assert status == "flat"
        assert tol == pytest.approx(0.60)

    def test_few_repeats_double_the_threshold(self):
        status, _, tol = classify(_stats(1.0, repeats=2), _stats(1.5, repeats=2))
        assert status == "flat"
        assert tol == pytest.approx(0.60)

    def test_higher_is_better_flips_the_verdict(self):
        up = classify(_stats(1.0, direction="higher"),
                      _stats(1.5, direction="higher"))
        down = classify(_stats(1.5, direction="higher"),
                        _stats(1.0, direction="higher"))
        assert up[0] == "improved" and down[0] == "regressed"

    def test_degenerate_zero_medians_are_flat(self):
        assert classify(_stats(0.0), _stats(1.0))[0] == "flat"

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            classify(_stats(1.0), _stats(1.0), threshold=0.0)


class TestCompareTrajectory:
    def _traj(self, tmp_path, records):
        traj = Trajectory("sched", str(tmp_path / "BENCH_sched.json"))
        for record in records:
            traj.append(record)
        return traj

    def test_single_entry_is_baseline(self, tmp_path):
        traj = self._traj(tmp_path, [make_record("sched", "b", {}, {"t": [1.0]})])
        (row,) = compare_trajectory(traj)
        assert row.status == "baseline" and row.previous is None
        assert "baseline" in row.describe()

    def test_latest_vs_previous_per_metric(self, tmp_path):
        traj = self._traj(tmp_path, [
            make_record("sched", "b", {}, {"t": [1.0] * 5, "u": [1.0] * 5}),
            make_record("sched", "b", {}, {"t": [2.0] * 5, "u": [1.0] * 5}),
        ])
        rows = {r.metric: r for r in compare_trajectory(traj)}
        assert rows["t"].status == "regressed"
        assert rows["u"].status == "flat"

    def test_different_params_never_compare(self, tmp_path):
        # a smoke entry after a full entry must not gate against it
        traj = self._traj(tmp_path, [
            make_record("sched", "b", {"smoke": False}, {"t": [10.0] * 5}),
            make_record("sched", "b", {"smoke": True}, {"t": [0.1] * 5}),
        ])
        rows = compare_trajectory(traj)
        assert {r.status for r in rows} == {"baseline"}


class TestGate:
    def test_gate_collects_regressions_across_areas(self, tmp_path):
        # one trajectory, several series: each bench gates on its own history
        for bench, medians in (("a", [1.0, 1.0]), ("b", [1.0, 2.0])):
            for median in medians:
                record_samples(AREA, bench, {}, {"t": [median] * 5},
                               directory=str(tmp_path))
        rows, regressed = gate_trajectory(directory=str(tmp_path))
        assert len(rows) == 2
        assert [(r.area, r.bench) for r in regressed] == [("e2e", "b")]

    def test_gate_without_trajectories_fails_loudly(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="BENCH_e2e.json"):
            gate_trajectory(directory=str(tmp_path))


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestBenchCli:
    def _seed(self, tmp_path, medians):
        for median in medians:
            record_samples(AREA, "b", {}, {"t": [median] * 5},
                           directory=str(tmp_path))

    def test_compare_prints_verdicts(self, tmp_path, capsys):
        self._seed(tmp_path, [1.0, 1.0])
        assert main(["bench", "compare", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "flat" in out and "1 flat" in out

    def test_gate_passes_flat_history(self, tmp_path, capsys):
        self._seed(tmp_path, [1.0, 1.0])
        assert main(["bench", "gate", "--dir", str(tmp_path)]) == 0
        assert "bench gate: ok" in capsys.readouterr().out

    def test_gate_fails_on_regression(self, tmp_path, capsys):
        self._seed(tmp_path, [1.0, 2.0])
        assert main(["bench", "gate", "--dir", str(tmp_path)]) == 5
        assert "FAILED" in capsys.readouterr().out

    def test_gate_without_trajectories_exits_2(self, tmp_path, capsys):
        assert main(["bench", "gate", "--dir", str(tmp_path)]) == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_compare_without_trajectories_exits_2(self, tmp_path):
        assert main(["bench", "compare", "--dir", str(tmp_path)]) == 2

    def test_record_results_twice_gates_flat_then_scaled_regresses(
            self, tmp_path, monkeypatch, capsys):
        results = tmp_path / "results.json"
        results.write_text(json.dumps(results_payload()))
        bench_dir = str(tmp_path / "bench")
        for _ in range(2):
            assert main(["bench", "record", str(results), "--dir", bench_dir]) == 0
        assert "appended 2 records to" in capsys.readouterr().out
        traj = Trajectory.load(AREA, trajectory_path(AREA, bench_dir))
        assert [e["bench"] for e in traj.entries] == ["train_x", "sim_x"] * 2
        entry = traj.entries[1]
        assert entry["params"] == {"seed": 7, "sizes": {"jobs": 4}, "smoke": True}
        assert entry["machine"] == results_payload()["machine"]  # the file's, not ours
        assert entry["git_sha"] == "unknown"  # a tmp directory is no checkout
        work = entry["metrics"]["work_per_s"]
        assert work["median"] == 2000.0 and work["direction"] == "higher"
        assert {m: s["direction"] for m, s in entry["metrics"].items()} == {
            "setup_s": "lower", "wall_s": "lower", "work_per_s": "higher",
            "peak_rss_mb": "lower"}
        assert main(["bench", "gate", "--dir", bench_dir]) == 0

        monkeypatch.setenv("REPRO_BENCH_SCALE", "10")
        assert main(["bench", "record", str(results), "--dir", bench_dir]) == 0
        assert main(["bench", "gate", "--dir", bench_dir]) == 5
        out = capsys.readouterr().out
        # every lower-is-better metric of both workloads, and nothing else
        assert out.count("! regressed") == 6 and "work_per_s" in out

    def test_record_refuses_a_failed_workload(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        results.write_text(json.dumps(results_payload(failed=3)))
        bench_dir = tmp_path / "bench"
        assert main(["bench", "record", str(results), "--dir", str(bench_dir)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {results}: workloads.sim_x: 3 of 12 operations failed")
        assert not bench_dir.exists() and "appended" not in out


def test_load_results_reads_the_checkout_of_the_file(tmp_path):
    """``git_sha`` comes from ``git rev-parse`` where the results file lies."""
    import subprocess

    repo = tmp_path / "clone"
    repo.mkdir()
    try:
        for argv in (["init", "-q"], ["-c", "user.name=t", "-c", "user.email=t@t",
                                      "commit", "-q", "--allow-empty", "-m", "x"]):
            subprocess.run(["git", *argv], cwd=repo, check=True, capture_output=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git is not usable here")
    sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=repo,
                         capture_output=True, text=True).stdout.strip()
    results = repo / "out" / "results.json"
    results.parent.mkdir()
    results.write_text(json.dumps(results_payload()))
    runs = load_results(str(results))
    assert [run["sha"] for run in runs] == [sha, sha]
