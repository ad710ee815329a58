"""Perf-regression tracking: tracked BENCH ratios vs the trajectory.

The contracts from docs/OBSERVABILITY.md ("Fleet telemetry"): the
tracked metrics extract from the committed ``benchmarks/results``
artifacts, the committed ``BENCH_TRAJECTORY.json`` loads and passes a
self-diff, an injected regression past the threshold fails the diff
(and a loosened threshold forgives it), and the ``python -m repro
bench-diff`` CLI wires it all together with the documented exit codes.
"""

import json
import os
import shutil

import pytest

from repro.__main__ import main as cli_main
from repro.telemetry import TelemetryError
from repro.telemetry.regress import (
    DEFAULT_THRESHOLD,
    REGRESS_SCHEMA,
    TRACKED,
    append_entry,
    baseline_metrics,
    bench_diff,
    collect_metrics,
    diff_metrics,
    load_trajectory,
    new_trajectory,
    save_trajectory,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "benchmarks", "results")
TRAJECTORY = os.path.join(ROOT, "BENCH_TRAJECTORY.json")


def committed_metrics():
    return collect_metrics(RESULTS)


class TestCollectMetrics:
    def test_committed_results_carry_every_tracked_metric(self):
        metrics = committed_metrics()
        assert set(metrics) == {m.name for m in TRACKED}
        assert all(v > 0 for v in metrics.values())

    def test_s4_speedup_is_the_scalar_over_batch_ratio(self):
        with open(os.path.join(RESULTS, "BENCH_s4.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        want = (doc["scalar"]["seconds_per_run"]
                / doc["batch"]["seconds_per_lane"])
        assert committed_metrics()["s4_per_replica_speedup"] == pytest.approx(
            want
        )

    def test_missing_files_contribute_nothing(self, tmp_path):
        assert collect_metrics(str(tmp_path)) == {}

    def test_unparseable_file_is_skipped(self, tmp_path):
        (tmp_path / "BENCH_s1.json").write_text("{torn")
        shutil.copy(os.path.join(RESULTS, "BENCH_s4.json"),
                    tmp_path / "BENCH_s4.json")
        metrics = collect_metrics(str(tmp_path))
        assert "s1_compiled_over_fast_standard" not in metrics
        assert "s4_per_replica_speedup" in metrics


class TestTrajectory:
    def test_committed_trajectory_loads_and_matches_results(self):
        doc = load_trajectory(TRAJECTORY)
        assert doc["schema"] == REGRESS_SCHEMA
        baseline = baseline_metrics(doc)
        # The committed trajectory's last entry must describe the
        # committed results: the self-diff is clean by construction.
        assert diff_metrics(baseline, committed_metrics()) == []

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"schema": "nope", "entries": []}))
        with pytest.raises(TelemetryError, match="trajectory"):
            load_trajectory(str(path))

    def test_load_rejects_malformed_entries(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"schema": REGRESS_SCHEMA, "entries": [{"metrics": 7}]}
        ))
        with pytest.raises(TelemetryError, match="entries"):
            load_trajectory(str(path))

    def test_append_and_save_round_trip(self, tmp_path):
        path = str(tmp_path / "t.json")
        doc = new_trajectory()
        append_entry(doc, {"m": 1.0}, note="first")
        append_entry(doc, {"m": 1.1})
        save_trajectory(path, doc)
        loaded = load_trajectory(path)
        assert len(loaded["entries"]) == 2
        assert loaded["entries"][0]["note"] == "first"
        assert baseline_metrics(loaded) == {"m": 1.1}


class TestDiffMetrics:
    def test_clean_diff(self):
        base = {"a": 10.0, "b": 2.0}
        assert diff_metrics(base, {"a": 9.5, "b": 2.5}) == []

    def test_drop_past_threshold_flags(self):
        base = {"a": 10.0}
        regs = diff_metrics(base, {"a": 7.0}, threshold=0.20)
        assert len(regs) == 1
        r = regs[0]
        assert r.name == "a"
        assert r.change == pytest.approx(-0.30)
        assert "-30.0%" in r.describe()

    def test_looser_threshold_forgives(self):
        assert diff_metrics({"a": 10.0}, {"a": 7.0}, threshold=0.5) == []

    def test_absent_metrics_never_flag(self):
        assert diff_metrics({"a": 10.0}, {"b": 1.0}) == []
        assert diff_metrics({}, {"a": 1.0}) == []

    def test_improvement_never_flags(self):
        assert diff_metrics({"a": 1.0}, {"a": 100.0}) == []

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="threshold"):
            diff_metrics({"a": 1.0}, {"a": 1.0}, threshold=0.0)


class TestBenchDiff:
    def regressed_results(self, tmp_path, factor=0.7):
        """A copy of the committed results with bench_s1's standard
        compiled-over-fast speedup scaled by ``factor``."""
        results = tmp_path / "results"
        results.mkdir(exist_ok=True)
        for name in ("BENCH_s1.json", "BENCH_s4.json"):
            shutil.copy(os.path.join(RESULTS, name), results / name)
        s1 = results / "BENCH_s1.json"
        doc = json.loads(s1.read_text())
        doc["points"]["standard"]["speedup"]["compiled_over_fast"] *= factor
        s1.write_text(json.dumps(doc))
        return str(results)

    def test_committed_state_passes(self, capsys):
        assert bench_diff(RESULTS, TRAJECTORY) == 0
        assert "bench-diff: OK" in capsys.readouterr().out

    def test_injected_regression_fails(self, tmp_path, capsys):
        results = self.regressed_results(tmp_path, factor=0.7)
        assert bench_diff(results, TRAJECTORY) == 1
        out = capsys.readouterr().out
        assert "bench-diff: FAIL" in out
        assert "s1_compiled_over_fast_standard" in out

    def test_loosened_threshold_forgives_the_same_drop(self, tmp_path):
        results = self.regressed_results(tmp_path, factor=0.7)
        assert bench_diff(results, TRAJECTORY, threshold=0.5) == 0

    def test_missing_trajectory_without_update_is_exit_2(self, tmp_path):
        assert bench_diff(RESULTS, str(tmp_path / "none.json")) == 2

    def test_update_records_then_diffs(self, tmp_path):
        path = str(tmp_path / "t.json")
        assert bench_diff(RESULTS, path, update=True, note="seed") == 0
        doc = load_trajectory(path)
        assert len(doc["entries"]) == 1
        assert doc["entries"][0]["note"] == "seed"
        # A re-run over unchanged results is not a new data point...
        assert bench_diff(RESULTS, path, update=True) == 0
        assert len(load_trajectory(path)["entries"]) == 1
        # ...a clean run with new values appends a second entry.
        improved = self.regressed_results(tmp_path, factor=1.1)
        assert bench_diff(improved, path, update=True) == 0
        assert len(load_trajectory(path)["entries"]) == 2
        # A regressed run does NOT pollute the trajectory.
        results = self.regressed_results(tmp_path)
        assert bench_diff(results, path, update=True) == 1
        assert len(load_trajectory(path)["entries"]) == 2

    def test_default_threshold_is_twenty_percent(self):
        assert DEFAULT_THRESHOLD == pytest.approx(0.20)


class TestCli:
    def test_bench_diff_subcommand(self, capsys):
        assert cli_main(["bench-diff", "--results", RESULTS,
                         "--trajectory", TRAJECTORY]) == 0
        assert "bench-diff: OK" in capsys.readouterr().out

    def test_bench_diff_threshold_and_update_flags(self, tmp_path, capsys):
        path = str(tmp_path / "t.json")
        assert cli_main(["bench-diff", "--results", RESULTS,
                         "--trajectory", path]) == 2
        assert cli_main(["bench-diff", "--results", RESULTS,
                         "--trajectory", path, "--update",
                         "--note", "from the CLI"]) == 0
        assert load_trajectory(path)["entries"][0]["note"] == "from the CLI"

    def test_top_subcommand_rejects_a_non_directory(self, tmp_path, capsys):
        assert cli_main(["top", "--dir", str(tmp_path / "nope"),
                         "--once"]) == 2

    def test_top_subcommand_renders_a_frame(self, tmp_path, capsys):
        from repro.telemetry.events import EventWriter, make_record

        with EventWriter(str(tmp_path / "events.jsonl")) as w:
            w.write(make_record("run_start", label="cli", points=1,
                                pending=1, cached=0, jobs=1))
            w.write(make_record("point_end", label="cli[0]", key="k",
                                status="ok", seconds=0.5, attempts=1,
                                cached=False))
            w.write(make_record("run_end", label="cli", ok=1, failed=0,
                                cached=0, retries=0))
        prom = str(tmp_path / "metrics.prom")
        assert cli_main(["top", "--dir", str(tmp_path), "--once",
                         "--prom", prom]) == 0
        out = capsys.readouterr().out
        assert "repro top --" in out
        assert "1 ok" in out
        assert "repro_top_points_ok 1" in open(prom, encoding="utf-8").read()


class TestDegradedBaselines:
    """A damaged or partial trajectory is "no baseline", never a crash
    -- bench-diff warns and exits 0 so a perf gate cannot wedge a build
    on bookkeeping damage."""

    def write(self, tmp_path, doc):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
        return str(path)

    def test_single_entry_with_null_ratio_passes(self, tmp_path, capsys):
        path = self.write(tmp_path, {
            "schema": REGRESS_SCHEMA,
            "entries": [{"metrics": {
                "s1_compiled_over_fast_standard": None,
                "s4_per_replica_speedup": "not-a-number",
            }}],
        })
        assert bench_diff(RESULTS, path) == 0
        out = capsys.readouterr().out
        assert "WARNING" in out and "no usable baseline" in out

    def test_missing_tracked_ratio_is_not_comparable(self, tmp_path, capsys):
        path = self.write(tmp_path, {
            "schema": REGRESS_SCHEMA,
            "entries": [{"metrics": {"some_retired_metric": 1.0}}],
        })
        assert bench_diff(RESULTS, path) == 0
        assert "not comparable" in capsys.readouterr().out

    def test_corrupt_json_warns_and_passes(self, tmp_path, capsys):
        path = self.write(tmp_path, "{torn")
        assert bench_diff(RESULTS, path) == 0
        assert "unusable trajectory" in capsys.readouterr().out

    def test_foreign_schema_warns_and_passes(self, tmp_path, capsys):
        path = self.write(tmp_path, {"schema": "other/v9", "entries": []})
        assert bench_diff(RESULTS, path) == 0
        assert "unusable trajectory" in capsys.readouterr().out

    def test_update_restarts_an_unusable_trajectory(self, tmp_path):
        path = self.write(tmp_path, "{torn")
        assert bench_diff(RESULTS, path, update=True) == 0
        doc = load_trajectory(path)  # readable again
        assert len(doc["entries"]) == 1

    def test_missing_file_still_exits_2(self, tmp_path):
        assert bench_diff(RESULTS, str(tmp_path / "none.json")) == 2

    def test_baseline_metrics_filters_non_numbers(self):
        doc = new_trajectory()
        append_entry(doc, {})
        doc["entries"][-1]["metrics"] = {
            "ok": 2.0, "null": None, "text": "x", "flag": True,
            "inf": float("inf"), "nan": float("nan"), "int": 3,
        }
        assert baseline_metrics(doc) == {"ok": 2.0, "int": 3.0}

    def test_cli_survives_single_entry_null_metrics(self, tmp_path, capsys):
        path = self.write(tmp_path, {
            "schema": REGRESS_SCHEMA,
            "entries": [{"metrics": {"s1_compiled_over_fast_standard": None}}],
        })
        assert cli_main(["bench-diff", "--trajectory", path]) == 0
        assert "WARNING" in capsys.readouterr().out
