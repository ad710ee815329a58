"""The perf gate: two ledger documents diffed under BENCHMARK.json.

The contracts from docs/OBSERVABILITY.md ("Perf-regression tracking"):
the committed ``benchmarks/ledger/baseline.json`` passes a self-diff
row for row, an injected regression past a metric's own bound fails it
naming workload and metric, direction and bound are read from
``BENCHMARK.json`` (never assumed), a wide spread downgrades an
in-bound row to ``unresolved``, absent workloads are ``not
comparable``, and ``python -m repro bench-diff`` wires it together
with the documented exit codes.
"""

import copy
import json
import os

import pytest

from repro.__main__ import main as cli_main
from repro.telemetry.regress import bench_diff, diff_metrics, load_ledger

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "benchmarks", "ledger", "baseline.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

#: BENCHMARK.json's shape, small enough to read in a test.
SPECS = [
    {"name": "rate", "better": "higher", "bound": 0.25},
    {"name": "lat", "better": "lower", "bound": 0.25},
    {"name": "rss", "better": "lower", "bound": 0.10},
]


def side(spread=0.01, **medians):
    """One side of a diff: a single workload ``w`` with these medians."""
    return {"w": {"metrics": {name: {"median": m, "spread": spread, "n": 3}
                              for name, m in medians.items()},
                  "attempted": 10, "failed": 0}}


def verdicts(rows):
    return {(r.workload, r.metric): r.verdict for r in rows}


class TestDiffMetrics:
    def test_clean_diff(self):
        rows = diff_metrics(side(rate=10.0, lat=2.0, rss=50.0),
                            side(rate=9.5, lat=2.2, rss=52.0), SPECS)
        assert [r.verdict for r in rows] == ["ok", "ok", "ok"]

    def test_drop_past_threshold_flags(self):
        (r,) = diff_metrics(side(rate=10.0), side(rate=7.0), SPECS[:1])
        assert (r.workload, r.metric, r.verdict) == ("w", "rate", "REGRESSION")
        assert (r.baseline, r.current, r.bound) == (10.0, 7.0, 0.25)
        assert r.worse_by == pytest.approx(0.30)

    def test_looser_threshold_forgives(self):
        loose = [dict(SPECS[0], bound=0.5)]
        (r,) = diff_metrics(side(rate=10.0), side(rate=7.0), loose)
        assert r.verdict == "ok" and r.bound == 0.5

    def test_direction_is_read_not_assumed(self):
        up = diff_metrics(side(rate=10.0, lat=10.0),
                          side(rate=13.0, lat=13.0), SPECS[:2])
        assert [r.verdict for r in up] == ["ok", "REGRESSION"]
        assert [r.worse_by for r in up] == pytest.approx([-0.30, 0.30])

    def test_bound_is_per_metric(self):
        rows = diff_metrics(side(lat=100.0, rss=100.0),
                            side(lat=115.0, rss=115.0), SPECS[1:])
        assert [r.verdict for r in rows] == ["ok", "REGRESSION"]

    def test_absent_metrics_never_flag(self):
        rows = diff_metrics(side(rate=10.0), side(lat=1.0), SPECS[:2])
        assert [r.verdict for r in rows] == ["not comparable"] * 2
        assert [(r.baseline, r.current, r.worse_by) for r in rows] == [
            (10.0, None, None), (None, 1.0, None),
        ]
        assert diff_metrics({}, {}, SPECS) == []

    def test_absent_workload_is_not_comparable_on_either_side(self):
        other = {"extra": side(rate=1.0)["w"]}
        for base, cur in ((side(rate=1.0), other), (other, side(rate=1.0))):
            rows = diff_metrics(base, cur, SPECS[:1])
            assert {r.workload for r in rows} == {"w", "extra"}
            assert {r.verdict for r in rows} == {"not comparable"}

    def test_zero_baseline_median_is_not_comparable(self):
        (r,) = diff_metrics(side(rate=0.0), side(rate=5.0), SPECS[:1])
        assert r.verdict == "not comparable" and r.worse_by is None

    def test_improvement_never_flags(self):
        rows = diff_metrics(side(rate=1.0, lat=100.0, rss=100.0),
                            side(rate=100.0, lat=1.0, rss=1.0), SPECS)
        assert [r.verdict for r in rows] == ["ok", "ok", "ok"]
        assert all(r.worse_by < 0 for r in rows)

    def test_wide_spread_inside_the_bound_is_unresolved(self):
        wide, tight = side(spread=0.4, rate=10.0), side(rate=9.0)
        for base, cur in ((wide, tight), (tight, wide)):
            (r,) = diff_metrics(base, cur, SPECS[:1])
            assert r.verdict == "unresolved"
        # ...but a gap past the bound is a regression however noisy.
        (r,) = diff_metrics(wide, side(rate=5.0), SPECS[:1])
        assert r.verdict == "REGRESSION"


def edited(tmp_path, workload="sim_sparse", metric="work_per_s",
           factor=1.0, **fields):
    """A copy of the committed baseline with one metric's median
    scaled (and/or that metric's / workload's fields overwritten)."""
    with open(BASELINE, encoding="utf-8") as fh:
        doc = json.load(fh)
    row = doc["end_to_end"][workload]
    row["metrics"][metric]["median"] *= factor
    for name, value in fields.items():
        target = row if name in row else row["metrics"][metric]
        target[name] = value
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestBenchDiff:
    def test_committed_state_passes(self, capsys):
        assert bench_diff(BASELINE, BASELINE, BENCHMARK) == 0
        out = capsys.readouterr().out
        assert "bench-diff: OK" in out and "bench-diff: 28 ok\n" in out
        rows = [line for line in out.splitlines() if line.endswith("  ok")]
        assert len(rows) == 28  # 7 workloads x 4 end-to-end metrics

    def test_injected_regression_fails(self, tmp_path, capsys):
        ledger = edited(tmp_path, factor=0.70)
        assert bench_diff(ledger, BASELINE, BENCHMARK) == 1
        out = capsys.readouterr().out
        assert "27 ok, 1 REGRESSION" in out and "bench-diff: FAIL" in out
        assert "sim_sparse work_per_s is 30.0% worse (bound 25%)" in out

    def test_drop_inside_the_bound_passes(self, tmp_path, capsys):
        ledger = edited(tmp_path, factor=0.80)
        assert bench_diff(ledger, BASELINE, BENCHMARK) == 0
        assert "bench-diff: 28 ok\n" in capsys.readouterr().out

    def test_loosened_threshold_forgives_the_same_drop(self, tmp_path):
        # The bound lives in BENCHMARK.json and nowhere else: the same
        # 30% drop passes under a copy that allows 50%.
        with open(BENCHMARK, encoding="utf-8") as fh:
            doc = json.load(fh)
        for spec in doc["end_to_end"]:
            spec["bound"] = 0.5
        loose = tmp_path / "BENCHMARK.json"
        loose.write_text(json.dumps(doc))
        ledger = edited(tmp_path, factor=0.70)
        assert bench_diff(ledger, BASELINE, str(loose)) == 0

    @pytest.mark.parametrize("metric, factor", [
        ("op_p50_ms", 1.30),    # lower is better: a rise is the regression
        ("peak_rss_mb", 1.15),  # inside 25%, outside this metric's own 10%
    ])
    def test_direction_and_bound_come_from_benchmark_json(
        self, tmp_path, capsys, metric, factor
    ):
        ledger = edited(tmp_path, "query_hit", metric, factor)
        assert bench_diff(ledger, BASELINE, BENCHMARK) == 1
        assert f"query_hit {metric} is" in capsys.readouterr().out
        better = edited(tmp_path, "query_hit", metric, 1 / factor)
        assert bench_diff(better, BASELINE, BENCHMARK) == 0

    def test_wide_spread_is_unresolved_and_exits_0(self, tmp_path, capsys):
        ledger = edited(tmp_path, factor=0.90, spread=0.4)
        assert bench_diff(ledger, BASELINE, BENCHMARK) == 0
        assert "27 ok, 1 unresolved" in capsys.readouterr().out

    def test_failed_operations_fail_the_gate(self, tmp_path, capsys):
        ledger = edited(tmp_path, "query_miss", failed=1)
        assert bench_diff(ledger, BASELINE, BENCHMARK) == 1
        out = capsys.readouterr().out
        assert "bench-diff: 28 ok\n" in out  # every median is inside its bound
        assert "query_miss failed share rose 0.0000 -> 0.0016" in out
        # Not a rise when the baseline already failed that share.
        assert bench_diff(ledger, ledger, BENCHMARK) == 0

    def test_missing_workload_is_not_comparable_and_exits_0(
        self, tmp_path, capsys
    ):
        with open(BASELINE, encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["end_to_end"]["sweep_warm"]
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps(doc))
        for ledger, baseline in ((str(partial), BASELINE),
                                 (BASELINE, str(partial))):
            assert bench_diff(ledger, baseline, BENCHMARK) == 0
            out = capsys.readouterr().out
            assert "24 ok, 4 not comparable" in out
            assert out.count("sweep_warm") == 4

    def test_writes_nothing(self, tmp_path):
        ledger = edited(tmp_path, factor=0.70)
        before = {p: os.stat(p).st_mtime_ns for p in (ledger, BASELINE, BENCHMARK)}
        bench_diff(ledger, BASELINE, BENCHMARK)
        assert sorted(os.listdir(tmp_path)) == ["ledger.json"]
        assert before == {p: os.stat(p).st_mtime_ns for p in before}


class TestCli:
    def test_bench_diff_subcommand(self, capsys, monkeypatch):
        # Run from the repo root like `make bench-diff`: --baseline and
        # BENCHMARK.json are the committed defaults.
        monkeypatch.chdir(ROOT)
        assert cli_main(["bench-diff", "--ledger", BASELINE]) == 0
        assert "bench-diff: 28 ok\n" in capsys.readouterr().out

    def test_bench_diff_ledger_and_baseline_flags(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(ROOT)
        ledger = edited(tmp_path, factor=0.70)
        assert cli_main(["bench-diff", "--ledger", ledger,
                         "--baseline", BASELINE]) == 1
        assert "sim_sparse work_per_s" in capsys.readouterr().out
        assert cli_main(["bench-diff", "--ledger", BASELINE,
                         "--baseline", ledger]) == 0  # the other way: a gain
        assert cli_main(["bench-diff", "--ledger", ledger,
                         "--baseline", str(tmp_path / "none.json")]) == 2
        # The five old knobs are gone, not ignored.
        for flag in ("--results", "--trajectory", "--threshold",
                     "--update", "--note"):
            with pytest.raises(SystemExit) as exc:
                cli_main(["bench-diff", flag, "x"])
            assert exc.value.code == 2

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
    """A file that is missing or is not a ledger document is exit 2
    with its path in the message -- the gate says it could not compare,
    it never passes on nothing."""

    def write(self, tmp_path, doc):
        path = tmp_path / "damaged.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    def refused(self, capsys, ledger, baseline=BASELINE, benchmark=BENCHMARK):
        assert bench_diff(ledger, baseline, benchmark) == 2
        out = capsys.readouterr().out
        assert "cannot compare" in out and "  ok" not in out
        return out

    def test_missing_file_still_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "none.json")
        assert missing in self.refused(capsys, missing)
        assert missing in self.refused(capsys, BASELINE, baseline=missing)
        assert missing in self.refused(capsys, BASELINE, benchmark=missing)

    def test_corrupt_json_is_exit_2(self, tmp_path, capsys):
        path = self.write(tmp_path, "{torn")
        assert path in self.refused(capsys, path)
        assert path in self.refused(capsys, BASELINE, baseline=path)

    def test_foreign_schema_is_exit_2(self, tmp_path, capsys):
        # What the deleted BENCH_TRAJECTORY.json looked like.
        path = self.write(tmp_path, {
            "schema": "repro.telemetry.regress/v1",
            "entries": [{"metrics": {"s4_per_replica_speedup": 16.7}}],
        })
        assert "end_to_end" in self.refused(capsys, path)
        assert path in self.refused(capsys, BASELINE, baseline=path)

    @pytest.mark.parametrize("doc", [
        [1, 2, 3],
        {"end_to_end": ["sim_sparse"]},
        {"end_to_end": {"w": {"metrics": {}, "attempted": 0, "failed": 0}}},
        {"end_to_end": {"w": {"metrics": {}, "attempted": 5}}},
        {"end_to_end": {"w": {"metrics": {"m": {"median": None, "spread": 0}},
                              "attempted": 5, "failed": 0}}},
        {"end_to_end": {"w": {"metrics": {"m": {"median": "9", "spread": 0}},
                              "attempted": 5, "failed": 0}}},
        {"end_to_end": {"w": {"metrics": {"m": {"median": True, "spread": 0}},
                              "attempted": 5, "failed": 0}}},
        {"end_to_end": {"w": {"metrics": {"m": {"median": 1.0}},
                              "attempted": 5, "failed": 0}}},
    ])
    def test_non_ledger_document_is_exit_2(self, tmp_path, capsys, doc):
        path = self.write(tmp_path, doc)
        assert path in self.refused(capsys, path)

    def test_non_finite_medians_are_not_a_ledger(self, tmp_path):
        good = copy.deepcopy(load_ledger(BASELINE))
        for bad in ("NaN", "Infinity"):
            text = json.dumps({"end_to_end": good}).replace(
                str(good["sim_sparse"]["metrics"]["setup_s"]["median"]), bad)
            assert bench_diff(self.write(tmp_path, text), BASELINE, BENCHMARK) == 2

    def test_missing_tracked_ratio_is_not_comparable(self, tmp_path, capsys):
        # A metric BENCHMARK.json bounds but one side never measured.
        doc = {"end_to_end": copy.deepcopy(load_ledger(BASELINE))}
        del doc["end_to_end"]["query_hit"]["metrics"]["setup_s"]
        assert bench_diff(self.write(tmp_path, doc), BASELINE, BENCHMARK) == 0
        out = capsys.readouterr().out
        assert "27 ok, 1 not comparable" in out
        (row,) = [l for l in out.splitlines() if l.startswith("  query_hit ")
                  and l.endswith("  not comparable")]
        assert row.split()[1] == "setup_s"

    def test_cli_exits_2_on_a_non_ledger_file(self, tmp_path, capsys):
        path = self.write(tmp_path, {"points": {}})
        assert cli_main(["bench-diff", "--ledger", path,
                         "--baseline", BASELINE]) == 2
        assert path in capsys.readouterr().out
