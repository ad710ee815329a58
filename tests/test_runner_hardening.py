"""Crash-safety of the hardened ExperimentRunner: a point is the unit of resume.

Three worker failure modes must each be isolated to their own point --
the function raising, exceeding the wall-clock timeout, and the worker
process dying outright (SIGKILL stands in for segfault/OOM) -- while
completed siblings stay cached and logged.  On top of that: bounded
retries with backoff, the ``point_end`` run log, corrupt-cache
quarantine, strict constructor validation, and fault campaigns that
resume by being run again on the same cache.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings

import pytest

from repro.faults.campaign import (
    CampaignSpec,
    FaultCampaign,
    run_campaign,
)
from repro.faults.injector import FaultWindow
from repro.flow.runner import (
    ExperimentRunner,
    PointFailure,
    point_key,
    stable_repr,
)
from repro.network.experiments import TopologyNocBuilder
from repro.network.topology import mesh
from repro.store import ResultStore
from repro.telemetry.registry import MetricsRegistry
from tests.harness import flip_final_payload_byte, point_outcomes


def _behave(point):
    """Worker whose behaviour is scripted by the point itself."""
    kind, payload = point
    if kind == "raise":
        raise ValueError(f"scripted failure: {payload}")
    if kind == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == "hang":
        time.sleep(float(payload))
    return payload * 2


def _pid(_point):
    return os.getpid()


def _flaky(point):
    """Fails until its marker file exists, then succeeds -- a transient
    fault that bounded retries must ride out.  The marker is created on
    the first (failing) attempt, so attempt two succeeds."""
    marker, value = point
    if os.path.exists(marker):
        return value * 10
    with open(marker, "w") as f:
        f.write("seen")
    raise RuntimeError("transient: first attempt always fails")


class TestFailureIsolation:
    def test_raising_worker_spares_siblings(self, tmp_path):
        runner = ExperimentRunner(jobs=2, store=ResultStore(str(tmp_path)))
        points = [("ok", 1), ("raise", "boom"), ("ok", 3)]
        with pytest.raises(ValueError, match="scripted failure: boom"):
            runner.map(_behave, points, label="pt")
        # Both healthy siblings finished, were cached, and logged --
        # the raise happened only after the whole batch settled.
        entries = point_outcomes(runner)
        ok = [e for e in entries if e["status"] == "ok"]
        failed = [e for e in entries if e["status"] == "failed"]
        assert len(ok) == 2 and len(failed) == 1
        assert failed[0]["kind"] == "error"
        rerun = ExperimentRunner(
            jobs=2, store=ResultStore(str(tmp_path)), on_failure="record"
        )
        results = rerun.map(_behave, points, label="pt")
        assert results[0] == 2 and results[2] == 6
        assert rerun.cache_hits == 2  # nothing recomputed

    def test_sigkilled_worker_is_a_crash_not_an_abort(self, tmp_path):
        runner = ExperimentRunner(
            jobs=2, store=ResultStore(str(tmp_path)), on_failure="record"
        )
        results = runner.map(
            _behave, [("ok", 1), ("sigkill", None), ("ok", 3)], label="pt"
        )
        assert results == [2, None, 6]
        assert runner.crash_count == 1 and runner.failure_count == 1
        [failure] = runner.failures
        assert failure.kind == "crash"
        assert "exitcode" in failure.message

    @pytest.mark.timeout_guard(60)
    def test_hung_worker_is_terminated_at_the_deadline(self, tmp_path):
        runner = ExperimentRunner(
            jobs=2, store=ResultStore(str(tmp_path)), timeout=1.0, on_failure="record"
        )
        t0 = time.monotonic()
        results = runner.map(
            _behave, [("ok", 1), ("hang", "30"), ("ok", 3)], label="pt"
        )
        assert time.monotonic() - t0 < 20, "timeout did not preempt the hang"
        assert results == [2, None, 6]
        [failure] = runner.failures
        assert failure.kind == "timeout"
        assert runner.timeout_count == 1

    def test_point_failure_carries_a_repro_bundle(self, tmp_path):
        runner = ExperimentRunner(jobs=2, on_failure="record")
        runner.map(_behave, [("raise", "why")], label="pt")
        [failure] = runner.failures
        assert isinstance(failure, PointFailure)
        assert failure.point_repr == stable_repr(("raise", "why"))
        assert failure.fn_repr == stable_repr(_behave)
        assert failure.attempts == 1
        assert "ValueError" in failure.traceback
        record = failure.as_record()
        json.dumps(record)  # the failed point_end's fields
        assert record["status"] == "failed"


class TestOnePool:
    """``jobs=N`` runs on the supervised long-lived pool -- there is no
    second, process-per-point pool behind ``ExperimentRunner``."""

    def test_workers_are_long_lived(self):
        pids = ExperimentRunner(jobs=2).map(_pid, range(12))
        assert len(set(pids)) <= 2
        assert os.getpid() not in pids

    @pytest.mark.timeout_guard(60)
    def test_poison_point_is_quarantined_not_retried_forever(self):
        runner = ExperimentRunner(
            jobs=2, retries=3, backoff=0.01, on_failure="record"
        )
        results = runner.map(
            _behave, [("ok", 1), ("sigkill", None), ("ok", 3)], label="pt"
        )
        assert results == [2, None, 6]
        [failure] = runner.failures
        assert failure.kind == "poisoned"
        assert "quarantined" in failure.message

    def test_flow_never_imports_serve(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = (
            "import sys; import repro.flow.runner, repro.flow.dse; "
            "sys.exit('repro.serve' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestRetries:
    def test_transient_failure_survives_with_retries(self, tmp_path):
        marker = str(tmp_path / "marker")
        runner = ExperimentRunner(jobs=2, retries=1, backoff=0.05)
        results = runner.map(_flaky, [(marker, 4)], label="pt")
        assert results == [40]
        assert runner.retry_count == 1 and runner.failure_count == 0

    def test_retries_are_bounded(self, tmp_path):
        runner = ExperimentRunner(
            jobs=2, retries=2, backoff=0.01, on_failure="record"
        )
        runner.map(_behave, [("raise", "always")], label="pt")
        [failure] = runner.failures
        assert failure.attempts == 3  # 1 try + 2 retries
        assert runner.retry_count == 2

    def test_inline_path_has_the_same_retry_semantics(self, tmp_path):
        marker = str(tmp_path / "marker")
        runner = ExperimentRunner(jobs=1, retries=1, backoff=0.01)
        assert runner.map(_flaky, [(marker, 4)]) == [40]
        assert runner.retry_count == 1


class TestDeterministicBackoffJitter:
    """Satellite: retry/backoff jitter is seeded from the sweep itself,
    so identical plans produce identical retry timelines."""

    def _session(self, backoff=0.5, label="jit", points=(1, 2, 3)):
        from repro.flow.runner import MapSession

        runner = ExperimentRunner(retries=3, backoff=backoff)
        return MapSession(runner, _behave, list(points), label)

    def test_same_plan_gives_identical_delays(self):
        grid = [(i, a, k) for i in range(3) for a in (1, 2, 3)
                for k in ("retry", "respawn")]
        one = [self._session().backoff_delay(i, a, k) for i, a, k in grid]
        two = [self._session().backoff_delay(i, a, k) for i, a, k in grid]
        assert one == two

    def test_jitter_varies_by_point_attempt_and_kind(self):
        s = self._session()
        assert s.backoff_delay(0, 1) != s.backoff_delay(1, 1)
        assert s.backoff_delay(0, 1, "retry") != s.backoff_delay(0, 1, "respawn")
        # Exponential base still dominates: attempt 2 > attempt 1.
        assert s.backoff_delay(0, 2) > s.backoff_delay(0, 1)

    def test_delays_bounded_by_jitter_fraction(self):
        s = self._session(backoff=0.5)
        for a in (1, 2, 3):
            base = 0.5 * (2 ** (a - 1))
            d = s.backoff_delay(0, a)
            assert base <= d <= base * 1.1

    def test_different_sweeps_get_different_jitter(self):
        a = self._session(label="sweep-a")
        b = self._session(label="sweep-b")
        assert a.backoff_delay(0, 1) != b.backoff_delay(0, 1)

    def test_two_identical_runs_emit_identical_retry_order(self, tmp_path):
        """End to end: same plan, two fresh runs, byte-comparable retry
        sequences in events.jsonl."""
        from repro.telemetry.events import read_events

        def trail(run_dir, marker_dir):
            os.makedirs(marker_dir)
            runner = ExperimentRunner(
                jobs=1, retries=1, backoff=0.01,
                events_path=os.path.join(run_dir, "events.jsonl"),
            )
            points = [(os.path.join(marker_dir, f"m{k}"), k) for k in range(4)]
            runner.map(_flaky, points, label="det")
            return [
                (r["event"], r["label"], r.get("attempt"))
                for r in read_events(runner.events_path)
                if r["event"] in ("retry", "point_start", "point_end")
            ]
        first = trail(str(tmp_path / "a"), str(tmp_path / "a-markers"))
        second = trail(str(tmp_path / "b"), str(tmp_path / "b-markers"))
        assert first and first == second


class TestJournalAndResume:
    def test_kill_and_resume_loses_zero_completed_points(self, tmp_path):
        # "Kill" = a batch where one point crashes hard; the survivors
        # must already be on disk when the crash is reported.
        first = ExperimentRunner(
            jobs=2, store=ResultStore(str(tmp_path)), on_failure="record"
        )
        first.map(_behave, [("ok", 1), ("sigkill", None), ("ok", 3)], label="pt")
        done = [
            rec["key"] for rec in point_outcomes(first)
            if rec["status"] == "ok"
        ]
        assert len(done) == 2
        # Resume is "run again on the same store": every logged-ok
        # key is a hit, with no flag asking for it.
        rerun = ExperimentRunner(
            jobs=2, store=ResultStore(str(tmp_path)), on_failure="record"
        )
        results = rerun.map(_behave, [("ok", 1), ("ok", 3)], label="pt")
        assert results == [2, 6]
        assert sorted(m.key for m in rerun.last_manifests) == sorted(done)
        assert rerun.cache_misses == 0, "a completed point was recomputed"
        assert rerun.cache_hits == 2

    def test_journal_survives_torn_writes(self, tmp_path):
        from repro.telemetry.events import read_events

        runner = ExperimentRunner(jobs=1, store=ResultStore(str(tmp_path)))
        runner.map(_behave, [("ok", 1)], label="pt")
        events_path = str(tmp_path / "events.jsonl")
        with open(events_path, "a") as f:
            f.write('{"key": "half-written')  # no newline, invalid JSON
        entries = point_outcomes(runner)
        assert len(entries) == 1  # torn tail skipped, good line kept
        # The resumed run's first record must not land on the torn line.
        runner.map(_behave, [("ok", 1), ("ok", 2)], label="pt")
        assert [(r["label"], r["status"]) for r in
                point_outcomes(runner)] == [
            ("pt[0]", "ok"), ("pt[1]", "ok"),
        ]
        starts = [r for r in read_events(events_path) if r["event"] == "run_start"]
        assert [(r["points"], r["cached"]) for r in starts] == [(1, 0), (2, 1)]

    def test_no_journal_without_a_cache_dir(self, tmp_path, monkeypatch):
        """Without a store or an ``events_path`` there is no stream
        file: a map writes nothing anywhere."""
        from repro.flow.runner import MapSession

        monkeypatch.chdir(tmp_path)
        runner = ExperimentRunner(jobs=1)
        assert MapSession(runner, _behave, []).events_path() is None
        assert runner.map(_behave, [("ok", 1)], label="pt") == [2]
        assert os.listdir(tmp_path) == []

    def test_read_journal_keeps_every_record_in_file_order(self, tmp_path):
        """The run log is read by ``read_events``: every object line in
        file order; blank, non-object and torn lines are skipped."""
        from repro.telemetry.events import read_events

        path = tmp_path / "events.jsonl"
        assert read_events(str(path)) == []  # no file yet
        path.write_text(
            '{"key": "a", "status": "failed"}\n'
            '\n'
            '[1, 2]\n'
            '{"status": "ok"}\n'
            '{"key": "a", "status": "ok"}\n'
            '{"key": "b", "status": "ok"}\n'
            '{"key": "c", "sta'
        )
        assert read_events(str(path)) == [
            {"key": "a", "status": "failed"}, {"status": "ok"},
            {"key": "a", "status": "ok"}, {"key": "b", "status": "ok"},
        ]


class TestCorruptCacheQuarantine:
    def test_corrupt_entry_is_quarantined_and_recomputed(self, tmp_path):
        runner = ExperimentRunner(jobs=1, store=ResultStore(str(tmp_path)))
        runner.map(_behave, [("ok", 5)], label="pt")
        key = point_key(_behave, ("ok", 5))
        segment = flip_final_payload_byte(runner.store, key)
        size = os.path.getsize(segment)
        metrics = MetricsRegistry()
        fresh = ExperimentRunner(
            jobs=1, store=ResultStore(str(tmp_path)), metrics=metrics
        )
        with pytest.warns(RuntimeWarning, match="quarantined"):
            results = fresh.map(_behave, [("ok", 5)], label="pt")
        assert results == [10]
        assert fresh.corrupt_cache_entries == 1
        assert fresh.store.corrupt_records == 1
        assert metrics.counter("runner.corrupt_cache_entries").value == 1
        # Dropped from the index, not renamed: the damaged bytes stay in
        # the segment until gc, and the recomputed record is appended.
        assert not any(n.endswith(".corrupt") for n in os.listdir(tmp_path))
        assert os.path.getsize(segment) == size
        assert fresh.store.record_path(key) != segment
        # The recomputed result was re-published under the original key.
        assert ResultStore(str(tmp_path)).get(key) == (True, 10)
        assert "corrupt_cache_entries=1" in fresh.render_report()

    def test_warning_fires_once_per_runner(self, tmp_path):
        runner = ExperimentRunner(jobs=1, store=ResultStore(str(tmp_path)))
        points = [("ok", 5), ("ok", 6)]
        runner.map(_behave, points, label="pt")
        for p in points:
            flip_final_payload_byte(runner.store, point_key(_behave, p))
        fresh = ExperimentRunner(jobs=1, store=ResultStore(str(tmp_path)))
        with pytest.warns(RuntimeWarning) as record:
            fresh.map(_behave, points, label="pt")
        assert len([w for w in record if w.category is RuntimeWarning]) == 1
        assert fresh.corrupt_cache_entries == 2


class TestLegacyPickleCacheIsIgnored:
    def test_stale_pkl_is_a_miss_kept_and_silent(self, tmp_path):
        runner = ExperimentRunner(jobs=1, store=ResultStore(str(tmp_path)))
        stale = tmp_path / f"{point_key(_behave, ('ok', 5))}.pkl"
        stale.write_bytes(pickle.dumps("from an older version"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert runner.map(_behave, [("ok", 5)], label="pt") == [10]
        assert runner.cache_misses == 1 and runner.cache_hits == 0
        assert runner.corrupt_cache_entries == 0
        assert stale.read_bytes() == pickle.dumps("from an older version")


class TestFromEnvValidation:
    def test_constructor_validates_too(self):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentRunner(jobs=0)
        with pytest.raises(ValueError, match="retries"):
            ExperimentRunner(retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            ExperimentRunner(timeout=0)
        with pytest.raises(ValueError, match="on_failure"):
            ExperimentRunner(on_failure="explode")


SPEC = CampaignSpec(
    builder=TopologyNocBuilder(factory=mesh, args=(2, 2)),
    windows=(FaultWindow("link.*", start=100, duration=400, error_rate=0.2),),
    rate=0.08,
    warmup_cycles=150,
    measure_cycles=650,
    seed=5,
    label="resume-me",
)


class TestCampaignCheckpointing:
    """The store is a campaign's only checkpoint: one record per point."""

    def test_fault_campaign_resumes_through_the_runner(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = FaultCampaign(
            [SPEC], runner=ExperimentRunner(jobs=2, store=ResultStore(cache))
        )
        want = first.run()
        second = FaultCampaign(
            [SPEC], runner=ExperimentRunner(jobs=2, store=ResultStore(cache))
        )
        got = second.run()
        assert second.runner.cache_hits == 1
        assert got == want


def _sweep_point(spec):
    """An s3-style campaign point that transiently fails for one spec:
    the first attempt at the faulted spec dies, the retry succeeds."""
    marker = os.path.join(spec_marker_dir(), "attempted")
    if spec.label == "flaky-once" and not os.path.exists(marker):
        with open(marker, "w") as f:
            f.write("1")
        os.kill(os.getpid(), signal.SIGKILL)
    return run_campaign(spec)


_MARKER_DIR = {"path": ""}


def spec_marker_dir() -> str:
    return _MARKER_DIR["path"]


class TestSweepUnderInjectedFailures:
    @pytest.mark.timeout_guard(180)
    def test_s3_style_sweep_completes_despite_a_dying_worker(self, tmp_path):
        """The acceptance scenario: a resilience-style sweep where one
        worker is killed mid-point completes under retries, with every
        point's result present."""
        _MARKER_DIR["path"] = str(tmp_path)
        builder = TopologyNocBuilder(factory=mesh, args=(2, 2))
        specs = [
            CampaignSpec(builder=builder, rate=0.05, warmup_cycles=100,
                         measure_cycles=400, label="healthy-1"),
            CampaignSpec(builder=builder, rate=0.05, warmup_cycles=100,
                         measure_cycles=400, seed=1, label="flaky-once"),
            CampaignSpec(builder=builder, rate=0.05, warmup_cycles=100,
                         measure_cycles=400, seed=2, label="healthy-2"),
        ]
        runner = ExperimentRunner(
            jobs=2, store=ResultStore(str(tmp_path / "cache")), retries=1, backoff=0.05
        )
        results = runner.map(_sweep_point, specs, label="campaign")
        assert [r.label for r in results] == ["healthy-1", "flaky-once", "healthy-2"]
        assert runner.crash_count == 1 and runner.retry_count == 1
        assert runner.failure_count == 0
