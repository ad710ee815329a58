"""WorkStealingDispatcher: scheduling on top of the runner's session."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.flow.pool import WorkStealingDispatcher
from repro.flow.runner import ExperimentRunner, PointFailure
from repro.store import ResultStore
from repro.telemetry.events import (
    EventCollector,
    install_sink,
    read_events,
    remove_sink,
)
from tests.harness import point_outcomes


def _square(x):
    """Module-level so worker processes can unpickle it."""
    return x * x


def _boom(x):
    raise ValueError(f"point {x} exploded")


def _flaky(path):
    """Fails until its marker file exists; creates it on first failure."""
    if os.path.exists(path):
        return "recovered"
    open(path, "w").close()
    raise RuntimeError("first attempt fails")


def _hang(x):
    time.sleep(60)
    return x


def _die(x):
    os._exit(17)


class TestMapContract:
    def test_results_in_input_order(self):
        runner = ExperimentRunner(jobs=2)
        disp = WorkStealingDispatcher(runner, workers=3)
        assert disp.map(_square, list(range(10))) == [x * x for x in range(10)]
        assert disp.dispatched == 10

    def test_matches_serial_runner_exactly(self):
        serial = ExperimentRunner().map(_square, [3, 1, 4, 1, 5])
        disp = WorkStealingDispatcher(ExperimentRunner(), workers=2)
        assert disp.map(_square, [3, 1, 4, 1, 5]) == serial

    def test_single_point_single_worker(self):
        disp = WorkStealingDispatcher(ExperimentRunner(), workers=4)
        assert disp.map(_square, [7]) == [49]

    def test_empty_batch(self):
        disp = WorkStealingDispatcher(ExperimentRunner())
        assert disp.map(_square, []) == []
        assert disp.dispatched == 0

    def test_workers_default_and_validation(self):
        assert WorkStealingDispatcher(ExperimentRunner()).workers == 2
        assert WorkStealingDispatcher(ExperimentRunner(jobs=5)).workers == 5
        with pytest.raises(ValueError, match="workers"):
            WorkStealingDispatcher(ExperimentRunner(), workers=0)

    def test_reports_and_render(self):
        runner = ExperimentRunner()
        disp = WorkStealingDispatcher(runner, workers=2)
        disp.map(_square, [1, 2], label="wsd")
        assert [r.label for r in runner.reports] == ["wsd[0]", "wsd[1]"]
        report = disp.render_report()
        assert "steals=" in report and "dispatched=2" in report


class TestStoreIntegration:
    def test_second_sweep_is_all_hits_no_dispatch(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        disp = WorkStealingDispatcher(
            ExperimentRunner(store=store), workers=2
        )
        assert disp.map(_square, [2, 3, 4]) == [4, 9, 16]
        assert disp.dispatched == 3 and len(store) == 3

        runner2 = ExperimentRunner(store=ResultStore(tmp_path / "store"))
        disp2 = WorkStealingDispatcher(runner2, workers=2)
        assert disp2.map(_square, [2, 3, 4]) == [4, 9, 16]
        assert runner2.cache_hits == 3 and disp2.dispatched == 0


class TestFailureMachinery:
    def test_exception_propagates_with_original_type(self):
        disp = WorkStealingDispatcher(ExperimentRunner(), workers=2)
        with pytest.raises(ValueError, match="exploded"):
            disp.map(_boom, [1])

    def test_collect_keeps_going(self):
        runner = ExperimentRunner(on_failure="record")
        disp = WorkStealingDispatcher(runner, workers=2)
        out = disp.map(_boom, [1, 2])
        assert out == [None, None]
        assert len(runner.failures) == 2
        assert all(isinstance(f, PointFailure) for f in runner.failures)

    def test_retry_recovers_flaky_point(self, tmp_path):
        runner = ExperimentRunner(retries=1, backoff=0.01)
        disp = WorkStealingDispatcher(runner, workers=2)
        marker = str(tmp_path / "flaky.marker")
        assert disp.map(_flaky, [marker]) == ["recovered"]
        assert runner.retry_count == 1

    def test_timeout_kills_and_respawns_worker(self):
        runner = ExperimentRunner(
            on_failure="record", retries=1, backoff=0.01, timeout=0.5
        )
        disp = WorkStealingDispatcher(runner, workers=2)
        out = disp.map(_hang, [1])
        assert out == [None]
        # The first timeout kills the worker; the retry needs a revived
        # slot, so by the time the sweep ends at least one respawn ran.
        assert disp.worker_restarts >= 1
        assert runner.timeout_count == 2
        assert "wall-clock" in runner.failures[0].message

    def test_worker_crash_is_charged_to_its_point_only(self):
        runner = ExperimentRunner(on_failure="record", retries=1, backoff=0.01)
        disp = WorkStealingDispatcher(runner, workers=2)
        out = disp.map(_die, [1])
        assert out == [None]
        assert disp.worker_restarts >= 1 and runner.crash_count == 2
        assert "exitcode 17" in runner.failures[0].message
        assert disp.poisoned == 0  # streak 2 < default threshold 3

    def test_unpicklable_point_is_charged_to_that_point_only(self, tmp_path):
        runner = ExperimentRunner(
            on_failure="record", events_path=str(tmp_path / "events.jsonl")
        )
        disp = WorkStealingDispatcher(runner, workers=2)
        assert disp.map(_square, [1, threading.Lock(), 3]) == [1, None, 9]
        [failure] = runner.failures
        assert failure.kind == "error" and failure.label == "point[1]"
        assert "does not pickle" in failure.message
        assert disp.worker_restarts == 0
        ends = [e for e in read_events(str(tmp_path / "events.jsonl"))
                if e["event"] == "point_end"]
        assert sorted(e["status"] for e in ends) == ["failed", "ok", "ok"]

    def test_unpicklable_point_is_journaled_and_raised_last(self, tmp_path):
        runner = ExperimentRunner(jobs=2, store=ResultStore(str(tmp_path)))
        with pytest.raises(TypeError, match="pickle"):
            runner.map(_square, [1, threading.Lock(), 3])
        statuses = sorted(e["status"] for e in point_outcomes(runner))
        assert statuses == ["failed", "ok", "ok"]

    def test_unpicklable_fn_is_refused_before_any_spawn(self):
        disp = WorkStealingDispatcher(ExperimentRunner(), workers=2)
        before = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match="<lambda>"):
            disp.map(lambda x: x, [1, 2])
        assert disp.dispatched == 0
        assert set(multiprocessing.active_children()) == before
        with pytest.raises(ValueError, match="does not pickle"):
            ExperimentRunner(jobs=2).map(lambda x: x, [1, 2])

    def test_crash_does_not_poison_other_points(self):
        runner = ExperimentRunner(on_failure="record")
        disp = WorkStealingDispatcher(runner, workers=2)

        out = disp.map(_die_on_three, [1, 2, 3, 4, 5])
        assert out == [1, 4, None, 16, 25]
        assert len(runner.failures) == 1


def _square_after_stopping_once(point):
    """SIGSTOPs its own worker on the first attempt (the marker file
    says one happened), squares on the next."""
    x, marker = point
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGSTOP)
    return x * x


class TestSupervision:
    def test_knob_validation(self):
        runner = ExperimentRunner()
        with pytest.raises(ValueError, match="heartbeat"):
            WorkStealingDispatcher(runner, heartbeat=0.0)
        with pytest.raises(ValueError, match="liveness"):
            WorkStealingDispatcher(runner, heartbeat=1.0, liveness=0.5)
        with pytest.raises(ValueError, match="poison_threshold"):
            WorkStealingDispatcher(runner, poison_threshold=0)
        with pytest.raises(ValueError, match="restart_budget"):
            WorkStealingDispatcher(runner, restart_budget=-1)

    def test_stalled_worker_detected_killed_and_point_retried(self, tmp_path):
        """A SIGSTOPped worker stops heartbeating; the liveness deadline
        must reclaim it and re-attempt only the point it held."""
        runner = ExperimentRunner(retries=1, backoff=0.01)
        disp = WorkStealingDispatcher(
            runner, workers=2, heartbeat=0.05, liveness=0.5,
        )
        collector = install_sink(EventCollector())
        try:
            out = disp.map(_square_after_stopping_once,
                           [(5, str(tmp_path / "stopped"))], label="stall")
        finally:
            remove_sink(collector)
        assert out == [25]
        assert disp.stalls == 1
        assert runner.stall_count == 1
        stall_events = [
            r for r in collector.records if r["event"] == "worker_stall"
        ]
        assert len(stall_events) == 1
        assert stall_events[0]["label"] == "stall[0]"
        assert stall_events[0]["silent_for"] >= 0.5
        assert "slot" in stall_events[0]

    def test_heartbeats_keep_slow_point_alive(self):
        """A healthy-but-slow point must never trip the liveness check:
        heartbeats arrive every 0.05s while it sleeps past the 0.4s
        deadline."""
        runner = ExperimentRunner()
        disp = WorkStealingDispatcher(
            runner, workers=1, heartbeat=0.05, liveness=0.4
        )
        assert disp.map(_sleep_then_square, [3]) == [9]
        assert disp.stalls == 0

    def test_poison_point_quarantined_after_consecutive_kills(self):
        runner = ExperimentRunner(
            on_failure="record", retries=5, backoff=0.01
        )
        disp = WorkStealingDispatcher(
            runner, workers=2, poison_threshold=2
        )
        collector = install_sink(EventCollector())
        try:
            out = disp.map(_die, [1], label="pill")
        finally:
            remove_sink(collector)
        assert out == [None]
        assert disp.poisoned == 1
        assert runner.failures[0].kind == "poisoned"
        assert "quarantined" in runner.failures[0].message
        poisoned_events = [
            r for r in collector.records if r["event"] == "poisoned"
        ]
        assert len(poisoned_events) == 1
        assert poisoned_events[0]["worker_kills"] == 2

    def test_clean_error_breaks_the_kill_streak(self):
        """Ordinary exceptions are not poison: the worker survives and
        reports, so the streak resets and retries run their course."""
        runner = ExperimentRunner(
            on_failure="record", retries=3, backoff=0.01
        )
        disp = WorkStealingDispatcher(runner, workers=2, poison_threshold=2)
        out = disp.map(_boom, [1])
        assert out == [None]
        assert disp.poisoned == 0
        assert runner.failures[0].kind == "error"

    def test_restart_budget_exhaustion_fails_queued_points_explicitly(self):
        runner = ExperimentRunner(on_failure="record")
        disp = WorkStealingDispatcher(
            runner, workers=2, restart_budget=0
        )
        out = disp.map(_die, [1, 2, 3, 4])
        assert out == [None] * 4
        assert disp.worker_restarts == 0
        assert len(runner.failures) == 4
        budget_failures = [
            f for f in runner.failures if "restart budget" in f.message
        ]
        assert len(budget_failures) == 2  # the two never-dispatched points

    def test_no_orphan_workers_after_raising_sweep(self):
        """Satellite: the deferred first-failure re-raise (or a ^C) must
        tear down every worker process on its way out."""
        before = {c.pid for c in multiprocessing.active_children()}
        disp = WorkStealingDispatcher(ExperimentRunner(), workers=3)
        with pytest.raises(ValueError, match="exploded"):
            disp.map(_boom, [1, 2, 3, 4, 5, 6])
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leaked = [
                c for c in multiprocessing.active_children()
                if c.pid not in before and c.is_alive()
            ]
            if not leaked:
                break
            time.sleep(0.05)
        assert leaked == []


class TestStealing:
    def test_steals_counted_and_emitted(self):
        """One straggler shard forces the drained workers to steal."""
        runner = ExperimentRunner(on_failure="record")
        disp = WorkStealingDispatcher(runner, workers=2)
        collector = install_sink(EventCollector())
        try:
            # Even indices (worker 0's shard) are slow; worker 1
            # drains its own shard and must steal from worker 0.
            out = disp.map(_slow_even, list(range(8)))
        finally:
            remove_sink(collector)
        assert out == [x * x for x in range(8)]
        assert disp.steals >= 1
        steal_events = [
            r for r in collector.records if r["event"] == "steal"
        ]
        assert len(steal_events) == disp.steals
        ev = steal_events[0]
        assert {"label", "key", "thief", "victim"} <= set(ev)
        assert ev["thief"] != ev["victim"]

    def test_all_points_complete_under_stealing(self):
        runner = ExperimentRunner()
        disp = WorkStealingDispatcher(runner, workers=4)
        assert disp.map(_slow_even, list(range(12))) == [
            x * x for x in range(12)
        ]


def _die_on_three(x):
    if x == 3:
        os._exit(21)
    return x * x


def _slow_even(x):
    if x % 2 == 0:
        time.sleep(0.2)
    return x * x


def _sleep_then_square(x):
    time.sleep(0.8)
    return x * x
