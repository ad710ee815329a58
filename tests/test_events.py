"""The fleet event stream: sinks, runner/campaign emission, replay.

Covers the ``repro.telemetry.events/v1`` contracts from
docs/OBSERVABILITY.md ("Fleet telemetry"): the process-local sink
stack, the append-only torn-tolerant ``events.jsonl`` format, the
validator, worker-to-parent event forwarding through
:class:`ExperimentRunner`, replicated-campaign ``lane_batch`` /
``checkpoint`` emission, the kill-and-resume replay guarantee, the
Chrome-trace export (golden-filed) and the ``repro top`` dashboard
built on :func:`replay_summary`.

Regenerate the Chrome-trace snapshot with::

    PYTHONPATH=src:. python - <<'PY'
    from tests.test_events import GOLDEN_RECORDS
    from repro.telemetry.events import events_chrome_trace_json
    open("tests/data/golden_campaign_trace.json", "w").write(
        events_chrome_trace_json(GOLDEN_RECORDS) + "\n")
    PY
"""

import json
import os

import pytest

from repro.faults import CampaignSpec, FaultWindow, run_campaign
from repro.sim.snapshot import SimSnapshot
from repro.flow.runner import ExperimentRunner
from repro.network.experiments import TopologyNocBuilder
from repro.network.noc import NocBuildConfig
from repro.network.topology import mesh
from repro.telemetry import (
    EVENT_TYPES,
    EVENTS_SCHEMA,
    EventCollector,
    EventWriter,
    TelemetryError,
    emit,
    events_to_chrome_trace,
    install_sink,
    read_events,
    remove_sink,
    replay_summary,
    validate_events,
)
from repro.telemetry import events as events_mod
from repro.telemetry.events import events_chrome_trace_json
from repro.telemetry.top import (
    eta_seconds,
    lane_throughput,
    load_summary,
    render_dashboard,
    summary_registry,
    write_prometheus,
)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN_TRACE = os.path.join(DATA, "golden_campaign_trace.json")


@pytest.fixture(autouse=True)
def _no_leaked_sinks():
    """Every test must leave the process-local sink stack empty."""
    yield
    assert events_mod.current_sink() is None, "test leaked an event sink"


def rec(seq, pid, t, event, **fields):
    base = {"schema": EVENTS_SCHEMA, "seq": seq, "pid": pid, "t": t,
            "event": event}
    base.update(fields)
    return base


# A fixed two-process campaign stream: parent pid 100 runs the map,
# worker pid 101 contributes a forwarded checkpoint, point 1 retries
# once, point 0 is a cache hit, and two replica lanes finish.
GOLDEN_RECORDS = [
    rec(1, 100, 1000.0, "run_start", label="sweep", points=3, pending=2,
        cached=1, jobs=2),
    rec(2, 100, 1000.001, "point_end", label="sweep[0]", key="k0",
        status="ok", seconds=0.0, attempts=0, cached=True),
    rec(3, 100, 1000.002, "point_start", label="sweep[1]", key="k1",
        attempt=1),
    rec(1, 101, 1000.010, "checkpoint", cycle=300, lane=None),
    rec(4, 100, 1000.050, "retry", label="sweep[1]", key="k1", attempt=1,
        kind="error", message="ValueError: boom"),
    rec(5, 100, 1000.051, "point_start", label="sweep[1]", key="k1",
        attempt=2),
    rec(6, 100, 1000.120, "point_end", label="sweep[1]", key="k1",
        status="ok", seconds=0.069, attempts=2, cached=False),
    rec(7, 100, 1000.130, "lane_batch", lane=0, replicas=2,
        metrics={"cycles_run": 1400.0, "completed": 21.0}, digest="aa" * 32),
    rec(8, 100, 1000.140, "lane_batch", lane=1, replicas=2,
        metrics={"cycles_run": 1400.0, "completed": 19.0}, digest="bb" * 32),
    rec(9, 100, 1000.150, "point_end", label="sweep[2]", key="k2",
        status="failed", seconds=0.120, attempts=1, cached=False,
        kind="timeout", message="exceeded 0.1s"),
    rec(10, 100, 1000.160, "run_end", label="sweep", ok=1, failed=1,
        cached=1, retries=1),
]


def small_spec(**kw):
    builder = TopologyNocBuilder(
        mesh, (2, 2), n_initiators=2, n_targets=2,
        config=NocBuildConfig(
            ni_txn_timeout=300, ni_txn_retries=1, link_resync_timeout=40,
        ),
    )
    defaults = dict(
        builder=builder,
        windows=(FaultWindow("link.*", start=150, duration=400,
                             error_rate=0.05),),
        rate=0.08, warmup_cycles=100, measure_cycles=800, seed=3,
        label="events-test",
    )
    defaults.update(kw)
    return CampaignSpec(**defaults)


# ---------------------------------------------------------------------------
# sink stack
# ---------------------------------------------------------------------------
class TestSinkStack:
    def test_emit_without_sink_is_a_noop(self):
        assert emit("checkpoint", cycle=1) is None

    def test_collector_receives_schema_stamped_records(self):
        col = install_sink(EventCollector())
        try:
            out = emit("checkpoint", cycle=7, lane=None)
        finally:
            remove_sink(col)
        assert col.records == [out]
        r = col.records[0]
        assert r["schema"] == EVENTS_SCHEMA
        assert r["event"] == "checkpoint"
        assert r["cycle"] == 7
        assert r["pid"] == os.getpid()
        assert isinstance(r["seq"], int) and isinstance(r["t"], float)

    def test_top_sink_shadows_the_one_below(self):
        outer = install_sink(EventCollector())
        inner = install_sink(EventCollector())
        try:
            emit("checkpoint", cycle=1)
        finally:
            remove_sink(inner)
        try:
            emit("checkpoint", cycle=2)
        finally:
            remove_sink(outer)
        assert [r["cycle"] for r in inner.records] == [1]
        assert [r["cycle"] for r in outer.records] == [2]

    def test_remove_absent_sink_is_a_noop(self):
        remove_sink(EventCollector())  # must not raise

    def test_forward_keeps_records_verbatim(self):
        col = install_sink(EventCollector())
        try:
            n = events_mod.forward(GOLDEN_RECORDS[:3])
        finally:
            remove_sink(col)
        assert n == 3
        assert col.records == GOLDEN_RECORDS[:3]
        assert col.records[0]["pid"] == 100  # not rewritten to ours


# ---------------------------------------------------------------------------
# writer / reader
# ---------------------------------------------------------------------------
class TestEventWriterReader:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventWriter(path) as w:
            for r in GOLDEN_RECORDS:
                w.write(r)
        assert read_events(path) == GOLDEN_RECORDS

    def test_torn_tail_and_garbage_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventWriter(path) as w:
            w.write(GOLDEN_RECORDS[0])
            w.write(GOLDEN_RECORDS[1])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro.telemetry.events/v1", "seq": 99')
        assert read_events(path) == GOLDEN_RECORDS[:2]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_events(str(tmp_path / "nope.jsonl")) == []

    def test_closed_writer_raises(self, tmp_path):
        w = EventWriter(str(tmp_path / "e.jsonl"))
        w.close()
        with pytest.raises(TelemetryError, match="closed"):
            w.write(GOLDEN_RECORDS[0])

    def test_append_mode_merges_two_writers(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventWriter(path) as w:
            w.write(GOLDEN_RECORDS[0])
        with EventWriter(path) as w:  # a resumed process re-opens
            w.write(GOLDEN_RECORDS[1])
        assert read_events(path) == GOLDEN_RECORDS[:2]


class TestConcurrentTailing:
    """Satellite: cursor-based tailing under a live writer.

    The HTTP job endpoint's :func:`repro.serve.http._tail_events` must
    never re-deliver or drop a record as the writer races it: a torn
    mid-record tail is withheld (not skipped!), and delivered exactly
    once when the writer finishes the line.
    """

    def _record(self, seq):
        return {"schema": EVENTS_SCHEMA, "event": "checkpoint",
                "seq": seq, "pid": 1, "t": float(seq)}

    def test_torn_tail_is_withheld_then_delivered_once(self, tmp_path):
        from repro.serve.http import _tail_events

        path = str(tmp_path / "events.jsonl")
        full = [json.dumps(self._record(s)) for s in range(1, 5)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(full[:3]) + "\n")
            fh.write(full[3][:10])  # the writer is mid-line
        got = _tail_events(path, 0)
        assert [r["seq"] for r in got] == [1, 2, 3]
        cursor = 0 + len(got)  # exactly the contract the endpoint uses
        assert _tail_events(path, cursor) == []  # torn: not yet
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(full[3][10:] + "\n")  # the writer finishes the line
        got2 = _tail_events(path, cursor)
        assert [r["seq"] for r in got2] == [4]
        assert _tail_events(path, cursor + len(got2)) == []

    def test_cursor_walk_covers_stream_exactly_once(self, tmp_path):
        """A reader polling with ``since=next`` while a writer appends
        sees every record exactly once, in order."""
        import threading
        import time as _time

        from repro.serve.http import _tail_events

        path = str(tmp_path / "events.jsonl")
        total = 60

        def writer():
            with EventWriter(path) as w:
                for s in range(1, total + 1):
                    w.write(self._record(s))
                    if s % 7 == 0:
                        _time.sleep(0.005)

        t = threading.Thread(target=writer)
        t.start()
        seen = []
        cursor = 0
        deadline = _time.monotonic() + 30
        while len(seen) < total and _time.monotonic() < deadline:
            batch = _tail_events(path, cursor)
            cursor += len(batch)
            seen.extend(batch)
        t.join(10)
        assert [r["seq"] for r in seen] == list(range(1, total + 1))

    def test_read_events_sees_a_clean_prefix_mid_write(self, tmp_path):
        """``read_events`` under a concurrent writer returns complete
        records only -- always a prefix, never a mangled line."""
        path = str(tmp_path / "events.jsonl")
        records = [self._record(s) for s in range(1, 4)]
        with open(path, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(json.dumps(r) + "\n")
            fh.write('{"schema": "repro.telemetry.events/v1", "se')
        assert read_events(path) == records
        validate_events(read_events(path))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
class TestValidateEvents:
    def test_golden_stream_validates(self):
        validate_events(GOLDEN_RECORDS)

    def test_bad_schema_flagged(self):
        bad = dict(GOLDEN_RECORDS[0], schema="nope/v0")
        with pytest.raises(TelemetryError, match="schema"):
            validate_events([bad])

    def test_unknown_event_flagged(self):
        bad = rec(1, 100, 1.0, "telepathy")
        with pytest.raises(TelemetryError, match="unknown event"):
            validate_events([bad])

    def test_seq_regression_flagged(self):
        records = [rec(5, 100, 1.0, "checkpoint", cycle=1),
                   rec(4, 100, 2.0, "checkpoint", cycle=2)]
        with pytest.raises(TelemetryError, match="seq went 5 -> 4"):
            validate_events(records)

    def test_seq_restart_at_one_is_pid_reuse_not_an_error(self):
        validate_events([rec(5, 100, 1.0, "checkpoint", cycle=1),
                         rec(1, 100, 2.0, "checkpoint", cycle=2)])

    def test_errors_are_itemized(self):
        bad = [rec(0, 0, "soon", "telepathy")]
        with pytest.raises(TelemetryError) as exc:
            validate_events(bad)
        msg = str(exc.value)
        for fragment in ("unknown event", "seq", "pid", "not a number"):
            assert fragment in msg

    def test_bool_is_not_a_valid_seq(self):
        with pytest.raises(TelemetryError, match="seq"):
            validate_events([rec(True, 100, 1.0, "checkpoint")])


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------
class TestReplaySummary:
    def test_golden_stream_replays_to_the_campaign_summary(self):
        s = replay_summary(GOLDEN_RECORDS)
        assert s["label"] == "sweep"
        assert s["points_expected"] == 3
        assert (s["ok"], s["failed"], s["cached"]) == (1, 1, 1)
        assert s["retries"] == 1
        assert s["checkpoints"] == 1
        assert s["finished"] == pytest.approx(1000.160)
        assert s["points"]["sweep[0]"]["status"] == "cached"
        assert s["points"]["sweep[1]"]["status"] == "ok"
        assert s["points"]["sweep[1]"]["retries"] == 1
        assert s["points"]["sweep[2]"]["status"] == "failed"
        assert s["running"] == []
        assert sorted(s["lanes"]) == [0, 1]
        assert s["digests"] == ["aa" * 32, "bb" * 32]
        assert s["lane_metrics"]["completed"] == (21.0, 19.0)

    def test_unfinished_point_shows_as_running(self):
        s = replay_summary(GOLDEN_RECORDS[:3])
        assert s["running"] == ["sweep[1]"]
        assert s["finished"] is None

    def test_duplicate_lane_batch_keeps_the_last(self):
        dup = rec(11, 102, 1001.0, "lane_batch", lane=0, replicas=2,
                  metrics={"cycles_run": 1400.0, "completed": 21.0},
                  digest="cc" * 32)
        s = replay_summary(GOLDEN_RECORDS + [dup])
        assert s["digests"][0] == "cc" * 32
        assert len(s["lanes"]) == 2


# ---------------------------------------------------------------------------
# the experiment runner emits (and forwards) events
# ---------------------------------------------------------------------------
def _square(x):
    return x * x


def _square_with_worker_event(x):
    emit("checkpoint", cycle=x)
    return x * x


def _fail_unless_marker(arg):
    """Fails until the marker file exists (cross-process retry state)."""
    marker, x = arg
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise ValueError("first attempt fails")
    return x


def _always_fails(x):
    raise ValueError("hopeless")


class TestRunnerEvents:
    def events_of(self, cache):
        records = read_events(os.path.join(str(cache), "events.jsonl"))
        validate_events(records)
        return records

    def test_inline_run_emits_full_lifecycle(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path))
        assert runner.map(_square, [2, 3], label="sq") == [4, 9]
        records = self.events_of(tmp_path)
        kinds = [r["event"] for r in records]
        assert kinds == ["run_start", "point_start", "point_end",
                         "point_start", "point_end", "run_end"]
        s = replay_summary(records)
        assert (s["ok"], s["failed"], s["cached"]) == (2, 0, 0)
        assert s["jobs"] == 1

    def test_cache_hits_emit_cached_point_end(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path))
        runner.map(_square, [2, 3], label="sq")
        runner.map(_square, [2, 3], label="sq")
        s = replay_summary(self.events_of(tmp_path))
        assert s["cached"] == 2
        assert all(p["status"] == "cached" for p in s["points"].values())

    def test_inline_retry_and_failure_events(self, tmp_path):
        cache = tmp_path / "cache"
        runner = ExperimentRunner(
            cache_dir=str(cache), retries=1, backoff=0.0, on_failure="record",
        )
        marker = str(tmp_path / "marker")
        out = runner.map(
            _fail_unless_marker, [(marker, 5)], label="flaky",
        )
        assert out == [5]
        runner.map(_always_fails, ["x"], label="doomed", retries=0)
        records = self.events_of(cache)
        s = replay_summary(records)
        assert s["retries"] == 1
        assert s["points"]["flaky[0]"]["status"] == "ok"
        assert s["points"]["doomed[0]"]["status"] == "failed"
        retry = next(r for r in records if r["event"] == "retry")
        assert "first attempt fails" in retry["message"]

    def test_pool_forwards_worker_events_with_worker_pid(self, tmp_path):
        runner = ExperimentRunner(jobs=2, cache_dir=str(tmp_path))
        assert runner.map(
            _square_with_worker_event, [2, 3], label="pool",
        ) == [4, 9]
        records = self.events_of(tmp_path)
        s = replay_summary(records)
        assert (s["ok"], s["failed"]) == (2, 0)
        assert s["checkpoints"] == 2  # one forwarded from each worker
        worker_pids = {
            r["pid"] for r in records if r["event"] == "checkpoint"
        }
        assert worker_pids and os.getpid() not in worker_pids

    def test_pool_retry_emits_events(self, tmp_path):
        cache = tmp_path / "cache"
        runner = ExperimentRunner(
            jobs=2, cache_dir=str(cache), retries=1, backoff=0.0,
        )
        marker = str(tmp_path / "marker")
        assert runner.map(
            _fail_unless_marker, [(marker, 7)], label="flaky",
        ) == [7]
        records = self.events_of(cache)
        assert sum(r["event"] == "retry" for r in records) == 1
        assert replay_summary(records)["points"]["flaky[0]"]["retries"] == 1

    def test_events_path_empty_string_disables_the_stream(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path), events_path="")
        runner.map(_square, [2], label="quiet")
        assert not os.path.exists(tmp_path / "events.jsonl")

    def test_explicit_events_path_overrides_cache_dir(self, tmp_path):
        path = str(tmp_path / "elsewhere" / "ev.jsonl")
        runner = ExperimentRunner(cache_dir=str(tmp_path), events_path=path)
        runner.map(_square, [2], label="sq")
        assert not os.path.exists(tmp_path / "events.jsonl")
        records = read_events(path)
        validate_events(records)
        assert replay_summary(records)["ok"] == 1


# ---------------------------------------------------------------------------
# replicated campaigns emit lane batches + checkpoints
# ---------------------------------------------------------------------------
class TestCampaignEvents:
    @pytest.mark.timeout_guard(240)
    def test_lane_batches_replay_to_the_campaign_result(self):
        col = install_sink(EventCollector())
        try:
            result = run_campaign(small_spec(), 3)
        finally:
            remove_sink(col)
        validate_events(col.records)
        s = replay_summary(col.records)
        assert sorted(s["lanes"]) == [0, 1, 2]
        assert s["lane_metrics"] == {
            name: tuple(values)
            for name, values in result.lane_metrics.items()
        }
        assert all(
            lane["replicas"] == 3 for lane in s["lanes"].values()
        )
        assert all(isinstance(d, str) and len(d) == 64 for d in s["digests"])

    @pytest.mark.timeout_guard(240)
    def test_no_sink_means_no_digest_hashing_and_same_result(self):
        quiet = run_campaign(small_spec(), 2)
        col = install_sink(EventCollector())
        try:
            watched = run_campaign(small_spec(), 2)
        finally:
            remove_sink(col)
        assert watched.lane_metrics == quiet.lane_metrics
        assert watched == quiet

    @pytest.mark.timeout_guard(240)
    def test_killed_and_resumed_stream_replays_to_the_final_result(
        self, tmp_path, monkeypatch
    ):
        """The tier-1 version of the batch-smoke guarantee: interrupt a
        checkpointing replicated campaign mid-run, resume into the same
        events.jsonl, and the merged stream must replay to the resumed
        campaign's lane metrics (duplicates deduplicate last-wins)."""
        spec = small_spec()
        events_path = str(tmp_path / "events.jsonl")
        saves = {"n": 0}
        real_save = SimSnapshot.save

        def dying_save(snap, path):
            real_save(snap, path)
            saves["n"] += 1
            if saves["n"] >= 2:
                raise KeyboardInterrupt("simulated SIGKILL")

        monkeypatch.setattr(SimSnapshot, "save", dying_save)
        writer = install_sink(EventWriter(events_path))
        try:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(
                    spec, 3, checkpoint_every=300,
                    checkpoint_dir=str(tmp_path),
                )
        finally:
            remove_sink(writer)
            writer.close()
        monkeypatch.setattr(SimSnapshot, "save", real_save)

        writer = install_sink(EventWriter(events_path))
        try:
            resumed = run_campaign(
                spec, 3, checkpoint_every=300, checkpoint_dir=str(tmp_path),
                resume=True,
            )
        finally:
            remove_sink(writer)
            writer.close()

        records = read_events(events_path)
        validate_events(records)
        s = replay_summary(records)
        assert s["checkpoints"] >= 2  # pre-kill checkpoints survived
        assert s["lane_metrics"] == {
            name: tuple(values)
            for name, values in resumed.lane_metrics.items()
        }


# ---------------------------------------------------------------------------
# Chrome-trace export
# ---------------------------------------------------------------------------
class TestChromeTraceExport:
    def test_matches_the_golden_snapshot(self):
        got = events_chrome_trace_json(GOLDEN_RECORDS) + "\n"
        with open(GOLDEN_TRACE, encoding="utf-8") as fh:
            assert got == fh.read()

    def test_export_is_valid_json_with_the_campaign_plane(self):
        doc = json.loads(events_chrome_trace_json(GOLDEN_RECORDS))
        events = doc["traceEvents"]
        assert doc["otherData"]["schema"] == EVENTS_SCHEMA
        pids = {e["pid"] for e in events}
        assert pids == {events_mod.CAMPAIGN_TRACE_PID}
        process = next(e for e in events if e["name"] == "process_name")
        assert process["args"]["name"] == "repro campaign"

    def test_points_become_spans_and_retries_instants(self):
        events = events_to_chrome_trace(GOLDEN_RECORDS)
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["cat"] for e in spans} == {"run", "point"}
        point1 = next(
            e for e in spans if e["name"] == "sweep[1]" and not e["args"]["cached"]
        )
        # Opened by its first point_start (t=1000.002 -> 2000us).
        assert point1["ts"] == 2000
        assert point1["args"]["attempts"] == 2
        instants = {e["cat"] for e in events if e["ph"] == "i"}
        assert instants == {"retry", "checkpoint", "lane"}

    def test_cached_point_without_start_gets_a_synthetic_span(self):
        events = events_to_chrome_trace(GOLDEN_RECORDS)
        cached = next(e for e in events if e.get("args", {}).get("cached"))
        assert cached["ph"] == "X" and cached["dur"] >= 1

    def test_empty_stream_exports_nothing(self):
        assert events_to_chrome_trace([]) == []


# ---------------------------------------------------------------------------
# the dashboard layer
# ---------------------------------------------------------------------------
class TestDashboard:
    def test_render_dashboard_frame(self):
        s = replay_summary(GOLDEN_RECORDS)
        frame = render_dashboard(s, "/some/run")
        assert "repro top -- /some/run" in frame
        assert "points: 3 total | 1 ok, 1 failed, 1 cached" in frame
        assert "[finished]" in frame
        assert "retries: 1" in frame
        assert "checkpoints: 1" in frame
        assert "cache-hit rate: 50%" in frame
        assert "lanes: 2 finished" in frame
        assert "sweep[2]" in frame and "failed" in frame

    def test_eta_only_while_points_remain(self):
        assert eta_seconds(replay_summary(GOLDEN_RECORDS)) is None
        s = replay_summary(GOLDEN_RECORDS[:7])  # sweep[2] still pending
        eta = eta_seconds(s)
        assert eta == pytest.approx(0.069)  # one finished point, one left

    def test_lane_throughput_needs_two_stamped_lanes(self):
        s = replay_summary(GOLDEN_RECORDS)
        rate = lane_throughput(s)
        assert rate == pytest.approx(2800.0 / 0.010, rel=1e-6)
        assert lane_throughput(replay_summary(GOLDEN_RECORDS[:8])) is None

    def test_load_summary_prefers_events_over_journal(self, tmp_path):
        with EventWriter(str(tmp_path / "events.jsonl")) as w:
            for r in GOLDEN_RECORDS:
                w.write(r)
        with open(tmp_path / "runs.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"status": "ok", "label": "old[0]",
                                 "seconds": 1.0, "attempts": 1}) + "\n")
        s = load_summary(str(tmp_path))
        assert s["label"] == "sweep"
        assert s["source"].endswith("events.jsonl")

    def test_load_summary_reads_the_stream_only(self, tmp_path):
        """``runs.jsonl`` is the exactly-once ledger, not a dashboard
        source: with no ``events.jsonl`` the summary is the empty one."""
        with open(tmp_path / "runs.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"status": "ok", "label": "old[0]",
                                 "seconds": 1.0, "attempts": 2}) + "\n")
        s = load_summary(str(tmp_path))
        assert s["source"] is None
        assert s["ok"] == 0 and s["failed"] == 0 and s["points"] == {}
        assert "points: 0 total" in render_dashboard(s, str(tmp_path))

    def test_summary_registry_and_prometheus_exposition(self, tmp_path):
        s = replay_summary(GOLDEN_RECORDS)
        reg = summary_registry(s)
        assert reg.counter("top.points_ok").value == 1
        assert reg.counter("top.retries").value == 1
        assert reg.gauge("top.lanes_done").value == 2
        path = str(tmp_path / "metrics.prom")
        write_prometheus(path, s)
        text = open(path, encoding="utf-8").read()
        assert "repro_top_points_ok 1" in text
        assert "repro_top_points_failed 1" in text
        assert "repro_top_points_cached 1" in text
