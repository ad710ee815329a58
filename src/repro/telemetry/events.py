"""Cross-process run events: the fleet observability stream.

``repro.telemetry`` (PR 3) sees *inside one process*.  But the
experiment runner farms points out to worker processes, and a
replicated campaign spends minutes inside ``BatchSimulator`` lanes --
from the outside, a running campaign is a black box until it returns.
This module is the shared event stream that fixes that:

* a **versioned, append-only JSONL schema**
  (``repro.telemetry.events/v1``): one JSON object per line, each
  carrying ``schema``/``seq``/``pid``/``t``/``event`` plus
  event-specific fields.  Append-only means a SIGKILLed writer leaves
  at most one torn final line, which readers skip;
* a process-local **sink stack** (`install_sink` / `emit`): library
  code calls :func:`emit` unconditionally -- with no sink installed it
  is a no-op costing one global load, so instrumented code paths stay
  free when nobody is watching;
* an :class:`EventWriter` (file sink) and :class:`EventCollector`
  (in-memory sink used by pooled workers, whose records travel back to
  the parent over the existing result pipe and are merged into the
  parent's ``events.jsonl``);
* a torn-line tolerant :func:`read_events`, a :func:`validate_events`
  checker in the style of ``validate_metrics``, a
  :func:`replay_summary` reducer that reconstructs campaign state from
  the stream alone, and :func:`events_to_chrome_trace` so a whole
  campaign renders in Perfetto next to the flit lifecycles of
  ``repro.telemetry.lifecycle``.

Event vocabulary (the spans of a campaign):

==============  ====================================================
``run_start``   a runner ``map()`` began: ``label``, ``points``,
                ``pending``, ``cached``, ``jobs``
``point_start`` one point dispatched (an attempt began): ``label``,
                ``key``, ``attempt``
``retry``       an attempt failed and will be retried: ``label``,
                ``key``, ``attempt``, ``kind``, ``message``
``steal``       a work-stealing dispatcher worker ran dry and took a
                point from another worker's shard: ``label``, ``key``,
                ``thief``, ``victim`` (worker slots)
``point_end``   a point finished: ``label``, ``key``, ``status``
                (``ok``/``failed``), ``seconds``, ``attempts``,
                ``cached`` (True for cache hits, which skip
                ``point_start``); a failure adds ``kind``,
                ``message`` and the repro bundle ``point`` / ``fn``
                (``stable_repr`` of the inputs).  The one on-disk
                record of a point's outcome.
``lane_batch``  one replica lane of a campaign finished (a one-lane
                campaign emits lane 0): ``lane``, ``replicas``,
                ``metrics`` (the lane's row), ``digest``
``worker_stall``  a dispatcher worker went silent past its liveness
                deadline (wedged, not dead) and was killed: ``label``,
                ``key``, ``slot``, ``silent_for`` (seconds)
``poisoned``    a point killed enough consecutive workers to be
                quarantined instead of retried: ``label``, ``key``,
                ``worker_kills``
``circuit_open``  the serve farm circuit breaker opened after
                consecutive dispatch failures: ``failures``,
                ``cooldown``
``circuit_close``  the breaker closed again after a successful
                half-open probe: ``probes``
``run_end``     the ``map()`` returned: ``ok``, ``failed``,
                ``cached``, ``retries``
==============  ====================================================
"""

import io
import json
import os
import time
from typing import Dict, IO, Iterable, List, Optional, Sequence, Tuple

from repro.telemetry.registry import TelemetryError

EVENTS_SCHEMA = "repro.telemetry.events/v1"

EVENT_TYPES = (
    "run_start",
    "point_start",
    "retry",
    "steal",
    "point_end",
    "lane_batch",
    "worker_stall",
    "poisoned",
    "circuit_open",
    "circuit_close",
    "run_end",
)

#: default stream file name, in the store root or a job directory
EVENTS_BASENAME = "events.jsonl"

#: ``json.dumps(record, sort_keys=True)``, with one encoder for every line.
_ENCODE = json.JSONEncoder(sort_keys=True).encode

# The Perfetto process id for the campaign plane.  The flit lifecycle
# exporter owns pid 1 (``lifecycle.TRACE_PID``); campaigns render as a
# second process so both traces can be concatenated into one view.
CAMPAIGN_TRACE_PID = 2

# ---------------------------------------------------------------------------
# sinks


class EventSink:
    """Interface: anything with ``write(record) -> None``."""

    def write(self, record: Dict[str, object]) -> None:  # pragma: no cover
        raise NotImplementedError


class EventCollector(EventSink):
    """In-memory sink.  Workers install one and ship ``records`` back
    to the parent over the result pipe."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []

    def write(self, record: Dict[str, object]) -> None:
        self.records.append(record)


class EventWriter(EventSink):
    """Append-only JSONL file sink.

    Every record is one line, written with one ``write(2)`` per record,
    nothing buffered: the line is in the kernel when :meth:`write`
    returns, so a crash loses at most the line being written (readers
    tolerate the torn tail).  Opening a file whose last line a killed
    writer left without its newline first ends that line, so the torn
    text stays one skipped line and the first record written here
    stands alone.  Records passed through :meth:`write` verbatim (e.g.
    merged worker records) keep their original ``pid``/``seq``/``t``.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh: Optional[IO[bytes]] = open(self.path, "ab", buffering=0)
        if self._fh.tell():
            with open(self.path, "rb") as tail:
                tail.seek(-1, os.SEEK_END)
                if tail.read(1) != b"\n":
                    self._put(b"\n")

    def _put(self, data: bytes) -> None:
        fd = self._fh.fileno()
        while data:  # one write(2), unless the kernel takes less
            data = data[os.write(fd, data):]

    def write(self, record: Dict[str, object]) -> None:
        if self._fh is None:
            raise TelemetryError("EventWriter is closed: %s" % self.path)
        self._put((_ENCODE(record) + "\n").encode("utf-8"))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def abandon(self) -> None:
        """Let go of the file in a forked copy: point its descriptor at
        ``/dev/null``.  Deliberately not :meth:`close` -- the file
        object may have been another parent thread's mid-write at the
        moment of the fork, and that line is the parent's to write."""
        if self._fh is not None:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, self._fh.fileno())
            os.close(null)

    def __enter__(self) -> "EventWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# Process-local sink stack.  ``emit`` writes to the top entry only.  A
# forked pool worker starts by dropping the writers (and their file
# descriptors) it inherited from the parent: drop_inherited_sinks().
_SINKS: List[EventSink] = []
_SEQ = [0]


def install_sink(sink: EventSink) -> EventSink:
    """Push ``sink``; subsequent :func:`emit` calls go to it.  Returns
    the sink (handy for ``install_sink(EventCollector())``)."""
    _SINKS.append(sink)
    return sink


def remove_sink(sink: EventSink) -> None:
    """Pop ``sink`` from the stack (wherever it sits); no-op if absent."""
    try:
        _SINKS.remove(sink)
    except ValueError:
        pass


def drop_inherited_sinks() -> None:
    """In a forked worker: let go of this process's copies of the file
    sinks the parent had open at fork time and empty the stack, so a
    worker that outlives the call holds no descriptor on a per-job
    ``events.jsonl``."""
    for sink in _SINKS:
        if isinstance(sink, EventWriter):
            sink.abandon()
    _SINKS.clear()


def current_sink() -> Optional[EventSink]:
    return _SINKS[-1] if _SINKS else None


def make_record(event: str, **fields: object) -> Dict[str, object]:
    """Build (and sequence) a schema-stamped record without writing it."""
    _SEQ[0] += 1
    record: Dict[str, object] = {
        "schema": EVENTS_SCHEMA,
        "seq": _SEQ[0],
        "pid": os.getpid(),
        "t": time.time(),
        "event": event,
    }
    record.update(fields)
    return record


def emit(event: str, **fields: object) -> Optional[Dict[str, object]]:
    """Emit one event to the current sink; no-op when none installed."""
    if not _SINKS:
        return None
    record = make_record(event, **fields)
    _SINKS[-1].write(record)
    return record


def forward(records: Iterable[Dict[str, object]]) -> int:
    """Write pre-built records (e.g. a worker's collected stream) to
    the current sink verbatim.  Returns the count written."""
    sink = current_sink()
    n = 0
    if sink is None:
        return n
    for record in records:
        sink.write(record)
        n += 1
    return n


# ---------------------------------------------------------------------------
# reading + validation


def read_events(path: str) -> List[Dict[str, object]]:
    """Parse an ``events.jsonl``; torn or corrupt lines are skipped
    (the stream is append-only, so only the final line can be torn by
    a crash -- but we tolerate damage anywhere)."""
    records: List[Dict[str, object]] = []
    if not os.path.exists(path):
        return records
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict):
                records.append(obj)
    return records


def validate_events(records: Sequence[Dict[str, object]]) -> None:
    """Raise :class:`TelemetryError` (with an itemized list) unless
    every record conforms to ``repro.telemetry.events/v1``.

    Checks: schema stamp, known event type, integer ``seq``/``pid``,
    numeric timestamp, and per-``pid`` sequence monotonicity (a ``seq``
    may restart at a lower value only when a new writer process reused
    a pid, which restarts numbering from 1).
    """
    errors: List[str] = []
    last_seq: Dict[int, int] = {}
    for i, rec in enumerate(records):
        where = "record %d" % i
        if not isinstance(rec, dict):
            errors.append("%s: not an object" % where)
            continue
        if rec.get("schema") != EVENTS_SCHEMA:
            errors.append(
                "%s: schema %r != %r" % (where, rec.get("schema"), EVENTS_SCHEMA)
            )
        event = rec.get("event")
        if event not in EVENT_TYPES:
            errors.append("%s: unknown event %r" % (where, event))
        seq = rec.get("seq")
        pid = rec.get("pid")
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
            errors.append("%s: seq %r is not a positive int" % (where, seq))
        if not isinstance(pid, int) or isinstance(pid, bool) or pid < 1:
            errors.append("%s: pid %r is not a positive int" % (where, pid))
        if not isinstance(rec.get("t"), (int, float)) or isinstance(
            rec.get("t"), bool
        ):
            errors.append("%s: t %r is not a number" % (where, rec.get("t")))
        if isinstance(seq, int) and isinstance(pid, int):
            prev = last_seq.get(pid)
            if prev is not None and seq <= prev and seq != 1:
                errors.append(
                    "%s: pid %d seq went %d -> %d" % (where, pid, prev, seq)
                )
            last_seq[pid] = seq
    if errors:
        raise TelemetryError(
            "invalid event stream:\n  " + "\n  ".join(errors)
        )


# ---------------------------------------------------------------------------
# replay


def replay_summary(records: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Reconstruct campaign state from the stream alone.

    This is the reducer behind ``python -m repro top`` and the
    re-run replay check: after a run is killed and run again on the
    same cache, the merged stream must replay to the same per-point
    statuses, retry counts, per-lane metrics and digests as the final
    ``CampaignResult``.  Duplicate ``lane_batch`` records for one lane
    (a point the runner retried after its lanes had already streamed)
    keep the *last* occurrence -- re-runs are bit-identical by the
    batching contract, so this is a dedup, not a choice.
    """
    points: Dict[str, Dict[str, object]] = {}
    lanes: Dict[int, Dict[str, object]] = {}
    summary: Dict[str, object] = {
        "label": None,
        "points_expected": None,
        "jobs": None,
        "started": None,
        "finished": None,
        "ok": 0,
        "failed": 0,
        "cached": 0,
        "retries": 0,
        "steals": 0,
        "stalls": 0,
        "poisoned": 0,
        "circuit_opens": 0,
        "circuit": "closed",
    }
    for rec in records:
        event = rec.get("event")
        t = rec.get("t")
        if event == "run_start":
            summary["label"] = rec.get("label")
            summary["points_expected"] = rec.get("points")
            summary["jobs"] = rec.get("jobs")
            if summary["started"] is None:
                summary["started"] = t
        elif event == "point_start":
            label = str(rec.get("label"))
            entry = points.setdefault(
                label, {"status": "running", "retries": 0, "seconds": None}
            )
            entry["status"] = "running"
            entry["started"] = t
        elif event == "retry":
            label = str(rec.get("label"))
            entry = points.setdefault(
                label, {"status": "running", "retries": 0, "seconds": None}
            )
            entry["retries"] = int(entry.get("retries", 0)) + 1
            summary["retries"] = int(summary["retries"]) + 1
        elif event == "point_end":
            label = str(rec.get("label"))
            entry = points.setdefault(
                label, {"status": "running", "retries": 0, "seconds": None}
            )
            cached = bool(rec.get("cached"))
            status = str(rec.get("status", "ok"))
            if not cached and status == "failed" and rec.get("kind") == "poisoned":
                status = "poisoned"
            entry["status"] = "cached" if cached else status
            entry["seconds"] = rec.get("seconds")
            key = "cached" if cached else ("ok" if status == "ok" else "failed")
            summary[key] = int(summary[key]) + 1
        elif event == "steal":
            summary["steals"] = int(summary["steals"]) + 1
        elif event == "worker_stall":
            summary["stalls"] = int(summary["stalls"]) + 1
        elif event == "poisoned":
            summary["poisoned"] = int(summary["poisoned"]) + 1
        elif event == "circuit_open":
            summary["circuit_opens"] = int(summary["circuit_opens"]) + 1
            summary["circuit"] = "open"
        elif event == "circuit_close":
            summary["circuit"] = "closed"
        elif event == "lane_batch":
            lane = int(rec.get("lane", -1))
            lanes[lane] = {
                "metrics": rec.get("metrics") or {},
                "digest": rec.get("digest"),
                "replicas": rec.get("replicas"),
                "t": t,
            }
        elif event == "run_end":
            summary["finished"] = t
    summary["points"] = points
    summary["lanes"] = {k: lanes[k] for k in sorted(lanes)}
    summary["running"] = sorted(
        label for label, e in points.items() if e["status"] == "running"
    )
    summary["digests"] = [lanes[k].get("digest") for k in sorted(lanes)]
    metric_names: List[str] = []
    for k in sorted(lanes):
        for name in (lanes[k].get("metrics") or {}):
            if name not in metric_names:
                metric_names.append(name)
    summary["lane_metrics"] = {
        name: tuple(
            (lanes[k].get("metrics") or {}).get(name) for k in sorted(lanes)
        )
        for name in metric_names
    }
    return summary


# ---------------------------------------------------------------------------
# Chrome-trace export


def events_to_chrome_trace(
    records: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Convert a merged campaign stream to Chrome trace-event dicts.

    Timestamps are wall-clock microseconds relative to the earliest
    record (the flit exporter uses one *cycle* per microsecond; the two
    planes render as separate Perfetto processes, so the units do not
    collide).  Every point label gets its own timeline row; retries are
    instant markers; lane batches render on a shared ``lanes`` row.
    """
    if not records:
        return []
    t0 = min(
        float(r["t"]) for r in records if isinstance(r.get("t"), (int, float))
    )

    def us(t: object) -> int:
        return int(round((float(t) - t0) * 1e6))

    labels = []
    for rec in records:
        label = rec.get("label")
        if rec.get("event") in ("point_start", "retry", "point_end") and label:
            if label not in labels:
                labels.append(label)
    tid_of = {label: i + 2 for i, label in enumerate(labels)}
    RUN_TID, LANES_TID = 0, 1

    out: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": CAMPAIGN_TRACE_PID,
            "tid": 0,
            "args": {"name": "repro campaign"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": CAMPAIGN_TRACE_PID,
            "tid": RUN_TID,
            "args": {"name": "run"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": CAMPAIGN_TRACE_PID,
            "tid": LANES_TID,
            "args": {"name": "lanes"},
        },
    ]
    for label, tid in tid_of.items():
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": CAMPAIGN_TRACE_PID,
                "tid": tid,
                "args": {"name": str(label)},
            }
        )

    open_at: Dict[object, int] = {}
    run_started: Optional[int] = None
    for rec in records:
        event, t = rec.get("event"), rec.get("t")
        if not isinstance(t, (int, float)):
            continue
        ts = us(t)
        if event == "run_start":
            run_started = ts
        elif event == "run_end" and run_started is not None:
            out.append(
                {
                    "name": str(rec.get("label") or "run"),
                    "cat": "run",
                    "ph": "X",
                    "pid": CAMPAIGN_TRACE_PID,
                    "tid": RUN_TID,
                    "ts": run_started,
                    "dur": max(ts - run_started, 1),
                    "args": {
                        "ok": rec.get("ok"),
                        "failed": rec.get("failed"),
                        "cached": rec.get("cached"),
                        "retries": rec.get("retries"),
                    },
                }
            )
            run_started = None
        elif event == "point_start":
            # Keep the first attempt's start: the span covers every
            # attempt, with retry instants rendered inside it.
            open_at.setdefault(rec.get("label"), ts)
        elif event == "point_end":
            label = rec.get("label")
            tid = tid_of.get(label, RUN_TID)
            started = open_at.pop(label, None)
            if started is None:
                seconds = rec.get("seconds") or 0.0
                started = ts - int(round(float(seconds) * 1e6))
            out.append(
                {
                    "name": str(label),
                    "cat": "point",
                    "ph": "X",
                    "pid": CAMPAIGN_TRACE_PID,
                    "tid": tid,
                    "ts": started,
                    "dur": max(ts - started, 1),
                    "args": {
                        "status": rec.get("status"),
                        "cached": bool(rec.get("cached")),
                        "attempts": rec.get("attempts"),
                        "seconds": rec.get("seconds"),
                    },
                }
            )
        elif event == "retry":
            out.append(
                {
                    "name": "retry",
                    "cat": "retry",
                    "ph": "i",
                    "s": "t",
                    "pid": CAMPAIGN_TRACE_PID,
                    "tid": tid_of.get(rec.get("label"), RUN_TID),
                    "ts": ts,
                    "args": {
                        "attempt": rec.get("attempt"),
                        "kind": rec.get("kind"),
                        "message": rec.get("message"),
                    },
                }
            )
        elif event == "lane_batch":
            metrics = rec.get("metrics") or {}
            out.append(
                {
                    "name": "lane %s" % rec.get("lane"),
                    "cat": "lane",
                    "ph": "i",
                    "s": "t",
                    "pid": CAMPAIGN_TRACE_PID,
                    "tid": LANES_TID,
                    "ts": ts,
                    "args": {
                        "lane": rec.get("lane"),
                        "cycles_run": metrics.get("cycles_run"),
                        "completed": metrics.get("completed"),
                        "digest": rec.get("digest"),
                    },
                }
            )
    return out


def write_events_chrome_trace(
    stream: IO[str],
    records: Sequence[Dict[str, object]],
    metadata: Optional[Dict[str, object]] = None,
) -> int:
    """Serialize a campaign stream as a Chrome trace JSON document
    (same envelope as ``lifecycle.write_chrome_trace``).  Returns the
    number of trace events written."""
    trace = events_to_chrome_trace(records)
    doc = {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.telemetry.events",
            "schema": EVENTS_SCHEMA,
            "time_unit": "1 us = 1 us wall clock",
        },
    }
    if metadata:
        doc["otherData"].update(metadata)
    json.dump(doc, stream, indent=1, sort_keys=True)
    return len(trace)


def events_chrome_trace_json(
    records: Sequence[Dict[str, object]],
    metadata: Optional[Dict[str, object]] = None,
) -> str:
    buf = io.StringIO()
    write_events_chrome_trace(buf, records, metadata)
    return buf.getvalue()
