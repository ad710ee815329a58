"""What a cached point costs in system calls, counted rather than timed.

A warm map reads its records without looking at the directory, checks
each segment's liveness once, and writes each event line with one
``write(2)``; a cold probe catches the index up once.
"""

import os
from collections import Counter

import pytest

from repro.flow.keying import point_keys
from repro.flow.runner import ExperimentRunner, MapSession
from repro.store import ResultStore, cas
from repro.telemetry.events import EventWriter

N_POINTS = 64


def _square(x):
    return x * x


class _CountingOs:
    """``os`` for :mod:`repro.store.cas`, counting what it lists and
    stats."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()

    def __getattr__(self, name):
        return getattr(os, name)

    def listdir(self, path):
        self.calls["listdir"] += 1
        return os.listdir(path)

    def fstat(self, fd):
        self.calls["fstat"] += 1
        return os.fstat(fd)


@pytest.fixture()
def counted(monkeypatch):
    counting = _CountingOs()
    monkeypatch.setattr(cas, "os", counting)
    return counting.calls


def _segments(store: ResultStore) -> int:
    return len(os.listdir(os.path.join(store.root, cas.SEGMENTS_DIRNAME)))


def test_a_warm_map_lists_nothing_and_stats_each_segment_once(tmp_path, counted):
    store = ResultStore(tmp_path / "store")
    points = list(range(N_POINTS))
    ExperimentRunner(store=store).map(_square, points)
    warm = ExperimentRunner(store=store, jobs=2)
    counted.clear()
    assert warm.map(_square, points) == [x * x for x in points]
    assert warm.cache_hits == N_POINTS
    assert counted["listdir"] == 0
    assert counted["fstat"] <= _segments(store)


def test_a_warm_map_through_a_fresh_handle_lists_nothing(tmp_path, counted):
    points = list(range(N_POINTS))
    ExperimentRunner(store=ResultStore(tmp_path / "store")).map(_square, points)
    store = ResultStore(tmp_path / "store")
    counted.clear()
    ExperimentRunner(store=store).map(_square, points)
    assert store.hits == N_POINTS
    assert counted["listdir"] == 0
    assert counted["fstat"] <= _segments(store)


def test_a_cold_probe_catches_up_once(tmp_path, counted):
    store = ResultStore(tmp_path / "store")
    ExperimentRunner(store=store).map(_square, [-1])
    counted.clear()
    session = MapSession(ExperimentRunner(store=store), _square, range(N_POINTS))
    assert len(session.pending) == N_POINTS
    assert counted["listdir"] <= 1
    counted.clear()
    assert store.get_many(point_keys(_square, range(N_POINTS))) == (
        [(False, None)] * N_POINTS)
    assert counted["listdir"] <= 1


def test_records_a_pool_published_are_hits_with_no_listdir(tmp_path, counted):
    """The supervisor indexes what its workers report, so reading those
    records back never catches up from the directory."""
    store = ResultStore(tmp_path / "store")
    points = list(range(N_POINTS))
    with ExperimentRunner(store=store, jobs=2) as runner:
        runner.map(_square, points)
    counted.clear()
    assert store.get_many(point_keys(_square, points)) == (
        [(True, x * x) for x in points])
    assert counted["listdir"] == 0


def test_an_event_is_one_write(tmp_path, monkeypatch):
    writer = EventWriter(str(tmp_path / "events.jsonl"))
    fd = writer._fh.fileno()
    writes = []
    real = os.write

    def write(to, data):
        if to == fd:
            writes.append(bytes(data))
        return real(to, data)

    monkeypatch.setattr(os, "write", write)
    records = [{"event": "point_end", "n": i, "label": "p[%d]" % i}
               for i in range(5)]
    for record in records:
        writer.write(record)
    writer.close()
    assert len(writes) == len(records)
    assert all(w.endswith(b"\n") and w.count(b"\n") == 1 for w in writes)
    assert b"".join(writes) == (tmp_path / "events.jsonl").read_bytes()
