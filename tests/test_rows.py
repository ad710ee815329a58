"""Rows: a sweep is farmed a row at a time, stored a point at a time.

Three things are pinned here.  *Identity*: splitting a design point
into map -> estimate changed no key, no value and no record (goldens
were written by the parent commit; ``tests/data/parent_store`` was
rewritten when ``CACHE_VERSION`` went to 3, under new keys and with
the same record bytes, which ``parent_store_digests.json`` holds).
*Once per row*: a fabric is annealed once for all its configurations.
*Rows in the pool*: a row runs in order in one worker with what its
points share still shared, and supervision stays per point.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import threading
import time

import pytest

from repro.flow import selection
from repro.flow.dse import (
    _evaluate_design_point,
    design_combos,
    design_rows,
    explore_design_space,
)
from repro.flow.keying import point_key, point_keys
from repro.flow.pool import WorkStealingDispatcher
from repro.flow.runner import ExperimentRunner
from repro.flow.selection import MappedFabric
from repro.serve.service import (
    QueryEngine,
    core_graph_from_name,
    parse_query,
    topology_from_name,
)
from repro.store import ResultStore
from repro.telemetry.events import EventCollector, install_sink, remove_sink

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_DSE = os.path.join(DATA, "golden_dse_identity.json")
PARENT_STORE = os.path.join(DATA, "parent_store")
PARENT_DIGESTS = os.path.join(DATA, "parent_store_digests.json")
FABRICS = ("mesh-2x2", "ring-4", "star-4", "spidergon-4")
#: The sweep ``tests/data/parent_store`` holds, as the parent wrote it.
STORED = dict(flit_widths=(16, 64), buffer_depths=(4,), seed=5, anneal_iterations=200)


def fabrics(names=FABRICS):
    return [topology_from_name(name) for name in names]


def identity() -> dict:
    """2 core graphs x 4 fabrics x 2 seeds x 6 width/depth combos, as one
    digest (``make golden-dse`` writes it to :data:`GOLDEN_DSE`)."""
    sweeps = [
        explore_design_space(
            core_graph_from_name(graph), fabrics(), flit_widths=(16, 32, 64),
            buffer_depths=(2, 6), seed=seed, anneal_iterations=200,
        )
        for graph in ("multimedia", "telecom")
        for seed in (3, 11)
    ]
    return {"sweep_sha256": hashlib.sha256(repr(sweeps).encode()).hexdigest()}


class TestIdentity:
    def test_store_key_of_one_design_point(self):
        [combo] = design_combos(
            core_graph_from_name("multimedia"), fabrics(["ring-4"]), (32,), (4,),
            seed=7, anneal_iterations=200,
        )
        assert isinstance(combo[1], MappedFabric)
        bare = combo[:1] + (combo[1].fabric,) + combo[2:]
        assert (
            point_key(_evaluate_design_point, combo)
            == point_key(_evaluate_design_point, bare)
            == "3e8861a8a9d3615c48db102eb866daffa71c93c6209644a332840e9a082798de"
        )
        assert _evaluate_design_point(combo) == _evaluate_design_point(bare)

    def test_sweep_digest_is_the_parent_commits(self):
        with open(GOLDEN_DSE) as f:
            assert identity() == json.load(f)

    def test_parent_store_is_all_hits(self, tmp_path):
        root = shutil.copytree(PARENT_STORE, str(tmp_path / "store"))
        graph = core_graph_from_name("multimedia")
        serial = explore_design_space(graph, fabrics(FABRICS[:2]), **STORED)
        for jobs in (1, 2):
            runner = ExperimentRunner(store=ResultStore(root), jobs=jobs)
            assert explore_design_space(
                graph, fabrics(FABRICS[:2]), runner=runner, **STORED
            ) == serial
            assert (runner.cache_hits, runner.cache_misses) == (4, 0)
            assert runner.reports == [] and runner.store.puts == 0
        spec = parse_query(dict(
            core_graph="multimedia", topologies=list(FABRICS[:2]),
            flit_widths=[16, 64], buffer_depths=[4], seed=5, anneal_iterations=200,
        ))
        points, missing = QueryEngine(ResultStore(root)).lookup(spec)
        assert points == serial and missing == []

    def test_records_are_the_parent_commits(self, tmp_path):
        """Every record's payload digest and size, as the parent commit
        stored them (``parent_store_digests.json``'s values were
        extracted from the fixture before it was converted to the
        segment layout; its keys moved with ``CACHE_VERSION`` 3)."""
        with open(PARENT_DIGESTS) as f:
            theirs = json.load(f)
        fresh = ResultStore(str(tmp_path))
        explore_design_space(
            core_graph_from_name("multimedia"), fabrics(FABRICS[:2]),
            runner=ExperimentRunner(store=fresh), **STORED,
        )
        parent = ResultStore(PARENT_STORE)
        assert sorted(fresh.keys()) == sorted(parent.keys()) == sorted(theirs)
        for key, (digest, size) in theirs.items():
            for store in (fresh, parent):
                record = store.record(key)
                assert (record.digest, record.size) == (digest, size)


class TestOncePerRow:
    GRID = dict(flit_widths=(16, 32, 64), buffer_depths=(2, 6), seed=9,
                anneal_iterations=100)

    @pytest.fixture
    def anneals(self, monkeypatch):
        calls = []
        real = selection.anneal_mapping

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(selection, "anneal_mapping", counted)
        return calls

    def test_inline_sweep_anneals_once_per_fabric(self, anneals, tmp_path):
        graph = core_graph_from_name("multimedia")
        bare = explore_design_space(graph, fabrics(), **self.GRID)
        assert len(bare) == 24 and len(anneals) == 4
        runner = ExperimentRunner(store=ResultStore(str(tmp_path)))
        assert explore_design_space(graph, fabrics(), runner=runner, **self.GRID) == bare
        assert len(anneals) == 8 and len(runner.reports) == 24

    def test_row_with_one_point_missing_anneals_once_executes_one(
        self, anneals, tmp_path
    ):
        graph = core_graph_from_name("multimedia")
        [row] = design_rows(graph, fabrics(["ring-4"]), **self.GRID)
        store = ResultStore(str(tmp_path))
        expected = [_evaluate_design_point(combo) for combo in row]
        ExperimentRunner(store=store).map(_evaluate_design_point, row[:5])
        del anneals[:]
        runner = ExperimentRunner(store=store)
        [got] = runner.map_rows(_evaluate_design_point, design_rows(
            graph, fabrics(["ring-4"]), **self.GRID))
        assert got == expected and len(anneals) == 1
        assert len(runner.reports) == 1 and runner.cache_hits == 5

    def test_rows_and_combos_agree(self):
        graph = core_graph_from_name("telecom")
        rows = design_rows(graph, fabrics(), **self.GRID)
        assert [len(row) for row in rows] == [6] * 4
        for row in rows:
            assert len({id(combo[1]) for combo in row}) == 1
        flat = [combo for row in rows for combo in row]
        assert point_keys(_evaluate_design_point, flat) == point_keys(
            _evaluate_design_point, design_combos(graph, fabrics(), **self.GRID)
        )


# -- rows in the pool -----------------------------------------------------


def _probe(point):
    """``(pid, id(shared))``, after the scripted behaviour of ``point``
    = ``(shared, action)``; ``("sigstop", marker)`` stops its own
    process on the first attempt only (the marker file says one
    happened)."""
    shared, action = point
    if action == "raise":
        raise ValueError("scripted failure")
    if action == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    if isinstance(action, tuple) and not os.path.exists(action[1]):
        open(action[1], "w").close()
        os.kill(os.getpid(), signal.SIGSTOP)
    if isinstance(action, float):
        time.sleep(action)
    return os.getpid(), id(shared)


def _rows_of(*actions_per_row):
    """One fresh shared object per row."""
    rows = []
    for actions in actions_per_row:
        shared = {"row": len(rows)}
        rows.append([(shared, action) for action in actions])
    return rows


class TestRowsInThePool:
    def test_a_row_runs_in_one_worker_sharing_its_objects(self):
        rows = _rows_of([None] * 4, [None] * 3, [], [None])
        runner = ExperimentRunner(jobs=2)
        got = runner.map_rows(_probe, rows)
        assert [len(row) for row in got] == [4, 3, 0, 1]
        for row in got:
            assert len(set(row)) <= 1  # one pid, one shared object
        assert got[0][0][0] != os.getpid()
        # jobs=1 shares too -- it is the caller's own object.
        inline = ExperimentRunner().map_rows(_probe, rows)
        assert [set(row) for row in inline] == [
            {(os.getpid(), id(row[0][0]))} if row else set() for row in rows
        ]

    def test_sigkill_mid_row_charges_only_the_point_in_flight(self, tmp_path):
        rows = _rows_of([None, None, "sigkill", None, None], [None, None])
        runner = ExperimentRunner(
            jobs=2, store=ResultStore(str(tmp_path)), on_failure="record"
        )
        got = runner.map_rows(_probe, rows, label="pt")
        [failure] = runner.failures
        assert (failure.label, failure.kind, failure.attempts) == ("pt[2]", "crash", 1)
        assert got[0][2] is None and None not in got[0][:2] + got[0][3:] + got[1]
        assert got[0][3] == got[0][4]  # the rest went back as one row
        assert runner.crash_count == 1 and runner.retry_count == 0
        from repro.flow.runner import read_journal

        journal = read_journal(runner.journal_path)
        assert sorted(r["attempts"] for r in journal) == [1] * 7
        assert [r["status"] for r in journal].count("ok") == 6

    def test_stall_mid_row_charges_only_the_point_in_flight(self, tmp_path):
        # One worker runs the only row's points in order; the third
        # stops its own process on its first attempt.
        rows = _rows_of([0.2, 0.2, ("sigstop", str(tmp_path / "stopped")), 0.2])
        runner = ExperimentRunner(retries=1, backoff=0.01)
        disp = WorkStealingDispatcher(
            runner, workers=1, heartbeat=0.05, liveness=0.5,
        )
        collector = install_sink(EventCollector())
        try:
            [got] = disp.map_rows(_probe, rows, label="pt")
        finally:
            remove_sink(collector)
        assert None not in got and got[0] == got[1] and got[2][0] != got[0][0]
        assert (disp.stalls, runner.stall_count, runner.retry_count) == (1, 1, 1)
        assert not runner.failures
        ends = {r["label"]: r["attempts"] for r in collector.records
                if r["event"] == "point_end"}
        assert ends == {"pt[0]": 1, "pt[1]": 1, "pt[2]": 2, "pt[3]": 1}
        # The dispatch order: (point, attempt) of every point_start.
        order = [(int(r["label"][3:-1]), r["attempt"]) for r in collector.records
                 if r["event"] == "point_start"]
        assert order[:3] == [(0, 1), (1, 1), (2, 1)]
        assert sorted(order[3:]) == [(2, 2), (3, 1)]
        assert disp.dispatched == 5

    def test_a_raising_point_fails_alone_and_the_row_continues(self):
        rows = _rows_of([None, "raise", None], [None])
        runner = ExperimentRunner(jobs=2, on_failure="record")
        got = runner.map_rows(_probe, rows, label="pt")
        [failure] = runner.failures
        assert (failure.label, failure.kind) == ("pt[1]", "error")
        assert got[0][1] is None and got[0][0] == got[0][2]  # same worker went on
        with pytest.raises(ValueError, match="scripted failure"):
            ExperimentRunner(jobs=2).map_rows(_probe, rows)

    def test_an_unpicklable_point_in_a_row_is_charged_alone(self):
        rows = _rows_of([None, None, None], [None])
        rows[0][1] = (rows[0][1][0], threading.Lock())
        runner = ExperimentRunner(jobs=2, on_failure="record")
        got = runner.map_rows(_probe, rows, label="pt")
        [failure] = runner.failures
        assert (failure.label, failure.kind) == ("pt[1]", "error")
        assert "does not pickle" in failure.message
        assert got[0][1] is None and None not in (got[0][0], got[0][2], got[1][0])

    def test_timeout_is_per_point_not_per_row(self):
        # Four 0.3 s points under a 0.8 s limit: the row takes 1.2 s and
        # nothing times out; then one 5 s point does, alone.
        runner = ExperimentRunner(jobs=2, timeout=0.8, on_failure="record")
        [got] = runner.map_rows(_probe, _rows_of([0.3] * 4))
        assert None not in got and runner.timeout_count == 0
        t0 = time.monotonic()
        [got] = runner.map_rows(_probe, _rows_of([None, 5.0, None]), label="pt")
        assert time.monotonic() - t0 < 4.0
        [failure] = runner.failures
        assert (failure.label, failure.kind, failure.attempts) == ("pt[1]", "timeout", 1)
        assert got[1] is None and None not in (got[0], got[2])

    def test_map_is_map_rows_over_one_point_rows(self, tmp_path):
        points = list(range(7))

        def run(tag, call):
            runner = ExperimentRunner(store=ResultStore(str(tmp_path / tag)))
            disp = WorkStealingDispatcher(runner, workers=1)
            collector = install_sink(EventCollector())
            try:
                results = call(disp)
            finally:
                remove_sink(collector)
            events = [
                (r["event"], r.get("label"), r.get("key"), r.get("attempt"),
                 r.get("attempts"), r.get("status"))
                for r in collector.records
            ]
            keys = [m.key for m in runner.last_manifests]
            cached = [m.cached for m in runner.last_manifests]
            return results, keys, cached, events, disp.dispatched

        flat = run("flat", lambda d: d.map(_square, points))
        rows = run("rows", lambda d: [
            r for row in d.map_rows(_square, [[p] for p in points]) for r in row])
        assert flat == rows
        assert flat[0] == [p * p for p in points] and flat[4] == 7
        # ... and a real partition changes nothing but who ran what.
        split = run("split", lambda d: [
            r for row in d.map_rows(_square, [points[:3], points[3:]]) for r in row])
        assert split == flat


def _square(x):
    return x * x
