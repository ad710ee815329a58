"""Publish where the point is computed.

A pool worker appends the store record of the point it ran
(``repro.store.cas.write_record``, the file half of a publish) and the
supervisor only indexes and accounts the header and location it is
sent (``ResultStore.account``).  Pinned here: a failed publish is
charged to its point the same way by both schedulers; a worker killed
between its write and its reply leaves a record its re-attempt finds
identical; pooled and inline runs leave byte-identical stores, and the
supervisor of a pooled run writes no record at all.
"""

from __future__ import annotations

import builtins
import errno
import os

import pytest

from repro.faults import CampaignSpec, FaultCampaign, FaultWindow
from repro.flow.dse import explore_design_space
from repro.flow.keying import point_key
from repro.flow.runner import ExperimentRunner
from repro.network.experiments import TopologyNocBuilder, load_sweep
from repro.network.noc import NocBuildConfig
from repro.network.topology import mesh
from repro.serve.service import (
    QueryEngine,
    QuerySpec,
    core_graph_from_name,
    topology_from_name,
)
from repro.store import ResultStore, cas
from repro.telemetry.registry import MetricsRegistry

POINTS = list(range(6))

#: A module-level lambda: ``pickle`` looks it up by name and fails.
UNPICKLABLE = lambda: None  # noqa: E731


def square(x):
    return {"x": x, "square": x * x}


def unpicklable_at_two(x):
    return UNPICKLABLE if x == 2 else square(x)


def digests(store: ResultStore) -> dict:
    return {key: store.record(key).digest for key in store.keys()}


@pytest.fixture
def parent_writes(monkeypatch):
    """Count the :func:`cas.write_record` calls made in *this* process.
    Workers forked after the patch run the wrapper too, but count in
    their own memory, so what is counted here is the supervisor's."""
    supervisor = os.getpid()
    real = cas.write_record
    calls = []

    def counting(root, key, payload, label=""):
        if os.getpid() == supervisor:
            calls.append(key)
        return real(root, key, payload, label)

    monkeypatch.setattr(cas, "write_record", counting)
    return calls


class TestFailedPublish:
    """A publish that raises is an ``"error"`` attempt of its point --
    retried, then a :class:`PointFailure` naming the exception -- and
    its siblings finish, inline and pooled alike."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("case", ["unwritable-shard", "unpicklable-result"])
    def test_failed_publish_is_charged_to_its_point(self, tmp_path, monkeypatch,
                                                    jobs, case):
        store = ResultStore(tmp_path / "store")
        fn = square if case == "unwritable-shard" else unpicklable_at_two
        keys = [point_key(fn, p) for p in POINTS]
        if case == "unwritable-shard":
            # The shard a record lands in is its writer's segment: the
            # append of point 2's record to it fails as a full disk
            # would (a chmod would not stop a root process); workers
            # forked after the patch inherit it.
            real = cas.ResultStore._append

            def append(handle, frame):
                if keys[2].encode() in frame:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return real(handle, frame)

            monkeypatch.setattr(cas.ResultStore, "_append", append)
        runner = ExperimentRunner(store=store, jobs=jobs, retries=1,
                                  backoff=0.01, on_failure="record")
        results = runner.map(fn, POINTS)

        assert results[2] is None
        assert [r for i, r in enumerate(results) if i != 2] == [
            square(p) for p in POINTS if p != 2
        ]
        (failure,) = runner.failures
        assert (failure.key, failure.kind, failure.attempts) == (keys[2], "error", 2)
        assert runner.retry_count == 1
        name = failure.message.split(":")[0]
        if case == "unwritable-shard":
            assert issubclass(getattr(builtins, name), OSError), failure.message
        else:
            assert name == "PicklingError", failure.message
        assert sorted(store.keys()) == sorted(k for i, k in enumerate(keys) if i != 2)
        assert store.puts == len(POINTS) - 1 and store.conflicts == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_under_raise_the_publish_error_is_reraised_after_the_siblings(
        self, tmp_path, jobs
    ):
        store = ResultStore(tmp_path / "store")
        runner = ExperimentRunner(store=store, jobs=jobs)
        with pytest.raises(Exception, match="Can't pickle"):
            runner.map(unpicklable_at_two, POINTS)
        assert len(store) == len(POINTS) - 1


def exit_after_first_write(marker: str, cut_short: bool):
    """A :func:`cas.write_record` whose first call in a worker (across
    processes: ``marker`` is created once) publishes the record -- or,
    ``cut_short``, appends only the record's first bytes, a torn tail --
    and then kills its own process before the reply."""
    supervisor = os.getpid()
    real = cas.write_record

    def write(root, key, payload, label=""):
        if os.getpid() != supervisor:
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.write(fd, key.encode())
                os.close(fd)
                if cut_short:
                    cas._store_at(root)._append(cas.MAGIC)
                else:
                    real(root, key, payload, label)
                os._exit(9)
        return real(root, key, payload, label)

    return write


class TestWorkerKilledAroundItsWrite:
    @pytest.mark.parametrize("cut_short", [False, True],
                             ids=["after-write", "mid-write"])
    def test_retry_finds_an_identical_record(self, tmp_path, monkeypatch,
                                             cut_short):
        marker = str(tmp_path / "killed-key")
        monkeypatch.setattr(cas, "write_record",
                            exit_after_first_write(marker, cut_short))
        store = ResultStore(tmp_path / "store")
        runner = ExperimentRunner(store=store, jobs=2, retries=1, backoff=0.01)
        results = runner.map(square, POINTS)

        assert results == ExperimentRunner(jobs=1).map(square, POINTS)
        assert runner.crash_count == 1 and runner.retry_count == 1
        assert not runner.failures
        killed = open(marker).read()
        records = segment_records(store.root)
        assert [key for key, _ in records].count(killed) == 1
        assert store.conflicts == 0
        # The record of a worker that died before replying is on disk
        # but was never accounted; its retry found it identical and
        # counts nothing.  A write cut short left only a torn tail, so
        # the retry's publish is new and counted.
        assert store.puts == len(POINTS) - (0 if cut_short else 1)

        keys = [point_key(square, p) for p in POINTS]
        assert len(torn_tails(store.root)) == (1 if cut_short else 0)
        reader = ResultStore(store.root)
        assert sorted(reader.keys()) == sorted(keys)
        assert len(reader) == len(POINTS)
        assert [reader.get(k) for k in keys] == [(True, r) for r in results]
        assert reader.corrupt_records == 0
        assert sorted(reader.gc(max_records=0)) == sorted(keys)
        assert len(reader) == 0
        assert torn_tails(store.root) == []


def segment_records(root: str) -> list:
    """``(key, segment)`` of every complete record in the store's
    segments, duplicates included."""
    found = []
    for path in segments(root):
        fd = os.open(path, os.O_RDONLY)
        try:
            records, _ = cas._scan(fd, 0, os.fstat(fd).st_size)
        finally:
            os.close(fd)
        found.extend((record.key, path) for _, _, record in records)
    return found


def torn_tails(root: str) -> list:
    """The segments whose bytes end inside a record."""
    torn = []
    for path in segments(root):
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            if cas._scan(fd, 0, size)[1] != size:
                torn.append(path)
        finally:
            os.close(fd)
    return torn


def segments(root: str) -> list:
    seg_dir = os.path.join(root, cas.SEGMENTS_DIRNAME)
    return [os.path.join(seg_dir, n) for n in sorted(os.listdir(seg_dir))]


def _campaign_spec() -> CampaignSpec:
    builder = TopologyNocBuilder(
        mesh, (2, 2), n_initiators=2, n_targets=2,
        config=NocBuildConfig(
            ni_txn_timeout=300, ni_txn_retries=1, link_resync_timeout=40,
        ),
    )
    return CampaignSpec(
        builder=builder,
        windows=(FaultWindow("link.*", start=100, duration=300,
                             error_rate=0.05),),
        rate=0.08, warmup_cycles=100, measure_cycles=600, seed=3,
        label="publish-test",
    )


def run_workloads(runner: ExperimentRunner) -> list:
    """A design-space sweep (rows), a replicated load sweep and a
    replicated fault campaign: every kind of point the runner stores."""
    sweep = explore_design_space(
        core_graph_from_name("multimedia"),
        [topology_from_name("mesh-2x2"), topology_from_name("ring-4")],
        flit_widths=(16, 32), buffer_depths=(2,), seed=3,
        anneal_iterations=50, runner=runner,
    )
    loads = load_sweep(
        TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2),
        rates=(0.02, 0.05), seed=3, warmup_cycles=100, measure_cycles=500,
        replicas=2, runner=runner,
    )
    campaign = FaultCampaign([_campaign_spec()], runner=runner, replicas=2).run()
    return [sweep, [p.offered_rate for p in loads], loads, campaign]


#: 4 design points + 2 rates x 2 lanes + 1 campaign.
RECORDS = 4 + 4 + 1


class TestPooledAndInlineStoresAreIdentical:
    @pytest.mark.timeout_guard(240)
    def test_same_keys_same_digests_and_no_supervisor_writes(
        self, tmp_path, parent_writes
    ):
        pooled = ResultStore(tmp_path / "a")
        pooled_results = run_workloads(ExperimentRunner(store=pooled, jobs=2))
        assert parent_writes == []  # the supervisor wrote no record
        inline = ResultStore(tmp_path / "b")
        inline_results = run_workloads(ExperimentRunner(store=inline, jobs=1))
        assert len(parent_writes) == RECORDS  # ... which inline does

        assert pooled_results == inline_results
        assert len(digests(pooled)) == RECORDS
        assert digests(pooled) == digests(inline)
        for store in (pooled, inline):
            assert (store.puts, store.conflicts) == (RECORDS, 0)

        rerun = ExperimentRunner(store=pooled, jobs=1)
        assert run_workloads(rerun) == inline_results
        assert (pooled.puts, pooled.conflicts) == (RECORDS, 0)
        assert rerun.cache_hits == RECORDS and rerun.cache_misses == 0

    def test_every_counter_counts_one_put_per_computed_point(
        self, tmp_path, monkeypatch
    ):
        metrics = MetricsRegistry()
        store = ResultStore(tmp_path / "store", metrics=metrics)
        accounted = []  # one entry per ResultStore.account call
        account = ResultStore.account

        def counting(self, record, *args, **kwargs):
            accounted.append(record.key)
            return account(self, record, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "account", counting)
        engine = QueryEngine(store, workers=2, metrics=metrics)
        try:
            result = engine.query(QuerySpec(
                topologies=("mesh-2x2", "ring-4"), flit_widths=(16, 32),
                buffer_depths=(2, 4), anneal_iterations=50,
            ))
        finally:
            engine.close()
        computed = metrics.counter("serve.points_computed").value
        assert result.store_misses == computed == 8
        assert store.puts == len(accounted) == len(store) == computed
        prom = metrics.to_prometheus(prefix="repro")
        assert f"repro_store_puts {computed}" in prom.splitlines()
        assert store.conflicts == 0
